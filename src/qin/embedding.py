"""Item representation: frozen pretrained store concat trainable id table.

Every item vector is ``concat(store_row, id_row)``: the frozen part stands
in for pretrained content embeddings, the id part is learned. Padded
sequence slots resolve to zero vectors and a zero mask entry.

Embedding file layout ("QINEMB1"): 7 magic bytes, count (u32 LE),
dim (u32 LE), then count x dim float32 little-endian values row-major.
Values are widened to float64 on load; save/load round trips bit-exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .config import HyperParams
from .errors import BadMagicError, ConfigError, DataError, ShapeError, TruncatedFileError
from .linalg import FLOAT, segment_sum
from .params import Gradients

EMB_MAGIC = b"QINEMB1"


@dataclass
class EmbeddingStore:
    """Frozen per-item float matrix; receives no gradient ever."""

    data: np.ndarray  # (count, dim) float64, widened from the f32 file payload

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass
class Sample:
    target_id: int
    seq_ids: list[int]
    label: int

    @property
    def seq_len(self) -> int:
        return len(self.seq_ids)


@dataclass
class Batch:
    """Padded id matrix plus left-aligned {0,1} mask; labels as float64."""

    target_ids: np.ndarray  # (n,) int64
    seq_ids: np.ndarray     # (n, s) int64, zero-padded
    mask: np.ndarray        # (n, s) float64
    labels: np.ndarray      # (n,) float64

    @property
    def size(self) -> int:
        return self.target_ids.shape[0]


def save_embeddings(data: np.ndarray, path: str) -> None:
    data = np.asarray(data)
    with atomic_write(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<II", data.shape[0], data.shape[1]))
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def load_embeddings(path: str) -> EmbeddingStore:
    with open(path, "rb") as fh:
        magic = fh.read(len(EMB_MAGIC))
        if magic != EMB_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {EMB_MAGIC!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise TruncatedFileError(f"{path}: embedding header truncated")
        count, dim = struct.unpack("<II", header)
        raw = fh.read(count * dim * 4)
        if len(raw) != count * dim * 4:
            raise TruncatedFileError(
                f"{path}: embedding payload truncated (wanted {count * dim * 4} bytes, "
                f"got {len(raw)})")
    data = np.frombuffer(raw, dtype="<f4").astype(FLOAT).reshape(count, dim)
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: embedding store contains non-finite values")
    return EmbeddingStore(data=data)


def check_store_dims(store: EmbeddingStore, hp: HyperParams) -> None:
    """The frozen dim plus the trainable id dim must add up to d_t."""
    if store.dim != hp.d_frozen:
        raise ConfigError(
            f"embedding store dim {store.dim} does not match configured frozen dim "
            f"{hp.d_frozen} (d_t={hp.d_t} = frozen + trainable id dims)")


def _check_ids(ids: np.ndarray, count: int, what: str) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= count):
        bad = ids[(ids < 0) | (ids >= count)][0]
        raise DataError(f"{what} id {int(bad)} out of range [0, {count})")


def lookup_target(store: EmbeddingStore, id_table: np.ndarray, target_ids: np.ndarray) -> np.ndarray:
    """Target item vectors, (n, d_t) = concat(frozen row, trainable row)."""
    target_ids = np.asarray(target_ids, dtype=np.int64)
    _check_ids(target_ids, store.count, "target")
    _check_ids(target_ids, id_table.shape[0], "target")
    return np.concatenate([store.data[target_ids], id_table[target_ids]], axis=1)


def item_table(store: EmbeddingStore, id_table: np.ndarray, seq_ids: np.ndarray) -> np.ndarray:
    """Every item vector, (vocab, d_t), for attention to index by seq_ids.

    The table is built whole once per step instead of one row per
    sequence slot. That adds no new cost class: a training step already
    touches every vocab row through the dense id-table gradient and Adam.
    """
    if store.count != id_table.shape[0]:
        raise ShapeError(f"embedding store has {store.count} items, id table {id_table.shape[0]}")
    _check_ids(np.asarray(seq_ids), store.count, "sequence")
    return np.concatenate([store.data, id_table], axis=1)


def lookup_sequence(store: EmbeddingStore, id_table: np.ndarray,
                    seq_ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Behavior sequence vectors, (n, s, d_b); padded slots are zero vectors."""
    seq_ids = np.asarray(seq_ids, dtype=np.int64)
    _check_ids(seq_ids, store.count, "sequence")
    _check_ids(seq_ids, id_table.shape[0], "sequence")
    x_b = np.concatenate([store.data[seq_ids], id_table[seq_ids]], axis=2)
    return x_b * mask[:, :, None]


def embedding_grad_accumulate(grads: Gradients, d_frozen: int,
                              target_ids: np.ndarray, d_x_t: np.ndarray,
                              seq_ids: np.ndarray, mask: np.ndarray,
                              d_x_b: np.ndarray) -> None:
    """Sum upstream gradients into the id-table gradient rows.

    d_x_b holds one upstream row per entry of seq_ids: per sequence slot,
    (n, s, d), or per item, (vocab, d) under ids 0..vocab-1. Rows whose
    mask is 0 are padding and are skipped. The frozen store part (first
    d_frozen coordinates) is dropped: frozen rows receive no gradient.
    Target and sequence rows go through one ordered segment sum, so
    repeated ids accumulate in a fixed order.
    """
    live = np.asarray(mask) > 0
    ids = np.concatenate([np.asarray(target_ids, dtype=np.int64),
                          np.asarray(seq_ids, dtype=np.int64)[live]])
    rows = np.concatenate([d_x_t[:, d_frozen:], d_x_b[live][:, d_frozen:]])
    grads.id_embedding += segment_sum(ids, grads.id_embedding.shape[0], (rows, None))
