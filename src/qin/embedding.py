"""Item representation: frozen pretrained store concat trainable id table.

Every item vector is ``concat(store_row, id_row)``: the frozen part stands
in for pretrained content embeddings, the id part is learned. Padded
sequence slots resolve to zero vectors and a zero mask entry.

Embedding file layout ("QINEMB1"): 7 magic bytes, count (u32 LE),
dim (u32 LE), then count x dim float32 little-endian values row-major.
Values are widened to float64 on load; save/load round trips bit-exactly.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .errors import BadMagicError, DataError, ShapeError, TruncatedFileError
from .linalg import FLOAT, segment_sum
from .params import ModelParams

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
    """Read a QINEMB1 file. Every malformed file raises a QinError.

    The declared payload is checked against the file size before it is
    read, so a corrupt count or dim can neither allocate beyond the file
    nor leave bytes unread. A NaN or inf payload raises DataError, and the
    invalid-value warning a signalling NaN sets off when widened is muted.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(EMB_MAGIC))
        if magic != EMB_MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {EMB_MAGIC!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise TruncatedFileError(f"{path}: embedding header truncated")
        count, dim = struct.unpack("<II", header)
        n_bytes = count * dim * 4
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if n_bytes > left:
            raise TruncatedFileError(f"{path}: embedding payload truncated "
                                     f"({count} x {dim} needs {n_bytes} bytes, {left} remain)")
        if n_bytes < left:
            raise DataError(f"{path}: {left - n_bytes} surplus bytes after the "
                            f"{n_bytes}-byte embedding payload")
        raw = fh.read(n_bytes)
        if len(raw) != n_bytes:
            raise TruncatedFileError(f"{path}: embedding payload ended after {len(raw)} "
                                     f"of {n_bytes} bytes")
    with np.errstate(invalid="ignore"):   # a signalling NaN warns in the cast
        data = np.frombuffer(raw, dtype="<f4").astype(FLOAT).reshape(count, dim)
    if not np.all(np.isfinite(data)):
        raise DataError(f"{path}: embedding store contains non-finite values")
    return EmbeddingStore(data=data)


def _check_ids(ids: np.ndarray, count: int, what: str) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= count):
        bad = ids[(ids < 0) | (ids >= count)][0]
        raise DataError(f"{what} id {int(bad)} out of range [0, {count})")


def lookup_target(store: EmbeddingStore, id_table: np.ndarray, target_ids: np.ndarray) -> np.ndarray:
    """Target item vectors, (n, d_t) = concat(frozen row, trainable row).

    Ids are checked against the store only: item_table, which the model
    calls first, checks that the store and the id table have the same rows.
    """
    target_ids = np.asarray(target_ids, dtype=np.int64)
    _check_ids(target_ids, store.count, "target")
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


def embedding_grad_accumulate(grads: ModelParams, d_frozen: int, target_ids: np.ndarray,
                              d_x_t: np.ndarray, d_items: np.ndarray) -> None:
    """Add the id-table gradient: target rows, then per-item rows.

    d_x_t (n, d_t) is the upstream gradient of each target vector; its
    frozen store part (first d_frozen coordinates) is dropped. d_items
    (vocab, d_t - d_frozen) is the pooling gradient already summed per
    item. The target rows go through one ordered segment sum, so repeated
    ids accumulate in a fixed order, and each item's row is added last.
    """
    vocab = grads.id_embedding.shape[0]
    grads.id_embedding += segment_sum(target_ids, vocab, (d_x_t[:, d_frozen:], None)) + d_items
