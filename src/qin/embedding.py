"""Item representation: frozen pretrained store concat trainable id table.

Every item vector is ``concat(store_row, id_row)``: the frozen part stands
in for pretrained content embeddings, the id part is learned. This module
alone knows that layout. lookup_items hands the model each batch's target
rows and behavior rows whole; embedding_grad_accumulate takes their
gradients back, drops the store columns and sums the rest into the id
table, skipping the history slots that attention gave no weight.

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


@dataclass
class Batch:
    """Padded id matrix plus left-aligned {0,1} mask; mask and labels as float32.

    {0, 1} is exact in float32, and the float64 paths widen it exactly.
    """

    target_ids: np.ndarray  # (n,) int64
    seq_ids: np.ndarray     # (n, s) int64, zero-padded
    mask: np.ndarray        # (n, s) float32
    labels: np.ndarray      # (n,) float32

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


def lookup_items(store: EmbeddingStore, id_table: np.ndarray, batch: Batch):
    """The batch's item vectors: x_t (n, d_t) per target, x_b (n, s, d_t) per history slot.

    Both are taken from one table of every item vector, built once per
    call; taking rows from it beats concatenating per-slot rows. That adds
    no new cost class: a training step already touches every vocab row
    through the dense id-table gradient and Adam.
    """
    if store.count != id_table.shape[0]:
        raise ShapeError(f"embedding store has {store.count} items, id table {id_table.shape[0]}")
    _check_ids(batch.target_ids, store.count, "target")
    _check_ids(batch.seq_ids, store.count, "sequence")
    table = np.concatenate([store.data, id_table], axis=1)
    return table.take(batch.target_ids, axis=0), table.take(batch.seq_ids, axis=0)


def _live_slots(d_x_b: list) -> np.ndarray | None:
    """Flat indices of the slot entries with a nonzero weight in some term of d_x_b.

    None when more than half of the entries are live, where the dense sum
    is as fast or faster.
    """
    live = np.logical_or.reduce([weights != 0 for _, weights in d_x_b])
    # embedding_grad_accumulate summing the live entries only, against the
    # dense sum, per call (float32, one BLAS thread, 2-core VM; training
    # calls with weights zeroed at random), at 0.25 / 0.40 / 0.50 / 0.60
    # of the entries live and with all live:
    #   desk 256 x 32 slots, 10 id columns:    1.53 / 1.25 / 0.99-1.16 / 0.71 / 0.49x
    #   ragged 256 x 64 slots, 10 id columns:  1.88 / 1.43 / 1.16 / 1.01 / 0.41x
    #   wide 1 024 x 4 slots, 58 id columns:   1.76 / 1.48 / 1.45 / 0.99 / 0.97x
    if 2 * np.count_nonzero(live) > live.size:
        return None
    return np.flatnonzero(live)


def embedding_grad_accumulate(grads: ModelParams, batch: Batch, d_x_t: np.ndarray,
                              d_x_b: list) -> None:
    """Add the id-table gradient of lookup_items' rows: targets, then history slots.

    d_x_t (n, d_t) is the gradient of each target vector. d_x_b is the
    slot gradient in asta_backward's factored form, pairs (rows (n, d_t),
    weights (n, s)), slot (r, j) getting the sum of weights[r, j] * rows[r].
    Only the id columns train: the store's leading d_t - d_id columns are
    dropped. Each sum is one ordered segment sum, so repeated ids
    accumulate in a fixed order, and each item's slot sum is added to its
    target sum.

    A slot whose weight is zero in every term adds a signed zero to its
    item's bin. Padded slots are such slots (zero mask entry, id 0), and
    so is every slot that ReLU attention scored at or below zero. When at
    most half of the slots are live, only the live ones are summed
    (_live_slots). This keeps the bits whenever the rows are finite: a
    skipped slot would add +-0.0, a bin starts at +0.0 and so never holds
    -0.0 (+0.0 + -0.0 is +0.0), and adding +-0.0 to any other value
    leaves it unchanged.
    """
    vocab, d_id = grads.id_embedding.shape
    frozen = d_x_t.shape[1] - d_id
    targets = segment_sum(batch.target_ids, vocab, (d_x_t[:, frozen:], None))
    ids = batch.seq_ids
    terms = [(rows[:, frozen:], weights) for rows, weights in d_x_b]
    live = _live_slots(d_x_b)
    if live is not None:
        row = live // ids.shape[1]
        ids = ids.ravel().take(live)
        terms = [(rows.take(row, axis=0), weights.ravel().take(live)) for rows, weights in terms]
    grads.id_embedding += targets + segment_sum(ids, vocab, *terms)
