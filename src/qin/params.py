"""Learnable parameters in one flat buffer, and bit-exact checkpoints.

ModelParams holds every tensor as a named view into one float64 buffer,
``flat``, laid out in ``expected_shapes`` order: the init draw order and
the checkpoint entry order. A gradient is a zeroed ModelParams of the same
layout, so Adam, the best-epoch copy, gradcheck and checkpoints each work
on the buffer instead of tensor by tensor.

Checkpoint layout ("QINCKPT1"):
  8 bytes   magic b"QINCKPT1"
  u32 LE    number of entries
  entry*    u16 LE name length, utf-8 name, u8 ndim, ndim x u32 LE dims
  payload   per entry, in order: prod(dims) float64 little-endian values

Round trips are bit-identical. Every malformed file raises a
CheckpointError, a file with bytes after the payload included. Loading
against a HyperParams validates the shape table and raises
ShapeTableError on any disagreement.
"""

from __future__ import annotations

import math
import os
import struct
from itertools import accumulate

import numpy as np

from .atomic import atomic_write
from .config import HyperParams
from .errors import (BadMagicError, CheckpointError, ShapeError, ShapeTableError,
                     TruncatedFileError)
from .linalg import FLOAT, rng_normal

MAGIC = b"QINCKPT1"


def _tensor(name: str) -> property:
    """A named view of ModelParams.flat (None when the layout lacks it).
    Assigning an array writes it into the buffer; the shape must match."""
    def assign(params, value):
        view, value = params.views.get(name), np.asarray(value)
        if view is None or value.shape != view.shape:
            raise ShapeError(f"{name} has shape {getattr(view, 'shape', None)}, got {value.shape}")
        view[...] = value
    return property(lambda params: params.views.get(name), assign)


class ModelParams:
    """Every learnable tensor. Only the active interaction stack is stored."""

    id_embedding = _tensor("id_embedding")   # (vocab, d_id) trainable id table
    w_q = _tensor("w_q")                     # (d_t, d_t)
    w_k = _tensor("w_k")                     # (d_t, d_t)
    w_v = _tensor("w_v")                     # (d_t, d_t)
    prelu = _tensor("prelu")                 # (depth,) one slope per layer
    head_w = _tensor("head_w")               # (out_dim,)
    head_b = _tensor("head_b")               # () scalar

    def __init__(self, shapes: dict[str, tuple[int, ...]], flat: np.ndarray | None = None):
        """Views over flat (zeros when None), one per entry of shapes, in order."""
        self.shapes = dict(shapes)
        ends = list(accumulate(map(math.prod, self.shapes.values()), initial=0))
        self.spans = {name: slice(a, b) for name, a, b in zip(self.shapes, ends, ends[1:])}
        self.flat = np.zeros(ends[-1], dtype=FLOAT) if flat is None else flat
        if self.flat.shape != (ends[-1],):
            raise ShapeError(f"buffer of shape {self.flat.shape} for a layout of {ends[-1]} values")
        self.views = {name: self.flat[span].reshape(self.shapes[name])
                      for name, span in self.spans.items()}
        self.qnn_w = self._listed("qnn_w_")   # depth x (m, D, D)
        self.mlp_w = self._listed("mlp_w_")   # per layer (out, in)
        self.mlp_b = self._listed("mlp_b_")   # per layer (out,)

    def _listed(self, prefix: str) -> list[np.ndarray]:
        return [view for name, view in self.views.items() if name.startswith(prefix)]


def named_arrays(p: ModelParams) -> dict[str, np.ndarray]:
    """Name -> view of a ModelParams (parameters or gradient), layout order."""
    return dict(p.views)


def zero_gradients(params: ModelParams) -> ModelParams:
    """A zeroed gradient: a ModelParams of the same layout."""
    return ModelParams(params.shapes)


def copy_params(params: ModelParams) -> ModelParams:
    return ModelParams(params.shapes, params.flat.copy())


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    return a.shapes == b.shapes and np.array_equal(a.flat, b.flat)


def init_params(hp: HyperParams, rng: np.random.Generator) -> ModelParams:
    """Fresh parameters from one seeded stream, drawn in expected_shapes order.

    Projection / interaction / head weights ~ Normal(0, sqrt(1/fan_in)),
    fan_in being the last dim; id embeddings ~ Normal(0, 0.01); PReLU
    slopes 0.25 (0 when the interaction activation is plain ReLU); all
    biases 0, drawing nothing.
    """
    params = ModelParams(expected_shapes(hp))
    for name, span in params.spans.items():
        if name == "prelu":
            params.flat[span] = 0.25 if hp.qnn_act == "prelu" else 0.0
        elif name != "head_b" and not name.startswith("mlp_b_"):
            std = 0.01 if name == "id_embedding" else (1.0 / params.shapes[name][-1]) ** 0.5
            params.flat[span] = rng_normal(rng, span.stop - span.start, 0.0, std)
    return params


def expected_shapes(hp: HyperParams) -> dict[str, tuple[int, ...]]:
    """Shape table implied by a HyperParams, in buffer, checkpoint and draw order."""
    dim = hp.qnn_dim
    shapes = {
        "id_embedding": (hp.vocab, hp.d_id),
        "w_q": (hp.d_t, hp.d_t),
        "w_k": (hp.d_t, hp.d_t),
        "w_v": (hp.d_t, hp.d_t),
    }
    if hp.interaction == "qnn":
        for i in range(hp.depth):
            shapes[f"qnn_w_{i}"] = (hp.m, dim, dim)
        shapes["prelu"] = (hp.depth,)
    else:
        widths = [dim, *hp.mlp_dims]
        for i in range(len(hp.mlp_dims)):
            shapes[f"mlp_w_{i}"] = (widths[i + 1], widths[i])
            shapes[f"mlp_b_{i}"] = (widths[i + 1],)
    shapes["head_w"] = (hp.out_dim,)
    shapes["head_b"] = ()
    return shapes


def save_checkpoint(params: ModelParams, path: str) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(params.shapes)))
        for name, shape in params.shapes.items():
            blob = name.encode("utf-8")
            fh.write(struct.pack(f"<H{len(blob)}sB{len(shape)}I",
                                 len(blob), blob, len(shape), *shape))
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise TruncatedFileError(f"checkpoint ended while reading {what} "
                                 f"(wanted {n} bytes, got {len(buf)})")
    return buf


def load_checkpoint(path: str, hp: HyperParams | None = None) -> ModelParams:
    """Rebuild ModelParams from a checkpoint; validate shapes against hp if given.

    Without hp the file's own shape table is the layout.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        (n_entries,) = struct.unpack("<I", _read_exact(fh, 4, "entry count"))
        shapes: dict[str, tuple[int, ...]] = {}
        for _ in range(n_entries):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            blob = _read_exact(fh, name_len, "name")
            try:
                name = blob.decode("utf-8")
            except UnicodeDecodeError:
                raise ShapeTableError(f"{path}: entry name {blob!r} is not utf-8") from None
            if name in shapes:
                raise ShapeTableError(f"{path}: entry {name!r} appears twice")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "ndim"))
            shapes[name] = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, f"dims of {name}"))
        n_bytes = 8 * sum(math.prod(dims) for dims in shapes.values())
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if n_bytes > left:
            raise TruncatedFileError(f"{path}: payload needs {n_bytes} bytes, {left} remain")
        if n_bytes < left:
            raise CheckpointError(f"{path}: {left - n_bytes} surplus bytes after the "
                                  f"{n_bytes}-byte payload")
        if hp is not None and shapes != (want := expected_shapes(hp)):
            diff = {k: (shapes.get(k), want.get(k)) for k in sorted({*shapes, *want})
                    if shapes.get(k) != want.get(k)}
            raise ShapeTableError(f"{path}: shape table mismatch, entry: (file, expected) {diff}")
        flat = np.empty(n_bytes // 8, dtype="<f8")
        if fh.readinto(flat) != n_bytes:
            raise TruncatedFileError(f"{path}: checkpoint ended while reading the payload")
    return ModelParams(shapes, flat.astype(FLOAT, copy=False))
