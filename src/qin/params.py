"""Learnable parameters, their gradient mirror, and bit-exact checkpoints.

Checkpoint layout ("QINCKPT1"):
  8 bytes   magic b"QINCKPT1"
  u32 LE    number of entries
  entry*    u16 LE name length, utf-8 name, u8 ndim, ndim x u32 LE dims
  payload   per entry, in order: prod(dims) float64 little-endian values

Round trips are bit-identical. Loading against a HyperParams validates the
shape table and raises ShapeTableError on any disagreement.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write
from .config import HyperParams
from .errors import BadMagicError, ShapeTableError, TruncatedFileError
from .linalg import FLOAT, rng_normal

MAGIC = b"QINCKPT1"


@dataclass
class ModelParams:
    """Every learnable tensor. Only the active interaction stack is stored."""

    id_embedding: np.ndarray          # (vocab, d_id) trainable id table
    w_q: np.ndarray                   # (d_t, d_t)
    w_k: np.ndarray                   # (d_t, d_t)
    w_v: np.ndarray                   # (d_t, d_t)
    qnn_w: list = field(default_factory=list)   # depth x (m, D, D)
    prelu: np.ndarray = None          # (depth,) one slope per layer
    head_w: np.ndarray = None         # (out_dim,)
    head_b: np.ndarray = None         # () scalar
    mlp_w: list = field(default_factory=list)   # per layer (out, in)
    mlp_b: list = field(default_factory=list)   # per layer (out,)


@dataclass
class Gradients:
    """Structural mirror of ModelParams; zeroed between batches."""

    id_embedding: np.ndarray
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    qnn_w: list = field(default_factory=list)
    prelu: np.ndarray = None
    head_w: np.ndarray = None
    head_b: np.ndarray = None
    mlp_w: list = field(default_factory=list)
    mlp_b: list = field(default_factory=list)


def named_arrays(p) -> dict[str, np.ndarray]:
    """Flat name -> array view of a ModelParams or Gradients, fixed order."""
    out = {"id_embedding": p.id_embedding, "w_q": p.w_q, "w_k": p.w_k, "w_v": p.w_v}
    for i, w in enumerate(p.qnn_w):
        out[f"qnn_w_{i}"] = w
    if p.qnn_w:
        out["prelu"] = p.prelu
    for i, w in enumerate(p.mlp_w):
        out[f"mlp_w_{i}"] = w
        out[f"mlp_b_{i}"] = p.mlp_b[i]
    out["head_w"] = p.head_w
    out["head_b"] = p.head_b
    return out


def zero_gradients(params: ModelParams) -> Gradients:
    return Gradients(
        id_embedding=np.zeros_like(params.id_embedding),
        w_q=np.zeros_like(params.w_q),
        w_k=np.zeros_like(params.w_k),
        w_v=np.zeros_like(params.w_v),
        qnn_w=[np.zeros_like(w) for w in params.qnn_w],
        prelu=np.zeros_like(params.prelu) if params.qnn_w else None,
        head_w=np.zeros_like(params.head_w),
        head_b=np.zeros_like(params.head_b),
        mlp_w=[np.zeros_like(w) for w in params.mlp_w],
        mlp_b=[np.zeros_like(b) for b in params.mlp_b],
    )


def copy_params(params: ModelParams) -> ModelParams:
    return ModelParams(
        id_embedding=params.id_embedding.copy(),
        w_q=params.w_q.copy(), w_k=params.w_k.copy(), w_v=params.w_v.copy(),
        qnn_w=[w.copy() for w in params.qnn_w],
        prelu=params.prelu.copy() if params.prelu is not None else None,
        head_w=params.head_w.copy(), head_b=params.head_b.copy(),
        mlp_w=[w.copy() for w in params.mlp_w],
        mlp_b=[b.copy() for b in params.mlp_b],
    )


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    na, nb = named_arrays(a), named_arrays(b)
    if na.keys() != nb.keys():
        return False
    return all(np.array_equal(na[k], nb[k]) for k in na)


def init_params(hp: HyperParams, rng: np.random.Generator) -> ModelParams:
    """Fresh parameters from one seeded stream, drawn in expected_shapes order.

    Projection / interaction / head weights ~ Normal(0, sqrt(1/fan_in)),
    fan_in being the last dim; id embeddings ~ Normal(0, 0.01); PReLU
    slopes 0.25 (0 when the interaction activation is plain ReLU); all
    biases 0, drawing nothing.
    """
    arrays = {}
    for name, shape in expected_shapes(hp).items():
        if name == "prelu":
            arrays[name] = np.full(shape, 0.25 if hp.qnn_act == "prelu" else 0.0, dtype=FLOAT)
        elif name == "head_b" or name.startswith("mlp_b_"):
            arrays[name] = np.zeros(shape, dtype=FLOAT)
        else:
            std = 0.01 if name == "id_embedding" else (1.0 / shape[-1]) ** 0.5
            arrays[name] = rng_normal(rng, int(np.prod(shape)), 0.0, std).reshape(shape)
    return _params_from_arrays("init_params", arrays)


def expected_shapes(hp: HyperParams) -> dict[str, tuple[int, ...]]:
    """Shape table implied by a HyperParams, in checkpoint and draw order."""
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
    entries = named_arrays(params)
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries.items():
            blob = name.encode("utf-8")
            fh.write(struct.pack("<H", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
        for arr in entries.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise TruncatedFileError(f"checkpoint ended while reading {what} "
                                 f"(wanted {n} bytes, got {len(buf)})")
    return buf


def load_checkpoint(path: str, hp: HyperParams | None = None) -> ModelParams:
    """Rebuild ModelParams from a checkpoint; validate shapes against hp if given."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        (n_entries,) = struct.unpack("<I", _read_exact(fh, 4, "entry count"))
        table: list[tuple[str, tuple[int, ...]]] = []
        for _ in range(n_entries):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            name = _read_exact(fh, name_len, "name").decode("utf-8")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "ndim"))
            dims = tuple(struct.unpack("<I", _read_exact(fh, 4, "dim"))[0] for _ in range(ndim))
            table.append((name, dims))
        arrays = {}
        for name, dims in table:
            count = int(np.prod(dims)) if dims else 1
            raw = _read_exact(fh, count * 8, f"payload of {name}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").astype(FLOAT).reshape(dims)

    if hp is not None:
        want = expected_shapes(hp)
        got = {name: dims for name, dims in table}
        if want != got:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            diff = sorted(k for k in set(want) & set(got) if want[k] != got[k])
            raise ShapeTableError(
                f"{path}: shape table mismatch (missing={missing}, unexpected={extra}, "
                f"shape-diff={[(k, got[k], want[k]) for k in diff]})")

    return _params_from_arrays(path, arrays)


def _params_from_arrays(path: str, arrays: dict[str, np.ndarray]) -> ModelParams:
    required = ("id_embedding", "w_q", "w_k", "w_v", "head_w", "head_b")
    for name in required:
        if name not in arrays:
            raise ShapeTableError(f"{path}: checkpoint is missing entry {name!r}")
    qnn_w = []
    while f"qnn_w_{len(qnn_w)}" in arrays:
        qnn_w.append(arrays[f"qnn_w_{len(qnn_w)}"])
    mlp_w, mlp_b = [], []
    while f"mlp_w_{len(mlp_w)}" in arrays:
        i = len(mlp_w)
        if f"mlp_b_{i}" not in arrays:
            raise ShapeTableError(f"{path}: mlp_w_{i} present without mlp_b_{i}")
        mlp_w.append(arrays[f"mlp_w_{i}"])
        mlp_b.append(arrays[f"mlp_b_{i}"])
    if qnn_w and "prelu" not in arrays:
        raise ShapeTableError(f"{path}: interaction tensors present without prelu slopes")
    return ModelParams(
        id_embedding=arrays["id_embedding"],
        w_q=arrays["w_q"], w_k=arrays["w_k"], w_v=arrays["w_v"],
        qnn_w=qnn_w, prelu=arrays.get("prelu"),
        head_w=arrays["head_w"], head_b=arrays["head_b"],
        mlp_w=mlp_w, mlp_b=mlp_b,
    )
