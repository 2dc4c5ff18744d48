"""Dense float64 kernel: matmul, elementwise ops, and the seeded RNG.

Arrays are plain C-order ``numpy.ndarray`` with dtype float64 throughout;
matrices are 2-D (rows x cols, row-major) and rank-3 tensors are 3-D.
Randomness always flows through :func:`make_rng` (PCG64), which gives an
identical draw stream for an identical seed on every platform.
"""

from __future__ import annotations

import numpy as np

from .errors import QinError, ShapeError

FLOAT = np.float64


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single PRNG used everywhere."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent PCG64 stream keyed by (seed, *stream) integers.

    Used for per-step dropout masks and per-purpose substreams so serial
    and replayed runs draw identical masks.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *stream))))


def rng_normal(rng: np.random.Generator, n: int, mean: float = 0.0, std: float = 1.0) -> np.ndarray:
    """n Gaussian draws; advances the stream by n. std=0 gives n copies of mean."""
    return np.asarray(rng.normal(mean, std, n), dtype=FLOAT)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Standard matrix product with 64-bit accumulation.

    Raises ShapeError naming both shapes when the inner dimensions differ.
    """
    a = np.asarray(a, dtype=FLOAT)
    b = np.asarray(b, dtype=FLOAT)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    out = a @ b
    if not np.all(np.isfinite(out)):
        raise QinError(f"matmul produced non-finite entries for shapes {a.shape} x {b.shape}")
    return out


def _check_same_shape(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=FLOAT)
    b = np.asarray(b, dtype=FLOAT)
    _check_same_shape(a, b, "add")
    return a + b


def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=FLOAT)
    b = np.asarray(b, dtype=FLOAT)
    _check_same_shape(a, b, "mul")
    return a * b


def segment_sum(ids: np.ndarray, rows: np.ndarray, count: int,
                weights: np.ndarray | None = None) -> np.ndarray:
    """(count, d) table: row v sums rows[r] * weights[r, ...] over every
    entry of ids[r, ...] equal to v.

    rows is (n, d). ids is (n,), each row counted once, or (n, s) with
    weights (n, s), so entry (r, j) adds weights[r, j] * rows[r]. Each
    column is one ordered np.bincount: repeated ids accumulate in index
    order, the result is the same bits on every run, and the (n * s, d)
    array of weighted rows is never built. Ids must lie in [0, count).
    """
    ids = np.asarray(ids, dtype=np.int64)
    flat = ids.ravel()
    columns = np.asarray(rows, dtype=FLOAT).T
    if weights is not None:
        columns = columns[:, :, None]
    out = np.empty((len(columns), count), dtype=FLOAT)
    for c, column in enumerate(columns):
        entry = column if weights is None else weights * column
        out[c] = np.bincount(flat, weights=entry.ravel(), minlength=count)
    return out.T


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=FLOAT), 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Subgradient at 0 is defined as 0."""
    return (np.asarray(x, dtype=FLOAT) > 0.0).astype(FLOAT)


def relu2(x: np.ndarray) -> np.ndarray:
    r = relu(x)
    return r * r


def relu2_grad(x: np.ndarray) -> np.ndarray:
    return 2.0 * relu(x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=FLOAT)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=FLOAT)
    return x * sigmoid(x)


def silu_grad(x: np.ndarray) -> np.ndarray:
    s = sigmoid(x)
    return s * (1.0 + np.asarray(x, dtype=FLOAT) * (1.0 - s))


def prelu(x: np.ndarray, slope: float) -> np.ndarray:
    x = np.asarray(x, dtype=FLOAT)
    return np.where(x >= 0.0, x, slope * x)


def prelu_grad(x: np.ndarray, slope: float) -> np.ndarray:
    """Derivative w.r.t. x; at exactly 0 the positive-branch value 1 is used."""
    x = np.asarray(x, dtype=FLOAT)
    return np.where(x >= 0.0, 1.0, slope)
