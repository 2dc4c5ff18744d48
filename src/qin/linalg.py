"""Dense float64 kernel helpers: segment sum, activations, and the seeded RNG.

Arrays are plain C-order ``numpy.ndarray`` with dtype float64 throughout;
products are numpy's own ``@``.
Randomness always flows through :func:`make_rng` (PCG64), which gives an
identical draw stream for an identical seed on every platform.
"""

from __future__ import annotations

import numpy as np

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


def segment_sum(ids: np.ndarray, count: int, *terms) -> np.ndarray:
    """(count, d) table: row v sums the entries of ids equal to v.

    Each term is a pair (rows, weights) with rows (n, d). ids is (n,) or
    (n, s); weights is shaped like ids, or None for weight 1. Entry
    (r, j) contributes sum over terms of weights[r, j] * rows[r]. Each
    column is one ordered np.bincount over per-entry values written into
    two buffers reused across columns: repeated ids accumulate in index
    order, the result is the same bits on every run, and no (n * s, d)
    array of weighted rows is built. Ids must lie in [0, count).
    """
    ids = np.asarray(ids, dtype=np.int64)
    flat = ids.ravel()
    lead = (-1,) + (1,) * (ids.ndim - 1)
    terms = [(np.asarray(rows, dtype=FLOAT), weights) for rows, weights in terms]
    entry = np.empty(ids.shape, dtype=FLOAT)
    extra = np.empty(ids.shape, dtype=FLOAT) if len(terms) > 1 else None
    out = np.empty((terms[0][0].shape[1], count), dtype=FLOAT)
    for c in range(len(out)):
        for t, (rows, weights) in enumerate(terms):
            column = rows[:, c].reshape(lead)
            buf = entry if t == 0 else extra
            if weights is None:
                buf[...] = column
            else:
                np.multiply(weights, column, out=buf)
            if t:
                entry += extra
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
    """max(x, 0) + slope * min(x, 0): x where x >= 0, slope * x below, NaN stays NaN.

    Equal to ``np.where(x >= 0, x, slope * x)`` for any finite slope, up to
    the sign of a zero result. Two branch-free passes and an add cost a
    sixth of ``np.where`` on a (1024, 128) batch whose signs are mixed: the
    select's loop branches on each element and mispredicts about half of
    them.
    """
    x = np.asarray(x, dtype=FLOAT)
    out = np.minimum(x, 0.0)
    out *= slope
    out += np.maximum(x, 0.0)
    return out


def prelu_grad(x: np.ndarray, slope: float) -> np.ndarray:
    """Derivative w.r.t. x: 1.0 where x >= 0 (so at exactly 0), slope elsewhere.

    NaN compares false and gets slope. The factor is built from the
    ``x >= 0`` mask by arithmetic, not by a select: with the slope finite,
    0 * slope + 1 is exactly 1 and 1 * slope + 0 exactly slope.
    """
    ge = np.greater_equal(np.asarray(x, dtype=FLOAT), 0.0)
    g = np.logical_not(ge).astype(FLOAT)
    g *= slope
    g += ge
    return g


def prelu_slope_grad(x: np.ndarray, upstream: np.ndarray) -> float:
    """Derivative of sum(upstream * prelu(x, slope)) w.r.t. slope.

    That is sum(upstream * min(x, 0)): upstream * x where x < 0 and a zero
    elsewhere, with no select on the sign of x. A NaN in x makes it NaN.
    The product is formed in a temporary this function frees on return.
    """
    neg = np.minimum(np.asarray(x, dtype=FLOAT), 0.0)
    np.multiply(upstream, neg, out=neg)
    return float(np.sum(neg))
