"""Dense kernel helpers: segment sum, activations, and the seeded RNG.

Arrays are plain C-order ``numpy.ndarray``; products are numpy's own ``@``.
These kernels and the model's layers compute in the dtype of their
inputs and re-cast none of them. The dtype is set where data enters: the
parameter buffer, the checkpoint and embedding loaders, the ``Split``
columns and the generator take ``FLOAT`` (float64), the reference dtype
of checkpoints and gradcheck. ``train`` and ``evaluate`` take
``TRAIN_FLOAT`` (float32) copies of the parameters and the store at
entry and train and score on them, and a batch's mask and labels are
``TRAIN_FLOAT``: {0, 1} is exact in float32 and widens exactly, so the
float64 paths keep their bits.
Randomness always flows through :func:`make_rng` (PCG64), which gives an
identical draw stream for an identical seed on every platform.
"""

from __future__ import annotations

import numpy as np

FLOAT = np.float64
TRAIN_FLOAT = np.float32


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single PRNG used everywhere."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent PCG64 stream keyed by (seed, *stream) integers.

    Used for per-step dropout masks and per-purpose substreams so serial
    and replayed runs draw identical masks.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *stream))))


def segment_sum(ids: np.ndarray, count: int, *terms) -> np.ndarray:
    """(count, d) table: row v sums the entries of ids equal to v.

    Each term is a pair (rows, weights) with rows (n, d). ids is (n,) or
    (n, s); weights is shaped like ids, or None for weight 1. Entry
    (r, j) contributes sum over terms of weights[r, j] * rows[r]. Each
    column is one ordered np.bincount over per-entry values written into
    two buffers reused across columns: repeated ids accumulate in index
    order, the result is the same bits on every run, and no (n * s, d)
    array of weighted rows is built. Ids must lie in [0, count). The
    result has the dtype of the first term's rows.
    """
    flat = ids.ravel()
    lead = (-1,) + (1,) * (ids.ndim - 1)
    dtype = terms[0][0].dtype
    entry = np.empty(ids.shape, dtype=dtype)
    extra = np.empty(ids.shape, dtype=dtype) if len(terms) > 1 else None
    out = np.empty((terms[0][0].shape[1], count), dtype=dtype)
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
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Subgradient at 0 is defined as 0."""
    return (x > 0.0).astype(x.dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def prelu(x: np.ndarray, slope: float, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0) + slope * min(x, 0): x where x >= 0, slope * x below, NaN stays NaN.

    Equal to ``np.where(x >= 0, x, slope * x)`` for any finite slope, up to
    the sign of a zero result. Two branch-free passes and an add cost a
    sixth of ``np.where`` on a (1024, 128) batch whose signs are mixed: the
    select's loop branches on each element and mispredicts about half of
    them. With out given, the result is written there.
    """
    out = np.minimum(x, 0.0, out=out)
    out *= slope
    out += np.maximum(x, 0.0)
    return out


def prelu_grad(x: np.ndarray, slope: float, out: np.ndarray | None = None) -> np.ndarray:
    """Derivative w.r.t. x: 1.0 where x >= 0 (so at exactly 0), slope elsewhere.

    NaN compares false and gets slope. The factor is built from the
    ``x >= 0`` mask by arithmetic, not by a select: with the slope finite,
    0 * slope + 1 is exactly 1 and 1 * slope + 0 exactly slope. With out
    given, the factor is written there.
    """
    ge = np.greater_equal(x, 0.0)
    g = np.logical_not(ge, out=np.empty_like(x) if out is None else out)
    g *= slope
    g += ge
    return g


def prelu_slope_terms(x: np.ndarray, upstream: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The terms whose sum is the derivative of sum(upstream * prelu(x, slope)) w.r.t. slope.

    That is upstream * min(x, 0): upstream * x where x < 0 and a zero
    elsewhere, with no select on the sign of x. A NaN in x makes its term
    NaN. With out given, the terms are written there. The caller sums
    them, so a batch can form its terms by row blocks and sum them whole.
    """
    neg = np.minimum(x, 0.0, out=out)
    return np.multiply(upstream, neg, out=neg)
