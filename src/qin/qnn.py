"""Quadratic feature-interaction stack and the MLP ablation alternative.

Each quadratic layer maps x to x + dropout(PReLU(h)) where
h[i] = x[i] * sum_j w[i, j] * x[j]: an elementwise product between the input
and a linear transform of it, so every h[i] is a quadratic form spanning all
dim^2 input pairs x_i * x_j. Depth squares the reachable polynomial degree.
The paper's m linear heads enter only through their sum, and every head gets
the same gradient, so a layer stores that sum as one (dim, dim) matrix; m is
an init-scale and learning-rate multiplier (see ``params.lr_scale``). The
forward layer also takes a stacked (m, dim, dim) weight and sums it, so the
brute-force oracle's heads can be checked against it; the backward layer
takes only the (dim, dim) matrix. The activation is PReLU with one
learnable slope per layer, applied after the product. Both stacks take a
(n, dim) batch and raise ShapeError for any other input rank; one sample
is a batch of one. They compute in the dtype of their inputs.

The elementwise chain has no select on the sign of the pre-activation:
PReLU, its derivative and the slope gradient are max/min arithmetic (see
``linalg.prelu``, ``prelu_grad`` and ``prelu_slope_terms``). Dropout
scaling, the residual add and the d_x accumulation run in place on arrays
the layer itself made, in the same operand order as the plain
expressions, so results are unchanged.

A layer makes its outputs once and fills them from one row block or
two. ``split_helper(n, dim)`` is the one rule for two: a layer at least
QNN_SPLIT_MIN_DIM wide, on a batch of at least twice QNN_SPLIT_MIN_ROWS
rows, with two CPUs usable, gets the process's one helper thread, which
fills the second row half while the calling thread fills the first. The
helper is an executor made at import; it starts its thread at the first
split and keeps it for the life of the process. All but two of a
layer's ops act row by row, and each gives the same bits on a block of
at least QNN_SPLIT_MIN_ROWS rows as on the whole batch. The two sums
over rows, the weight gradient ``d_t.T @ x`` and the slope gradient's
sum, run whole in the calling thread while the helper, if any, forms
``d_t @ w`` for d_x. So a layer gives the same bits split as whole. The
helper runs only code of this module and ``linalg``, and the history
draw of ``datagen``, which borrows it through ``row_helper`` and ``both``.

``brute_force_expansion`` recomputes a layer monomial by monomial in pure
Python and is the independent oracle for the vectorized path.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import FLOAT, prelu, prelu_grad, prelu_slope_terms

# Fewest rows in a half; a batch under twice this runs whole. OpenBLAS
# 0.3.31 (AVX-512 Xeon, one thread) takes a small-matrix path for x @ w.T
# of up to 37 rows at width 32, 18 at 64, 12 at 96, 9 at 128 and 4 at
# 256, and a gemv for one row of d_t @ w; either gives other last bits
# than the whole batch's GEMM. sgemm (float32, the training dtype) and
# dgemm cut over at the same row counts: a row block of 1-299 rows at
# offsets 0, 1, 511 and the end of a 1 024-row batch was compared with
# the whole product in both dtypes. From 10 rows on at width 128 a row
# block's product has the whole batch's bits.
QNN_SPLIT_MIN_ROWS = 128

# QNN width (qnn_dim) from which scoring and training run the QNN layers of
# each batch as two row halves on two threads (see split_helper). Median
# paired split/serial ratio of a scoring pass (2 000 rows in batches of
# 1 024, one BLAS thread, 2-core VM, 41 pairs) at width 64 / 96 / 128:
# depth 4 with 4-item histories 1.54 / 1.37 / 1.41; depth 2 with 32-item
# histories 0.96 / 1.01 / 1.06; depth 2 with 1..64-item histories 0.98 /
# 1.01 / 1.06; width 32 lost 0.81-0.84 on both depth-2 shapes. (Taken
# with whole row-block stacks on the helper; the per-layer split scores
# about 5% slower at depth 4, width 128: ROADMAP item 11.) Of a
# training step (loss_and_grads on 1 024 rows, m 4, dropout 0.1, same
# machine, two rounds of 40 and 60 pairs) at width 64 / 96 / 128: depth 4
# with 4-item histories 1.20-1.26 / 1.26-1.49 / 1.38-1.51; depth 2 with
# 32-item histories 1.05-1.14 / 1.09-1.11 / 1.11-1.17; at width 32, depth 2
# and 32 items, 0.81 at the desk batch of 256 and 0.95-1.04 at 1 024.
# Those steps ran in float64. In float32, the training dtype, the same
# step with depth 4 and 4-item histories ran 1.01-1.03 / 1.15-1.19 /
# 1.16-1.28 split at width 64 / 96 / 128, against 1.06-1.13 / 1.14-1.21 /
# 1.27 in float64 in the same two rounds (40 and 60 alternating pairs);
# depth 2 with 32-item histories at width 128, 1.08-1.09 against 1.11-1.14.
# Below 96 the QNN is too small a share of a batch to pay for the hand-off,
# and numpy's short calls fight over the GIL.
QNN_SPLIT_MIN_DIM = 96

# The process's one helper thread, for the QNN and the generator. An
# executor starts no thread before its first submit, so a process that
# never splits a layer or a history draw never starts one.
# Nothing in the package forks: a child forked after the first split would
# inherit an executor whose thread is gone.
_HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="qnn-rows")


@dataclass(frozen=True)
class QnnConfig:
    depth: int
    m: int
    dim: int
    dropout_p: float = 0.0
    residual: bool = True


@dataclass
class QnnLayerTrace:
    x: np.ndarray               # (n, dim) layer input
    t: np.ndarray               # (n, dim) x @ w.T
    h: np.ndarray               # (n, dim) pre-activation of the branch
    drop_mask: np.ndarray | None   # (n, dim) bool or {0, 1} keep-mask


def assemble_x1(x_t, o, dim: int) -> np.ndarray:
    """First interaction input: target embedding concat interest vector."""
    x1 = np.concatenate([x_t, o], axis=-1)
    if x1.shape[-1] != dim:
        raise ShapeError(
            f"interaction dim mismatch: concat width {x1.shape[-1]} != configured {dim}")
    return x1


def _folded(w: np.ndarray, cfg: QnnConfig) -> np.ndarray:
    """The layer's (dim, dim) matrix: w itself, or the head sum of a stacked w."""
    if w.shape == (cfg.dim, cfg.dim):
        return w
    if w.shape == (cfg.m, cfg.dim, cfg.dim):
        return w.sum(axis=0)
    raise ShapeError(f"layer weight of shape {w.shape} does not match dim={cfg.dim} m={cfg.m}")


def both(helper, mine, theirs):
    """mine() in this thread while the helper runs theirs(); without a helper, both here.

    Returns what mine() returns. Both are done before it returns or
    raises, and an error in theirs() reaches the caller with its type.
    """
    if helper is None:
        result = mine()
        theirs()
        return result
    future = helper.submit(theirs)
    try:
        return mine()
    finally:
        future.result()


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_helper(n: int, dim: int):
    """The helper thread's executor if a layer of n rows, dim wide, runs as two
    row halves, else None.

    It splits when dim is at least QNN_SPLIT_MIN_DIM, each half has at
    least QNN_SPLIT_MIN_ROWS rows and two CPUs are usable. This is the one
    statement of when a layer splits.
    """
    return row_helper(dim >= QNN_SPLIT_MIN_DIM and n >= 2 * QNN_SPLIT_MIN_ROWS)


def row_helper(split: bool):
    """The helper thread's executor if split and two CPUs are usable, else None."""
    return _HELPER if split and usable_cpus() >= 2 else None


def _by_halves(helper, rows_fn, n: int) -> None:
    """rows_fn(rows) once over all n rows, or with a helper, per row half on two threads."""
    if helper is None:
        rows_fn(slice(0, n))
    else:
        h = n // 2
        both(helper, lambda: rows_fn(slice(0, h)), lambda: rows_fn(slice(h, n)))


def _rows(a: np.ndarray | None, r: slice) -> np.ndarray | None:
    return None if a is None else a[r]


def _forward_rows(x, w_t, slope: float, cfg: QnnConfig, drop_mask, t, h, out) -> None:
    """The layer's ops on rows x, each row on its own, into t, h and out."""
    np.matmul(x, w_t, out=t)
    np.multiply(x, t, out=h)
    prelu(h, slope, out=out)
    if drop_mask is not None:
        out *= drop_mask
        out /= 1.0 - cfg.dropout_p
    if cfg.residual:
        np.add(x, out, out=out)


def qnn_layer_forward(w: np.ndarray, slope: float, x: np.ndarray, cfg: QnnConfig,
                      drop_mask: np.ndarray | None = None):
    """One quadratic layer on a (n, dim) batch; w is (dim, dim) or (m, dim, dim).

    Where split_helper splits the layer, the second row half runs in the
    helper's thread.
    """
    if x.ndim != 2 or x.shape[1] != cfg.dim:
        raise ShapeError(f"layer input of shape {x.shape} is not (n, {cfg.dim})")
    w_t = _folded(w, cfg).T
    t, h, out = (np.empty(x.shape, dtype=np.result_type(x, w_t)) for _ in range(3))
    _by_halves(split_helper(len(x), cfg.dim),
               lambda r: _forward_rows(x[r], w_t, slope, cfg, _rows(drop_mask, r),
                                       t[r], h[r], out[r]), len(x))
    return out, QnnLayerTrace(x=x, t=t, h=h, drop_mask=drop_mask)


def _backward_rows(slope: float, cfg: QnnConfig, x, t, h, drop_mask, d_out,
                   terms, d_x, d_t) -> None:
    """The layer's row-wise gradient ops on rows of the trace and d_out.

    d_x gets d_h * t, d_x before its d_t @ w term, d_t gets d_h * x, and
    terms gets the slope gradient's terms for the caller to sum.
    """
    d_branch = d_out
    if drop_mask is not None:
        d_branch = d_out * drop_mask
        d_branch /= 1.0 - cfg.dropout_p
    prelu_slope_terms(h, d_branch, out=terms)
    d_h = prelu_grad(h, slope, out=d_t)
    np.multiply(d_branch, d_h, out=d_h)
    np.multiply(d_h, t, out=d_x)
    np.multiply(d_h, x, out=d_h)


def qnn_layer_backward(w: np.ndarray, slope: float, cfg: QnnConfig,
                       trace: QnnLayerTrace, d_out: np.ndarray):
    """Gradients of one layer with a (dim, dim) w; returns (d_w, d_slope, d_x).

    Where split_helper splits the layer, the second row half of the
    row-wise ops runs in the helper's thread, then the helper adds
    d_t @ w into d_x while this thread forms d_w and the slope sum.
    """
    if w.shape != (cfg.dim, cfg.dim):
        raise ShapeError(f"layer weight of shape {w.shape} is not ({cfg.dim}, {cfg.dim})")
    x, t, h, mask = trace.x, trace.t, trace.h, trace.drop_mask
    helper = split_helper(len(d_out), cfg.dim)
    terms, d_x, d_t = np.empty_like(h), np.empty_like(h), np.empty_like(h)
    d_t_w = np.empty(h.shape, dtype=np.result_type(h, w))
    _by_halves(helper, lambda r: _backward_rows(slope, cfg, x[r], t[r], h[r], _rows(mask, r),
                                                d_out[r], terms[r], d_x[r], d_t[r]),
               len(h))

    def sums():
        return d_t.T @ x, float(np.sum(terms))

    def input_grad():
        np.add(d_x, np.matmul(d_t, w, out=d_t_w), out=d_x)

    d_w, d_slope = both(helper, sums, input_grad)
    if cfg.residual:
        np.add(d_x, d_out, out=d_x)
    return d_w, d_slope, d_x


def brute_force_expansion(w: np.ndarray, slope: float, x: np.ndarray,
                          cfg: QnnConfig) -> np.ndarray:
    """Oracle: one layer on one sample, summing every x_i*x_j monomial explicitly.

    w is stacked, (m, dim, dim): each coefficient is summed over the heads.
    """
    d = cfg.dim
    h = [0.0] * d
    for i in range(d):
        for j in range(d):
            coeff = 0.0
            for m in range(cfg.m):
                coeff += float(w[m, i, j])
            h[i] += coeff * float(x[i]) * float(x[j])
    out = np.empty(d, dtype=FLOAT)
    for i in range(d):
        branch = h[i] if h[i] >= 0 else slope * h[i]
        out[i] = (float(x[i]) + branch) if cfg.residual else branch
    return out


def qnn_forward(ws: list, slopes: np.ndarray, x1: np.ndarray, cfg: QnnConfig,
                drop_masks: list | None = None):
    """Run the full stack on a (n, dim) batch; drop_masks is one (n, dim)
    keep-mask per layer or None. The trace is the list of layer traces."""
    x = x1
    layers = []
    for l in range(cfg.depth):
        dm = drop_masks[l] if drop_masks is not None else None
        x, trace = qnn_layer_forward(ws[l], float(slopes[l]), x, cfg, dm)
        layers.append(trace)
    return x, layers


def qnn_backward(ws: list, slopes: np.ndarray, cfg: QnnConfig,
                 layers: list, d_out):
    """Gradients through the full stack, given qnn_forward's layer traces;
    returns (d_ws, d_slopes, d_x1)."""
    d_x = d_out
    d_ws = [None] * cfg.depth
    d_slopes = np.zeros(cfg.depth, dtype=d_out.dtype)
    for l in range(cfg.depth - 1, -1, -1):
        d_w, d_slope, d_x = qnn_layer_backward(ws[l], float(slopes[l]), cfg, layers[l], d_x)
        d_ws[l] = d_w
        d_slopes[l] = d_slope
    return d_ws, d_slopes, d_x


@dataclass
class MlpTrace:
    inputs: list    # per-layer input (n, in_dim)
    pre: list       # per-layer pre-activation (n, out_dim)


def mlp_forward(ws: list, bs: list, x1: np.ndarray):
    """Affine + ReLU stack on a (n, dim) batch, used by the no-QNN ablation."""
    x = x1
    if x.ndim != 2:
        raise ShapeError(f"mlp input of shape {x.shape} is not a (n, dim) batch")
    inputs, pre = [], []
    for w, b in zip(ws, bs):
        if x.shape[1] != w.shape[1]:
            raise ShapeError(f"mlp layer expects input width {w.shape[1]}, got {x.shape[1]}")
        inputs.append(x)
        a = x @ w.T + b
        pre.append(a)
        x = np.maximum(a, 0.0)
    return x, MlpTrace(inputs=inputs, pre=pre)


def mlp_backward(ws: list, bs: list, trace: MlpTrace, d_out):
    d_x = d_out
    d_ws = [None] * len(ws)
    d_bs = [None] * len(ws)
    for l in range(len(ws) - 1, -1, -1):
        d_a = d_x * (trace.pre[l] > 0)
        d_ws[l] = d_a.T @ trace.inputs[l]
        d_bs[l] = d_a.sum(axis=0)
        d_x = d_a @ ws[l]
    return d_ws, d_bs, d_x
