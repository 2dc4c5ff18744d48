"""Quadratic feature-interaction stack and the MLP ablation alternative.

Each quadratic layer maps x to x + dropout(act(h)) where
h[i] = x[i] * sum_m sum_j w[m, i, j] * x[j]: an elementwise product between
the input and the summed outputs of m linear heads, so every h[i] is a
quadratic form spanning all dim^2 input pairs x_i * x_j. Depth squares the
reachable polynomial degree; capacity m adds independent weight slices
inside the form. The activation is PReLU with one learnable slope per
layer (plain ReLU for the no-PReLU ablation), applied after the product by
default or to the head sum before it (mid-activation variant).

The elementwise chain has no select on the sign of the pre-activation:
PReLU, its derivative and the slope gradient are max/min arithmetic (see
``linalg.prelu``, ``prelu_grad`` and ``prelu_slope_grad``). Dropout
scaling, the residual add and the d_x accumulation run in place on
temporaries the layer itself made, in the same operand order as the plain
expressions, so results are unchanged.

``brute_force_expansion`` recomputes a layer monomial by monomial in pure
Python and is the independent oracle for the vectorized path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import FLOAT, prelu, prelu_grad, prelu_slope_grad

@dataclass(frozen=True)
class QnnConfig:
    depth: int
    m: int
    dim: int
    dropout_p: float = 0.0
    residual: bool = True
    mid_act: bool = False
    act: str = "prelu"   # "relu" pins all slopes to 0 and freezes them


@dataclass
class QnnLayerTrace:
    x: np.ndarray               # (n, dim) layer input
    t: np.ndarray               # (n, dim) head sum
    h: np.ndarray               # (n, dim) pre-activation of the branch
    drop_mask: np.ndarray | None


@dataclass
class QnnTrace:
    layers: list
    single: bool


def assemble_x1(x_t, o, dim: int) -> np.ndarray:
    """First interaction input: target embedding concat interest vector."""
    x_t = np.asarray(x_t, dtype=FLOAT)
    o = np.asarray(o, dtype=FLOAT)
    x1 = np.concatenate([x_t, o], axis=-1)
    if x1.shape[-1] != dim:
        raise ShapeError(
            f"interaction dim mismatch: concat width {x1.shape[-1]} != configured {dim}")
    return x1


def qnn_layer_forward(w: np.ndarray, slope: float, x: np.ndarray, cfg: QnnConfig,
                      drop_mask: np.ndarray | None = None):
    """One quadratic layer on a (n, dim) batch."""
    if x.shape[-1] != cfg.dim or w.shape != (cfg.m, cfg.dim, cfg.dim):
        raise ShapeError(f"layer shapes x={x.shape} w={w.shape} do not match dim={cfg.dim}")
    t = x @ w.sum(axis=0).T
    if cfg.mid_act:
        h = t
        branch = prelu(t, slope)
        np.multiply(x, branch, out=branch)
    else:
        h = x * t
        branch = prelu(h, slope)
    if drop_mask is not None:
        branch *= drop_mask
        branch /= 1.0 - cfg.dropout_p
    if cfg.residual:
        np.add(x, branch, out=branch)
    return branch, QnnLayerTrace(x=x, t=t, h=h, drop_mask=drop_mask)


def qnn_layer_backward(w: np.ndarray, slope: float, cfg: QnnConfig,
                       trace: QnnLayerTrace, d_out: np.ndarray):
    """Gradients of one layer; returns (d_w, d_slope, d_x).

    Every head gets the same (dim, dim) gradient, so d_w is a read-only
    broadcast view of it; callers add it into their own arrays.
    """
    d_branch = d_out
    if trace.drop_mask is not None:
        d_branch = d_out * trace.drop_mask
        d_branch /= 1.0 - cfg.dropout_p

    x, h = trace.x, trace.h   # under mid_act h is t itself
    d_act = d_branch * x if cfg.mid_act else d_branch   # gradient at act's output
    d_slope = 0.0 if cfg.act == "relu" else prelu_slope_grad(h, d_act)
    d_h = prelu_grad(h, slope)
    np.multiply(d_act, d_h, out=d_h)
    if cfg.mid_act:
        # branch = x * act(t)
        d_x = prelu(h, slope)
        np.multiply(d_branch, d_x, out=d_x)
        d_t = d_h
    else:
        # branch = act(x * t)
        d_x = d_h * trace.t
        d_t = np.multiply(d_h, x, out=d_h)
    d_w = np.broadcast_to(d_t.T @ x, w.shape)
    np.add(d_x, d_t @ w.sum(axis=0), out=d_x)
    if cfg.residual:
        np.add(d_x, d_out, out=d_x)
    return d_w, d_slope, d_x


def brute_force_expansion(w: np.ndarray, slope: float, x: np.ndarray,
                          cfg: QnnConfig) -> np.ndarray:
    """Oracle: one layer on one sample, summing every x_i*x_j monomial explicitly."""
    d = cfg.dim
    h = [0.0] * d
    t = [0.0] * d
    for i in range(d):
        for j in range(d):
            coeff = 0.0
            for m in range(cfg.m):
                coeff += float(w[m, i, j])
            t[i] += coeff * float(x[j])
            h[i] += coeff * float(x[i]) * float(x[j])
    out = np.empty(d, dtype=FLOAT)
    for i in range(d):
        if cfg.mid_act:
            ti = t[i] if t[i] >= 0 else slope * t[i]
            branch = float(x[i]) * ti
        else:
            branch = h[i] if h[i] >= 0 else slope * h[i]
        out[i] = (float(x[i]) + branch) if cfg.residual else branch
    return out


def qnn_forward(ws: list, slopes: np.ndarray, x1: np.ndarray, cfg: QnnConfig,
                drop_masks: list | None = None):
    """Run the full stack; drop_masks is one (n, dim) {0,1} mask per layer or None."""
    x = np.asarray(x1, dtype=FLOAT)
    single = x.ndim == 1
    if single:
        x = x[None]
    layers = []
    for l in range(cfg.depth):
        dm = drop_masks[l] if drop_masks is not None else None
        x, trace = qnn_layer_forward(ws[l], float(slopes[l]), x, cfg, dm)
        layers.append(trace)
    out = x[0] if single else x
    return out, QnnTrace(layers=layers, single=single)


def qnn_backward(ws: list, slopes: np.ndarray, cfg: QnnConfig,
                 trace: QnnTrace, d_out):
    """Gradients through the full stack; returns (d_ws, d_slopes, d_x1)."""
    d_x = np.asarray(d_out, dtype=FLOAT)
    if trace.single:
        d_x = d_x[None]
    d_ws = [None] * cfg.depth
    d_slopes = np.zeros(cfg.depth, dtype=FLOAT)
    for l in range(cfg.depth - 1, -1, -1):
        d_w, d_slope, d_x = qnn_layer_backward(ws[l], float(slopes[l]), cfg,
                                               trace.layers[l], d_x)
        d_ws[l] = d_w
        d_slopes[l] = d_slope
    if trace.single:
        d_x = d_x[0]
    return d_ws, d_slopes, d_x


@dataclass
class MlpTrace:
    inputs: list    # per-layer input (n, in_dim)
    pre: list       # per-layer pre-activation (n, out_dim)
    single: bool


def mlp_forward(ws: list, bs: list, x1: np.ndarray):
    """Affine + ReLU stack used by the no-QNN ablation."""
    x = np.asarray(x1, dtype=FLOAT)
    single = x.ndim == 1
    if single:
        x = x[None]
    inputs, pre = [], []
    for w, b in zip(ws, bs):
        if x.shape[-1] != w.shape[1]:
            raise ShapeError(f"mlp layer expects input width {w.shape[1]}, got {x.shape[-1]}")
        inputs.append(x)
        a = x @ w.T + b
        pre.append(a)
        x = np.maximum(a, 0.0)
    out = x[0] if single else x
    return out, MlpTrace(inputs=inputs, pre=pre, single=single)


def mlp_backward(ws: list, bs: list, trace: MlpTrace, d_out):
    d_x = np.asarray(d_out, dtype=FLOAT)
    if trace.single:
        d_x = d_x[None]
    d_ws = [None] * len(ws)
    d_bs = [None] * len(ws)
    for l in range(len(ws) - 1, -1, -1):
        d_a = d_x * (trace.pre[l] > 0)
        d_ws[l] = d_a.T @ trace.inputs[l]
        d_bs[l] = d_a.sum(axis=0)
        d_x = d_a @ ws[l]
    if trace.single:
        d_x = d_x[0]
    return d_ws, d_bs, d_x
