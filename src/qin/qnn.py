"""Quadratic feature-interaction stack and the MLP ablation alternative.

Each quadratic layer maps x to x + dropout(act(h)) where
h[i] = x[i] * sum_j w[i, j] * x[j]: an elementwise product between the input
and a linear transform of it, so every h[i] is a quadratic form spanning all
dim^2 input pairs x_i * x_j. Depth squares the reachable polynomial degree.
The paper's m linear heads enter only through their sum, and every head gets
the same gradient, so a layer stores that sum as one (dim, dim) matrix; m is
an init-scale and learning-rate multiplier (see ``params.lr_scale``). The
forward layer also takes a stacked (m, dim, dim) weight and sums it, so the
brute-force oracle's heads can be checked against it; the backward layer
takes only the (dim, dim) matrix. The activation is PReLU with one
learnable slope per layer (plain ReLU, with no slope, for the no-PReLU
ablation), applied after the product. Both stacks take a (n, dim) batch
and raise ShapeError for any other input rank; one sample is a batch of
one. They compute in the dtype of their inputs.

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
    act: str = "prelu"   # "relu": every slope is 0, and the model stores none


@dataclass
class QnnLayerTrace:
    x: np.ndarray               # (n, dim) layer input
    t: np.ndarray               # (n, dim) x @ w.T
    h: np.ndarray               # (n, dim) pre-activation of the branch
    drop_mask: np.ndarray | None   # (n, dim) bool or {0, 1} keep-mask


def layer_slopes(slopes, cfg: QnnConfig) -> list[float]:
    """Each layer's PReLU slope; 0.0 under act relu, which has none (slopes may be None)."""
    return [0.0] * cfg.depth if cfg.act == "relu" else [float(s) for s in slopes]


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


def qnn_layer_forward(w: np.ndarray, slope: float, x: np.ndarray, cfg: QnnConfig,
                      drop_mask: np.ndarray | None = None):
    """One quadratic layer on a (n, dim) batch; w is (dim, dim) or (m, dim, dim)."""
    if x.ndim != 2 or x.shape[1] != cfg.dim:
        raise ShapeError(f"layer input of shape {x.shape} is not (n, {cfg.dim})")
    t = x @ _folded(w, cfg).T
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
    """Gradients of one layer with a (dim, dim) w; returns (d_w, d_slope, d_x)."""
    if w.shape != (cfg.dim, cfg.dim):
        raise ShapeError(f"layer weight of shape {w.shape} is not ({cfg.dim}, {cfg.dim})")
    d_branch = d_out
    if trace.drop_mask is not None:
        d_branch = d_out * trace.drop_mask
        d_branch /= 1.0 - cfg.dropout_p

    x, h = trace.x, trace.h
    d_slope = 0.0 if cfg.act == "relu" else prelu_slope_grad(h, d_branch)
    d_h = prelu_grad(h, slope)
    np.multiply(d_branch, d_h, out=d_h)
    d_x = d_h * trace.t
    d_t = np.multiply(d_h, x, out=d_h)
    d_w = d_t.T @ x
    np.add(d_x, d_t @ w, out=d_x)
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
    for l, slope in enumerate(layer_slopes(slopes, cfg)):
        dm = drop_masks[l] if drop_masks is not None else None
        x, trace = qnn_layer_forward(ws[l], slope, x, cfg, dm)
        layers.append(trace)
    return x, layers


def qnn_backward(ws: list, slopes: np.ndarray, cfg: QnnConfig,
                 layers: list, d_out):
    """Gradients through the full stack, given qnn_forward's layer traces;
    returns (d_ws, d_slopes, d_x1); under act relu every d_slope is 0."""
    d_x = d_out
    d_ws = [None] * cfg.depth
    d_slopes = np.zeros(cfg.depth, dtype=d_out.dtype)
    slope_of = layer_slopes(slopes, cfg)
    for l in range(cfg.depth - 1, -1, -1):
        d_w, d_slope, d_x = qnn_layer_backward(ws[l], slope_of[l], cfg, layers[l], d_x)
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
