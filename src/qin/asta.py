"""Adaptive sparse target attention over the user behavior sequence.

The target item is the query, the behavior sequence supplies keys and
values. Scores are Q.K^T scaled by 1/sqrt(d_a); the score transform is
ReLU by default, which yields non-normalized, exactly sparse weights.
SoftMax, squared-ReLU and SiLU transforms are kept for ablations. The
target embedding is added back to the weighted value sum for every kind,
so ablations isolate the score transform alone.

Masking: with softmax the masked scores are forced to -inf before
normalization; for the pointwise kinds the transformed weight is zeroed.
Either way masked positions contribute exactly zero to the output, and an
all-masked (empty) history returns the target embedding unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .linalg import (FLOAT, relu, relu2, relu2_grad, relu_grad, segment_sum, silu,
                     silu_grad)

KINDS = ("relu", "softmax", "relu2", "silu")


@dataclass(frozen=True)
class AttentionConfig:
    kind: str
    d_a: int
    d_t: int
    d_b: int
    seq_len: int
    dropout: bool = False
    dropout_p: float = 0.1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"attention kind must be one of {KINDS}, got {self.kind!r}")
        if self.d_a != self.d_t:
            raise ConfigError("attention output dim must equal the target dim (residual add)")

    @property
    def scale(self) -> float:
        return self.d_a ** -0.5


@dataclass
class AttentionTrace:
    """Everything the backward pass replays, per batch row."""

    q: np.ndarray            # (n, d_a)
    k: np.ndarray            # (n, s, d_a) key of each slot
    v: np.ndarray            # (n, s, d_a) value of each slot
    scores: np.ndarray       # (n, s) raw scaled scores
    weights: np.ndarray      # (n, s) transformed, masked, post-dropout
    x_t: np.ndarray          # (n, d_t)
    table: np.ndarray        # (rows, d_b) behavior rows the slots index
    ids: np.ndarray          # (n, s) table row of each slot
    x_b_shape: tuple         # shape of the x_b argument, which d_x_b takes
    mask: np.ndarray         # (n, s)
    drop_mask: np.ndarray | None  # (n, s) in {0,1} or None
    softmax_w: np.ndarray | None  # (n, s) pre-dropout softmax weights


def attention_weights(scores: np.ndarray, mask: np.ndarray, kind: str) -> np.ndarray:
    """Score transform plus masking; no dropout.

    softmax rows normalize over unmasked positions (all-masked rows yield
    all-zero weights); the other kinds transform pointwise then zero the
    masked slots.
    """
    scores = np.asarray(scores, dtype=FLOAT)
    mask = np.asarray(mask, dtype=FLOAT)
    if scores.shape != mask.shape:
        raise ShapeError(f"scores/mask shape mismatch: {scores.shape} vs {mask.shape}")
    if kind == "softmax":
        neg = np.where(mask > 0, scores, -np.inf)
        live = mask.sum(axis=-1) > 0
        shifted = neg - np.where(live, neg.max(axis=-1), 0.0)[..., None]
        ex = np.where(mask > 0, np.exp(shifted), 0.0)
        denom = ex.sum(axis=-1)
        return np.where(live[..., None], ex / np.where(live, denom, 1.0)[..., None], 0.0)
    if kind == "relu":
        return relu(scores) * mask
    if kind == "relu2":
        return relu2(scores) * mask
    if kind == "silu":
        return silu(scores) * mask
    raise ConfigError(f"unknown attention kind {kind!r}")


def _promote(x_t, x_b, mask, ids):
    """Batch-shaped inputs, the behavior table and each slot's row in it.

    Without ids, x_b holds one row per slot, (n, s, d_b) or (s, d_b) for
    one sample, and is read as a table of n*s rows under the identity
    index. With ids, (n, s) or (s,), x_b is already the item table.
    """
    x_t = np.asarray(x_t, dtype=FLOAT)
    x_b = np.asarray(x_b, dtype=FLOAT)
    mask = np.asarray(mask, dtype=FLOAT)
    if ids is None:
        table = x_b.reshape(-1, x_b.shape[-1])
        ids = np.arange(table.shape[0]).reshape(x_b.shape[:-1])
    else:
        table = x_b
        ids = np.asarray(ids, dtype=np.int64)
    single = x_t.ndim == 1
    if single:
        x_t, ids, mask = x_t[None], ids[None], mask[None]
    return x_t, table, ids, mask, single


def asta_forward(w_q: np.ndarray, w_k: np.ndarray, w_v: np.ndarray,
                 cfg: AttentionConfig, x_t, x_b, mask,
                 drop_mask: np.ndarray | None = None, ids=None):
    """Interest vector o = transform(Q.K^T / sqrt(d_a)) V + x_t.

    Accepts one sample (x_t (d_t,), x_b (s, d_b)) or a batch with a leading
    n axis. With ids, x_b is an item table (rows, d_b) instead and ids
    (n, s) names the row behind each slot; keys and values are then
    projected once per table row rather than once per slot. drop_mask,
    when given, is the {0,1} keep mask applied to the transformed weights
    with inverted scaling (training mode only).
    """
    x_b_shape = np.shape(x_b)
    x_t, table, ids, mask, single = _promote(x_t, x_b, mask, ids)
    if ids.ndim != 2 or x_t.shape != (ids.shape[0], cfg.d_t) \
            or table.shape[-1] != cfg.d_b or mask.shape != ids.shape:
        raise ShapeError(
            f"attention input shapes x_t={x_t.shape} x_b={x_b_shape} mask={mask.shape} "
            f"do not match config (d_t={cfg.d_t}, d_b={cfg.d_b})")
    if w_q.shape != (cfg.d_a, cfg.d_t) or w_k.shape != (cfg.d_a, cfg.d_b) \
            or w_v.shape != (cfg.d_a, cfg.d_b):
        raise ShapeError("attention projection shapes do not match config")

    q = x_t @ w_q.T                                         # (n, d_a)
    k = np.take(table @ w_k.T, ids, axis=0)                 # (n, s, d_a)
    v = np.take(table @ w_v.T, ids, axis=0)                 # (n, s, d_a)
    scores = (k @ q[:, :, None])[:, :, 0] * cfg.scale

    weights = attention_weights(scores, mask, cfg.kind)
    softmax_w = weights if cfg.kind == "softmax" else None
    if drop_mask is not None:
        weights = weights * drop_mask / (1.0 - cfg.dropout_p)

    o = (weights[:, None, :] @ v)[:, 0, :] + x_t
    trace = AttentionTrace(q=q, k=k, v=v, scores=scores, weights=weights, x_t=x_t,
                           table=table, ids=ids, x_b_shape=x_b_shape, mask=mask,
                           drop_mask=drop_mask, softmax_w=softmax_w)
    if single:
        return o[0], trace
    return o, trace


def asta_backward(w_q: np.ndarray, w_k: np.ndarray, w_v: np.ndarray,
                  cfg: AttentionConfig, trace: AttentionTrace, d_o):
    """Reverse-mode gradients for the attention block.

    Returns (d_w_q, d_w_k, d_w_v, d_x_t, d_x_b), d_x_b shaped like the x_b
    of the forward call: per slot, or per table row when ids were given.
    Slot gradients of keys and values are summed per table row before
    they meet the projections. ReLU subgradient at 0 is 0; the residual
    contributes identity to d_x_t; dropout masks are replayed from the
    trace.
    """
    d_o = np.asarray(d_o, dtype=FLOAT)
    single = d_o.ndim == 1
    if single:
        d_o = d_o[None]
    if d_o.shape != trace.x_t.shape:
        raise ShapeError(f"upstream shape {d_o.shape} does not match forward {trace.x_t.shape}")

    d_x_t = d_o.copy()                                      # residual path
    d_w = (trace.v @ d_o[:, :, None])[:, :, 0]              # d loss / d weights

    if trace.drop_mask is not None:
        d_w = d_w * trace.drop_mask / (1.0 - cfg.dropout_p)

    if cfg.kind == "softmax":
        p = trace.softmax_w
        d_scores = p * (d_w - (d_w * p).sum(axis=1)[:, None])
    elif cfg.kind == "relu":
        d_scores = d_w * relu_grad(trace.scores) * trace.mask
    elif cfg.kind == "relu2":
        d_scores = d_w * relu2_grad(trace.scores) * trace.mask
    else:
        d_scores = d_w * silu_grad(trace.scores) * trace.mask
    d_scores = d_scores * cfg.scale

    d_q = (d_scores[:, None, :] @ trace.k)[:, 0, :]
    d_w_q = d_q.T @ trace.x_t
    d_x_t += d_q @ w_q

    # Slot (r, j) adds d_scores[r, j] * q[r] to the key gradient of its
    # table row and weights[r, j] * d_o[r] to the value gradient.
    rows = trace.table.shape[0]
    g_k = segment_sum(trace.ids, trace.q, rows, weights=d_scores)
    g_v = segment_sum(trace.ids, d_o, rows, weights=trace.weights)
    d_w_k = g_k.T @ trace.table
    d_w_v = g_v.T @ trace.table
    d_x_b = (g_k @ w_k + g_v @ w_v).reshape(trace.x_b_shape)

    if single:
        return d_w_q, d_w_k, d_w_v, d_x_t[0], d_x_b
    return d_w_q, d_w_k, d_w_v, d_x_t, d_x_b


@dataclass
class MeanPoolTrace:
    x_t: np.ndarray
    ids: np.ndarray       # (n, s) table row of each slot
    x_b_shape: tuple      # shape of the x_b argument, which d_x_b takes
    share: np.ndarray     # (n, s) weight of each slot in the mean: mask / seq_len
    mean: np.ndarray      # (n, d_b) masked mean of behavior rows


def mean_pool_forward(w_v: np.ndarray, x_t, x_b, mask, ids=None):
    """Ablation pooling: o = W_v . mean(unmasked x_b) + x_t.

    x_b and ids are read as in asta_forward.
    """
    x_b_shape = np.shape(x_b)
    x_t, table, ids, mask, single = _promote(x_t, x_b, mask, ids)
    counts = mask.sum(axis=1)
    inv_len = np.where(counts > 0, 1.0 / np.where(counts > 0, counts, 1.0), 0.0)
    share = mask * inv_len[:, None]
    mean = (share[:, None, :] @ np.take(table, ids, axis=0))[:, 0, :]
    o = mean @ w_v.T + x_t
    trace = MeanPoolTrace(x_t=x_t, ids=ids, x_b_shape=x_b_shape, share=share, mean=mean)
    if single:
        return o[0], trace
    return o, trace


def mean_pool_backward(w_v: np.ndarray, trace: MeanPoolTrace, d_o):
    d_o = np.asarray(d_o, dtype=FLOAT)
    single = d_o.ndim == 1
    if single:
        d_o = d_o[None]
    d_x_t = d_o.copy()
    d_w_v = d_o.T @ trace.mean
    d_mean = d_o @ w_v
    rows = int(np.prod(trace.x_b_shape[:-1]))
    d_x_b = segment_sum(trace.ids, d_mean, rows, weights=trace.share).reshape(trace.x_b_shape)
    if single:
        return d_w_v, d_x_t[0], d_x_b
    return d_w_v, d_x_t, d_x_b
