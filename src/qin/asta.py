"""Adaptive sparse target attention over the user behavior sequence.

The target item is the query, the behavior sequence supplies keys and
values. Scores are Q.K^T scaled by 1/sqrt(d_t); the score transform is
ReLU by default, which yields non-normalized, exactly sparse weights.
SoftMax, squared-ReLU and SiLU transforms are kept for ablations. The
target embedding is added back to the weighted value sum for every kind,
so ablations isolate the score transform alone. Because of that residual
and because targets and behaviors share one item vector, every width in
the block is the item width d_t.

Masking: with softmax the masked scores are forced to -inf before
normalization; for the pointwise kinds the transformed weight is zeroed.
Either way masked positions contribute exactly zero to the output, and an
all-masked (empty) history returns the target embedding unchanged.

Data flow: keys and values are linear maps of the same behavior rows x_b,
so neither is ever formed. Each slot's raw row is gathered once, the
query is mapped into item space (qk = W_k^T q, so q.k = x_b.qk), the
weights pool the raw rows, and W_v maps the pooled row once per sample.
The backward pass mirrors this: every projection gradient is a product of
per-sample (n, d) arrays, and the behavior-row gradient is one segment sum
whose slot entry is d_score * qk + weight * W_v^T d_o, over columns
frozen: only; the first `frozen` columns are the store, which never trains.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .config import ATTN_KINDS, check_item_width
from .errors import ConfigError, ShapeError
from .linalg import (FLOAT, relu, relu2, relu2_grad, relu_grad, segment_sum, silu,
                     silu_grad)


@dataclass(frozen=True)
class AttentionConfig:
    """Score transform, item width and dropout rate of the attention block.

    d_a and d_b are accepted only when equal to d_t. dropout_p scales the
    weights when a keep mask is passed to the forward call.
    """

    kind: str
    d_t: int
    seq_len: int
    dropout_p: float = 0.1
    d_a: InitVar[int | None] = None
    d_b: InitVar[int | None] = None

    def __post_init__(self, d_a, d_b):
        if self.kind not in ATTN_KINDS:
            raise ConfigError(f"attention kind must be one of {ATTN_KINDS}, got {self.kind!r}")
        check_item_width(self.d_t, d_a=d_a, d_b=d_b)

    @property
    def scale(self) -> float:
        return self.d_t ** -0.5


@dataclass
class AttentionTrace:
    """Everything the backward pass replays, per batch row.

    Only per-sample vectors and the gathered behavior rows are kept; no
    per-slot key or value exists in either pass.
    """

    q: np.ndarray            # (n, d_t)
    qk: np.ndarray           # (n, d_t) query mapped into item space, W_k^T q
    x_b: np.ndarray          # (n, s, d_t) behavior row of each slot
    pooled: np.ndarray       # (n, d_t) weighted sum of the behavior rows
    scores: np.ndarray       # (n, s) raw scaled scores
    weights: np.ndarray      # (n, s) transformed, masked, post-dropout
    x_t: np.ndarray          # (n, d_t)
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
    """Batch-shaped inputs, each slot's behavior row and its table row.

    Without ids, x_b holds one row per slot, (n, s, d_t) or (s, d_t) for
    one sample, and is read as a table of n*s rows under the identity
    index. With ids, (n, s) or (s,), x_b is the item table and each
    slot's row is gathered from it once.
    """
    x_t = np.asarray(x_t, dtype=FLOAT)
    x_b = np.asarray(x_b, dtype=FLOAT)
    mask = np.asarray(mask, dtype=FLOAT)
    if ids is None:
        ids = np.arange(int(np.prod(x_b.shape[:-1]))).reshape(x_b.shape[:-1])
    else:
        ids = np.asarray(ids, dtype=np.int64)
        x_b = np.take(x_b, ids, axis=0)
    single = x_t.ndim == 1
    if single:
        x_t, x_b, ids, mask = x_t[None], x_b[None], ids[None], mask[None]
    return x_t, x_b, ids, mask, single


def asta_forward(w_q: np.ndarray, w_k: np.ndarray, w_v: np.ndarray,
                 cfg: AttentionConfig, x_t, x_b, mask,
                 drop_mask: np.ndarray | None = None, ids=None):
    """Interest vector o = transform(Q.K^T / sqrt(d_t)) V + x_t.

    Accepts one sample (x_t (d_t,), x_b (s, d_t)) or a batch with a leading
    n axis. With ids, x_b is an item table (rows, d_t) instead and ids
    (n, s) names the row behind each slot. drop_mask, when given, is the
    {0,1} keep mask applied to the transformed weights with inverted
    scaling (training mode only).
    """
    x_b_shape = np.shape(x_b)
    x_t, x_b, ids, mask, single = _promote(x_t, x_b, mask, ids)
    d = cfg.d_t
    if ids.ndim != 2 or x_t.shape != (ids.shape[0], d) \
            or x_b.shape[-1] != d or mask.shape != ids.shape:
        raise ShapeError(
            f"attention input shapes x_t={x_t.shape} x_b={x_b_shape} mask={mask.shape} "
            f"do not match config (d_t={d})")
    if any(w.shape != (d, d) for w in (w_q, w_k, w_v)):
        raise ShapeError("attention projection shapes do not match config")

    q = x_t @ w_q.T                                         # (n, d_t)
    qk = q @ w_k                                            # (n, d_t)
    scores = (x_b @ qk[:, :, None])[:, :, 0] * cfg.scale

    weights = attention_weights(scores, mask, cfg.kind)
    softmax_w = weights if cfg.kind == "softmax" else None
    if drop_mask is not None:
        weights = weights * drop_mask / (1.0 - cfg.dropout_p)

    pooled = (weights[:, None, :] @ x_b)[:, 0, :]           # (n, d_t)
    o = pooled @ w_v.T + x_t
    trace = AttentionTrace(q=q, qk=qk, x_b=x_b, pooled=pooled, scores=scores,
                           weights=weights, x_t=x_t, ids=ids, x_b_shape=x_b_shape,
                           mask=mask, drop_mask=drop_mask, softmax_w=softmax_w)
    if single:
        return o[0], trace
    return o, trace


def asta_backward(w_q: np.ndarray, w_k: np.ndarray, w_v: np.ndarray,
                  cfg: AttentionConfig, trace: AttentionTrace, d_o, frozen: int = 0):
    """Reverse-mode gradients for the attention block.

    Returns (d_w_q, d_w_k, d_w_v, d_x_t, d_x_b), d_x_b shaped like the x_b
    of the forward call, per slot or per table row when ids were given,
    but holding only columns frozen: of each row. Each slot's behavior-row
    gradient is summed per table row by one segment sum. ReLU subgradient
    at 0 is 0; the residual contributes identity to d_x_t; dropout masks
    are replayed from the trace.
    """
    d_o = np.asarray(d_o, dtype=FLOAT)
    single = d_o.ndim == 1
    if single:
        d_o = d_o[None]
    if d_o.shape != trace.x_t.shape:
        raise ShapeError(f"upstream shape {d_o.shape} does not match forward {trace.x_t.shape}")

    d_x_t = d_o.copy()                                      # residual path
    d_v = d_o @ w_v                                         # (n, d_t) d_o in item space
    d_w = (trace.x_b @ d_v[:, :, None])[:, :, 0]            # d loss / d weights

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

    px = (d_scores[:, None, :] @ trace.x_b)[:, 0, :]       # (n, d_t)
    d_q = px @ w_k.T
    d_w_q = d_q.T @ trace.x_t
    d_x_t += d_q @ w_q
    d_w_k = trace.q.T @ px
    d_w_v = d_o.T @ trace.pooled

    # Slot (r, j) adds d_scores[r, j] * qk[r] + weights[r, j] * d_v[r] to
    # the gradient of its table row.
    rows = int(np.prod(trace.x_b_shape[:-1]))
    d_x_b = segment_sum(trace.ids, rows, (trace.qk[:, frozen:], d_scores),
                        (d_v[:, frozen:], trace.weights))
    d_x_b = d_x_b.reshape(*trace.x_b_shape[:-1], d_x_b.shape[1])

    if single:
        return d_w_q, d_w_k, d_w_v, d_x_t[0], d_x_b
    return d_w_q, d_w_k, d_w_v, d_x_t, d_x_b


@dataclass
class MeanPoolTrace:
    ids: np.ndarray       # (n, s) table row of each slot
    x_b_shape: tuple      # shape of the x_b argument, which d_x_b takes
    share: np.ndarray     # (n, s) weight of each slot in the mean: mask / seq_len
    mean: np.ndarray      # (n, d_t) masked mean of behavior rows


def mean_pool_forward(w_v: np.ndarray, x_t, x_b, mask, ids=None):
    """Ablation pooling: o = W_v . mean(unmasked x_b) + x_t.

    x_b and ids are read as in asta_forward.
    """
    x_b_shape = np.shape(x_b)
    x_t, x_b, ids, mask, single = _promote(x_t, x_b, mask, ids)
    counts = mask.sum(axis=1)
    inv_len = np.where(counts > 0, 1.0 / np.where(counts > 0, counts, 1.0), 0.0)
    share = mask * inv_len[:, None]
    mean = (share[:, None, :] @ x_b)[:, 0, :]
    o = mean @ w_v.T + x_t
    trace = MeanPoolTrace(ids=ids, x_b_shape=x_b_shape, share=share, mean=mean)
    if single:
        return o[0], trace
    return o, trace


def mean_pool_backward(w_v: np.ndarray, trace: MeanPoolTrace, d_o, frozen: int = 0):
    """(d_w_v, d_x_t, d_x_b), d_x_b as in asta_backward."""
    d_o = np.asarray(d_o, dtype=FLOAT)
    single = d_o.ndim == 1
    if single:
        d_o = d_o[None]
    d_x_t = d_o.copy()
    d_w_v = d_o.T @ trace.mean
    d_mean = d_o @ w_v
    rows = int(np.prod(trace.x_b_shape[:-1]))
    d_x_b = segment_sum(trace.ids, rows, (d_mean[:, frozen:], trace.share))
    d_x_b = d_x_b.reshape(*trace.x_b_shape[:-1], d_x_b.shape[1])
    if single:
        return d_w_v, d_x_t[0], d_x_b
    return d_w_v, d_x_t, d_x_b
