"""Adaptive sparse target attention over the user behavior sequence.

The target item is the query, the behavior sequence supplies keys and
values. Scores are Q.K^T scaled by 1/sqrt(d_t); the score transform is
ReLU by default, which yields non-normalized, exactly sparse weights.
``softmax`` and ``mean`` are the paper's ablations: softmax normalizes
the scores, and mean is "w/o ASTA", fixed weights of 1 / live count on
every unmasked slot, with no query, key or score. The target embedding
is added back to the weighted value sum for every kind, so ablations
isolate the weight rule alone. Because of that residual and because
targets and behaviors share one item vector, every width in the block is
the item width d_t.

Masking: with softmax the masked scores are forced to -inf before
normalization; under relu the transformed weight is zeroed. Either way
masked positions contribute exactly zero to the output, and an
all-masked (empty) history returns the target embedding unchanged.

Data flow: each slot's behavior row x_b comes in whole, gathered by the
embedding module, and keys and values are linear maps of those rows, so
neither is ever formed. The query is mapped into item space
(qk = W_k^T q, so q.k = x_b.qk), the weights pool the raw rows, and W_v
maps the pooled row once per sample. The backward pass mirrors this:
every projection gradient is a product of per-sample (n, d) arrays, and
the behavior-row gradient is returned factored, never per slot: slot
(r, j) gets d_score * qk[r] + weight * (W_v^T d_o)[r], and the embedding
module sums those terms into its table. Under ``mean`` there is no score
and no W_q or W_k: the slot gradient is the weight term alone, and the
block takes and returns None for them.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .config import ATTN_KINDS, check_item_width
from .errors import ConfigError, ShapeError
from .linalg import relu, relu_grad


@dataclass(frozen=True)
class AttentionConfig:
    """Score transform, item width and dropout rate of the attention block.

    d_a and d_b are accepted only when equal to d_t. dropout_p scales the
    weights when a keep mask is passed to the forward call.
    """

    kind: str
    d_t: int
    # Accepted and ignored: each call takes the history width from its mask.
    # It stays accepted because the acceptance suite (criterion 3) passes it.
    seq_len: InitVar[int | None] = None
    dropout_p: float = 0.0
    d_a: InitVar[int | None] = None
    d_b: InitVar[int | None] = None

    def __post_init__(self, seq_len, d_a, d_b):
        if self.kind not in ATTN_KINDS:
            raise ConfigError(f"attention kind must be one of {ATTN_KINDS}, got {self.kind!r}")
        check_item_width(self.d_t, d_a=d_a, d_b=d_b)

    @property
    def scale(self) -> float:
        return self.d_t ** -0.5


@dataclass
class AttentionTrace:
    """Everything the backward pass replays, per batch row.

    Only per-sample vectors and the behavior rows are kept; no per-slot
    key or value exists in either pass. Kind ``mean`` forms no query or
    score, so q, qk and scores are None.
    """

    q: np.ndarray | None     # (n, d_t)
    qk: np.ndarray | None    # (n, d_t) query mapped into item space, W_k^T q
    x_b: np.ndarray          # (n, s, d_t) behavior row of each slot
    pooled: np.ndarray       # (n, d_t) weighted sum of the behavior rows
    scores: np.ndarray | None  # (n, s) raw scaled scores
    weights: np.ndarray      # (n, s) transformed, masked, post-dropout
    x_t: np.ndarray          # (n, d_t)
    mask: np.ndarray         # (n, s)
    drop_mask: np.ndarray | None  # (n, s) bool or {0, 1} keep-mask, or None
    softmax_w: np.ndarray | None  # (n, s) pre-dropout softmax weights


def attention_weights(scores: np.ndarray | None, mask: np.ndarray, kind: str) -> np.ndarray:
    """The weight rule: score transform plus masking; no dropout.

    mean ignores the scores (None will do): each unmasked slot weighs
    1 / the row's live count, and an all-masked row weighs nothing.
    softmax rows normalize over unmasked positions (all-masked rows yield
    all-zero weights); relu transforms pointwise then zeroes the masked
    slots. Any other kind is a ConfigError.
    """
    if kind == "mean":
        counts = mask.sum(axis=-1)
        inv_len = np.where(counts > 0, 1.0 / np.where(counts > 0, counts, 1.0), 0.0)
        return mask * inv_len[..., None]
    if scores.shape != mask.shape:
        raise ShapeError(f"scores/mask shape mismatch: {scores.shape} vs {mask.shape}")
    if kind == "softmax":
        neg = np.where(mask > 0, scores, -np.inf)
        live = mask.sum(axis=-1) > 0
        shifted = neg - np.where(live, neg.max(axis=-1), 0.0)[..., None]
        ex = np.where(mask > 0, np.exp(shifted), 0.0)
        denom = ex.sum(axis=-1)
        return np.where(live[..., None], ex / np.where(live, denom, 1.0)[..., None], 0.0)
    if kind != "relu":
        raise ConfigError(f"unknown attention kind {kind!r}")
    return relu(scores) * mask


def asta_forward(w_q: np.ndarray, w_k: np.ndarray, w_v: np.ndarray,
                 cfg: AttentionConfig, x_t, x_b, mask,
                 drop_mask: np.ndarray | None = None):
    """Interest vector o = transform(Q.K^T / sqrt(d_t)) V + x_t.

    Under kind mean the weights are the masked mean's, o = W_v . mean(x_b) + x_t,
    and w_q, w_k are not used (None will do).

    Accepts a batch, x_t (n, d_t) and each slot's behavior row x_b
    (n, s, d_t), or one sample without the leading n axis. The mask takes
    x_b's dtype. drop_mask, when given, is the bool (or {0, 1}) keep mask
    applied to the transformed weights with inverted scaling (training
    mode only).
    """
    mask = mask.astype(x_b.dtype, copy=False)
    single = x_t.ndim == 1
    if single:
        x_t, x_b, mask = x_t[None], x_b[None], mask[None]
    d = cfg.d_t
    if x_b.ndim != 3 or x_t.shape != (x_b.shape[0], d) \
            or x_b.shape[2] != d or mask.shape != x_b.shape[:2]:
        raise ShapeError(
            f"attention input shapes x_t={x_t.shape} x_b={x_b.shape} mask={mask.shape} "
            f"do not match config (d_t={d})")
    if any(np.shape(w) != (d, d) for w in ((w_v,) if cfg.kind == "mean" else (w_q, w_k, w_v))):
        raise ShapeError("attention projection shapes do not match config")

    if cfg.kind == "mean":
        q = qk = scores = None
    else:
        q = x_t @ w_q.T                                     # (n, d_t)
        qk = q @ w_k                                        # (n, d_t)
        scores = (x_b @ qk[:, :, None])[:, :, 0] * cfg.scale

    weights = attention_weights(scores, mask, cfg.kind)
    softmax_w = weights if cfg.kind == "softmax" else None
    if drop_mask is not None:
        weights = weights * drop_mask / (1.0 - cfg.dropout_p)

    pooled = (weights[:, None, :] @ x_b)[:, 0, :]           # (n, d_t)
    o = pooled @ w_v.T + x_t
    trace = AttentionTrace(q=q, qk=qk, x_b=x_b, pooled=pooled, scores=scores,
                           weights=weights, x_t=x_t, mask=mask, drop_mask=drop_mask,
                           softmax_w=softmax_w)
    return (o[0] if single else o), trace


def asta_backward(w_q: np.ndarray, w_k: np.ndarray, w_v: np.ndarray,
                  cfg: AttentionConfig, trace: AttentionTrace, d_o):
    """Reverse-mode gradients for the attention block.

    Returns (d_w_q, d_w_k, d_w_v, d_x_t, d_x_b). d_x_b is the behavior-row
    gradient in factored form, a list of pairs (rows (n, d_t), weights
    (n, s)): slot (r, j) gets the sum over pairs of weights[r, j] * rows[r].
    A single-sample call drops the n axis of d_x_t and of each pair.
    ReLU subgradient at 0 is 0; the residual contributes identity to d_x_t;
    dropout masks are replayed from the trace. Kind mean has no w_q or
    w_k, so its d_w_q and d_w_k are None.
    """
    single = d_o.ndim == 1
    if single:
        d_o = d_o[None]
    if d_o.shape != trace.x_t.shape:
        raise ShapeError(f"upstream shape {d_o.shape} does not match forward {trace.x_t.shape}")

    d_x_t = d_o.copy()                                      # residual path
    d_v = d_o @ w_v                                         # (n, d_t) d_o in item space
    d_w_v = d_o.T @ trace.pooled
    # Slot (r, j) adds d_scores[r, j] * qk[r] + weights[r, j] * d_v[r] to
    # the gradient of its behavior row; fixed mean weights have no d_scores.
    value_term = (d_v, trace.weights)
    if cfg.kind == "mean":
        d_w_q = d_w_k = None
        d_x_b = [value_term]
    else:
        d_w = (trace.x_b @ d_v[:, :, None])[:, :, 0]        # d loss / d weights
        if trace.drop_mask is not None:
            d_w = d_w * trace.drop_mask / (1.0 - cfg.dropout_p)

        if cfg.kind == "softmax":
            p = trace.softmax_w
            d_scores = p * (d_w - (d_w * p).sum(axis=1)[:, None])
        else:
            d_scores = d_w * relu_grad(trace.scores) * trace.mask
        d_scores = d_scores * cfg.scale

        px = (d_scores[:, None, :] @ trace.x_b)[:, 0, :]   # (n, d_t)
        d_q = px @ w_k.T
        d_w_q = d_q.T @ trace.x_t
        d_x_t += d_q @ w_q
        d_w_k = trace.q.T @ px
        d_x_b = [(trace.qk, d_scores), value_term]

    if single:
        return d_w_q, d_w_k, d_w_v, d_x_t[0], [(rows[0], w[0]) for rows, w in d_x_b]
    return d_w_q, d_w_k, d_w_v, d_x_t, d_x_b
