"""Prediction head, binary cross-entropy, and ranking metrics.

The fast AUC uses rank sums with average ranks on ties, which is
algebraically identical to the O(N^2) pairwise count (wins plus half
ties); ``auc_bruteforce`` keeps the pairwise definition as the oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SingleClassError
from .linalg import FLOAT, sigmoid

PROB_CLAMP = 1e-12


def head_forward(head_w: np.ndarray, head_b: np.ndarray, x_last):
    """logit = head_w . x + head_b; prob = sigmoid(logit). Batched or single."""
    x = np.asarray(x_last, dtype=FLOAT)
    if x.shape[-1] != head_w.shape[0]:
        raise ShapeError(f"head expects width {head_w.shape[0]}, got {x.shape[-1]}")
    logit = x @ head_w + float(head_b)
    return logit, sigmoid(logit)


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy with probabilities clamped away from {0, 1}."""
    probs = np.asarray(probs, dtype=FLOAT)
    labels = np.asarray(labels, dtype=FLOAT)
    if probs.shape != labels.shape:
        raise ShapeError(f"probs/labels length mismatch: {probs.shape} vs {labels.shape}")
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return float(-np.mean(labels * np.log(p) + (1.0 - labels) * np.log1p(-p)))


def bce_backward(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d loss / d logit, computed from the unclamped probabilities: (p - y) / n."""
    probs = np.asarray(probs, dtype=FLOAT)
    labels = np.asarray(labels, dtype=FLOAT)
    if probs.shape != labels.shape:
        raise ShapeError(f"probs/labels length mismatch: {probs.shape} vs {labels.shape}")
    return (probs - labels) / probs.shape[0]


def _split_classes(scores, labels):
    scores = np.asarray(scores, dtype=FLOAT)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ShapeError(f"scores/labels length mismatch: {scores.shape} vs {labels.shape}")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError(
            f"AUC undefined: need both classes, got {n_pos} positives / {n_neg} negatives")
    return scores, labels, n_pos, n_neg


def auc(scores, labels) -> float:
    """Rank-based AUC, O(N log N), average ranks on ties."""
    scores, labels, n_pos, n_neg = _split_classes(scores, labels)
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    # Average 1-based ranks within each tied group; every value is an exact
    # multiple of 0.5, so the rank sum matches the pairwise count bit-exactly.
    new_group = np.r_[True, s[1:] != s[:-1]]
    group_id = np.cumsum(new_group) - 1
    counts = np.bincount(group_id)
    starts = np.cumsum(counts) - counts
    ranks = np.empty(scores.shape[0], dtype=FLOAT)
    ranks[order] = (starts + (counts + 1) / 2.0)[group_id]
    rank_sum_pos = float(np.sum(ranks[labels == 1]))
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def auc_bruteforce(scores, labels) -> float:
    """Pairwise definition: P(score+ > score-) + 0.5 P(tie). Test-scale only."""
    scores, labels, n_pos, n_neg = _split_classes(scores, labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = float(np.sum(pos[:, None] > neg[None, :]))
    ties = float(np.sum(pos[:, None] == neg[None, :]))
    return (wins + 0.5 * ties) / (n_pos * n_neg)
