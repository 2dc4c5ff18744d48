"""Prediction head, binary cross-entropy, and ranking metrics.

One loss: ``bce_logit_loss``, the mean of ``logaddexp(0, z) - y z`` over
the logits ``head_forward`` returns. Training (``model.loss_and_grads``),
the gradient check and evaluation all take it. It is finite for any
finite logit, grows as |z| for a saturated wrong one, and is NaN for a
NaN logit. The loss and both AUCs widen their scores to float64, so every
reported number is a float64 sum. ``bce_backward``'s
``(sigmoid(z) - y) / n`` is the derivative of the loss and computes in the
dtype of its inputs.

The fast AUC uses rank sums with average ranks on ties, which is
algebraically identical to the O(N^2) pairwise count (wins plus half
ties); ``auc_bruteforce`` keeps the pairwise definition as the oracle.
Both give NaN when any score is NaN: a NaN orders neither above nor
below anything.
"""

from __future__ import annotations

import numpy as np

from .dataio import check_labels
from .errors import ShapeError, SingleClassError
from .linalg import FLOAT, sigmoid


def head_forward(head_w: np.ndarray, head_b: np.ndarray, x_last):
    """logit = head_w . x + head_b. Batched or single."""
    if x_last.shape[-1] != head_w.shape[0]:
        raise ShapeError(f"head expects width {head_w.shape[0]}, got {x_last.shape[-1]}")
    return x_last @ head_w + float(head_b)


def bce_logit_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy of sigmoid(logits): mean(logaddexp(0, z) - y z), in float64."""
    if logits.shape != labels.shape:
        raise ShapeError(f"logits/labels length mismatch: {logits.shape} vs {labels.shape}")
    z = np.asarray(logits, dtype=FLOAT)
    with np.errstate(invalid="ignore"):   # a NaN logit gives a NaN loss, not a warning
        return float(np.mean(np.logaddexp(0.0, z) - labels * z))


def bce_backward(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d loss / d logit of bce_logit_loss: (sigmoid(z) - y) / n."""
    if logits.shape != labels.shape:
        raise ShapeError(f"logits/labels length mismatch: {logits.shape} vs {labels.shape}")
    return (sigmoid(logits) - labels) / logits.shape[0]


def _split_classes(scores, labels):
    """Scores as float64, labels as given; a label other than 0 or 1 is a DataError."""
    scores = np.asarray(scores, dtype=FLOAT)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ShapeError(f"scores/labels length mismatch: {scores.shape} vs {labels.shape}")
    check_labels(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError(
            f"AUC undefined: need both classes, got {n_pos} positives / {n_neg} negatives")
    return scores, labels, n_pos, n_neg


def auc(scores, labels) -> float:
    """Rank-based AUC, O(N log N), average ranks on ties."""
    scores, labels, n_pos, n_neg = _split_classes(scores, labels)
    if np.isnan(scores).any():
        return float("nan")
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
    if np.isnan(scores).any():
        return float("nan")
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = float(np.sum(pos[:, None] > neg[None, :]))
    ties = float(np.sum(pos[:, None] == neg[None, :]))
    return (wins + 0.5 * ties) / (n_pos * n_neg)
