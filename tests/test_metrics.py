import math

import numpy as np
import pytest

from qin.errors import ShapeError, SingleClassError
from qin.linalg import make_rng, sigmoid
from qin.metrics import auc, auc_bruteforce, bce_backward, bce_loss, head_forward


def test_head_zero_gives_half():
    logit, prob = head_forward(np.zeros(3), np.zeros(()), np.ones(3))
    assert logit == 0.0
    assert prob == 0.5


def test_head_bias_cancels():
    logit, prob = head_forward(np.array([1.0, 0.0]), np.array(-3.0), np.array([3.0, 7.0]))
    assert logit == 0.0
    assert prob == 0.5


def test_head_log3_quarters():
    logit, prob = head_forward(np.array([1.0]), np.zeros(()), np.array([math.log(3.0)]))
    assert abs(prob - 0.75) < 1e-12


def test_head_shape_error():
    with pytest.raises(ShapeError):
        head_forward(np.zeros(3), np.zeros(()), np.ones(4))


def test_bce_half_is_ln2():
    assert abs(bce_loss(np.array([0.5]), np.array([1.0])) - math.log(2.0)) < 1e-12


def test_bce_perfect_prediction_tiny():
    loss = bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert loss <= 1e-11


def test_bce_two_sample_case():
    loss = bce_loss(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
    expected = -(math.log(0.9) + math.log(0.8)) / 2.0
    assert abs(loss - expected) < 1e-12
    assert abs(loss - 0.164252) < 1e-6


def test_bce_gradient_matches_finite_differences():
    rng = make_rng(0)
    logits = rng.standard_normal(16) * 2
    labels = (rng.random(16) < 0.5).astype(float)
    probs = sigmoid(logits)
    grad = bce_backward(probs, labels)
    h = 1e-6
    for i in range(16):
        moved = logits.copy()
        moved[i] += h
        f_plus = bce_loss(sigmoid(moved), labels)
        moved[i] -= 2 * h
        f_minus = bce_loss(sigmoid(moved), labels)
        numeric = (f_plus - f_minus) / (2 * h)
        assert abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-8) < 1e-6


def test_bce_permutation_invariant():
    rng = make_rng(1)
    probs = rng.random(20)
    labels = (rng.random(20) < 0.5).astype(float)
    perm = rng.permutation(20)
    assert bce_loss(probs, labels) == pytest.approx(bce_loss(probs[perm], labels[perm]), abs=1e-15)


def test_bce_length_mismatch():
    with pytest.raises(ShapeError):
        bce_loss(np.zeros(3), np.zeros(4))


def test_auc_perfect_ranking():
    assert auc(np.array([0.9, 0.1]), np.array([1, 0])) == 1.0


def test_auc_reversed_ranking_zero():
    assert auc_bruteforce(np.array([0.1, 0.9]), np.array([1, 0])) == 0.0


def test_auc_all_ties_half():
    assert auc(np.full(6, 0.3), np.array([1, 0, 1, 0, 1, 0])) == 0.5


def test_auc_pairwise_hand_case():
    scores = np.array([0.8, 0.7, 0.6, 0.5])
    labels = np.array([1, 0, 1, 0])
    # pairs: (0.8 vs 0.7) win, (0.8 vs 0.5) win, (0.6 vs 0.7) loss, (0.6 vs 0.5) win
    assert auc(scores, labels) == 0.75
    assert auc_bruteforce(scores, labels) == 0.75


def test_auc_single_class_errors():
    with pytest.raises(SingleClassError):
        auc(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(SingleClassError):
        auc_bruteforce(np.array([0.1, 0.2]), np.array([0, 0]))


def test_auc_oracle_equivalence_sweep():
    rng = make_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 1001))
        labels = np.zeros(n, dtype=int)
        labels[: int(rng.integers(1, n))] = 1
        rng.shuffle(labels)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 2)
        assert auc(scores, labels) == auc_bruteforce(scores, labels)


def test_auc_monotone_transform_bit_exact():
    rng = make_rng(3)
    n = 400
    labels = (rng.random(n) < 0.4).astype(int)
    labels[0], labels[1] = 0, 1
    scores = np.round(rng.random(n), 6)
    base = auc(scores, labels)
    assert auc(2.0 * scores + 1.0, labels) == base
    assert auc(sigmoid(scores), labels) == base
