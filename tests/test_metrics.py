import math

import numpy as np
import pytest
from conftest import stable_sort_auc
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qin.errors import DataError, ShapeError, SingleClassError
from qin.linalg import make_rng, sigmoid
from qin.metrics import auc, auc_bruteforce, bce_backward, bce_logit_loss, head_forward


def test_head_zero_gives_half():
    logit = head_forward(np.zeros(3), np.zeros(()), np.ones(3))
    assert logit == 0.0
    assert sigmoid(logit) == 0.5


def test_head_bias_cancels():
    logit = head_forward(np.array([1.0, 0.0]), np.array(-3.0), np.array([3.0, 7.0]))
    assert logit == 0.0
    assert sigmoid(logit) == 0.5


def test_head_log3_quarters():
    logit = head_forward(np.array([1.0]), np.zeros(()), np.array([math.log(3.0)]))
    assert abs(sigmoid(logit) - 0.75) < 1e-12


def test_head_shape_error():
    with pytest.raises(ShapeError):
        head_forward(np.zeros(3), np.zeros(()), np.ones(4))


def test_bce_half_is_ln2():
    assert abs(bce_logit_loss(np.array([0.0]), np.array([1.0])) - math.log(2.0)) < 1e-12


def test_bce_perfect_prediction_tiny():
    logits = np.array([800.0, -800.0])
    assert np.array_equal(sigmoid(logits), [1.0, 0.0])
    loss = bce_logit_loss(logits, np.array([1.0, 0.0]))
    assert loss <= 1e-11


def test_bce_two_sample_case():
    # Probabilities 0.9 and 0.2, as logits log(p / (1 - p)).
    logits = np.array([math.log(9.0), math.log(0.25)])
    assert np.max(np.abs(sigmoid(logits) - [0.9, 0.2])) < 1e-15
    loss = bce_logit_loss(logits, np.array([1.0, 0.0]))
    expected = -(math.log(0.9) + math.log(0.8)) / 2.0
    assert abs(loss - expected) < 1e-12
    assert abs(loss - 0.164252) < 1e-6


def test_bce_gradient_matches_finite_differences():
    rng = make_rng(0)
    logits = rng.standard_normal(16) * 2
    labels = (rng.random(16) < 0.5).astype(float)
    grad = bce_backward(logits, labels)
    h = 1e-6
    for i in range(16):
        moved = logits.copy()
        moved[i] += h
        f_plus = bce_logit_loss(moved, labels)
        moved[i] -= 2 * h
        f_minus = bce_logit_loss(moved, labels)
        numeric = (f_plus - f_minus) / (2 * h)
        assert abs(grad[i] - numeric) / max(abs(grad[i]), abs(numeric), 1e-8) < 1e-6


def test_bce_permutation_invariant():
    rng = make_rng(1)
    logits = rng.standard_normal(20) * 2
    labels = (rng.random(20) < 0.5).astype(float)
    perm = rng.permutation(20)
    assert bce_logit_loss(logits, labels) == pytest.approx(
        bce_logit_loss(logits[perm], labels[perm]), abs=1e-15)


def test_bce_nan_logit_gives_nan():
    assert math.isnan(bce_logit_loss(np.array([0.3, np.nan]), np.array([1.0, 0.0])))


def test_bce_length_mismatch():
    with pytest.raises(ShapeError):
        bce_logit_loss(np.zeros(3), np.zeros(4))


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


@pytest.mark.parametrize("fn", [auc, auc_bruteforce])
@pytest.mark.parametrize("labels, first", [([0, 0, 1, 1, 2], "2"), ([0, 0.5, 1, 1, 0], "0.5"),
                                           ([0, 1, -1, 1, 0], "-1"), ([0, 1, 1, math.nan, 0], "nan")])
def test_auc_rejects_a_label_other_than_0_or_1(fn, labels, first):
    # Counted as neither class, a label 2 made the rank AUC 1.25 while the
    # pairwise count read 0.75; both now raise and name the label.
    row = next(i for i, y in enumerate(labels) if y not in (0, 1))
    with pytest.raises(DataError, match=rf"sample {row} has label {first}, expected 0 or 1$"):
        fn(np.array([0.1, 0.4, 0.35, 0.8, 0.05]), np.array(labels))


@pytest.mark.parametrize("scores", [[0.1, math.nan, 0.3, 0.2, 0.9, 0.5], [math.nan] * 6],
                         ids=["one_nan", "all_nan"])
def test_auc_nan_scores_give_nan(scores):
    # A NaN compares false both ways, so a rank or pairwise count over it
    # reads as a plausible AUC (0.778 and 0.444 for one NaN); both say NaN.
    labels = np.array([0, 1, 0, 1, 1, 0])
    assert math.isnan(auc(np.array(scores), labels))
    assert math.isnan(auc_bruteforce(np.array(scores), labels))


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


def bits(x: float) -> bytes:
    return np.float64(x).tobytes()


# A few distinct scores per case, ±0 and ±inf among them, so most are tied.
TIED_VALUES = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, np.inf, -np.inf]),
                                 st.floats(-10, 10).map(lambda v: round(v, 1))),
                       min_size=1, max_size=5)


@settings(deadline=None, max_examples=300)
@given(data=st.data(), n=st.integers(2, 300), values=TIED_VALUES,
       label_dtype=st.sampled_from([np.int64, np.float32]))
def test_auc_is_exact_and_order_free_under_heavy_ties(data, n, values, label_dtype):
    # The group rank sum against the pairwise count, against the stable
    # sort and per-sample float64 rank sum it replaced, and under any
    # order of its input: the same bits every time.
    codes = data.draw(arrays(np.int64, n, elements=st.integers(0, len(values) - 1)))
    scores = np.array(values, dtype=np.float64)[codes]
    labels = data.draw(arrays(label_dtype, n, elements=st.sampled_from([0, 1])))
    labels[:2] = (0, 1)
    perm = np.array(data.draw(st.permutations(range(n))))
    got = auc(scores, labels)
    assert bits(got) == bits(auc_bruteforce(scores, labels))
    assert bits(got) == bits(stable_sort_auc(scores, labels))
    assert bits(auc(scores[perm], labels[perm])) == bits(got)
