import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qin.linalg import (make_rng, prelu, prelu_grad, prelu_slope_terms, relu, relu_grad,
                        segment_sum, sigmoid)


def test_elementwise_definitions():
    x = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(relu(x), [0.0, 0.0, 2.0])
    assert np.array_equal(prelu(np.array([-2.0]), 0.25), [-0.5])
    assert sigmoid(np.array([0.0]))[0] == 0.5


def test_activation_monotonicity_where_defined():
    # relu, prelu, sigmoid are globally nondecreasing.
    x = np.sort(make_rng(3).standard_normal(500) * 3)
    for fn in (relu, lambda v: prelu(v, 0.25), sigmoid):
        y = fn(x)
        assert np.all(np.diff(y) >= 0)


def test_activation_gradients_match_finite_differences():
    rng = make_rng(5)
    x = rng.standard_normal(100) * 2
    x = x[np.abs(x) > 1e-3]
    h = 1e-6
    for fn, grad in ((relu, relu_grad),
                     (lambda v: prelu(v, 0.3), lambda v: prelu_grad(v, 0.3))):
        numeric = (fn(x + h) - fn(x - h)) / (2 * h)
        assert np.max(np.abs(numeric - grad(x))) < 1e-6


def where_prelu(x, slope):
    return np.where(x >= 0.0, x, slope * x)


def where_prelu_grad(x, slope):
    return np.where(x >= 0.0, 1.0, slope)


SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310, 1e308, -1e308])
VALUES = st.one_of(SPECIAL, st.floats(allow_nan=True, allow_infinity=True))
SLOPES = st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.25, -3.0]),
                   st.floats(max_value=-1e-300, allow_nan=False, allow_infinity=False),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(deadline=None, max_examples=300)
@given(x=arrays(np.float64, st.tuples(st.integers(0, 9), st.integers(1, 9)), elements=VALUES),
       slope=SLOPES)
def test_prelu_matches_where_definition(x, slope):
    # The np.where forms are the reference; ±0, ±inf and NaN inputs are
    # covered, and NaN must map to the negative branch in the gradient.
    # Overflow and 0 * inf warn in both forms alike.
    before = x.copy()
    with np.errstate(all="ignore"):
        assert np.array_equal(prelu(x, slope), where_prelu(x, slope), equal_nan=True)
        assert np.array_equal(prelu_grad(x, slope), where_prelu_grad(x, slope), equal_nan=True)
    assert prelu_grad(x, slope).dtype == np.float64
    assert np.array_equal(x, before, equal_nan=True)


@settings(deadline=None, max_examples=300)
@given(data=st.data(), shape=st.tuples(st.integers(0, 9), st.integers(1, 9)))
def test_prelu_slope_grad_matches_where_definition(data, shape):
    # Finite inputs: a NaN pre-activation makes the branch-free sum NaN,
    # where the select dropped it, and training stops on a NaN loss first.
    finite = st.one_of(st.sampled_from([0.0, -0.0, 1e-310, -1e-310, 1e308, -1e308]),
                       st.floats(allow_nan=False, allow_infinity=False))
    x = data.draw(arrays(np.float64, shape, elements=finite))
    upstream = data.draw(arrays(np.float64, shape, elements=finite))
    with np.errstate(all="ignore"):
        want_terms = np.where(x < 0, upstream * x, 0.0)
        want = float(np.sum(want_terms))
        terms = prelu_slope_terms(x, upstream)
        got = float(np.sum(terms))
    assert np.array_equal(terms, want_terms, equal_nan=True)
    assert got == want or (np.isnan(got) and np.isnan(want))


def test_rng_determinism():
    a = make_rng(42).normal(0.0, 1.0, 5)
    b = make_rng(42).normal(0.0, 1.0, 5)
    assert np.array_equal(a, b)


def test_rng_std_zero_degenerate():
    out = make_rng(1).normal(2.5, 0.0, 4)
    assert np.array_equal(out, np.full(4, 2.5))


def test_rng_law_of_large_numbers():
    draws = make_rng(99).normal(0.0, 1.0, 100_000)
    assert abs(draws.mean()) < 0.02


def test_kernel_sequence_bit_determinism():
    def run():
        rng = make_rng(123)
        a = rng.normal(0.0, 1.0, 16).reshape(4, 4)
        b = rng.normal(0.0, 1.0, 16).reshape(4, 4)
        return relu(a) @ sigmoid(b)

    assert np.array_equal(run(), run())


def test_segment_sum_terms_match_add_at():
    rng = make_rng(14)
    n, s, d, count = 5, 4, 3, 9
    # Repeated ids within and across rows; ids 7 and 8 never occur, so
    # count lies above the largest id.
    ids = np.array([[0, 2, 2, 5], [5, 5, 1, 0], [3, 2, 6, 6], [0, 0, 0, 0], [6, 1, 2, 3]])
    a, b = rng.standard_normal((n, d)), rng.standard_normal((n, d))
    w_a, w_b = rng.standard_normal((n, s)), rng.standard_normal((n, s))
    w_a[3] = 0.0   # a padding row: zero weight in both terms
    w_b[3] = 0.0
    ref = np.zeros((count, d))
    np.add.at(ref, ids, w_a[:, :, None] * a[:, None, :] + w_b[:, :, None] * b[:, None, :])
    out = segment_sum(ids, count, (a, w_a), (b, w_b))
    assert out.shape == (count, d)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(out[7:], np.zeros((2, d)))
    assert np.array_equal(out.tobytes(), segment_sum(ids, count, (a, w_a), (b, w_b)).tobytes())

    # One term, unweighted, over (n,) ids: each row counted once.
    flat = np.array([4, 1, 4, 0, 4])
    ref = np.zeros((count, d))
    np.add.at(ref, flat, a)
    out = segment_sum(flat, count, (a, None))
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(out.tobytes(), segment_sum(flat, count, (a, None)).tobytes())
