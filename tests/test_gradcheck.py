import dataclasses

import numpy as np
import pytest

from qin.errors import QinError
from qin.gradcheck import (check, gradcheck_hyperparams, run_model_gradcheck)
from qin.linalg import make_rng


def test_quadratic_bowl_near_exact():
    point = make_rng(0).standard_normal(12)
    report = check(lambda x: float(x @ x), 2.0 * point, point, name="bowl")
    assert report.max_rel_err < 1e-9
    assert report.n_checked == 12


def test_constant_function_zero_gradient():
    point = make_rng(1).standard_normal(8)
    # every coordinate is either certified at zero or skipped as noise
    report = check(lambda x: 5.0, np.zeros(8), point)
    assert report.max_rel_err < 1e-9
    # raw central differences on a constant stay within rounding noise
    h = 1e-5
    for i in range(8):
        x = point.copy()
        x[i] += h
        f_plus = 5.0
        x[i] -= 2 * h
        f_minus = 5.0
        assert abs(f_plus - f_minus) / (2 * h) < 1e-9


def test_wrong_gradient_detected():
    point = make_rng(2).standard_normal(6)
    report = check(lambda x: float(x @ x), -2.0 * point, point)
    assert report.max_rel_err > 0.5


def test_step_size_robustness_on_smooth_function():
    # f = sum exp(x): truncation dominates at h=1e-4 and rounding at h=1e-6,
    # and for this curvature the two errors land within an order of magnitude.
    point = make_rng(3).random(8)

    def f(x):
        return float(np.sum(np.exp(x)))

    grad = np.exp(point)
    errs = {}
    for h in (1e-4, 1e-6):
        errs[h] = check(f, grad, point, step=h).max_rel_err
    ratio = errs[1e-4] / errs[1e-6]
    assert 0.1 <= ratio <= 10.0


def test_kink_guard_skips_boundary_coordinates():
    # f(x) = relu(x0) + x1 with x0 exactly at the kink: the guard is
    # conservative and skips every coordinate while a pre-activation sits
    # inside the guard band, so both coordinates are counted as skipped.
    point = np.array([0.0, 1.0])

    def f(x):
        return float(np.maximum(x[0], 0.0) + x[1]), np.array([x[0]])

    grad = np.array([0.0, 1.0])
    report = check(f, grad, point)
    assert report.n_kink_skipped == 2
    assert report.n_checked == 0
    assert report.max_rel_err == 0.0


def test_sign_flip_guard_catches_hidden_crossing():
    # pre-activation passes through zero inside (x-h, x+h) without being
    # tiny at the endpoints: caught by the sign comparison.
    point = np.array([5e-6])

    def f(x):
        return float(np.maximum(x[0], 0.0)), np.array([x[0]])

    report = check(f, np.array([1.0]), point, step=1e-5)
    assert report.n_kink_skipped == 1


def test_non_finite_forward_rejected():
    with pytest.raises(QinError):
        check(lambda x: float("nan"), np.zeros(2), np.zeros(2))


def test_model_gradcheck_all_classes_pass():
    for report in run_model_gradcheck(7):
        assert report.max_rel_err < 1e-4, report.line()
        assert report.n_skipped <= 0.05 * max(report.n_checked + report.n_skipped, 1)


@pytest.mark.parametrize("kind", ["softmax", "relu2", "silu"])
def test_model_gradcheck_attention_kinds(kind):
    hp = gradcheck_hyperparams(attn_kind=kind)
    for report in run_model_gradcheck(11, hp=hp):
        assert report.max_rel_err < 1e-4, (kind, report.line())


def test_model_gradcheck_mean_pool_and_mlp():
    hp = gradcheck_hyperparams(pooling="mean", interaction="mlp")
    for report in run_model_gradcheck(13, hp=hp):
        assert report.max_rel_err < 1e-4, report.line()


def test_model_gradcheck_mid_activation():
    hp = gradcheck_hyperparams(mid_act=True)
    for report in run_model_gradcheck(17, hp=hp):
        assert report.max_rel_err < 1e-4, report.line()


def test_sabotage_self_test():
    reports = {r.name: r for r in run_model_gradcheck(7, sabotage="head")}
    assert reports["head"].max_rel_err > 1e-4
    clean = [r for name, r in reports.items() if name != "head"]
    assert all(r.max_rel_err < 1e-4 for r in clean)


@pytest.mark.parametrize("pooling", ["asta", "mean"])
@pytest.mark.parametrize("d_frozen", [0, 15])
def test_model_gradcheck_embeddings_at_column_edges(pooling, d_frozen):
    # No frozen column, and a single trainable one: the id-table gradient
    # is certified whatever its share of the item vector.
    hp = dataclasses.replace(gradcheck_hyperparams(pooling=pooling), d_frozen=d_frozen)
    assert hp.d_id == hp.d_t - d_frozen
    reports = {r.name: r for r in run_model_gradcheck(7, hp=hp)}
    emb = reports["embeddings"]
    assert emb.n_checked > 0 and emb.max_rel_err < 1e-4, emb.line()
    for report in reports.values():
        assert report.max_rel_err < 1e-4, report.line()
