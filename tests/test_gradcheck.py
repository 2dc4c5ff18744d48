import dataclasses

import numpy as np
import pytest

from qin import gradcheck
from qin.config import ATTN_KINDS
from qin.errors import QinError
from qin.gradcheck import (build_random_instance, check, gradcheck_hyperparams,
                           run_model_gradcheck)
from qin.linalg import make_rng
from qin.params import init_params, params_equal


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


def reference_instance(hp, seed, n=4):
    """The draws of a gradcheck instance, one sample at a time: the params,
    the id table, the store, then per row its history length, its history
    and its target. The batch is padded by hand; its mask and labels are
    float32, as every batch's are."""
    rng = make_rng(seed)
    params = init_params(hp, rng)
    params.id_embedding = rng.standard_normal(params.id_embedding.shape) * 0.5
    store = rng.standard_normal((hp.vocab, hp.d_frozen)) * 0.5
    target_ids = np.zeros(n, dtype=np.int64)
    seq_ids = np.zeros((n, hp.seq_len), dtype=np.int64)
    mask = np.zeros((n, hp.seq_len), dtype=np.float32)
    for i in range(n):
        seq_len = int(rng.integers(1, hp.seq_len + 1))
        seq_ids[i, :seq_len] = rng.choice(hp.vocab, size=seq_len, replace=False)
        mask[i, :seq_len] = 1.0
        target_ids[i] = int(rng.integers(0, hp.vocab))
    return params, store, (target_ids, seq_ids, mask, np.arange(n, dtype=np.float32) % 2)


@pytest.mark.parametrize("hp", [gradcheck_hyperparams(), gradcheck_hyperparams(attn_kind="mean"),
                                gradcheck_hyperparams(interaction="mlp")],
                         ids=["relu", "mean", "mlp"])
def test_random_instance_keeps_its_draws(hp):
    """Every gradcheck report depends on these draws: a change moves them all."""
    for seed in range(12):
        params, store, batch = build_random_instance(hp, seed)
        want_params, want_store, want_batch = reference_instance(hp, seed)
        assert params_equal(params, want_params), seed
        assert store.data.tobytes() == want_store.tobytes(), seed
        got = (batch.target_ids, batch.seq_ids, batch.mask, batch.labels)
        for g, w in zip(got, want_batch):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), seed


def test_model_gradcheck_all_classes_pass():
    for report in run_model_gradcheck(7):
        assert report.max_rel_err < 1e-4, report.line()
        assert report.n_skipped <= 0.05 * max(report.n_checked + report.n_skipped, 1)


@pytest.mark.parametrize("kind", ["softmax"])
def test_model_gradcheck_attention_kinds(kind):
    hp = gradcheck_hyperparams(attn_kind=kind)
    for report in run_model_gradcheck(11, hp=hp):
        assert report.max_rel_err < 1e-4, (kind, report.line())


def test_model_gradcheck_mean_pool_and_mlp():
    hp = gradcheck_hyperparams(attn_kind="mean", interaction="mlp")
    for report in run_model_gradcheck(13, hp=hp):
        assert report.max_rel_err < 1e-4, report.line()


@pytest.mark.parametrize("seed", range(7, 12))
def test_model_gradcheck_relu_act(seed):
    # The ReLU ablation has no slope class, and every class it has certifies.
    reports = run_model_gradcheck(seed, hp=gradcheck_hyperparams(qnn_act="relu"))
    assert "prelu" not in {report.name for report in reports}
    for report in reports:
        assert report.n_checked > 0 and report.max_rel_err < 1e-4, report.line()


def test_sabotage_self_test():
    reports = {r.name: r for r in run_model_gradcheck(7, sabotage="head")}
    assert reports["head"].max_rel_err > 1e-4
    clean = [r for name, r in reports.items() if name != "head"]
    assert all(r.max_rel_err < 1e-4 for r in clean)


def dropout_hyperparams(**keys):
    return gradcheck_hyperparams(dropout_p=0.3, **keys)


@pytest.mark.parametrize("interaction", ["qnn", "mlp"])
@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_model_gradcheck_with_dropout(kind, interaction, monkeypatch):
    # Record the masks of the analytic pass and of every perturbed forward.
    seen = []
    for name in ("loss_and_grads", "model_forward"):
        real = getattr(gradcheck, name)
        monkeypatch.setattr(gradcheck, name,
                            lambda *args, real=real: seen.append(args[4]) or real(*args))
    for report in run_model_gradcheck(7, hp=dropout_hyperparams(attn_kind=kind,
                                                                interaction=interaction)):
        assert report.n_checked > 0 and report.max_rel_err < 1e-4, (kind, report.line())
    qnn_masks = seen[0]
    assert (qnn_masks is None) == (interaction == "mlp")
    assert qnn_masks is None or not all(m.all() for m in qnn_masks)
    assert len(seen) > 1 and all(masks is seen[0] for masks in seen)


def test_sabotage_self_test_with_dropout():
    reports = {r.name: r for r in run_model_gradcheck(7, hp=dropout_hyperparams(),
                                                      sabotage="head")}
    assert reports["head"].max_rel_err > 1e-4
    assert all(r.max_rel_err < 1e-4 for name, r in reports.items() if name != "head")


@pytest.mark.parametrize("attn_kind", ["relu", "mean"], ids=["asta", "mean"])
@pytest.mark.parametrize("d_frozen", [0, 15])
def test_model_gradcheck_embeddings_at_column_edges(attn_kind, d_frozen):
    # No frozen column, and a single trainable one: the id-table gradient
    # is certified whatever its share of the item vector.
    hp = dataclasses.replace(gradcheck_hyperparams(attn_kind=attn_kind), d_frozen=d_frozen)
    assert hp.d_id == hp.d_t - d_frozen
    reports = {r.name: r for r in run_model_gradcheck(7, hp=hp)}
    emb = reports["embeddings"]
    assert emb.n_checked > 0 and emb.max_rel_err < 1e-4, emb.line()
    for report in reports.values():
        assert report.max_rel_err < 1e-4, report.line()
