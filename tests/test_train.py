import dataclasses
import math

import numpy as np
import pytest
from conftest import float32_copies, relabeled, split_of

from qin.config import ATTN_KINDS, HyperParams, TrainConfig
from qin.dataio import length_sorted_batches, make_batches
from qin.embedding import EmbeddingStore, Sample
from qin.errors import DataError, SingleClassError
from qin.linalg import make_rng, sigmoid
from qin.metrics import auc as rank_auc
from qin.metrics import bce_logit_loss
from qin.model import predict_logits
from qin.params import (ModelParams, copy_params, expected_shapes, init_params, lr_scale,
                        params_equal, zero_gradients)
from qin.train import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, EVAL_BATCH_SIZE, AdamState,
                       adam_step, evaluate, train)

HP = HyperParams(d_t=8, d_b=8, d_a=8, seq_len=6, depth=2, m=2, dropout_p=0.1,
                 vocab=20, d_frozen=4)


def tiny_world(seed=0, n=120, hp=HP, quad=True):
    """Store plus a learnable toy dataset, as a Split, over hp.vocab items."""
    rng = make_rng(seed)
    store = EmbeddingStore(rng.standard_normal((hp.vocab, hp.d_frozen)) * 0.6)
    samples = []
    for _ in range(n):
        seq_len = int(rng.integers(1, hp.seq_len + 1))
        ids = [int(v) for v in rng.choice(hp.vocab, seq_len, replace=False)]
        target = int(rng.integers(0, hp.vocab))
        u = store.data[ids].mean(axis=0)
        t = float(u @ store.data[target])
        raw = (t * t - 0.05) * 40 if quad else t * 8
        label = int(rng.random() < 1.0 / (1.0 + math.exp(-raw)))
        samples.append(Sample(target_id=target, seq_ids=ids, label=label))
    labels = {s.label for s in samples}
    if labels != {0, 1}:
        samples[0].label = 1 - samples[0].label
    return store, split_of(samples)


def test_adam_first_step_closed_form():
    # One scalar parameter with gradient 1: the bias-corrected update is
    # -lr within 1e-6 regardless of the tiny eps correction.
    hp = HyperParams(d_t=4, d_b=4, d_a=4, seq_len=2, depth=1, m=1, vocab=4, d_frozen=2)
    params = init_params(hp, make_rng(0))
    grads = zero_gradients(params)
    before = float(params.head_b)
    grads.head_b += 1.0
    cfg = TrainConfig(lr=0.01)
    adam_step(params, grads, AdamState.for_params(params), cfg)
    update = float(params.head_b) - before
    assert abs(update + cfg.lr) < 1e-6


def test_adam_zero_grads_zero_decay_noop():
    params = init_params(HP, make_rng(1))
    reference = copy_params(params)
    cfg = TrainConfig(emb_weight_decay=0.0)
    state = AdamState.for_params(params)
    for _ in range(3):
        adam_step(params, zero_gradients(params), state, cfg)
    assert params_equal(params, reference)


def test_decay_scopes_to_embeddings_only():
    # Identical synthetic gradient streams; only the id-embedding
    # trajectories may differ between decay settings.
    runs = {}
    for decay in (0.0, 0.1):
        params = init_params(HP, make_rng(2))
        state = AdamState.for_params(params)
        cfg = TrainConfig(emb_weight_decay=decay)
        grad_rng = make_rng(77)
        for _ in range(5):
            grads = zero_gradients(params)
            for arr in grads.views.values():
                arr += grad_rng.standard_normal(arr.shape)
            adam_step(params, grads, state, cfg)
        runs[decay] = params
    named0, named1 = runs[0.0].views, runs[0.1].views
    assert not np.array_equal(named0["id_embedding"], named1["id_embedding"])
    for name in named0:
        if name != "id_embedding":
            assert np.array_equal(named0[name], named1[name]), name


def per_name_adam(params, grads, m, v, t, cfg):
    """Reference: the tensor-by-tensor Adam loop, moments kept per name."""
    p_named, g_named = params.views, grads.views
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name in p_named:
        theta = p_named[name]
        g = g_named[name]
        if name == "id_embedding" and cfg.emb_weight_decay > 0:
            g = g + cfg.emb_weight_decay * theta
        m[name] *= ADAM_BETA1
        m[name] += (1.0 - ADAM_BETA1) * g
        v[name] *= ADAM_BETA2
        v[name] += (1.0 - ADAM_BETA2) * (g * g)
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)
        theta -= cfg.lr * update


# A large id table (9000 x 10): the decayed span is most of the buffer.
WIDE_TABLE = HyperParams(d_t=16, seq_len=4, depth=2, m=2, vocab=9000, d_frozen=6)


@pytest.mark.parametrize("decay", [0.0, 0.05])
@pytest.mark.parametrize("hp", [HP, dataclasses.replace(HP, interaction="mlp", mlp_dims=(6, 5)),
                                WIDE_TABLE], ids=["qnn", "mlp", "wide_table"])
def test_flat_adam_matches_per_name_loop_bit_for_bit(hp, decay):
    # The values the retired adam_beta1/adam_beta2/adam_eps keys defaulted to.
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
    params = init_params(hp, make_rng(30))
    reference = copy_params(params)
    m = {k: np.zeros_like(a) for k, a in reference.views.items()}
    v = {k: np.zeros_like(a) for k, a in reference.views.items()}
    state = AdamState.for_params(params)
    cfg = TrainConfig(lr=0.01, emb_weight_decay=decay)
    grad_rng = make_rng(31)
    for t in range(1, 21):
        grads = zero_gradients(params)
        grads.flat[:] = grad_rng.standard_normal(grads.flat.size)
        adam_step(params, grads, state, cfg)
        per_name_adam(reference, grads, m, v, t, cfg)
        assert params_equal(params, reference), t
    assert np.array_equal(state.m, np.concatenate([a.ravel() for a in m.values()]))
    assert np.array_equal(state.v, np.concatenate([a.ravel() for a in v.values()]))


@pytest.mark.parametrize("decay", [0.0, 0.05])
def test_folded_layer_at_m_times_lr_tracks_per_head_adam(decay):
    # m heads that share one gradient, each stepped by Adam at lr, sum to
    # the folded matrix stepped at m * lr: equal in exact arithmetic.
    from conftest import stacked_params

    hp = dataclasses.replace(HP, m=3)
    stacked = stacked_params(init_params(hp, make_rng(50)), hp, seed=51)
    folded = ModelParams(expected_shapes(hp))
    for name, view in folded.views.items():
        heads = stacked.views[name]
        view[...] = heads.sum(axis=0) if name in lr_scale(hp) else heads
    assert set(lr_scale(hp)) == {"qnn_w_0", "qnn_w_1"}
    stacked_state, folded_state = AdamState.for_params(stacked), AdamState.for_params(folded)
    cfg = TrainConfig(lr=0.01, emb_weight_decay=decay)
    grad_rng = make_rng(52)
    for t in range(1, 21):
        folded_grads = zero_gradients(folded)
        folded_grads.flat[:] = grad_rng.standard_normal(folded_grads.flat.size)
        stacked_grads = zero_gradients(stacked)
        for name, view in stacked_grads.views.items():
            view[...] = folded_grads.views[name]   # every head gets its layer's gradient
        adam_step(stacked, stacked_grads, stacked_state, cfg)
        adam_step(folded, folded_grads, folded_state, cfg, lr_scale(hp))
        for name, view in folded.views.items():
            if name in lr_scale(hp):
                heads = stacked.views[name].sum(axis=0)
                assert np.max(np.abs(view - heads)) <= 1e-12 * np.max(np.abs(heads)), (t, name)
            else:
                assert np.array_equal(view, stacked.views[name]), (t, name)


def test_lr_scale_names_only_the_qnn_layers():
    assert lr_scale(HP) == {"qnn_w_0": 2.0, "qnn_w_1": 2.0}
    assert lr_scale(dataclasses.replace(HP, interaction="mlp", mlp_dims=(6, 5))) == {}


def test_train_epochs_zero_returns_init():
    store, samples = tiny_world()
    params = init_params(HP, make_rng(3))
    reference = copy_params(params)
    result = train(params, HP, store, samples[:80], samples[80:],
                   TrainConfig(epochs=0))
    assert result.history == []
    assert params_equal(result.params, reference)


def test_train_determinism_bit_identical():
    store, samples = tiny_world(seed=4)

    def run():
        params = init_params(HP, make_rng(5))
        return train(params, HP, store, samples[:80], samples[80:],
                     TrainConfig(epochs=3, seed=11))

    a = run()
    b = run()
    assert params_equal(a.params, b.params)
    assert [e.line() for e in a.history] == [e.line() for e in b.history]


def test_train_loss_decreases_on_separable_toy():
    store, samples = tiny_world(seed=6, n=200, quad=False)
    params = init_params(HP, make_rng(7))
    result = train(params, HP, store, samples[:160], samples[160:],
                   TrainConfig(epochs=5, lr=0.01, patience=10))
    assert result.history[-1].loss < result.history[0].loss


def test_early_stopping_returns_best_checkpoint():
    store, samples = tiny_world(seed=8, n=200)
    params = init_params(HP, make_rng(9))
    result = train(params, HP, store, samples[:160], samples[160:],
                   TrainConfig(epochs=6, patience=2))
    best_in_history = max(e.val_auc for e in result.history)
    assert result.best_auc == best_in_history
    metrics = evaluate(result.params, HP, store, samples[160:])
    assert metrics["auc"] == best_in_history


def test_evaluate_deterministic_and_single_class_guard():
    store, samples = tiny_world(seed=10)
    params = init_params(HP, make_rng(11))
    a = evaluate(params, HP, store, samples)
    b = evaluate(params, HP, store, samples)
    assert a["auc"] == b["auc"] and a["logloss"] == b["logloss"]
    ones = split_of(s for s in samples if s.label == 1)
    with pytest.raises(SingleClassError):
        evaluate(params, HP, store, ones)


def test_evaluate_rejects_a_label_other_than_0_or_1():
    # The Split constructor takes any label; evaluate must not report an AUC for it.
    store, split = tiny_world(seed=10)
    params = init_params(HP, make_rng(11))
    for bad in (2.0, 0.5):
        with pytest.raises(DataError, match=rf"sample 3 has label {bad!r}, expected 0 or 1$"):
            evaluate(params, HP, store, relabeled(split, 3, bad))


def test_train_refuses_a_label_other_than_0_or_1():
    # The Split constructor takes any label; the loss would take 2.0 as a target.
    store, split = tiny_world(seed=10)
    params = init_params(HP, make_rng(11))
    before = params.flat.copy()
    cfg = TrainConfig(batch_size=16, epochs=1, patience=1, seed=0)
    for bad in (2.0, 0.5, -1.0, float("nan")):
        with pytest.raises(DataError, match=rf"sample 3 has label {bad!r}, expected 0 or 1$"):
            train(params, HP, store, relabeled(split, 3, bad), split[:40], cfg)
    assert np.array_equal(params.flat, before)


def test_train_refuses_a_validation_label_other_than_0_or_1():
    # A bad validation label is a DataError naming its row, raised before the
    # check that the split holds both classes.
    store, split = tiny_world(seed=10)
    params = init_params(HP, make_rng(11))
    cfg = TrainConfig(batch_size=16, epochs=1, patience=1, seed=0)
    for bad in (2.0, 0.5, -1.0, float("nan")):
        with pytest.raises(DataError, match=rf"sample 3 has label {bad!r}, expected 0 or 1$"):
            train(params, HP, store, split[40:], relabeled(split[:40], 3, bad), cfg)


def test_evaluate_nan_head_weight_reports_nan_auc():
    store, samples = tiny_world(seed=10)
    params = init_params(HP, make_rng(11))
    params.head_w[0] = np.nan
    metrics = evaluate(params, HP, store, samples)
    assert np.isnan(metrics["probs"]).all()
    assert math.isnan(metrics["auc"]) and math.isnan(metrics["logloss"])


def test_train_rejects_single_class_validation():
    store, samples = tiny_world(seed=12)
    ones = split_of(s for s in samples if s.label == 1)
    params = init_params(HP, make_rng(13))
    with pytest.raises(SingleClassError):
        train(params, HP, store, samples, ones, TrainConfig(epochs=1))


def test_padded_slot_content_cannot_reach_forward_output():
    # Flip the stored embedding content of an item that only ever appears in
    # padded slots: the whole-model forward must be bit-identical.
    from qin.dataio import build_batch
    from qin.model import model_forward

    rng = make_rng(30)
    store_data = rng.standard_normal((HP.vocab, HP.d_frozen))
    params = init_params(HP, make_rng(31))
    # item 0 is used only as the pad filler; real ids start at 1
    split = split_of([Sample(target_id=3, seq_ids=[1, 2], label=1),
                      Sample(target_id=4, seq_ids=[5], label=0)])
    batch = build_batch(split, HP.seq_len)
    out1 = model_forward(params, HP, EmbeddingStore(store_data.copy()), batch).logits
    store_data[0] = rng.standard_normal(HP.d_frozen) * 100
    params2 = copy_params(params)
    params2.id_embedding[0] = rng.standard_normal(HP.d_id) * 100
    out2 = model_forward(params2, HP, EmbeddingStore(store_data), batch).logits
    assert np.array_equal(out1, out2)


def test_non_finite_loss_aborts_with_diagnostics(monkeypatch):
    import qin.train as train_mod
    from qin.errors import NonFiniteLossError

    store, samples = tiny_world(seed=32)
    params = init_params(HP, make_rng(33))

    def poisoned(*args, **kwargs):
        return float("nan"), zero_gradients(params)

    monkeypatch.setattr(train_mod, "loss_and_grads", poisoned)
    with pytest.raises(NonFiniteLossError, match="epoch 0 step 0"):
        train_mod.train(params, HP, store, samples[:80], samples[80:],
                        TrainConfig(epochs=1))


def test_paper_preset_dims_forward_backward():
    # Paper-scale dims (d=128, depth=capacity=4, interaction width 256) on a
    # tiny batch: shape plumbing and finiteness only, not a training run.
    hp = HyperParams(d_t=128, d_b=128, d_a=128, seq_len=6, depth=4, m=4,
                     vocab=30, d_frozen=64)
    rng = make_rng(21)
    store = EmbeddingStore(rng.standard_normal((30, 64)) * 0.3)
    split = split_of(Sample(target_id=int(rng.integers(0, 30)),
                            seq_ids=[int(v) for v in rng.choice(30, 4, replace=False)],
                            label=i % 2) for i in range(4))
    from qin.dataio import build_batch
    from qin.model import loss_and_grads, model_forward
    batch = build_batch(split, hp.seq_len)
    params = init_params(hp, make_rng(22))
    loss, grads = loss_and_grads(params, hp, store, batch)
    assert np.isfinite(loss)
    assert model_forward(params, hp, store, batch).logits.shape == (4,)
    assert grads.qnn_w[3].shape == (256, 256)
    assert all(np.all(np.isfinite(a)) for a in grads.views.values())


def length_sorted_logits(params, hp, store, split, batch_size):
    """predict_logits over length-sorted batches, put back in input order."""
    order, batches = length_sorted_batches(split, batch_size, hp.seq_len)
    scored = predict_logits(params, hp, store, batches)
    logits = np.empty_like(scored)
    logits[order] = scored
    return logits


def test_evaluate_matches_independent_recompute():
    # Dump per-sample probabilities of the float32 pass that evaluate runs
    # and recompute both metrics with independent reimplementations; exact
    # agreement required.
    store, samples = tiny_world(seed=14)
    params = init_params(HP, make_rng(15))
    metrics = evaluate(params, HP, store, samples)
    params32, store32 = float32_copies(params, store)
    logits = length_sorted_logits(params32, HP, store32, samples, EVAL_BATCH_SIZE)
    assert logits.dtype == np.float32
    probs = sigmoid(logits).astype(np.float64)
    logits = logits.astype(np.float64)
    labels = np.array([s.label for s in samples], dtype=float)

    ll = sum(max(z, 0.0) + math.log1p(math.exp(-abs(z))) - y * z
             for z, y in zip(logits, labels)) / len(labels)
    assert metrics["logloss"] == pytest.approx(ll, abs=1e-12)

    pos = probs[labels == 1]
    neg = probs[labels == 0]
    wins = sum(1.0 for p in pos for q in neg if p > q)
    ties = sum(1.0 for p in pos for q in neg if p == q)
    pairwise = (wins + 0.5 * ties) / (len(pos) * len(neg))
    assert metrics["auc"] == pairwise
    assert metrics["auc"] == rank_auc(probs, labels.astype(int))


def length_world(kind):
    """A ragged split with nine empty histories, so the first length-ordered
    batch of 8 is all empty, and parameters with a live id table."""
    hp = HyperParams(d_t=8, d_b=8, d_a=8, seq_len=6, depth=2, m=2, vocab=20, d_frozen=4,
                     attn_kind=kind)
    store, split = tiny_world(seed=40, n=60, hp=hp)
    samples = list(split)
    for s in samples[::7][:9]:
        s.seq_ids = []
    params = init_params(hp, make_rng(41))
    params.id_embedding = make_rng(42).standard_normal(params.id_embedding.shape)
    return hp, store, params, split_of(samples)


# Ids keep the `<kind>-<pooling>` form they had under the retired pooling key.
LENGTH_KINDS = dict(argnames="kind", argvalues=ATTN_KINDS,
                    ids=["relu-mean" if kind == "mean" else f"{kind}-asta" for kind in ATTN_KINDS])


@pytest.mark.parametrize(**LENGTH_KINDS)
def test_length_ordered_evaluate_matches_full_width_pass(kind):
    # In float64, batches cut to their longest history score as full-width
    # batches do, to 1e-15 in every probability; in float32 the two differ
    # by about an ulp.
    hp, store, params, split = length_world(kind)
    got = sigmoid(length_sorted_logits(params, hp, store, split, 8))
    reference = sigmoid(predict_logits(params, hp, store, make_batches(split, 8, hp.seq_len)))
    assert got.dtype == reference.dtype == np.float64
    assert np.max(np.abs(got - reference)) <= 1e-15
    assert rank_auc(got, split.labels) == rank_auc(reference, split.labels)


@pytest.mark.parametrize(**LENGTH_KINDS)
def test_evaluate_is_the_float32_length_ordered_pass(kind, monkeypatch):
    hp, store, params, split = length_world(kind)
    monkeypatch.setattr("qin.train.EVAL_BATCH_SIZE", 8)
    got = evaluate(params, hp, store, split)
    params32, store32 = float32_copies(params, store)
    logits = length_sorted_logits(params32, hp, store32, split, 8)
    probs = sigmoid(logits).astype(np.float64)
    assert logits.dtype == np.float32
    assert np.array_equal(got["probs"], probs)
    assert got["logloss"] == bce_logit_loss(logits, split.labels)
    assert got["auc"] == rank_auc(probs, split.labels)


def test_train_same_bits_from_list_and_split(tmp_path):
    """Training on an in-memory Split and on its file round trip gives the same bits."""
    from qin.dataio import read_dataset, write_dataset
    from qin.params import save_checkpoint

    hp = HP   # QNN dropout on: the dropout mask stream too
    store, samples = tiny_world(seed=43)

    def in_memory(split):
        return split

    def round_trip(split):
        path = str(tmp_path / "split.jsonl")
        write_dataset(split, path, seed=0)
        return read_dataset(path, hp.vocab, hp.seq_len)[0]

    runs = []
    for convert in (in_memory, round_trip):
        params = init_params(hp, make_rng(44))
        result = train(params, hp, store, convert(samples[:80]), convert(samples[80:]),
                       TrainConfig(epochs=3, seed=45))
        path = tmp_path / f"{convert.__name__}.ckpt"
        save_checkpoint(result.params, str(path))
        runs.append(([e.line() for e in result.history], path.read_bytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("kind", ["relu", "softmax", "mean"])
def test_live_slot_scatter_trains_the_dense_scatter_bits(kind, tmp_path, monkeypatch):
    """Summing only the live slots of the id-table gradient changes no bit of a run."""
    import qin.embedding
    from qin.params import save_checkpoint

    hp = dataclasses.replace(HP, seq_len=12, attn_kind=kind)   # histories 1..12
    store, samples = tiny_world(seed=46, n=200, hp=hp)
    live_slots = qin.embedding._live_slots
    paths = []

    def counted(d_x_b):
        live = live_slots(d_x_b)
        paths.append(live is not None)
        return live

    runs = []
    for gate in (counted, lambda d_x_b: None):
        monkeypatch.setattr(qin.embedding, "_live_slots", gate)
        params = init_params(hp, make_rng(47))
        result = train(params, hp, store, samples[:160], samples[160:],
                       TrainConfig(epochs=2, patience=2, batch_size=16, seed=48))
        path = tmp_path / f"{len(runs)}.ckpt"
        save_checkpoint(result.params, str(path))
        runs.append(([e.line() for e in result.history], path.read_bytes()))
    assert len(runs[0][0]) == 2
    assert runs[0] == runs[1]
    assert any(paths)   # the gated run summed live slots only at least once
