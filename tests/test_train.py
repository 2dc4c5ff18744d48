import dataclasses
import math

import numpy as np
import pytest

from qin.config import HyperParams, TrainConfig
from qin.dataio import make_batches
from qin.embedding import EmbeddingStore, Sample
from qin.errors import SingleClassError
from qin.linalg import make_rng
from qin.metrics import auc as rank_auc
from qin.model import predict_probs
from qin.params import (copy_params, init_params, named_arrays, params_equal,
                        zero_gradients)
from qin.train import ADAM_CHUNK, AdamState, adam_step, evaluate, train

HP = HyperParams(d_t=8, d_b=8, d_a=8, seq_len=6, depth=2, m=2, dropout_p=0.1,
                 vocab=20, d_frozen=4)


def tiny_world(seed=0, n=120, hp=HP, quad=True):
    """Store plus a learnable toy dataset over hp.vocab items."""
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
    return store, samples


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
            for arr in named_arrays(grads).values():
                arr += grad_rng.standard_normal(arr.shape)
            adam_step(params, grads, state, cfg)
        runs[decay] = params
    named0 = named_arrays(runs[0.0])
    named1 = named_arrays(runs[0.1])
    assert not np.array_equal(named0["id_embedding"], named1["id_embedding"])
    for name in named0:
        if name != "id_embedding":
            assert np.array_equal(named0[name], named1[name]), name


def per_name_adam(params, grads, m, v, t, cfg):
    """Reference: the tensor-by-tensor Adam loop, moments kept per name."""
    p_named = named_arrays(params)
    g_named = named_arrays(grads)
    bc1 = 1.0 - cfg.adam_beta1 ** t
    bc2 = 1.0 - cfg.adam_beta2 ** t
    for name in p_named:
        theta = p_named[name]
        g = g_named[name]
        if name == "id_embedding" and cfg.emb_weight_decay > 0:
            g = g + cfg.emb_weight_decay * theta
        m[name] *= cfg.adam_beta1
        m[name] += (1.0 - cfg.adam_beta1) * g
        v[name] *= cfg.adam_beta2
        v[name] += (1.0 - cfg.adam_beta2) * (g * g)
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + cfg.adam_eps)
        theta -= cfg.lr * update


# Longer than two Adam chunks, with an id table (9000 x 10) that ends
# inside the third chunk.
WIDE_TABLE = HyperParams(d_t=16, seq_len=4, depth=2, m=2, vocab=9000, d_frozen=6)


@pytest.mark.parametrize("decay", [0.0, 0.05])
@pytest.mark.parametrize("hp", [HP, dataclasses.replace(HP, interaction="mlp", mlp_dims=(6, 5)),
                                WIDE_TABLE], ids=["qnn", "mlp", "wide_table"])
def test_flat_adam_matches_per_name_loop_bit_for_bit(hp, decay):
    params = init_params(hp, make_rng(30))
    if hp is WIDE_TABLE:
        assert params.flat.size > 2 * ADAM_CHUNK
        assert params.id_embedding.size > 2 * ADAM_CHUNK
        assert params.id_embedding.size % ADAM_CHUNK
    reference = copy_params(params)
    m = {k: np.zeros_like(a) for k, a in named_arrays(reference).items()}
    v = {k: np.zeros_like(a) for k, a in named_arrays(reference).items()}
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
    ones = [s for s in samples if s.label == 1]
    with pytest.raises(SingleClassError):
        evaluate(params, HP, store, ones)


def test_train_rejects_single_class_validation():
    store, samples = tiny_world(seed=12)
    ones = [s for s in samples if s.label == 1]
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
    samples = [Sample(target_id=3, seq_ids=[1, 2], label=1),
               Sample(target_id=4, seq_ids=[5], label=0)]
    batch = build_batch(samples, HP.seq_len)
    out1 = model_forward(params, HP, EmbeddingStore(store_data.copy()), batch).probs
    store_data[0] = rng.standard_normal(HP.d_frozen) * 100
    params2 = copy_params(params)
    params2.id_embedding[0] = rng.standard_normal(HP.d_id) * 100
    out2 = model_forward(params2, HP, EmbeddingStore(store_data), batch).probs
    assert np.array_equal(out1, out2)


def test_non_finite_loss_aborts_with_diagnostics(monkeypatch):
    import qin.train as train_mod
    from qin.errors import NonFiniteLossError

    store, samples = tiny_world(seed=32)
    params = init_params(HP, make_rng(33))

    def poisoned(*args, **kwargs):
        return float("nan"), zero_gradients(params), None

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
    samples = [Sample(target_id=int(rng.integers(0, 30)),
                      seq_ids=[int(v) for v in rng.choice(30, 4, replace=False)],
                      label=i % 2) for i in range(4)]
    from qin.dataio import build_batch
    from qin.model import loss_and_grads
    batch = build_batch(samples, hp.seq_len)
    params = init_params(hp, make_rng(22))
    loss, grads, probs = loss_and_grads(params, hp, store, batch, training=False)
    assert np.isfinite(loss)
    assert probs.shape == (4,)
    assert grads.qnn_w[3].shape == (4, 256, 256)
    assert all(np.all(np.isfinite(a)) for a in named_arrays(grads).values())


def test_evaluate_matches_independent_recompute():
    # Dump per-sample probabilities and recompute both metrics with
    # independent reimplementations; exact agreement required.
    store, samples = tiny_world(seed=14)
    params = init_params(HP, make_rng(15))
    metrics = evaluate(params, HP, store, samples)
    batches = make_batches(samples, 1024, HP.seq_len, rng=None)
    probs = predict_probs(params, HP, store, batches)
    labels = np.array([s.label for s in samples], dtype=float)

    clamped = np.clip(probs, 1e-12, 1 - 1e-12)
    ll = -sum(y * math.log(p) + (1 - y) * math.log1p(-p)
              for p, y in zip(clamped, labels)) / len(labels)
    assert metrics["logloss"] == pytest.approx(ll, abs=1e-12)

    pos = probs[labels == 1]
    neg = probs[labels == 0]
    wins = sum(1.0 for p in pos for q in neg if p > q)
    ties = sum(1.0 for p in pos for q in neg if p == q)
    pairwise = (wins + 0.5 * ties) / (len(pos) * len(neg))
    assert metrics["auc"] == pairwise
    assert metrics["auc"] == rank_auc(probs, labels.astype(int))


@pytest.mark.parametrize("kind,pooling", [("relu", "asta"), ("softmax", "asta"),
                                          ("relu2", "asta"), ("silu", "asta"),
                                          ("relu", "mean")])
def test_length_ordered_evaluate_matches_full_width_pass(kind, pooling):
    from qin.dataio import as_split

    hp = HyperParams(d_t=8, d_b=8, d_a=8, seq_len=6, depth=2, m=2, vocab=20, d_frozen=4,
                     attn_kind=kind, pooling=pooling)
    store, samples = tiny_world(seed=40, n=60, hp=hp)
    # Nine empty histories: the first length-ordered batch of 8 is all empty.
    for s in samples[::7][:9]:
        s.seq_ids = []
    params = init_params(hp, make_rng(41))
    params.id_embedding = make_rng(42).standard_normal(params.id_embedding.shape)
    got = evaluate(params, hp, store, as_split(samples), batch_size=8)
    reference = predict_probs(params, hp, store, make_batches(samples, 8, hp.seq_len))
    labels = np.array([s.label for s in samples])
    assert np.max(np.abs(got["probs"] - reference)) <= 1e-15
    assert got["auc"] == rank_auc(reference, labels)


def test_train_same_bits_from_list_and_split(tmp_path):
    from qin.dataio import as_split
    from qin.params import save_checkpoint

    hp = dataclasses.replace(HP, attn_dropout=True)   # the dropout mask stream too
    store, samples = tiny_world(seed=43)
    runs = []
    for convert in (list, as_split):
        params = init_params(hp, make_rng(44))
        result = train(params, hp, store, convert(samples[:80]), convert(samples[80:]),
                       TrainConfig(epochs=3, seed=45))
        path = tmp_path / f"{convert.__name__}.ckpt"
        save_checkpoint(result.params, str(path))
        runs.append(([e.line() for e in result.history], path.read_bytes()))
    assert runs[0] == runs[1]
