"""predict_probs with the QNN layers split over two threads, against one thread, bit for bit.

The split is forced on by lowering QNN_SPLIT_MIN_DIM and reporting two
usable CPUs, and forced off by reporting one. Widths 32 and 128 bracket
the gate: at width 32 OpenBLAS keeps its small-matrix GEMM path up to 37
rows, the widest span of rows whose bits differ from a big GEMM's.
"""

import threading

import numpy as np
import pytest

from qin import model
from qin.config import HyperParams, TrainConfig
from qin.dataio import Split, make_batches
from qin.embedding import EmbeddingStore
from qin.errors import ShapeError
from qin.linalg import make_rng
from qin.params import ModelParams, copy_params, init_params
from qin.train import evaluate, train

KINDS = ("relu", "softmax", "relu2", "silu", "mean")
SIZES = (1, 2, 3, 954, 1023)


def hyper(d_t, **overrides):
    kwargs = dict(d_t=d_t, d_b=d_t, d_a=d_t, seq_len=5, depth=3, m=2, vocab=40, d_frozen=4)
    kwargs.update(overrides)
    return HyperParams(**kwargs)


def world(hp, n, seed=0, empty=False):
    """Store, params and an n-row split; a fifth of the histories (or all) are empty."""
    rng = make_rng(seed)
    store = EmbeddingStore(rng.standard_normal((hp.vocab, hp.d_frozen)) * 0.5)
    lengths = rng.integers(1, hp.seq_len + 1, n)
    lengths[::5] = 0
    if empty:
        lengths[:] = 0
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    labels = (rng.random(n) < 0.5).astype(float)
    labels[:2] = (0.0, 1.0)[:n]
    split = Split(targets=rng.integers(0, hp.vocab, n), labels=labels, offsets=offsets,
                  ids=rng.integers(0, hp.vocab, int(offsets[-1])))
    params = init_params(hp, rng)
    params.id_embedding = rng.standard_normal(params.id_embedding.shape) * 0.5
    return store, params, split


def cpus(monkeypatch, count):
    monkeypatch.setattr(model, "QNN_SPLIT_MIN_DIM", 0)
    monkeypatch.setattr(model, "usable_cpus", lambda: count)


@pytest.fixture
def qnn_threads(monkeypatch):
    """Names of the threads that ran a QNN row block, in call order."""
    names = []
    real = model._qnn_rows

    def spy(*args):
        names.append(threading.current_thread().name)
        return real(*args)

    monkeypatch.setattr(model, "_qnn_rows", spy)
    return names


def both_ways(monkeypatch, fn):
    cpus(monkeypatch, 1)
    one = fn()
    cpus(monkeypatch, 2)
    return one, fn()


@pytest.mark.parametrize("act", ["prelu", "relu"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d_t", [16, 64])
def test_split_probs_match_one_thread(monkeypatch, qnn_threads, d_t, kind, act):
    hp = hyper(d_t, attn_kind=kind, qnn_act=act)
    for n in SIZES:
        store, params, split = world(hp, n, seed=n)
        batches = list(make_batches(split, n, hp.seq_len))
        qnn_threads.clear()
        one, two = both_ways(monkeypatch,
                             lambda: model.predict_probs(params, hp, store, batches))
        assert np.all(np.isfinite(one))
        assert np.array_equal(one, two), (n, np.max(np.abs(one - two)))
        helper_ran = any(name != threading.current_thread().name for name in qnn_threads)
        assert helper_ran == (n >= 2 * model.QNN_SPLIT_MIN_ROWS), n


@pytest.mark.parametrize("kind", KINDS)
def test_split_evaluate_matches_one_thread(monkeypatch, kind):
    # Two length-sorted batches, 1024 and 976 rows, an all-empty run first.
    hp = hyper(64, attn_kind=kind)
    store, params, split = world(hp, 2000, seed=7)
    one, two = both_ways(monkeypatch, lambda: evaluate(params, hp, store, split))
    assert np.array_equal(one["probs"], two["probs"])
    assert (one["auc"], one["logloss"]) == (two["auc"], two["logloss"])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("interaction", ["qnn", "mlp"])
@pytest.mark.parametrize("kind", KINDS)
def test_float32_copies_score_in_float32(monkeypatch, qnn_threads, kind, interaction, workers):
    # No kernel re-casts its inputs, so float32 copies of the parameters and
    # the store give float32 probabilities, on the serial and split paths.
    hp = hyper(64, attn_kind=kind, interaction=interaction)
    store, params, split = world(hp, 954, seed=17)
    batches = list(make_batches(split, 512, hp.seq_len))   # 512 and 442 rows
    cpus(monkeypatch, workers)
    want = model.predict_probs(params, hp, store, batches)
    qnn_threads.clear()
    got = model.predict_probs(ModelParams(params.shapes, params.flat.astype(np.float32)), hp,
                              EmbeddingStore(store.data.astype(np.float32)), batches)
    assert want.dtype == np.float64 and got.dtype == np.float32
    assert np.max(np.abs(got - want)) <= 1e-5
    helper_ran = any(name != threading.current_thread().name for name in qnn_threads)
    assert helper_ran == (workers == 2 and interaction == "qnn")


def test_split_all_empty_histories(monkeypatch, qnn_threads):
    hp = hyper(64)
    store, params, split = world(hp, 954, seed=3, empty=True)
    batches = list(make_batches(split, 954, hp.seq_len))
    one, two = both_ways(monkeypatch, lambda: model.predict_probs(params, hp, store, batches))
    assert np.array_equal(one, two)
    assert len(set(qnn_threads)) == 2


def test_mlp_interaction_never_splits(monkeypatch):
    hp = hyper(64, interaction="mlp", mlp_dims=(32, 16))
    store, params, split = world(hp, 1023, seed=5)
    batches = list(make_batches(split, 1023, hp.seq_len))
    cpus(monkeypatch, 1)
    one = model.predict_probs(params, hp, store, batches)
    cpus(monkeypatch, 2)
    monkeypatch.setattr(model, "ThreadPoolExecutor", None)   # any use would raise
    assert np.array_equal(one, model.predict_probs(params, hp, store, batches))


@pytest.fixture
def started(monkeypatch):
    """Threads started during the test, counted through Thread.start."""
    starts = []
    real = threading.Thread.start

    def start(self):
        starts.append(self.name)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return starts


def test_one_cpu_starts_no_thread(monkeypatch, started):
    hp = hyper(64)    # width 128: past the real gate
    store, params, split = world(hp, 1023, seed=9)
    batches = list(make_batches(split, 1023, hp.seq_len))
    monkeypatch.setattr(model, "usable_cpus", lambda: 1)
    before = threading.active_count()
    model.predict_probs(params, hp, store, batches)
    assert started == []
    assert threading.active_count() == before


def test_helper_thread_ends_with_the_call(monkeypatch, started):
    hp = hyper(64)
    store, params, split = world(hp, 2000, seed=9)
    batches = list(make_batches(split, 1000, hp.seq_len))
    monkeypatch.setattr(model, "usable_cpus", lambda: 2)
    before = threading.active_count()
    model.predict_probs(params, hp, store, batches)
    assert len(started) == 1            # one helper for both batches
    assert threading.active_count() == before


def test_helper_error_reaches_caller_with_its_type(monkeypatch):
    hp = hyper(64)
    store, params, split = world(hp, 1023, seed=11)
    batches = list(make_batches(split, 1023, hp.seq_len))
    caller = threading.current_thread()
    real = model.qnn_layer_forward

    def layer(w, slope, x, cfg, drop_mask=None):
        if threading.current_thread() is not caller:   # the helper's half only
            w = w[:, :-1]
        return real(w, slope, x, cfg, drop_mask)

    monkeypatch.setattr(model, "qnn_layer_forward", layer)
    monkeypatch.setattr(model, "usable_cpus", lambda: 2)
    before = threading.active_count()
    with pytest.raises(ShapeError, match="does not match dim"):
        model.predict_probs(params, hp, store, batches)
    assert threading.active_count() == before


def test_wide_training_with_dropout_same_bits(monkeypatch):
    hp = hyper(48, dropout_p=0.1, attn_dropout_p=0.1)   # width 96
    store, params, data = world(hp, 900, seed=13)
    cfg = TrainConfig(batch_size=128, epochs=2, patience=5, seed=4)

    def run():
        return train(copy_params(params), hp, store, data[:600], data[600:], cfg)

    one, two = both_ways(monkeypatch, run)
    assert [e.line() for e in one.history] == [e.line() for e in two.history]
    assert np.array_equal(one.params.flat, two.params.flat)
