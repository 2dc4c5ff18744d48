"""predict_logits with the QNN layers split over two threads, against one thread, bit for bit.

The split is forced on by lowering qnn.QNN_SPLIT_MIN_DIM and reporting
two usable CPUs, and forced off by reporting one. Widths 32 and 128
bracket the gate: at width 32 OpenBLAS keeps its small-matrix GEMM path up
to 37 rows, the widest span of rows whose bits differ from a big GEMM's.
"""

import threading
from collections import Counter

import numpy as np
import pytest
from conftest import (float32_copies, float_arrays, helper_threads, spy_traced_names, thread_hp,
                      thread_world, usable)

from qin import model, qnn
from qin.config import ATTN_KINDS, TrainConfig
from qin.dataio import make_batches
from qin.errors import ShapeError
from qin.linalg import sigmoid
from qin.params import copy_params
from qin.train import evaluate, train

SIZES = (1, 2, 3, 954, 1023)


@pytest.fixture
def qnn_threads(monkeypatch):
    """Names of the threads that ran a QNN layer's row block, in call order."""
    names = []
    real = qnn.prelu

    def spy(*args, **kwargs):
        names.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(qnn, "prelu", spy)
    return names


def both_ways(monkeypatch, fn):
    usable(monkeypatch, 1)
    one = fn()
    usable(monkeypatch, 2)
    return one, fn()


@pytest.mark.parametrize("act", ["prelu", "relu"])
@pytest.mark.parametrize("kind", ATTN_KINDS)
@pytest.mark.parametrize("d_t", [16, 64])
def test_split_probs_match_one_thread(monkeypatch, qnn_threads, d_t, kind, act):
    hp = thread_hp(d_t, attn_kind=kind, qnn_act=act)
    for n in SIZES:
        store, params, split = thread_world(hp, n, seed=n)
        batches = list(make_batches(split, n, hp.seq_len))
        qnn_threads.clear()
        one, two = both_ways(monkeypatch,
                             lambda: model.predict_logits(params, hp, store, batches))
        assert np.all(np.isfinite(one))
        assert np.array_equal(one, two), (n, np.max(np.abs(one - two)))
        helper_ran = any(name != threading.current_thread().name for name in qnn_threads)
        assert helper_ran == (n >= 2 * qnn.QNN_SPLIT_MIN_ROWS), n


@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_split_evaluate_matches_one_thread(monkeypatch, kind):
    # Two length-sorted batches, 1024 and 976 rows, an all-empty run first.
    hp = thread_hp(64, attn_kind=kind)
    store, params, split = thread_world(hp, 2000, seed=7)
    one, two = both_ways(monkeypatch, lambda: evaluate(params, hp, store, split))
    assert np.array_equal(one["probs"], two["probs"])
    assert (one["auc"], one["logloss"]) == (two["auc"], two["logloss"])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("interaction", ["qnn", "mlp"])
@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_float32_copies_score_in_float32(monkeypatch, qnn_threads, kind, interaction, workers):
    # No kernel re-casts its inputs, so float32 copies of the parameters and
    # the store give float32 logits and probabilities, on the serial and
    # split paths.
    hp = thread_hp(64, attn_kind=kind, interaction=interaction)
    store, params, split = thread_world(hp, 954, seed=17)
    batches = list(make_batches(split, 512, hp.seq_len))   # 512 and 442 rows
    usable(monkeypatch, workers)
    want = sigmoid(model.predict_logits(params, hp, store, batches))
    qnn_threads.clear()
    params32, store32 = float32_copies(params, store)
    got = sigmoid(model.predict_logits(params32, hp, store32, batches))
    assert want.dtype == np.float64 and got.dtype == np.float32
    assert np.max(np.abs(got - want)) <= 1e-5
    helper_ran = any(name != threading.current_thread().name for name in qnn_threads)
    assert helper_ran == (workers == 2 and interaction == "qnn")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("interaction", ["qnn", "mlp"])
@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_evaluate_scores_float64_parameters_in_float32(monkeypatch, qnn_threads, kind,
                                                       interaction, workers):
    # evaluate casts what it is given, so float64 parameters and their
    # float32 copies score the same bits, and every float array that the
    # scoring pass keeps is float32.
    hp = thread_hp(64, attn_kind=kind, interaction=interaction)
    store, params, split = thread_world(hp, 1300, seed=19)   # 1 024 and 276 rows
    usable(monkeypatch, workers)
    traces = []
    real = model.model_forward

    def forward(*args, **kwargs):
        trace = real(*args, **kwargs)
        traces.append(trace)
        return trace

    monkeypatch.setattr(model, "model_forward", forward)
    wide = evaluate(params, hp, store, split)
    params32, store32 = float32_copies(params, store)
    narrow = evaluate(params32, hp, store32, split)
    assert wide["probs"].dtype == np.float64
    assert np.array_equal(wide["probs"], narrow["probs"])
    assert (wide["auc"], wide["logloss"]) == (narrow["auc"], narrow["logloss"])
    arrays = [item for trace in traces for item in float_arrays(trace)]
    paths = {path for path, _ in arrays}
    layer = {"qnn": "trace.inter_trace[1].h", "mlp": "trace.inter_trace.pre[0]"}[interaction]
    assert {"trace.pool_trace.x_b", layer, "trace.logits"} <= paths
    assert [path for path, a in arrays if a.dtype != np.float32] == []
    helper_ran = any(name != threading.current_thread().name for name in qnn_threads)
    assert helper_ran == (workers == 2 and interaction == "qnn")


def test_traced_names_do_not_depend_on_the_cpu_count(monkeypatch, qnn_threads):
    # Scoring enters every name the benchmark's tracer rebinds the same
    # number of times on one CPU as on two, all in the calling thread.
    hp = thread_hp(64)    # width 128: past the real gate
    store, params, split = thread_world(hp, 2000, seed=7)
    entered = spy_traced_names(monkeypatch)
    calls = []
    for count in (1, 2):
        monkeypatch.setattr(qnn, "usable_cpus", lambda: count)
        entered.clear()
        evaluate(params, hp, store, split)
        assert {t for _, t in entered} == {threading.current_thread().name}, count
        calls.append(Counter(name for name, _ in entered))
    assert calls[0] == calls[1]
    assert calls[0]["qin.model.model_forward"] == calls[0]["qin.model.qnn_forward"] == 2
    assert len(set(qnn_threads)) == 2     # the helper ran half of each split layer


def test_split_all_empty_histories(monkeypatch, qnn_threads):
    hp = thread_hp(64)
    store, params, split = thread_world(hp, 954, seed=3, empty=True)
    batches = list(make_batches(split, 954, hp.seq_len))
    one, two = both_ways(monkeypatch, lambda: model.predict_logits(params, hp, store, batches))
    assert np.array_equal(one, two)
    assert len(set(qnn_threads)) == 2


class RefusingHelper:
    def submit(self, *args, **kwargs):
        raise AssertionError("a layer split")


def test_mlp_interaction_never_splits(monkeypatch, started):
    hp = thread_hp(64, interaction="mlp", mlp_dims=(32, 16))
    store, params, split = thread_world(hp, 1023, seed=5)
    batches = list(make_batches(split, 1023, hp.seq_len))
    usable(monkeypatch, 1)
    one = model.predict_logits(params, hp, store, batches)
    usable(monkeypatch, 2)
    monkeypatch.setattr(qnn, "_HELPER", RefusingHelper())
    assert np.array_equal(one, model.predict_logits(params, hp, store, batches))
    assert started == []


def test_one_cpu_starts_no_thread(monkeypatch, started):
    hp = thread_hp(64)    # width 128: past the real gate
    store, params, split = thread_world(hp, 1023, seed=9)
    batches = list(make_batches(split, 1023, hp.seq_len))
    monkeypatch.setattr(qnn, "usable_cpus", lambda: 1)
    model.predict_logits(params, hp, store, batches)
    assert started == []


def test_helper_error_reaches_caller_with_its_type(monkeypatch):
    hp = thread_hp(64)
    store, params, split = thread_world(hp, 1023, seed=11)
    batches = list(make_batches(split, 1023, hp.seq_len))
    caller = threading.current_thread()
    real = qnn.prelu

    def failing(*args, **kwargs):
        if threading.current_thread() is not caller:   # the helper's half only
            raise ShapeError("helper half failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(qnn, "prelu", failing)
    monkeypatch.setattr(qnn, "usable_cpus", lambda: 2)
    with pytest.raises(ShapeError, match="helper half failed"):
        model.predict_logits(params, hp, store, batches)
    assert len(helper_threads()) == 1


def test_wide_training_with_dropout_same_bits(monkeypatch):
    hp = thread_hp(48, dropout_p=0.1)   # width 96
    store, params, data = thread_world(hp, 900, seed=13)
    cfg = TrainConfig(batch_size=128, epochs=2, patience=5, seed=4)

    def run():
        return train(copy_params(params), hp, store, data[:600], data[600:], cfg)

    one, two = both_ways(monkeypatch, run)
    assert [e.line() for e in one.history] == [e.line() for e in two.history]
    assert np.array_equal(one.params.flat, two.params.flat)
