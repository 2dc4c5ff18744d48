"""Training with each QNN layer on two row halves, against one thread, bit for bit.

The split is forced on by lowering qnn.QNN_SPLIT_MIN_DIM and reporting
two usable CPUs, and forced off by reporting one (conftest.usable). Width
32 is the widest span of small-matrix GEMM rows in OpenBLAS (up to 37), so
a half there has the fewest rows to spare; width 128 runs under the real
gate. The helper thread is one per process and may have started in an
earlier test, so no test here needs a thread to start; they count starts
as at most one, or none.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import helper_threads, spy_traced_names, thread_hp, thread_world, usable

from qin import model, qnn
from qin.config import ATTN_KINDS, TrainConfig
from qin.dataio import build_batch
from qin.errors import ShapeError
from qin.linalg import make_rng
from qin.params import copy_params, save_checkpoint
from qin.qnn import QNN_SPLIT_MIN_ROWS, QnnConfig, qnn_backward, qnn_forward
from qin.train import evaluate, train

# Halves below, at and above QNN_SPLIT_MIN_ROWS, and a wide batch.
BATCH_SIZES = (255, 256, 257, 1023)
TRAIN_ROWS = 1100   # every batch size above leaves a short last batch


@pytest.fixture
def backward_threads(monkeypatch):
    """Names of the threads that ran a backward row block; only training runs one."""
    names = []
    real = qnn.prelu_grad

    def spy(*args, **kwargs):
        names.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(qnn, "prelu_grad", spy)
    return names


def helper_ran(names) -> bool:
    return any(name != threading.current_thread().name for name in names)


def trained(hp, store, params, data, batch_size, path):
    """History lines and checkpoint bytes of a 2-epoch run."""
    cfg = TrainConfig(batch_size=batch_size, epochs=2, patience=5, seed=4)
    result = train(copy_params(params), hp, store, data[:TRAIN_ROWS], data[TRAIN_ROWS:], cfg)
    save_checkpoint(result.params, str(path))
    return [e.line() for e in result.history], path.read_bytes()


@pytest.mark.parametrize("dropout_p", [0.0, 0.1])
@pytest.mark.parametrize("act", ["prelu", "relu"])
@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_split_training_matches_one_thread(monkeypatch, tmp_path, backward_threads, kind, act,
                                           dropout_p):
    hp = thread_hp(16, attn_kind=kind, qnn_act=act, dropout_p=dropout_p)
    store, params, data = thread_world(hp, TRAIN_ROWS + 300, seed=21)
    for batch_size in BATCH_SIZES:
        usable(monkeypatch, 1)
        one = trained(hp, store, params, data, batch_size, tmp_path / "one.ckpt")
        backward_threads.clear()
        usable(monkeypatch, 2)
        two = trained(hp, store, params, data, batch_size, tmp_path / "two.ckpt")
        assert one == two, batch_size
        assert helper_ran(backward_threads) == (batch_size >= 2 * QNN_SPLIT_MIN_ROWS)


@pytest.mark.parametrize("kind", ["softmax", "mean"])
def test_wide_training_matches_one_thread_under_the_real_gate(monkeypatch, tmp_path,
                                                              backward_threads, kind):
    hp = thread_hp(64, attn_kind=kind, dropout_p=0.1)   # width 128
    store, params, data = thread_world(hp, TRAIN_ROWS + 300, seed=23)
    runs = []
    for count in (1, 2):
        monkeypatch.setattr(qnn, "usable_cpus", lambda: count)
        runs.append(trained(hp, store, params, data, 600, tmp_path / f"{count}.ckpt"))
    assert runs[0] == runs[1]
    assert helper_ran(backward_threads)


class CountingHelper(ThreadPoolExecutor):
    def __init__(self):
        super().__init__(max_workers=1)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


def stack_pass(ws, slopes, x1, cfg, masks, d_out):
    x_last, layers = qnn_forward(ws, slopes, x1, cfg, masks)
    d_ws, d_slopes, d_x1 = qnn_backward(ws, slopes, cfg, layers, d_out)
    arrays = [x_last, *d_ws, d_slopes, d_x1]
    for layer in layers:
        arrays += [layer.t, layer.h]
    return arrays


@pytest.mark.parametrize("dropout_p", [0.0, 0.3])
@pytest.mark.parametrize("act", ["prelu", "relu"])
@pytest.mark.parametrize("residual", [True, False])
def test_split_layers_match_one_thread(monkeypatch, residual, act, dropout_p):
    dim, depth = 128, 3
    cfg = QnnConfig(depth=depth, m=2, dim=dim, dropout_p=dropout_p, residual=residual, act=act)
    rng = make_rng(5)
    weights = [rng.standard_normal((dim, dim)) * 0.05 for _ in range(depth)]
    slopes = np.array([0.25, -0.1, 0.4])
    # float64 over the sizes, then float32, the training dtype, at the
    # smallest split and at an odd size above it.
    cases = [(np.float64, n) for n in (1, 2, 255, 256, 257, 954, 1023)]
    cases += [(np.float32, 2 * QNN_SPLIT_MIN_ROWS), (np.float32, 777)]
    with CountingHelper() as helper:
        monkeypatch.setattr(qnn, "_HELPER", helper)
        for dtype, n in cases:
            ws = [w.astype(dtype) for w in weights]
            x1 = (rng.standard_normal((n, dim)) * 0.5).astype(dtype)
            masks = None
            if dropout_p:
                masks = [rng.random((n, dim)) >= dropout_p for _ in range(depth)]
            d_out = rng.standard_normal((n, dim)).astype(dtype)
            monkeypatch.setattr(qnn, "usable_cpus", lambda: 1)
            one = stack_pass(ws, slopes.astype(dtype), x1, cfg, masks, d_out)
            assert helper.submitted == 0, n
            monkeypatch.setattr(qnn, "usable_cpus", lambda: 2)
            two = stack_pass(ws, slopes.astype(dtype), x1, cfg, masks, d_out)
            assert all(np.all(np.isfinite(a)) for a in one)
            assert all(a.dtype == dtype for a in one if isinstance(a, np.ndarray)), n
            assert all(np.array_equal(a, b) for a, b in zip(one, two)), n
            # Forward: one hand-off per layer; backward: two.
            split = n >= 2 * QNN_SPLIT_MIN_ROWS
            assert helper.submitted == (3 * depth if split else 0), n
            helper.submitted = 0


@pytest.fixture
def row_blocks(monkeypatch):
    """(row function, rows, ran in the calling thread) of each QNN row-block call."""
    calls = []
    caller = threading.current_thread()
    for name in ("_forward_rows", "_backward_rows"):
        def spy(*args, name=name, real=getattr(qnn, name)):
            # Both take their row block's output last.
            calls.append((name, len(args[-1]), threading.current_thread() is caller))
            return real(*args)

        monkeypatch.setattr(qnn, name, spy)
    return calls


def assert_blocks(calls, depth, n, split):
    """Each layer ran each row function once on all n rows, or on its two halves."""
    blocks = [n // 2, n - n // 2] if split else [n]
    for name in ("_forward_rows", "_backward_rows"):
        mine = [(rows, here) for fn, rows, here in calls if fn == name]
        assert sorted(rows for rows, _ in mine) == sorted(blocks * depth), (name, n)
        assert sum(not here for _, here in mine) == (depth if split else 0), (name, n)


@pytest.mark.parametrize("n, two_cpus", [(1023, False), (1, True), (255, True),
                                         (256, True), (257, True), (1023, True)])
def test_each_layer_runs_its_one_body_per_row_block(monkeypatch, row_blocks, n, two_cpus):
    dim, depth = 128, 3
    cfg = QnnConfig(depth=depth, m=2, dim=dim, dropout_p=0.3)
    rng = make_rng(8)
    ws = [rng.standard_normal((dim, dim)) * 0.05 for _ in range(depth)]
    masks = [rng.random((n, dim)) >= 0.3 for _ in range(depth)]
    x1, d_out = rng.standard_normal((2, n, dim))
    monkeypatch.setattr(qnn, "usable_cpus", lambda: 2 if two_cpus else 1)
    stack_pass(ws, np.array([0.25, -0.1, 0.4]), x1, cfg, masks, d_out)
    assert_blocks(row_blocks, depth, n, two_cpus and n >= 2 * QNN_SPLIT_MIN_ROWS)


@pytest.mark.parametrize("cpus", [1, 2])
def test_one_cpu_runs_each_layer_on_all_rows(monkeypatch, row_blocks, cpus):
    hp = thread_hp(64)    # width 128: past the real gate
    store, params, data = thread_world(hp, 512, seed=6)
    batch = build_batch(data, hp.seq_len)
    monkeypatch.setattr(qnn, "usable_cpus", lambda: cpus)
    model.loss_and_grads(params, hp, store, batch)
    assert_blocks(row_blocks, hp.depth, 512, cpus == 2)


def test_one_cpu_starts_no_thread_in_train(monkeypatch, started):
    hp = thread_hp(64)    # width 128: past the real gate
    store, params, data = thread_world(hp, TRAIN_ROWS + 300, seed=9)
    monkeypatch.setattr(qnn, "usable_cpus", lambda: 1)
    train(params, hp, store, data[:TRAIN_ROWS], data[TRAIN_ROWS:],
          TrainConfig(batch_size=512, epochs=2, patience=5, seed=1))
    assert started == []


def test_desk_width_starts_no_thread(monkeypatch, started, backward_threads):
    hp = thread_hp(16)    # width 32, the desk width: under the real gate
    store, params, data = thread_world(hp, TRAIN_ROWS + 300, seed=9)
    monkeypatch.setattr(qnn, "usable_cpus", lambda: 2)
    train(params, hp, store, data[:TRAIN_ROWS], data[TRAIN_ROWS:],
          TrainConfig(batch_size=512, epochs=1, patience=5, seed=1))
    assert started == []
    assert backward_threads and not helper_ran(backward_threads)


def test_one_helper_thread_serves_every_call(monkeypatch, started, backward_threads):
    hp = thread_hp(64)
    store, params, data = thread_world(hp, TRAIN_ROWS + 2000, seed=9)
    monkeypatch.setattr(qnn, "usable_cpus", lambda: 2)
    cfg = TrainConfig(batch_size=512, epochs=2, patience=5, seed=1)
    for _ in range(2):
        train(params, hp, store, data[:TRAIN_ROWS], data[TRAIN_ROWS:], cfg)
    evaluate(params, hp, store, data[TRAIN_ROWS:])     # two batches, 1024 and 976 rows
    assert len(started) <= 1            # none if an earlier test started the helper
    assert helper_ran(backward_threads)
    alive = helper_threads()
    assert len(alive) == 1
    main = threading.current_thread().name
    assert {name for name in backward_threads if name != main} == {alive[0].name}


def failing_in_the_helper(monkeypatch, kernel) -> None:
    """qnn.<kernel> raises ShapeError in the helper's half and runs in the calling thread."""
    caller = threading.current_thread()
    real = getattr(qnn, kernel)

    def failing(*args, **kwargs):
        if threading.current_thread() is not caller:   # the helper's half only
            raise ShapeError("helper half failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(qnn, kernel, failing)


@pytest.mark.parametrize("kernel", ["prelu", "prelu_grad"])   # forward, backward
def test_helper_error_reaches_train_with_its_type(monkeypatch, kernel):
    hp = thread_hp(64)
    store, params, data = thread_world(hp, TRAIN_ROWS + 300, seed=11)
    failing_in_the_helper(monkeypatch, kernel)
    monkeypatch.setattr(qnn, "usable_cpus", lambda: 2)
    with pytest.raises(ShapeError, match="helper half failed"):
        train(params, hp, store, data[:TRAIN_ROWS], data[TRAIN_ROWS:],
              TrainConfig(batch_size=512, epochs=1, patience=5, seed=1))
    assert len(helper_threads()) == 1


def test_helper_survives_a_failed_half(monkeypatch, tmp_path, backward_threads):
    # The helper is the process's one thread, so an error in one call's
    # half must leave it splitting, bit for bit, for every later call.
    hp = thread_hp(64)
    store, params, data = thread_world(hp, TRAIN_ROWS + 300, seed=11)
    with monkeypatch.context() as failing:
        failing_in_the_helper(failing, "prelu_grad")
        failing.setattr(qnn, "usable_cpus", lambda: 2)
        with pytest.raises(ShapeError, match="helper half failed"):
            trained(hp, store, params, data, 512, tmp_path / "failed.ckpt")
    runs = []
    for count in (1, 2):
        backward_threads.clear()
        monkeypatch.setattr(qnn, "usable_cpus", lambda: count)
        runs.append(trained(hp, store, params, data, 512, tmp_path / f"{count}.ckpt"))
    assert helper_ran(backward_threads)
    assert runs[0] == runs[1]


def test_helper_enters_no_traced_name(monkeypatch, backward_threads):
    entered = spy_traced_names(monkeypatch)
    hp = thread_hp(64, dropout_p=0.1)
    store, params, data = thread_world(hp, TRAIN_ROWS + 300, seed=13)
    monkeypatch.setattr(qnn, "usable_cpus", lambda: 2)
    train(params, hp, store, data[:TRAIN_ROWS], data[TRAIN_ROWS:],
          TrainConfig(batch_size=512, epochs=2, patience=5, seed=1))
    assert helper_ran(backward_threads)
    assert {"qin.model.qnn_forward", "qin.model.qnn_backward"} <= {n for n, _ in entered}
    main = threading.current_thread().name
    assert [(n, t) for n, t in entered if t != main] == []
