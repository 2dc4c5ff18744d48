"""Training in float32 with the loss on the logits, against the float64 reference.

train steps float32 copies of the parameters and the store. These tests
hold that every float array of a step stays float32 (one widening would
cost the speed while every other test passed), that its gradients agree
with the float64 path that gradcheck certifies, that the loss stays
finite where a float32 probability saturates, and that the parameters
come back as float64 values that are float32 values.
"""

import math

import numpy as np
import pytest
from conftest import float_arrays, thread_hp, thread_world

from qin import model, qnn
from qin import train as train_mod
from qin.config import ATTN_KINDS, HyperParams, TrainConfig
from qin.embedding import EmbeddingStore
from qin.gradcheck import build_random_instance, gradcheck_hyperparams, parameter_classes
from qin.metrics import bce_logit_loss
from qin.model import loss_and_grads, model_forward
from qin.params import ModelParams, copy_params, params_equal, save_checkpoint

# The most a probability loss clamped to [1e-12, 1 - 1e-12] charges a sample, 27.6.
CLAMP_CAP = -math.log(1e-12)


def spied_train(monkeypatch, hp, store, params, data, n_train, batch_size):
    """One epoch of train; returns what the step and its evaluation saw."""
    seen = {"traces": [], "grads": [], "adam": [], "logits": []}
    real_backward, real_adam, real_predict = (model.model_backward, train_mod.adam_step,
                                              train_mod.predict_logits)

    def backward(params, hp, trace, d_logits):
        grads = real_backward(params, hp, trace, d_logits)
        seen["traces"].append((trace, d_logits))
        seen["grads"].append(grads)
        return grads

    def adam(params, grads, state, cfg, factors=None):
        seen["adam"].append((params.flat, state.m, state.v))
        return real_adam(params, grads, state, cfg, factors)

    def predict(*args, **kwargs):
        logits = real_predict(*args, **kwargs)
        seen["logits"].append(logits)
        return logits

    monkeypatch.setattr(model, "model_backward", backward)
    monkeypatch.setattr(train_mod, "adam_step", adam)
    monkeypatch.setattr(train_mod, "predict_logits", predict)
    cfg = TrainConfig(batch_size=batch_size, epochs=1, patience=1, seed=3)
    result = train_mod.train(params, hp, store, data[:n_train], data[n_train:], cfg)
    return seen, result


@pytest.mark.parametrize("shape", ["desk", "wide"])
def test_every_array_of_a_training_step_is_float32(monkeypatch, shape):
    if shape == "desk":   # the shipped defaults: width-32 QNN, 32-slot histories, batch 256
        hp = HyperParams(vocab=40, d_frozen=8)
        store, params, data = thread_world(hp, 256 + 64, seed=1)
        n_train, batch_size, helper_on = 256, 256, False
    else:                 # width 128, 512 rows, split over the helper thread
        hp = thread_hp(64, dropout_p=0.1)
        store, params, data = thread_world(hp, 512 + 64, seed=2)
        n_train, batch_size, helper_on = 512, 512, True
        monkeypatch.setattr(qnn, "usable_cpus", lambda: 2)
    split_rows = []
    real_forward_rows = qnn._forward_rows

    def forward_rows(x, *args, **kwargs):
        split_rows.append(len(x))
        return real_forward_rows(x, *args, **kwargs)

    monkeypatch.setattr(qnn, "_forward_rows", forward_rows)
    seen, result = spied_train(monkeypatch, hp, store, params, data, n_train, batch_size)

    assert len(seen["traces"]) == len(seen["adam"]) == 1
    assert (max(split_rows) < n_train) == helper_on   # the wide step ran on row halves
    trace, d_logits = seen["traces"][0]
    arrays = [("d_logits", d_logits), *float_arrays(trace)]
    # The batch mask and labels, the attention trace and every QNN layer.
    paths = {path for path, _ in arrays}
    assert {"trace.batch.mask", "trace.batch.labels", "trace.pool_trace.x_b",
            "trace.pool_trace.weights", "trace.inter_trace[1].h", "trace.logits"} <= paths
    arrays += [(f"grad.{name}", view) for name, view in seen["grads"][0].views.items()]
    flat, m, v = seen["adam"][0]
    arrays += [("params.flat", flat), ("adam.m", m), ("adam.v", v),
               *(("valid logits", z) for z in seen["logits"])]
    wide = [path for path, a in arrays if a.dtype != np.float32]
    assert wide == []
    assert result.params.flat.dtype == np.float64


def rounded_instance(hp, seed):
    """A gradcheck instance whose parameters and store are float32 values."""
    params, store, batch = build_random_instance(hp, seed)
    params = ModelParams(params.shapes, params.flat.astype(np.float32).astype(np.float64))
    return params, EmbeddingStore(store.data.astype(np.float32).astype(np.float64)), batch


@pytest.mark.parametrize("interaction", ["qnn", "mlp"])
@pytest.mark.parametrize("kind", ATTN_KINDS)
def test_float32_gradients_agree_with_float64(kind, interaction):
    # The float64 path is the one gradcheck certifies; at the same point
    # the float32 path must give every class's gradient to 1e-5.
    hp = gradcheck_hyperparams(attn_kind=kind, interaction=interaction)
    for seed in range(3):
        params, store, batch = rounded_instance(hp, seed)
        params32 = ModelParams(params.shapes, params.flat.astype(np.float32))
        store32 = EmbeddingStore(store.data.astype(np.float32))
        loss64, grads64 = loss_and_grads(params, hp, store, batch)
        loss32, grads32 = loss_and_grads(params32, hp, store32, batch)
        logits32 = model_forward(params32, hp, store32, batch).logits
        assert grads64.flat.dtype == np.float64
        assert grads32.flat.dtype == logits32.dtype == np.float32
        assert abs(loss32 - loss64) <= 1e-5 * abs(loss64), seed
        for name, span in parameter_classes(params).items():
            want = grads64.flat[span]
            err = np.linalg.norm(grads32.flat[span] - want) / np.linalg.norm(want)
            assert err <= 1e-5, (seed, name, err)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_logit_loss_stays_finite_where_probabilities_saturate(dtype):
    for z in (-100.0, -40.0, 40.0, 100.0):
        for y in (0.0, 1.0):
            loss = bce_logit_loss(np.array([z], dtype=dtype), np.array([y], dtype=dtype))
            want = float(np.logaddexp(0.0, z) - y * z)
            assert math.isfinite(loss) and loss == want, (z, y)
            if (z > 0) != (y > 0):   # the wrong label costs about |z|, past the clamp's cap
                assert abs(loss - abs(z)) < 1e-12 and loss > CLAMP_CAP


def test_saturated_float32_training_stays_finite():
    # Logits in the hundreds: every float32 probability is 0.0 or 1.0, in
    # the steps and in each epoch's validation pass.
    hp = HyperParams(vocab=40, d_frozen=8)
    store, params, data = thread_world(hp, 320, seed=4)
    params.head_w = params.head_w * 1e4
    result = train_mod.train(params, hp, store, data[:256], data[256:],
                             TrainConfig(batch_size=64, epochs=2, patience=2, seed=0))
    assert len(result.history) == 2
    assert all(math.isfinite(v) for e in result.history for v in (e.loss, e.val_logloss))
    assert result.history[0].loss > CLAMP_CAP


def test_desk_run_trains_in_float32_to_a_finite_history(trained_desk_model):
    result, _ = trained_desk_model
    assert result.params.flat.dtype == np.float64
    assert result.history and all(math.isfinite(v) for e in result.history
                                   for v in (e.loss, e.val_auc, e.val_logloss))


def test_float32_run_returns_float64_values_of_float32(tmp_path):
    hp = thread_hp(8, dropout_p=0.1)
    store, params, data = thread_world(hp, 400, seed=6)
    init = copy_params(params)
    runs = []
    for run in range(2):
        result = train_mod.train(params, hp, store, data[:320], data[320:],
                                 TrainConfig(batch_size=64, epochs=3, patience=3, seed=7))
        flat = result.params.flat
        assert flat.dtype == np.float64
        assert np.array_equal(flat.astype(np.float32).astype(np.float64), flat)
        assert not params_equal(result.params, init)
        path = tmp_path / f"{run}.ckpt"
        save_checkpoint(result.params, str(path))
        runs.append(([e.line() for e in result.history], path.read_bytes()))
    assert runs[0] == runs[1]
    assert params_equal(params, init)   # the caller's parameters are not stepped
