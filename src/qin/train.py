"""Adam with embedding-only weight decay, the epoch loop, and evaluation.

Determinism contract: the epoch shuffle and every dropout mask derive from
the run seed (dropout from a per-step counter), parameters update in a
fixed name order, and evaluation runs serially, so identical seeds give
bit-identical histories and checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import HyperParams, TrainConfig
from .atomic import atomic_write
from .dataio import Split, as_split, length_sorted_batches, make_batches
from .embedding import EmbeddingStore, Sample
from .errors import NonFiniteLossError, ShapeError, SingleClassError
from .linalg import FLOAT, spawn_rng
from .metrics import auc, bce_loss
from .model import loss_and_grads, predict_probs
from .params import Gradients, ModelParams, copy_params, named_arrays

# Substream tags for the run seed, so shuffling and dropout never collide.
_SHUFFLE_STREAM = 1
_DROPOUT_STREAM = 2


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        named = named_arrays(params)
        return cls(m={k: np.zeros_like(a) for k, a in named.items()},
                   v={k: np.zeros_like(a) for k, a in named.items()})


# Parameter names whose gradient receives the coupled L2 term.
DECAYED = ("id_embedding",)


def adam_step(params: ModelParams, grads: Gradients, state: AdamState,
              cfg: TrainConfig) -> None:
    """In-place Adam update with bias correction.

    Weight decay is coupled (g <- g + lambda * theta) and restricted to the
    embedding tables; every other parameter is undecayed.
    """
    p_named = named_arrays(params)
    g_named = named_arrays(grads)
    if p_named.keys() != g_named.keys():
        raise ShapeError("params and grads disagree on parameter names")
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.adam_beta1 ** t
    bc2 = 1.0 - cfg.adam_beta2 ** t
    for name in p_named:
        theta = p_named[name]
        g = g_named[name]
        if g.shape != theta.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {theta.shape} for {name}")
        if name in DECAYED and cfg.emb_weight_decay > 0:
            g = g + cfg.emb_weight_decay * theta
        m = state.m[name]
        v = state.v[name]
        m *= cfg.adam_beta1
        m += (1.0 - cfg.adam_beta1) * g
        v *= cfg.adam_beta2
        v += (1.0 - cfg.adam_beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)
        theta -= cfg.lr * update


@dataclass
class HistoryEntry:
    epoch: int
    loss: float
    val_auc: float
    val_logloss: float

    def line(self) -> str:
        return (f"epoch={self.epoch} loss={self.loss:.17g} "
                f"val_auc={self.val_auc:.17g} val_logloss={self.val_logloss:.17g}")


@dataclass
class TrainResult:
    params: ModelParams
    history: list = field(default_factory=list)
    best_epoch: int = -1
    best_auc: float = float("nan")


def evaluate(params: ModelParams, hp: HyperParams, store: EmbeddingStore,
             samples: Split | list[Sample], batch_size: int = 1024) -> dict:
    """Full-pass valid metrics, dropout disabled. Raises on single-class data.

    Rows are scored in stable history-length order, each batch cut to its
    longest history, so ragged histories score few padded slots; "probs"
    is returned in input order.
    """
    split = as_split(samples)
    if not len(split):
        raise SingleClassError("cannot evaluate an empty dataset")
    order, batches = length_sorted_batches(split, batch_size, hp.seq_len)
    probs = np.empty(len(split), dtype=FLOAT)
    probs[order] = predict_probs(params, hp, store, batches)
    return {"auc": auc(probs, split.labels.astype(int)), "logloss": bce_loss(probs, split.labels),
            "probs": probs}


def train(params: ModelParams, hp: HyperParams, store: EmbeddingStore,
          data_train: Split | list[Sample], data_valid: Split | list[Sample],
          cfg: TrainConfig) -> TrainResult:
    """Epoch loop with seeded shuffling and early stopping on valid AUC.

    Keeps the parameters of the best-validation epoch and stops after
    `patience` epochs without improvement. epochs=0 returns the initial
    parameters untouched with an empty history. Lists of Samples are
    converted to Splits once, here.
    """
    data_train, data_valid = as_split(data_train), as_split(data_valid)
    if not len(data_train):
        raise SingleClassError("training split is empty")
    if set(np.unique(data_valid.labels)) != {0, 1}:
        raise SingleClassError("validation split must contain both classes")

    state = AdamState.for_params(params)
    shuffle_rng = spawn_rng(cfg.seed, _SHUFFLE_STREAM)
    result = TrainResult(params=copy_params(params))
    best_auc = -np.inf
    since_best = 0
    global_step = 0

    for epoch in range(cfg.epochs):
        batches = make_batches(data_train, cfg.batch_size, hp.seq_len, rng=shuffle_rng)
        total_loss = 0.0
        for batch in batches:
            dropout_rng = spawn_rng(cfg.seed, _DROPOUT_STREAM, global_step)
            loss, grads, _ = loss_and_grads(params, hp, store, batch,
                                            training=True, dropout_rng=dropout_rng)
            if not np.isfinite(loss):
                raise NonFiniteLossError(
                    f"non-finite loss {loss} at epoch {epoch} step {global_step}")
            adam_step(params, grads, state, cfg)
            total_loss += loss * batch.size
            global_step += 1
        epoch_loss = total_loss / len(data_train)
        metrics = evaluate(params, hp, store, data_valid)
        result.history.append(HistoryEntry(epoch=epoch, loss=epoch_loss,
                                           val_auc=metrics["auc"],
                                           val_logloss=metrics["logloss"]))
        if metrics["auc"] > best_auc:
            best_auc = metrics["auc"]
            result.params = copy_params(params)
            result.best_epoch = epoch
            result.best_auc = best_auc
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return result


def write_history(history: list, path: str) -> None:
    with atomic_write(path) as fh:
        for entry in history:
            fh.write(entry.line() + "\n")
