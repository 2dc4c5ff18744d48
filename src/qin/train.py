"""Adam with embedding-only weight decay, the epoch loop, and evaluation.

Adam updates the flat parameter buffer (see params.py) in fixed-size
chunks, with its moments in two arrays of the same layout.

Determinism contract: the epoch shuffle and every dropout mask derive from
the run seed (dropout from a per-step counter), parameters update in a
fixed buffer order, and evaluation runs serially, so identical seeds give
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
from .params import ModelParams, copy_params

# Substream tags for the run seed, so shuffling and dropout never collide.
_SHUFFLE_STREAM = 1
_DROPOUT_STREAM = 2


@dataclass
class AdamState:
    """First and second moments, one entry per value of ModelParams.flat."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


# Entries per Adam chunk: the temporaries of one chunk stay in cache.
ADAM_CHUNK = 32_768


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              cfg: TrainConfig) -> None:
    """In-place Adam update with bias correction, over the flat buffers.

    Weight decay is coupled (g <- g + lambda * theta) and restricted to the
    embedding table's span; every other parameter is undecayed. The update
    runs chunk by chunk; each entry sees the same arithmetic as a
    tensor-by-tensor loop, so the result is the same to the bit.
    """
    if grads.shapes != params.shapes:
        raise ShapeError("params and grads disagree on the parameter layout")
    state.step += 1
    bc1 = 1.0 - cfg.adam_beta1 ** state.step
    bc2 = 1.0 - cfg.adam_beta2 ** state.step
    decay = params.spans["id_embedding"] if cfg.emb_weight_decay > 0 else slice(0, 0)
    n = params.flat.size
    edges = sorted({*range(0, n, ADAM_CHUNK), decay.start, decay.stop, n})
    for start, stop in zip(edges, edges[1:]):
        theta, g = params.flat[start:stop], grads.flat[start:stop]
        if decay.start <= start and stop <= decay.stop:
            g = g + cfg.emb_weight_decay * theta
        m, v = state.m[start:stop], state.v[start:stop]
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
