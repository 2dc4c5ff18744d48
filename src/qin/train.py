"""Adam with embedding-only weight decay, the epoch loop, and evaluation.

``train`` and ``evaluate`` take their data as a ``dataio.Split``, the one
data form of the library.

Adam updates the flat parameter buffer (see params.py) in one pass, with
its moments in two arrays of the same layout. Its beta1, beta2 and eps
are the module constants ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.

Training and scoring run in float32 (TRAIN_FLOAT): train takes float32
copies of the parameters and the store at entry, so the gradients, the
Adam moments, every trace and the per-epoch validation pass are float32
through kernels that follow their inputs. The kept parameters come back
widened to float64, which is exact, so checkpoints and gradcheck stay
float64. evaluate takes float32 views of whatever it is given, so scoring
a checkpoint runs the same ops on the same bits as the validation pass of
the epoch that wrote it. Training and evaluation take one loss, on the
logits (metrics.bce_logit_loss), which stays finite where a float32
probability saturates to 1.0.

Determinism contract: the epoch shuffle and the per-step dropout masks, which
train draws and passes to the forward pass, derive from the run seed, and
the float32 parameters update in a fixed buffer order, so identical seeds
give bit-identical histories and checkpoints; the float64 checkpoint
holds the float32 values exactly. A wide QNN's layers may run on two
row halves at once, in the calling thread and the one second thread of the
process, which the first split starts and every later train, evaluate and
scoring call shares; the split rule is in qnn.py, and nothing here chooses
it. Every row-wise op gives the one-thread pass's bits on a half, and the
sums over rows (the weight and slope gradients) run whole in the calling
thread, so histories, checkpoints and probabilities are the same to the bit
whatever the CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import HyperParams, TrainConfig
from .atomic import atomic_write
from .dataio import Split, check_labels, length_sorted_batches, make_batches
from .embedding import EmbeddingStore
from .errors import NonFiniteLossError, ShapeError, SingleClassError
from .linalg import FLOAT, TRAIN_FLOAT, sigmoid, spawn_rng
from .metrics import auc, bce_logit_loss
from .model import draw_dropout_masks, loss_and_grads, predict_logits
from .params import ModelParams, copy_params, lr_scale

# Substream tags for the run seed, so shuffling and dropout never collide.
_SHUFFLE_STREAM = 1
_DROPOUT_STREAM = 2

EVAL_BATCH_SIZE = 1024   # rows per evaluation batch


@dataclass
class AdamState:
    """First and second moments, one entry per value of ModelParams.flat."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


# Adam's moment decays and denominator guard: the standard values, fixed.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              cfg: TrainConfig, lr_factors: dict[str, float] | None = None) -> None:
    """In-place Adam update with bias correction, in one pass over the flat buffers.

    Weight decay is coupled (g <- g + lambda * theta) and restricted to the
    embedding table's span; every other parameter is undecayed. lr_factors
    maps a tensor name to a multiplier of cfg.lr for its span; every other
    span steps at cfg.lr. The rate is one entry per parameter in the
    parameters' dtype, the value a scalar cfg.lr * factor is rounded to
    when it multiplies the update, so each entry sees the same arithmetic
    as a tensor-by-tensor loop, to the bit.
    """
    if grads.shapes != params.shapes:
        raise ShapeError("params and grads disagree on the parameter layout")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    theta, g = params.flat, grads.flat
    if cfg.emb_weight_decay > 0:
        decay = params.spans["id_embedding"]
        g = g.copy()
        g[decay] = g[decay] + cfg.emb_weight_decay * theta[decay]
    lr = np.full_like(theta, cfg.lr)
    for name, factor in (lr_factors or {}).items():
        lr[params.spans[name]] = cfg.lr * factor
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * (g * g)
    # The update in one buffer: a fresh array per op ran slower at 136k values.
    update = state.m / bc1
    update /= np.sqrt(state.v / bc2) + ADAM_EPS
    update *= lr
    theta -= update


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
             split: Split) -> dict:
    """Full-pass valid metrics, dropout disabled. Raises on single-class data.

    Scores in float32: parameters and store are cast to TRAIN_FLOAT at
    entry, which rounds a float64 checkpoint not written by train and is
    a no-op inside train. Rows are scored by model.predict_logits in
    stable history-length order, each batch cut to its longest history,
    so ragged histories score few padded slots. "logloss" is
    metrics.bce_logit_loss, the training loss, of the logits in input
    order. "probs" is the head's float32 sigmoid of those logits, widened
    to float64, and the AUC is taken on it.
    """
    if not len(split):
        raise SingleClassError("cannot evaluate an empty dataset")
    params = ModelParams(params.shapes, params.flat.astype(TRAIN_FLOAT, copy=False))
    store = EmbeddingStore(store.data.astype(TRAIN_FLOAT, copy=False))
    order, batches = length_sorted_batches(split, EVAL_BATCH_SIZE, hp.seq_len)
    scored = predict_logits(params, hp, store, batches)
    logits = np.empty_like(scored)
    logits[order] = scored
    probs = sigmoid(logits).astype(FLOAT)
    return {"auc": auc(probs, split.labels), "logloss": bce_logit_loss(logits, split.labels),
            "probs": probs}


def train(params: ModelParams, hp: HyperParams, store: EmbeddingStore,
          data_train: Split, data_valid: Split, cfg: TrainConfig) -> TrainResult:
    """Epoch loop with seeded shuffling and early stopping on valid AUC.

    Steps float32 copies of params and store; the caller's params are not
    changed. Keeps the parameters of the best-validation epoch, widened to
    float64, and stops after `patience` epochs without improvement.
    epochs=0 returns a copy of the initial parameters with an empty
    history. A training or validation label other than 0 or 1 raises
    DataError before any step.
    """
    if not len(data_train):
        raise SingleClassError("training split is empty")
    check_labels(data_train.labels)
    check_labels(data_valid.labels)
    if set(np.unique(data_valid.labels)) != {0, 1}:
        raise SingleClassError("validation split must contain both classes")

    result = TrainResult(params=copy_params(params))
    params = ModelParams(params.shapes, params.flat.astype(TRAIN_FLOAT))
    store = EmbeddingStore(store.data.astype(TRAIN_FLOAT))
    state = AdamState.for_params(params)
    factors = lr_scale(hp)
    shuffle_rng = spawn_rng(cfg.seed, _SHUFFLE_STREAM)
    best_auc = -np.inf
    since_best = 0
    global_step = 0

    for epoch in range(cfg.epochs):
        batches = make_batches(data_train, cfg.batch_size, hp.seq_len, rng=shuffle_rng)
        total_loss = 0.0
        for batch in batches:
            dropout_rng = spawn_rng(cfg.seed, _DROPOUT_STREAM, global_step)
            masks = draw_dropout_masks(hp, batch.size, dropout_rng)
            loss, grads = loss_and_grads(params, hp, store, batch, masks)
            if not np.isfinite(loss):
                raise NonFiniteLossError(
                    f"non-finite loss {loss} at epoch {epoch} step {global_step}")
            adam_step(params, grads, state, cfg, factors)
            total_loss += loss * batch.size
            global_step += 1
        epoch_loss = total_loss / len(data_train)
        metrics = evaluate(params, hp, store, data_valid)
        result.history.append(HistoryEntry(epoch=epoch, loss=epoch_loss,
                                           val_auc=metrics["auc"],
                                           val_logloss=metrics["logloss"]))
        if metrics["auc"] > best_auc:
            best_auc = metrics["auc"]
            result.params = ModelParams(params.shapes, params.flat.astype(FLOAT))
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
