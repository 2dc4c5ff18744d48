"""Finite-difference certification of analytic gradients.

``check`` treats a scalar forward plus a precomputed analytic gradient as
a black box and compares against central differences coordinate by
coordinate. Coordinates whose perturbed evaluations sit within the kink
guard of a ReLU/PReLU pre-activation, or where a pre-activation changes
sign between the two evaluations, are skipped and counted: a central
difference straddling a kink says nothing about the derivative.

``run_model_gradcheck`` builds a small random model instance and certifies
every parameter class of the full loss, each class a contiguous span of
the flat parameter buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HyperParams
from .dataio import Split, build_batch
from .embedding import EmbeddingStore
from .errors import ConfigError, QinError
from .linalg import FLOAT, make_rng, spawn_rng
from .metrics import bce_logit_loss
from .model import draw_dropout_masks, loss_and_grads, model_forward
from .params import copy_params, init_params


@dataclass
class GradReport:
    name: str
    max_rel_err: float
    argmax_coord: int
    n_checked: int
    n_kink_skipped: int
    n_noise_skipped: int
    step: float
    seed: int

    @property
    def n_skipped(self) -> int:
        return self.n_kink_skipped + self.n_noise_skipped

    def line(self) -> str:
        return (f"class={self.name} max_rel_err={self.max_rel_err:.3e} "
                f"coords={self.n_checked} kink_skipped={self.n_kink_skipped} "
                f"noise_skipped={self.n_noise_skipped} step={self.step:g} seed={self.seed}")


def _eval(forward, x):
    out = forward(x)
    value, preacts = out if isinstance(out, tuple) else (out, None)
    if not np.isfinite(value):
        raise QinError(f"forward returned non-finite value {value}")
    return float(value), preacts


def check(forward, analytic_grad: np.ndarray, point: np.ndarray,
          step: float = 1e-5, kink_guard: float = 1e-6, rel_tol: float = 1e-4,
          name: str = "fn", seed: int = 0) -> GradReport:
    """Central differences (f(x+h) - f(x-h)) / 2h against the analytic gradient.

    forward maps a flat float64 vector to a loss, optionally returning
    (loss, preacts) where preacts are the kink-relevant pre-activations.

    Besides the kink guard, coordinates whose gradient sits below the
    64-bit resolution of the difference quotient are skipped and counted:
    the quotient carries absolute rounding noise of roughly
    eps * |f| / step regardless of the true derivative, so a coordinate
    can only be certified to rel_tol when its magnitude clears that noise
    divided by rel_tol. Skipping them states "too small to measure"
    instead of failing on noise (or silently passing garbage).
    """
    point = np.asarray(point, dtype=FLOAT)
    analytic_grad = np.asarray(analytic_grad, dtype=FLOAT)
    if analytic_grad.shape != point.shape:
        raise QinError(f"analytic gradient shape {analytic_grad.shape} != point {point.shape}")
    f0, pre0 = _eval(forward, point)
    fd_noise = np.finfo(FLOAT).eps * abs(f0) / step
    noise_floor = 4.0 * fd_noise / rel_tol

    max_rel = 0.0
    argmax = -1
    checked = 0
    kink_skipped = 0
    noise_skipped = 0
    for i in range(point.size):
        x = point.copy()
        x[i] = point[i] + step
        f_plus, pre_plus = _eval(forward, x)
        x[i] = point[i] - step
        f_minus, pre_minus = _eval(forward, x)
        if pre0 is not None:
            near = min(np.min(np.abs(p)) if p.size else np.inf
                       for p in (pre0, pre_plus, pre_minus))
            flipped = pre_plus.size and np.any(np.sign(pre_plus) != np.sign(pre_minus))
            if near < kink_guard or flipped:
                kink_skipped += 1
                continue
        numeric = (f_plus - f_minus) / (2.0 * step)
        a = float(analytic_grad[i])
        if 0.0 < max(abs(a), abs(numeric)) < noise_floor:
            noise_skipped += 1
            continue
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        checked += 1
        if rel > max_rel:
            max_rel = rel
            argmax = i
    return GradReport(name=name, max_rel_err=max_rel, argmax_coord=argmax,
                      n_checked=checked, n_kink_skipped=kink_skipped,
                      n_noise_skipped=noise_skipped, step=step, seed=seed)


def collect_kink_preacts(trace, hp: HyperParams) -> np.ndarray:
    """Pre-activation values whose sign changes would invalidate a central diff."""
    pieces = []
    if hp.attn_kind == "relu":
        live = trace.pool_trace.mask > 0
        pieces.append(trace.pool_trace.scores[live].ravel())
    if hp.interaction == "qnn":
        for layer in trace.inter_trace:
            pieces.append(layer.h.ravel())
    else:
        for pre in trace.inter_trace.pre:
            pieces.append(pre.ravel())
    return np.concatenate(pieces) if pieces else np.zeros(0, dtype=FLOAT)


def gradcheck_hyperparams(attn_kind: str = "relu", interaction: str = "qnn",
                          dropout_p: float = 0.0) -> HyperParams:
    """Small instance: d=16, seq len 8, depth = capacity = 2, vocab 24; dropout off by default."""
    return HyperParams(d_t=16, seq_len=8, depth=2, m=2, mlp_dims=(12, 8), vocab=24, d_frozen=8,
                       attn_kind=attn_kind, interaction=interaction, dropout_p=dropout_p)


def build_random_instance(hp: HyperParams, seed: int, n: int = 4):
    """Random params, store, and a small labeled batch for loss evaluation.

    The id table is redrawn at unit-ish scale: the training-time 0.01 init
    would park whole gradient columns at the finite-difference resolution
    floor, and a gradcheck point should be generic, not near-degenerate.
    """
    rng = make_rng(seed)
    params = init_params(hp, rng)
    params.id_embedding = rng.standard_normal(params.id_embedding.shape) * 0.5
    store = EmbeddingStore(rng.standard_normal((hp.vocab, hp.d_frozen)) * 0.5)
    # Each row draws its history length, its history, then its target; every
    # report depends on that order.
    lengths, histories, targets = np.empty(n, dtype=np.int64), [], np.empty(n, dtype=np.int64)
    for i in range(n):
        lengths[i] = rng.integers(1, hp.seq_len + 1)
        histories.append(rng.choice(hp.vocab, size=lengths[i], replace=False))
        targets[i] = rng.integers(0, hp.vocab)
    split = Split.from_lengths(targets, np.arange(n) % 2, lengths, np.concatenate(histories))
    return params, store, build_batch(split, hp.seq_len)


def parameter_classes(params) -> dict[str, slice]:
    """Report name -> span of params.flat. Each class is a run of adjacent
    tensors: the id table, each projection, each QNN layer's (D, D) matrix
    (its m heads folded into one; m only scales its init and learning
    rate), the PReLU slopes, the whole MLP, the head."""
    spans: dict[str, slice] = {}
    for name, span in params.spans.items():
        if name.startswith(("mlp_", "head_")):
            name = name.split("_")[0]
        name = "embeddings" if name == "id_embedding" else name
        spans[name] = slice(spans.get(name, span).start, span.stop)
    return spans


def run_model_gradcheck(seed: int, hp: HyperParams | None = None,
                        step: float = 1e-5, sabotage: str | None = None,
                        rel_tol: float = 1e-4) -> list[GradReport]:
    """Certify every parameter class of the full model loss on one instance.

    sabotage flips the sign of the analytic gradient for the named class,
    one of this model's (else ConfigError); the run must then fail, which
    self-tests the harness. One set of QNN keep-masks, drawn from
    substream 1 of seed, serves the analytic pass and every perturbed
    forward. Each class has one trial copy of the parameters; every
    forward overwrites the class's whole span, so the rest stays at the
    instance's values.
    """
    hp = hp or gradcheck_hyperparams()
    params, store, batch = build_random_instance(hp, seed)
    masks = draw_dropout_masks(hp, batch.size, spawn_rng(seed, 1))
    classes = parameter_classes(params)
    if sabotage is not None and sabotage not in classes:
        raise ConfigError(f"sabotage {sabotage!r} is not one of the classes {sorted(classes)}")
    _, grads = loss_and_grads(params, hp, store, batch, masks)

    reports = []
    for cls_name, span in classes.items():
        analytic = grads.flat[span]
        if sabotage == cls_name:
            analytic = -analytic

        def forward(vec, span=span, trial=copy_params(params)):
            trial.flat[span] = vec
            trace = model_forward(trial, hp, store, batch, masks)
            return bce_logit_loss(trace.logits, batch.labels), collect_kink_preacts(trace, hp)

        reports.append(check(forward, analytic, params.flat[span], step=step,
                             rel_tol=rel_tol, name=cls_name, seed=seed))
    return reports
