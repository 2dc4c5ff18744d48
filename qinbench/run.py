#!/usr/bin/env python3
"""Benchmark for the qin trainer and scorer.

Run from the root of a checkout:

    python3 qinbench/run.py --workload desk_train --seed 1 --seconds 24 --trace 0
    python3 qinbench/run.py --workload all --seed 1 --seconds 24 --trace 1

It imports ``qin`` from ``src/`` of the checkout and drives it only through
public module functions: ``datagen.generate``, ``dataio.load_dataset``,
``params.init_params``/``save_checkpoint``/``load_checkpoint``,
``train.train`` and ``train.evaluate``. Each workload's data is generated
from ``--seed`` into ``.bench_build/qinbench/`` and removed afterwards.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` installs the
timing shims of ``tracing.py`` and reports per-layer metrics instead. The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Any failed correctness check or
``QinError`` makes the exit code non-zero. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# One BLAS thread unless the caller chose otherwise: on a small shared machine
# a second BLAS thread buys little and makes timings swing with other load.
# Set before the first numpy import; the thread count used is reported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "qinbench")

# kind "train": the timed units are train.train calls, followed by eval passes.
# kind "score": a checkpoint is trained in set-up; the timed units are eval passes.
WORKLOADS = {
    "desk_train": {
        "kind": "train",
        "gen": {"n_samples": 50_000, "max_seq_len": 32, "min_seq_len": 32},
        "model": {"d_t": 16, "d_b": 16, "d_a": 16, "seq_len": 32, "depth": 2, "m": 2},
        "train": {"batch_size": 256, "epochs": 1},
    },
    "wide_qnn_train": {
        "kind": "train",
        "gen": {"n_samples": 10_000, "max_seq_len": 4, "min_seq_len": 4},
        "model": {"d_t": 64, "d_b": 64, "d_a": 64, "seq_len": 4, "depth": 4, "m": 4},
        "train": {"batch_size": 1024, "epochs": 1},
    },
    "ragged_score": {
        "kind": "score",
        "gen": {"n_samples": 24_000, "max_seq_len": 64, "min_seq_len": 1, "split_frac": 0.5},
        "model": {"d_t": 16, "d_b": 16, "d_a": 16, "seq_len": 64, "depth": 2, "m": 2},
        "train": {"batch_size": 256, "epochs": 2},
    },
}

SETUPS = 3            # set-ups per run; setup_s is their median
EVAL_PER_TRAIN = 0.3  # eval time per unit of train time on train workloads
MIN_UNITS = 4         # timed units per run, even past --seconds
AUC_SUBSAMPLE = 2000  # scores checked against the pairwise AUC oracle
GRADCHECK_SEED = 0
GRADCHECK_TOL = 1e-4
# Nominal seconds of one Calibration.seconds() call. Every end-to-end time is
# scaled to this reference machine speed. Never change it: it sets the scale
# of setup_s and of both throughputs.
CAL_REF_S = 0.010
# Calibration calls made before and after each unit of a kind. Set-ups and
# train calls last seconds and are few, so each is bracketed by several.
CAL_CALLS = {"setup": (3, 3), "train": (3, 3), "eval": (1, 0)}

END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "val_auc": "auc",
    "val_logloss": "nats",
    "peak_rss_mb": "MiB",
    "ops_ok_frac": "fraction",
}

# (span name, metric name for its self time). Every one also gets "<span>.calls".
TIMED_LAYERS = [
    ("datagen.generate", "datagen.generate_s"),
    ("dataio.load", "dataio.load_s"),
    ("dataio.make_batches", "dataio.make_batches_s"),
    ("params.init", "params.init_s"),
    ("embedding.lookup", "embedding.lookup_s"),
    ("embedding.grad_scatter", "embedding.grad_scatter_s"),
    ("asta.forward", "asta.forward_s"),
    ("asta.backward", "asta.backward_s"),
    ("qnn.forward", "qnn.forward_s"),
    ("qnn.backward", "qnn.backward_s"),
    ("metrics.head", "metrics.head_s"),
    ("metrics.bce", "metrics.bce_s"),
    ("metrics.auc", "metrics.auc_s"),
    ("model.forward", "model.forward_self_s"),
    ("model.backward", "model.backward_self_s"),
    ("train.adam", "train.adam_s"),
    ("train.evaluate", "train.evaluate_s"),
    ("train.loop", "train.loop_self_s"),
    ("params.checkpoint_save", "params.checkpoint_save_s"),
    ("params.checkpoint_load", "params.checkpoint_load_s"),
    ("params.copy", "params.copy_s"),
]

# (metric, unit, span name, counter key); fractions are ratios of two counters.
COUNTED = [
    ("embedding.rows_gathered", "count", "embedding.lookup", "rows_gathered"),
    ("embedding.rows_scattered", "count", "embedding.grad_scatter", "rows_scattered"),
    ("qnn.flops", "flops", ("qnn.forward", "qnn.backward"), "flops"),
]
FRACTIONS = [
    ("asta.live_slot_frac", "asta.forward", "live_slots", "padded_slots"),
    ("asta.nonzero_weight_frac", "asta.forward", "nonzero_weights", "live_slots"),
]
TRACE_SUMMARY = {
    "trace.unit_s": "s",
    "trace.samples_per_s_traced": "samples/s",
    "trace.samples_per_s_untraced": "samples/s",
    "trace.overhead_frac": "fraction",
}


class Calibration:
    """A fixed numpy + Python kernel, independent of qin, timed around every unit.

    On a shared machine the speed drifts by 10-20% over minutes, which no
    median within one run removes. The kernel (gathers, small matmuls, a
    sort and a Python loop, like qin's mix) slows down with the machine, so
    time x (CAL_REF_S / kernel time) stays steady across runs while still
    moving with qin's own speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = rng.standard_normal((1000, 16))
        self.ids = rng.integers(0, 1000, (256, 32))
        self.w = rng.standard_normal((16, 16))
        self.values = rng.standard_normal(4000)

    def _round(self) -> None:
        x = self.table[self.ids]
        scores = np.einsum("nsa,na->ns", x @ self.w.T, x[:, 0, :])
        np.maximum(scores, 0.0).sum()
        order = np.argsort(self.values, kind="stable")
        [int(v) for v in order[:2000]]

    def seconds(self) -> float:
        # The garbage collector is off and one round runs untimed first, so the
        # time depends on the machine and not on the heap or caches qin left.
        gc.disable()
        try:
            self._round()
            start = time.perf_counter()
            for _ in range(8):
                self._round()
            return time.perf_counter() - start
        finally:
            gc.enable()


def import_qin():
    if not os.path.isfile(os.path.join(SRC, "qin", "__init__.py")):
        raise SystemExit(f"qinbench: no qin package under {SRC}; "
                         "run from the root of a full checkout")
    sys.path.insert(0, SRC)
    import qin
    if not os.path.abspath(qin.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qinbench: imported qin from {qin.__file__}, not from {SRC}")


def build(cls, **values):
    """Construct a config dataclass from the keys it still has."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in values.items() if k in names})


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def machine_facts() -> dict:
    import ctypes

    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "loadavg_start": list(os.getloadavg()), "python": platform.python_version(),
             "numpy": np.__version__, "blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                break
    facts["commit"] = git_commit()
    facts["source_sha256"] = source_digest()
    return facts


def git_commit() -> str:
    """HEAD's sha read from .git without running git; "unknown" outside a clone."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qin")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Workload:
    """One workload run: set-ups, timed units, correctness checks, metrics."""

    def __init__(self, name: str, seed: int, seconds: float, tracer: Tracer | None,
                 calibration: Calibration):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.calibration = calibration
        self.dir = os.path.join(WORK, f"{name}-seed{seed}-pid{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.values: dict = {}
        self.details: dict = {"workload": name, "seed": seed}
        self.units: dict[str, list] = {"setup": [], "train": [], "eval": []}
        self.cal_s: dict[str, list] = {"setup": [], "train": [], "eval": []}
        self.setup_layers: set[str] = set()   # traced layers measured per set-up

    # -- accounting ---------------------------------------------------------
    def speed(self, kind: str) -> float:
        """Machine speed around the units of one kind, relative to CAL_REF_S."""
        return CAL_REF_S / statistics.median(self.cal_s[kind])

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return bool(ok)

    @contextlib.contextmanager
    def unit(self, kind: str, traced: bool):
        """One timed unit; spans in it carry its step id. Yields {"wall": s}."""
        step = f"{kind}.{len(self.units[kind])}"
        timing: dict = {}
        before, after = CAL_CALLS[kind]
        self.cal_s[kind] += [self.calibration.seconds() for _ in range(before)]
        if self.tracer is not None:
            self.tracer.step, self.tracer.enabled = step, traced
        start = time.perf_counter()
        try:
            yield timing
        finally:
            timing["wall"] = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.step, self.tracer.enabled = None, False
        self.units[kind].append((step, traced, timing["wall"]))
        self.cal_s[kind] += [self.calibration.seconds() for _ in range(after)]

    # -- phases -------------------------------------------------------------
    def set_up(self, traced: bool) -> dict:
        from qin import dataio, datagen, linalg, params
        from qin import train as qtrain
        from qin.config import GenConfig, HyperParams, TrainConfig

        spec = self.spec
        data_dir = os.path.join(self.dir, "data")
        state: dict = {}
        with self.unit("setup", traced) as u:
            gen = datagen.generate(build(GenConfig, seed=self.seed, **spec["gen"]), data_dir)
            probe = build(HyperParams, vocab=1, d_frozen=0, **spec["model"])
            train_s, store, _ = dataio.load_dataset(gen.train_path, gen.embedding_path, probe)
            valid_s, _, _ = dataio.load_dataset(gen.valid_path, gen.embedding_path, probe)
            hp = build(HyperParams, vocab=store.count, d_frozen=store.dim, **spec["model"])
            init = params.init_params(hp, linalg.make_rng(self.seed))
            tc = build(TrainConfig, seed=self.seed, patience=spec["train"]["epochs"],
                       **spec["train"])
            state.update(hp=hp, tc=tc, store=store, train=train_s, valid=valid_s, init=init)
            if spec["kind"] == "score":
                # The brief set-up training is timed as train_samples_per_s but
                # not traced: the scoring workload itself runs no backward pass.
                if self.tracer is not None:
                    self.tracer.enabled = False
                start = time.perf_counter()
                result = qtrain.train(params.copy_params(init), hp, store, train_s,
                                      valid_s, tc)
                state["train_wall"] = time.perf_counter() - start
                if self.tracer is not None:
                    self.tracer.enabled = traced
                self.check_train_call(state, result)
                ckpt = os.path.join(self.dir, "setup.ckpt")
                params.save_checkpoint(result.params, ckpt)
                state["scored"] = params.load_checkpoint(ckpt, hp)
                state["digest"] = sha256_file(ckpt)
        state["setup_s"] = u["wall"]
        return state

    def check_train_call(self, state: dict, result) -> None:
        tc = state["tc"]
        steps = math.ceil(len(state["train"]) / tc.batch_size) * tc.epochs
        self.attempted += steps
        self.check(len(result.history) == tc.epochs,
                   f"early stopping fired after {len(result.history)} of {tc.epochs} epochs")
        losses = [v for e in result.history for v in (e.loss, e.val_auc, e.val_logloss)]
        self.check(all(math.isfinite(v) for v in losses), "non-finite loss in train history")

    def train_unit(self, state: dict, traced: bool) -> None:
        from qin import params
        from qin import train as qtrain

        p = params.copy_params(state["init"])
        with self.unit("train", traced):
            result = qtrain.train(p, state["hp"], state["store"], state["train"],
                                  state["valid"], state["tc"])
        self.check_train_call(state, result)
        ckpt = os.path.join(self.dir, "final.ckpt")
        params.save_checkpoint(result.params, ckpt)
        digest = sha256_file(ckpt)
        if "digest" not in state:
            state["digest"], state["scored"] = digest, result.params
        else:
            self.check(digest == state["digest"], "train.train is not bit-identical across calls")

    def eval_unit(self, state: dict, traced: bool) -> None:
        from qin import train as qtrain

        with self.unit("eval", traced):
            out = qtrain.evaluate(state["scored"], state["hp"], state["store"], state["valid"])
        self.attempted += 1
        probs = np.asarray(out["probs"])
        self.check(np.all(np.isfinite(probs)) and np.all((probs >= 0) & (probs <= 1)),
                   "probability outside [0, 1]")
        self.check(math.isfinite(out["logloss"]), "non-finite validation logloss")
        first = state.setdefault("eval", out)
        self.check(out["auc"] == first["auc"] and out["logloss"] == first["logloss"],
                   "evaluate is not bit-identical across passes")

    def measure(self, state: dict, traced: bool) -> None:
        """Timed units until --seconds is spent; traced and untraced alternate.

        On train workloads each train.train call is followed by untraced eval
        passes for the matching share of time, so both rates sample the whole
        run: the machine's speed drifts over periods of several seconds.
        """
        start = time.perf_counter()
        i = 0
        while i < MIN_UNITS or time.perf_counter() - start < self.seconds:
            if self.spec["kind"] == "train":
                t0 = time.perf_counter()
                self.train_unit(state, traced and i % 2 == 0)
                until = time.perf_counter() + (time.perf_counter() - t0) * EVAL_PER_TRAIN
                while True:
                    self.eval_unit(state, False)
                    if time.perf_counter() >= until:
                        break
            else:
                self.eval_unit(state, traced and i % 2 == 0)
            i += 1

    def correctness(self, state: dict) -> None:
        from qin import gradcheck, metrics
        from qin.linalg import make_rng

        self.check(state["eval"]["logloss"] < state["init_eval"]["logloss"],
                   f"training did not lower the validation logloss "
                   f"({state['init_eval']['logloss']!r} -> {state['eval']['logloss']!r})")
        probs = np.asarray(state["eval"]["probs"])
        labels = np.array([s.label for s in state["valid"]], dtype=int)
        pick = make_rng(self.seed).permutation(len(probs))[:AUC_SUBSAMPLE]
        fast = metrics.auc(probs[pick], labels[pick])
        oracle = metrics.auc_bruteforce(probs[pick], labels[pick])
        self.check(fast == oracle, f"metrics.auc {fast!r} != auc_bruteforce {oracle!r}")
        reports = gradcheck.run_model_gradcheck(GRADCHECK_SEED)
        worst = max(reports, key=lambda r: r.max_rel_err)
        self.check(worst.max_rel_err < GRADCHECK_TOL and all(r.n_checked > 0 for r in reports),
                   f"gradcheck failed: {worst.line()}")
        self.details["gradcheck_worst"] = worst.line()

    # -- running ------------------------------------------------------------
    def run(self) -> None:
        from qin import train as qtrain
        from qin.errors import QinError

        traced = self.tracer is not None
        kind = self.spec["kind"]
        os.makedirs(self.dir, exist_ok=True)
        try:
            setups, state = [], None
            for _ in range(SETUPS):
                state = None  # free the previous set-up's data first
                state = self.set_up(traced)
                setups.append({k: state.get(k) for k in ("setup_s", "train_wall", "digest")})
            raw = {"setup_s": statistics.median(s["setup_s"] for s in setups)}
            if kind == "score":
                self.check(all(s["digest"] == state["digest"] for s in setups),
                           "set-up checkpoints differ across set-ups")
            n_train, n_valid = len(state["train"]), len(state["valid"])
            self.details.update(n_train=n_train, n_valid=n_valid,
                                epochs_per_train_call=state["tc"].epochs)
            # Warm-up: one untimed evaluate pass, which also gives the loss to beat.
            state["init_eval"] = qtrain.evaluate(state["init"], state["hp"], state["store"],
                                                 state["valid"])
            self.measure(state, traced)
            samples_per_train = n_train * state["tc"].epochs
            train_kind = "train" if kind == "train" else "setup"
            if kind == "train":
                walls = [w for _, t, w in self.units["train"] if not t]
            else:
                walls = [s["train_wall"] for s in setups]
            raw["train_samples_per_s"] = statistics.median(samples_per_train / w for w in walls)
            raw["eval_samples_per_s"] = statistics.median(
                n_valid / w for _, t, w in self.units["eval"] if not t)
            speed = {k: self.speed(k) for k in ("setup", train_kind, "eval")}
            self.values["setup_s"] = raw["setup_s"] * speed["setup"]
            self.values["train_samples_per_s"] = raw["train_samples_per_s"] / speed[train_kind]
            self.values["eval_samples_per_s"] = raw["eval_samples_per_s"] / speed["eval"]
            self.details["unscaled"] = raw
            self.details["speed_vs_reference"] = speed
            for phase, units in self.units.items():
                walls = sorted(w for _, t, w in units if not t)
                if walls:
                    self.details[f"{phase}_unit_s"] = {
                        "n": len(walls), "min": walls[0],
                        "median": statistics.median(walls), "max": walls[-1]}
            self.values["val_auc"] = state["eval"]["auc"]
            self.values["val_logloss"] = state["eval"]["logloss"]
            self.details["param_sha256"] = state["digest"]
            self.correctness(state)
            if traced:
                self.per_layer("train" if kind == "train" else "eval",
                               samples_per_train if kind == "train" else n_valid)
        except QinError as exc:
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        self.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.values["ops_ok_frac"] = 1.0 - self.failed / max(self.attempted, 1)

    def per_layer(self, primary: str, samples_per_unit: int) -> None:
        """Per-layer metrics from the spans of the traced units."""
        steps = self.tracer.per_step()
        traced_units = {k: [s for s, t, _ in self.units[k] if t] for k in self.units}

        def units_for(span: str) -> list:
            # A layer is measured per timed unit; set-up-only layers per set-up.
            if any(span in steps[s] for s in traced_units[primary]):
                return traced_units[primary]
            self.setup_layers.add(span)
            return traced_units["setup"]

        def per_unit(spans, key: str) -> float:
            spans = (spans,) if isinstance(spans, str) else spans
            units = units_for(spans[0])
            return statistics.median(sum(steps[u][s][key] for s in spans) for u in units)

        for span, metric in TIMED_LAYERS:
            self.values[metric] = per_unit(span, "self_s")
            self.values[f"{span}.calls"] = per_unit(span, "calls")
        for metric, _, spans, key in COUNTED:
            self.values[metric] = per_unit(spans, key)
        for metric, span, num, den in FRACTIONS:
            units = traced_units[primary]
            total = sum(steps[u][span][den] for u in units)
            self.values[metric] = sum(steps[u][span][num] for u in units) / total if total else 0.0
        walls = {t: [w for _, tr, w in self.units[primary] if tr == t] for t in (True, False)}
        traced_rate = samples_per_unit / statistics.median(walls[True])
        plain_rate = samples_per_unit / statistics.median(walls[False])
        self.values["trace.unit_s"] = statistics.median(walls[True])
        self.values["trace.samples_per_s_traced"] = traced_rate
        self.values["trace.samples_per_s_untraced"] = plain_rate
        self.values["trace.overhead_frac"] = plain_rate / traced_rate - 1.0
        self.details["absent_layers"] = self.tracer.absent
        self.details["counter_errors"] = self.tracer.counter_errors

    # -- output -------------------------------------------------------------
    def metrics(self) -> dict:
        if self.tracer is None:
            units = END_TO_END
        else:
            units = {metric: "s" for _, metric in TIMED_LAYERS}
            units.update({f"{span}.calls": "count" for span, _ in TIMED_LAYERS})
            units.update({m: u for m, u, _, _ in COUNTED})
            units.update({m: "fraction" for m, _, _, _ in FRACTIONS})
            units.update(TRACE_SUMMARY)
        return {name: {"value": self.values.get(name), "unit": unit}
                for name, unit in units.items()}

    def report(self) -> None:
        print(f"== {self.name} seed={self.seed} trace={int(self.tracer is not None)}")
        if self.tracer is None:
            calls = "set-up" if self.spec["kind"] == "score" else "timed"
            print(f"   train_samples_per_s: median over the {calls} train.train calls, "
                  "per-epoch validation included")
        unit_s = self.values.get("trace.unit_s")
        notes = {}
        for span, metric in TIMED_LAYERS if unit_s else ():
            if not self.values[f"{span}.calls"]:
                notes[metric] = "not called"
            elif span in self.setup_layers:
                notes[metric] = "per set-up"
            else:
                notes[metric] = f"{100 * self.values[metric] / unit_s:5.1f}% of a timed unit"
        for name, m in self.metrics().items():
            text = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"   {name:34s} {text:>14s} {m['unit']}{note}")
        for err in self.errors:
            print(f"   FAILED: {err}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    help=f"one of {sorted(WORKLOADS)}, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")

    import_qin()
    facts = machine_facts()
    calibration = Calibration()
    runs = []
    for name in names:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        wl = Workload(name, args.seed, args.seconds, tracer, calibration)
        try:
            wl.run()
        finally:
            if tracer is not None:
                tracer.uninstall()
                os.makedirs(WORK, exist_ok=True)
                spans = os.path.join(WORK, f"spans-{name}-seed{args.seed}.jsonl")
                tracer.write(spans)
                wl.details["spans_file"] = os.path.relpath(spans, ROOT)
        wl.report()
        runs.append(wl)
    facts["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"machine": facts, "workloads": [
        {**wl.details, "errors": wl.errors} for wl in runs]}))
    for wl in runs:
        print(result_line(wl.failed == 0, wl.attempted, wl.failed, wl.metrics()))
    if len(runs) > 1:
        merged = {f"{wl.name}.{k}": v for wl in runs for k, v in wl.metrics().items()}
        failed = sum(wl.failed for wl in runs)
        print(result_line(failed == 0, sum(wl.attempted for wl in runs), failed, merged))
    return 0 if all(wl.failed == 0 for wl in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
