"""Timing shims for the traced benchmark run.

Each shim rebinds one public function of ``qin`` at the place its caller
looks it up (``model.py`` and ``train.py`` import names directly, so
``qin.model.asta_forward`` is patched, not ``qin.asta.asta_forward``).
A shim records one span per call: name, start, end, parent span and the
step id of the benchmark unit it ran in, plus optional work counters
computed from the call's arguments and result. Spans stay in memory and
are written once, when the run ends.

A shim whose target no longer exists is reported as absent and the run
goes on, so one benchmark runs on commits that rename internals.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np


def _lookup_rows(args, kwargs, out):
    # lookup_target returns (n, d); lookup_sequence returns (n, s, d):
    # every padded slot is gathered too.
    return {"rows_gathered": int(np.prod(np.shape(out)[:-1]))}


def _scatter_rows(args, kwargs, out):
    # embedding_grad_accumulate(grads, d_frozen, target_ids, d_x_t, seq_ids, mask, d_x_b)
    target_ids, mask = args[2], args[5]
    return {"rows_scattered": int(np.size(target_ids)) + int(np.count_nonzero(mask))}


def _attention_sparsity(args, kwargs, out):
    trace = out[1]
    live = np.asarray(trace.mask) > 0
    return {"padded_slots": int(live.size), "live_slots": int(live.sum()),
            "nonzero_weights": int(np.count_nonzero(np.asarray(trace.weights)[live]))}


def _qnn_forward_flops(args, kwargs, out):
    # Per layer the head products cost 2 * n * (weight entries) flops.
    n = np.shape(out[0])[0]
    return {"flops": sum(2 * n * int(np.size(w)) for w in args[0])}


def _qnn_backward_flops(args, kwargs, out):
    # Per layer: weight gradient and input gradient, 2 * n * D^2 each,
    # plus one pass over the weight entries to sum the heads.
    n = np.shape(out[2])[0]
    return {"flops": sum(4 * n * np.shape(w)[-1] ** 2 + int(np.size(w)) for w in args[0])}


# (module, attribute, span name, counter). The attribute is rebound on the
# module that calls it.
SHIMS = [
    ("qin.datagen", "generate", "datagen.generate", None),
    ("qin.dataio", "load_dataset", "dataio.load", None),
    ("qin.params", "init_params", "params.init", None),
    ("qin.params", "save_checkpoint", "params.checkpoint_save", None),
    ("qin.params", "load_checkpoint", "params.checkpoint_load", None),
    ("qin.train", "train", "train.loop", None),
    ("qin.train", "evaluate", "train.evaluate", None),
    ("qin.train", "adam_step", "train.adam", None),
    ("qin.train", "copy_params", "params.copy", None),
    ("qin.train", "make_batches", "dataio.make_batches", None),
    ("qin.train", "auc", "metrics.auc", None),
    ("qin.train", "bce_loss", "metrics.bce", None),
    ("qin.model", "model_forward", "model.forward", None),
    ("qin.model", "model_backward", "model.backward", None),
    ("qin.model", "lookup_target", "embedding.lookup", _lookup_rows),
    ("qin.model", "lookup_sequence", "embedding.lookup", _lookup_rows),
    ("qin.model", "embedding_grad_accumulate", "embedding.grad_scatter", _scatter_rows),
    ("qin.model", "asta_forward", "asta.forward", _attention_sparsity),
    ("qin.model", "asta_backward", "asta.backward", None),
    ("qin.model", "qnn_forward", "qnn.forward", _qnn_forward_flops),
    ("qin.model", "qnn_backward", "qnn.backward", _qnn_backward_flops),
    ("qin.model", "head_forward", "metrics.head", None),
    ("qin.model", "bce_loss", "metrics.bce", None),
    ("qin.model", "bce_backward", "metrics.bce", None),
]


class Tracer:
    """In-memory span recorder. Records only while ``enabled`` is true."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, step, counters]
        self.step = None
        self.enabled = False
        self.absent: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            rec = [name, 0.0, 0.0, parent, self.step, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    rec[5] = counter(args, kwargs, out)
                except Exception as exc:  # a renamed internal must not stop the run
                    self.counter_errors.setdefault(name, repr(exc))
            return out
        return shim

    def install(self) -> None:
        for module_name, attr, name, counter in SHIMS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def per_step(self) -> dict:
        """step -> span name -> {"self_s", "calls", counter sums}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, step, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for i, (name, start, end, parent, step, counters) in enumerate(self.spans):
            agg = out[step][name]
            agg["self_s"] += (end - start) - child_time[i]
            agg["calls"] += 1
            for key, value in (counters or {}).items():
                agg[key] += value
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, step, counters in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "step": step,
                                     "counters": counters}) + "\n")
