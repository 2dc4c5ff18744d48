import dataclasses
import functools
import importlib.util
import pathlib
import threading

import numpy as np
import pytest

from qin import qnn
from qin.config import GenConfig, HyperParams, TrainConfig
from qin.datagen import generate
from qin.dataio import Split, read_dataset
from qin.embedding import (Batch, EmbeddingStore, _check_ids, embedding_grad_accumulate,
                           load_embeddings)
from qin.linalg import make_rng
from qin.params import ModelParams, init_params


@pytest.fixture(scope="session")
def default_dataset(tmp_path_factory):
    """The frozen default synthetic dataset (seed 7, 50k samples)."""
    out = tmp_path_factory.mktemp("default_dataset")
    result = generate(GenConfig(), str(out))
    return result


@pytest.fixture(scope="session")
def default_splits(default_dataset):
    store = load_embeddings(default_dataset.embedding_path)
    train_samples, _ = read_dataset(default_dataset.train_path, store.count, 32)
    valid_samples, _ = read_dataset(default_dataset.valid_path, store.count, 32)
    return store, train_samples, valid_samples


def split_of(samples) -> Split:
    """The Split of Samples written out by hand, through Split.from_lengths."""
    samples = list(samples)
    return Split.from_lengths(targets=[s.target_id for s in samples],
                              labels=[s.label for s in samples],
                              lengths=[len(s.seq_ids) for s in samples],
                              ids=[v for s in samples for v in s.seq_ids])


def relabeled(split, row, label) -> Split:
    """The split with one label replaced, through the constructor, which checks no label."""
    labels = split.labels.copy()
    labels[row] = label
    return Split(targets=split.targets, labels=labels, offsets=split.offsets, ids=split.ids)


def thread_hp(d_t, **overrides) -> HyperParams:
    """A small model whose QNN is 2 * d_t wide, for the two-thread tests."""
    kwargs = dict(d_t=d_t, d_b=d_t, d_a=d_t, seq_len=5, depth=3, m=2, vocab=40, d_frozen=4)
    kwargs.update(overrides)
    return HyperParams(**kwargs)


def thread_world(hp, n, seed=0, empty=False):
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


def float32_copies(params, store):
    """float32 copies of the parameters and the store, as train and evaluate take them."""
    return (ModelParams(params.shapes, params.flat.astype(np.float32)),
            EmbeddingStore(store.data.astype(np.float32)))


def float_arrays(obj, path="trace"):
    """(path, array) for every float array reachable from a trace: fields, lists, tuples."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            yield path, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from float_arrays(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from float_arrays(item, f"{path}[{i}]")


def usable(monkeypatch, count):
    """Lower the QNN width gate to 0 and report count usable CPUs."""
    monkeypatch.setattr(qnn, "QNN_SPLIT_MIN_DIM", 0)
    monkeypatch.setattr(qnn, "usable_cpus", lambda: count)


TRACING = pathlib.Path(__file__).resolve().parents[1] / "qinbench" / "tracing.py"


def spy_traced_names(monkeypatch) -> list:
    """(name, thread name) of each call into a name the benchmark's tracer rebinds.

    The tracer (qinbench/tracing.py, its SHIMS table) keeps one span stack
    for all threads, so only the calling thread may enter these names.
    """
    spec = importlib.util.spec_from_file_location("qinbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    entered = []
    for module_name, attr, _, _ in tracing.SHIMS:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            continue

        def shim(*args, _fn=getattr(module, attr), _name=f"{module_name}.{attr}", **kwargs):
            entered.append((_name, threading.current_thread().name))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, shim)
    return entered


def helper_threads() -> list:
    """The QNN helper threads alive now; the process never has more than one."""
    return [t for t in threading.enumerate() if t.name.startswith("qnn-rows")]


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


def make_hp(store, **overrides) -> HyperParams:
    kwargs = dict(vocab=store.count, d_frozen=store.dim)
    kwargs.update(overrides)
    return HyperParams(**kwargs)


@pytest.fixture(scope="session")
def desk_hp(default_splits):
    store, _, _ = default_splits
    return make_hp(store)


@pytest.fixture(scope="session")
def trained_desk_model(default_splits, desk_hp):
    """Desk-preset QIN trained once on the frozen default dataset."""
    from qin.linalg import make_rng
    from qin.params import init_params
    from qin.train import train
    import time

    store, train_samples, valid_samples = default_splits
    cfg = TrainConfig()
    params = init_params(desk_hp, make_rng(cfg.seed))
    started = time.monotonic()
    result = train(params, desk_hp, store, train_samples, valid_samples, cfg)
    elapsed = time.monotonic() - started
    return result, elapsed


def lookup_sequence(store, id_table, seq_ids, mask):
    """Reference: one behavior row per sequence slot, (n, s, d_t); padded slots are zero."""
    seq_ids = np.asarray(seq_ids, dtype=np.int64)
    _check_ids(seq_ids, store.count, "sequence")
    _check_ids(seq_ids, id_table.shape[0], "sequence")
    x_b = np.concatenate([store.data[seq_ids], id_table[seq_ids]], axis=2)
    return x_b * mask[:, :, None]


def slot_rows(d_x_b):
    """asta_backward's factored behavior-row gradient written out per slot.

    Each pair (rows (n, d), weights (n, s)) gives slot (r, j) the row
    weights[r, j] * rows[r]; the pairs add in order, entry by entry as the
    segment sum of the embedding scatter forms them, so the bits agree.
    The result is (n, s, d), or (s, d) for a single-sample call.
    """
    return functools.reduce(np.add, [w[..., None] * rows[..., None, :] for rows, w in d_x_b])


def id_table_grad(vocab, d_id, seq_ids, d_x_b, target_ids=None, d_x_t=None):
    """embedding_grad_accumulate's (vocab, d_id) id-table gradient of one
    batch, summed from zero; without targets only the history slots add."""
    if target_ids is None:
        target_ids, d_x_t = np.zeros(0, dtype=np.int64), np.zeros((0, d_x_b[0][0].shape[-1]))
    grads = ModelParams({"id_embedding": (vocab, d_id)})
    batch = Batch(target_ids=target_ids, seq_ids=seq_ids, mask=None, labels=None)
    embedding_grad_accumulate(grads, batch, d_x_t, d_x_b)
    return grads.id_embedding


def stacked_params(params, hp, seed):
    """params with each qnn_w_<l> as m (D, D) heads, for per-head references.

    The heads are fresh draws at the init scale; every other tensor is a
    copy of params'. Adam steps it like any ModelParams, so it is the
    per-head reference for a layer trained at m times the learning rate.
    Against a config it is a shape mismatch: only the forward layer takes
    stacked heads.
    """
    from qin.linalg import make_rng
    from qin.params import ModelParams

    rng = make_rng(seed)
    stacked = ModelParams({name: (hp.m, *shape) if name.startswith("qnn_w_") else shape
                           for name, shape in params.shapes.items()})
    for name, view in stacked.views.items():
        if name.startswith("qnn_w_"):
            view[...] = rng.standard_normal(view.shape) / hp.qnn_dim ** 0.5
        else:
            view[...] = params.views[name]
    return stacked


def print_criterion(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} - {detail}")


def attention_case_id(kind: str, attn_dropout) -> str:
    """Test id ``<pooling>-<kind>-<dropout>`` of an attention case.

    The form dates from when mean pooling had a ``pooling`` key of its own;
    the mean cases keep ``relu``, the attn_kind default they then ran under,
    so a case keeps its id across versions.
    """
    if kind == "mean":
        return f"mean-relu-{attn_dropout}"
    return f"asta-{kind}-{attn_dropout}"
