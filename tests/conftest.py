import numpy as np
import pytest

from qin.config import GenConfig, HyperParams, TrainConfig
from qin.datagen import generate
from qin.dataio import read_dataset
from qin.embedding import _check_ids, load_embeddings


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


def print_criterion(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} - {detail}")
