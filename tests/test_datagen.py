import dataclasses
import filecmp
import hashlib
import json
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import helper_threads, split_of, spy_traced_names

from qin import datagen, qnn
from qin.config import GenConfig, HyperParams
from qin.datagen import (affinity_features, bayes_auc, generate, history_means,
                         linear_baseline_auc, read_truth)
from qin.dataio import build_batch, load_dataset, make_batches, read_dataset, write_dataset
from qin.embedding import Sample, load_embeddings
from qin.errors import ConfigError, DataError, ShapeError
from qin.linalg import make_rng

SMALL = GenConfig(n_items=60, n_users=40, n_samples=600, emb_dim=4,
                  max_seq_len=8, min_seq_len=8, seed=3)


def test_generation_deterministic_byte_identical(tmp_path):
    a = generate(SMALL, str(tmp_path / "a"))
    b = generate(SMALL, str(tmp_path / "b"))
    for pa, pb in ((a.embedding_path, b.embedding_path),
                   (a.train_path, b.train_path),
                   (a.valid_path, b.valid_path),
                   (a.truth_path, b.truth_path)):
        assert filecmp.cmp(pa, pb, shallow=False)


def test_degenerate_strengths_give_half_probabilities(tmp_path, monkeypatch):
    monkeypatch.setattr(datagen, "QUAD_STRENGTH", 0.0)
    monkeypatch.setattr(datagen, "NOISE_STD", 0.0)
    cfg = GenConfig(n_items=60, n_users=40, n_samples=2000, emb_dim=4,
                    max_seq_len=8, min_seq_len=8, seed=5)
    result = generate(cfg, str(tmp_path))
    truth = read_truth(result.truth_path)
    assert np.array_equal(truth, np.full(len(truth), 0.5))
    _, valid, _ = _load_all(result)
    labels = np.array([s.label for s in valid])
    sigma = 0.5 / np.sqrt(len(labels))
    assert abs(labels.mean() - 0.5) <= 3 * sigma


def _load_all(result):
    store = load_embeddings(result.embedding_path)
    train, _ = read_dataset(result.train_path, store.count, 64)
    valid, _ = read_dataset(result.valid_path, store.count, 64)
    return store, valid, train


def test_label_rate_within_three_sigma_of_truth_mean(tmp_path):
    result = generate(SMALL, str(tmp_path))
    truth = read_truth(result.truth_path)
    _, valid, _ = _load_all(result)
    labels = np.array([s.label for s in valid])
    assert len(truth) == len(valid)
    sigma = np.sqrt(np.sum(truth * (1 - truth))) / len(truth)
    assert abs(labels.mean() - truth.mean()) <= 3 * sigma


def test_manifest_matches_recount(tmp_path):
    result = generate(SMALL, str(tmp_path))
    store = load_embeddings(result.embedding_path)
    train, manifest = read_dataset(result.train_path, store.count, 64)
    assert manifest["n_samples"] == len(train)
    assert manifest["positives"] == sum(s.label for s in train)
    assert manifest["seed"] == SMALL.seed
    assert result.manifest == (f"n_samples={len(train)} "
                               f"positives={sum(s.label for s in train)} seed={SMALL.seed}")


def test_roundtrip_reserialization_semantically_identical(tmp_path):
    result = generate(SMALL, str(tmp_path / "gen"))
    store = load_embeddings(result.embedding_path)
    samples, _ = read_dataset(result.valid_path, store.count, 64)
    rewritten = tmp_path / "again.jsonl"
    write_dataset(samples, str(rewritten), SMALL.seed)
    again, _ = read_dataset(str(rewritten), store.count, 64)
    assert [(s.target_id, s.seq_ids, s.label) for s in samples] == \
        [(s.target_id, s.seq_ids, s.label) for s in again]


def test_empty_dataset_file_valid(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    samples, manifest = read_dataset(str(path), 10, 8)
    assert len(samples) == 0 and manifest is None


def test_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"target": 1, "seq": [0], "label": 1}\nnot json\n')
    with pytest.raises(DataError, match=r"bad\.jsonl:2"):
        read_dataset(str(path), 10, 8)


def test_out_of_range_id_reports_lineno(tmp_path):
    path = tmp_path / "oob.jsonl"
    path.write_text('{"target": 10, "seq": [0], "label": 1}\n')
    with pytest.raises(DataError, match=r"oob\.jsonl:1.*10"):
        read_dataset(str(path), 10, 8)


def test_bad_label_and_long_sequence_rejected(tmp_path):
    path = tmp_path / "label.jsonl"
    path.write_text('{"target": 1, "seq": [0], "label": 2}\n')
    with pytest.raises(DataError, match="label"):
        read_dataset(str(path), 10, 8)
    path2 = tmp_path / "long.jsonl"
    path2.write_text(json.dumps({"target": 1, "seq": [0, 1, 2], "label": 1}) + "\n")
    with pytest.raises(DataError, match="exceeds"):
        read_dataset(str(path2), 10, 2)


def test_load_dataset_bundles_store(tmp_path):
    result = generate(SMALL, str(tmp_path))
    hp = HyperParams(d_t=8, d_b=8, d_a=8, seq_len=8, vocab=60, d_frozen=4)
    samples, store, manifest = load_dataset(result.valid_path, result.embedding_path, hp)
    assert store.count == 60 and store.dim == 4
    assert manifest is not None and len(samples) > 0


def test_make_batches_partial_final():
    split = split_of(Sample(target_id=i % 3, seq_ids=[0], label=i % 2) for i in range(10))
    batches = make_batches(split, 4, 4, rng=None)
    assert [b.size for b in batches] == [4, 4, 2]


def test_make_batches_batch_one_preserves_multiset():
    split = split_of(Sample(target_id=i, seq_ids=[i], label=i % 2) for i in range(7))
    batches = make_batches(split, 1, 2, rng=make_rng(0))
    seen = sorted(int(b.target_ids[0]) for b in batches)
    assert seen == list(range(7))


def test_make_batches_rejects_bad_batch_size():
    with pytest.raises(DataError):
        make_batches(split_of([Sample(target_id=0, seq_ids=[0], label=0)]), 0, 4)


def test_make_batches_seeded_shuffle_deterministic():
    split = split_of(Sample(target_id=i, seq_ids=[i], label=0) for i in range(50))
    a = make_batches(split, 8, 2, rng=make_rng(9))
    b = make_batches(split, 8, 2, rng=make_rng(9))
    for ba, bb in zip(a, b):
        assert np.array_equal(ba.target_ids, bb.target_ids)


def per_sample_batch(samples, max_seq_len):
    """Reference: the per-sample packing loop build_batch replaced; float32 mask and labels."""
    n = len(samples)
    target_ids = np.zeros(n, dtype=np.int64)
    seq_ids = np.zeros((n, max_seq_len), dtype=np.int64)
    mask = np.zeros((n, max_seq_len), dtype=np.float32)
    labels = np.zeros(n, dtype=np.float32)
    for i, s in enumerate(samples):
        target_ids[i] = s.target_id
        seq_ids[i, :len(s.seq_ids)] = s.seq_ids
        mask[i, :len(s.seq_ids)] = 1.0
        labels[i] = s.label
    return target_ids, seq_ids, mask, labels


@pytest.mark.parametrize("shuffle_seed", [None, 9])
def test_make_batches_equal_per_sample_packing(shuffle_seed):
    rng = make_rng(4)
    lengths = [0, 8, 3, 8, 0, 1, 5, 7, 2, 8, 4]   # ragged, empty and full histories
    samples = [Sample(target_id=int(rng.integers(0, 50)),
                      seq_ids=[int(v) for v in rng.integers(0, 50, k)], label=i % 2)
               for i, k in enumerate(lengths)]
    shuffle = None if shuffle_seed is None else make_rng(shuffle_seed)
    batches = list(make_batches(split_of(samples), 4, 8, rng=shuffle))
    order = (np.arange(len(samples)) if shuffle_seed is None
             else make_rng(shuffle_seed).permutation(len(samples)))
    assert [b.size for b in batches] == [4, 4, 3]
    for at, batch in zip(range(0, len(samples), 4), batches):
        expected = per_sample_batch([samples[i] for i in order[at:at + 4]], 8)
        got = (batch.target_ids, batch.seq_ids, batch.mask, batch.labels)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and np.array_equal(g, e)


def test_build_batch_rejects_overlong_history():
    with pytest.raises(DataError, match="exceeds"):
        build_batch(split_of([Sample(target_id=0, seq_ids=[1, 2, 3], label=0)]), 2)


def test_build_batch_mask_left_aligned():
    batch = build_batch(split_of([Sample(target_id=1, seq_ids=[4, 5], label=1),
                                  Sample(target_id=2, seq_ids=[], label=0)]), 4)
    assert np.array_equal(batch.mask, [[1, 1, 0, 0], [0, 0, 0, 0]])
    assert np.array_equal(batch.seq_ids[0], [4, 5, 0, 0])
    assert np.array_equal(batch.labels, [1.0, 0.0])


def test_gen_config_validation():
    with pytest.raises(ConfigError):
        GenConfig(split_frac=1.5)
    with pytest.raises(ConfigError):
        GenConfig(n_items=4, max_seq_len=8, min_seq_len=8)
    with pytest.raises(ConfigError):
        GenConfig(min_seq_len=0)


def test_affinity_features_empty_history_zero():
    store_data = make_rng(1).standard_normal((5, 3))
    feats = affinity_features(split_of([Sample(target_id=2, seq_ids=[], label=0)]), store_data)
    assert feats[0] == 0.0


def test_history_means_match_row_walk():
    rng = make_rng(2)
    store_data = rng.standard_normal((30, 4))
    samples = [Sample(target_id=int(rng.integers(30)),
                      seq_ids=[int(v) for v in rng.integers(0, 30, k)], label=k % 2)
               for k in (3, 0, 1, 7, 0, 5, 32, 0)]
    split = split_of(samples)
    got = history_means(split, store_data)
    assert got.shape == (len(samples), 4)
    for row, s in zip(got, samples):
        want = store_data[s.seq_ids].mean(axis=0) if s.seq_ids else np.zeros(4)
        assert np.array_equal(row, want)
    walk = [float(store_data[s.seq_ids].mean(axis=0) @ store_data[s.target_id])
            if s.seq_ids else 0.0 for s in samples]
    assert np.allclose(affinity_features(split, store_data), walk, rtol=1e-14, atol=0)


def test_linear_baseline_blind_to_quadratic(tmp_path):
    # On a pure quadratic truth the best linear scorer hovers near chance.
    cfg = GenConfig(n_items=200, n_users=100, n_samples=4000, emb_dim=4,
                    max_seq_len=8, min_seq_len=8, seed=11)
    result = generate(cfg, str(tmp_path))
    store, valid, _ = _load_all(result)
    lin = linear_baseline_auc(valid, store.data)
    truth = read_truth(result.truth_path)
    labels = np.array([s.label for s in valid])
    bayes = bayes_auc(truth, labels)
    assert lin < 0.6
    assert bayes > 0.8


def per_sample_generate(cfg, out_dir):
    """Reference: the per-sample Gumbel loop the chunked generator replaced,
    with its per-record json.dumps writer and per-line truth writer."""
    from qin.embedding import save_embeddings
    from qin.linalg import sigmoid

    def f32_round(x):
        return x.astype(np.float32).astype(np.float64)

    os.makedirs(out_dir, exist_ok=True)
    rng = make_rng(cfg.seed)
    items = f32_round(rng.standard_normal((cfg.n_items, cfg.emb_dim)) / np.sqrt(cfg.emb_dim))
    users = f32_round(rng.standard_normal((cfg.n_users, cfg.emb_dim)) / np.sqrt(cfg.emb_dim))
    user_logits = (users @ items.T) / datagen.TEMPERATURE
    user_ids = rng.integers(0, cfg.n_users, cfg.n_samples)
    target_ids = rng.integers(0, cfg.n_items, cfg.n_samples)
    seq_lens = rng.integers(cfg.min_seq_len, cfg.max_seq_len + 1, cfg.n_samples)
    raw = np.empty(cfg.n_samples)
    seqs = []
    for i in range(cfg.n_samples):
        gumbel = -np.log(-np.log(rng.random(cfg.n_items)))
        take = int(seq_lens[i])
        picked = np.sort(np.argpartition(user_logits[user_ids[i]] + gumbel, -take)[-take:])
        seqs.append([int(v) for v in picked])
        raw[i] = items[picked].mean(axis=0) @ items[target_ids[i]]
    t = (raw - raw.mean()) / raw.std()
    noise = rng.standard_normal(cfg.n_samples) * datagen.NOISE_STD
    probs = sigmoid(datagen.QUAD_STRENGTH * (t * t - 1.0) + noise)
    labels = (rng.random(cfg.n_samples) < probs).astype(int)
    n_train = min(max(int(round(cfg.n_samples * cfg.split_frac)), 1), cfg.n_samples - 1)

    save_embeddings(items, os.path.join(out_dir, "embeddings.qemb"))
    for name, rows in (("train", range(n_train)), ("valid", range(n_train, cfg.n_samples))):
        with open(os.path.join(out_dir, f"{name}.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(f"# n_samples={len(rows)} positives={int(labels[rows].sum())} "
                     f"seed={cfg.seed}\n")
            for i in rows:
                fh.write(json.dumps({"target": int(target_ids[i]), "seq": seqs[i],
                                     "label": int(labels[i])}, separators=(",", ":")) + "\n")
    with open(os.path.join(out_dir, "truth.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"# n_samples={cfg.n_samples - n_train} seed={cfg.seed}\n")
        for p in probs[n_train:]:
            fh.write(f"{p:.17g}\n")


OUTPUTS = ("embeddings.qemb", "train.jsonl", "valid.jsonl", "truth.txt")


def same_outputs(a, b) -> None:
    for name in OUTPUTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("min_seq_len", [1, 8])
def test_chunked_generator_byte_identical_to_per_sample_loop(tmp_path, min_seq_len):
    # Two full chunks of histories and a partial third.
    cfg = GenConfig(n_items=60, n_users=40, n_samples=datagen.CHUNK * 7 // 3, emb_dim=4,
                    max_seq_len=8, min_seq_len=min_seq_len, seed=13)
    per_sample_generate(cfg, str(tmp_path / "reference"))
    generate(cfg, str(tmp_path / "chunked"))
    same_outputs(tmp_path / "chunked", tmp_path / "reference")


@pytest.fixture
def draw_threads(monkeypatch) -> list:
    """The thread of each call to datagen's per-thread history draw."""
    threads = []
    real = datagen._draw_histories

    def spy(*args, **kwargs):
        threads.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(datagen, "_draw_histories", spy)
    return threads


# Sample counts: one whole chunk (no split), one row over (the helper
# draws one row), three whole chunks and two and a half chunks (the
# calling thread draws two chunks, not half the rows).
@pytest.mark.parametrize("size", [lambda c: c, lambda c: c + 1, lambda c: 3 * c,
                                  lambda c: 2 * c + c // 2],
                         ids=["one", "one_row_over", "three", "two_and_a_half"])
@pytest.mark.parametrize("min_seq_len", [1, 8])
def test_generator_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, draw_threads,
                                                       size, min_seq_len):
    n_samples = size(datagen.CHUNK)
    cfg = GenConfig(n_items=60, n_users=40, n_samples=n_samples, emb_dim=4,
                    max_seq_len=8, min_seq_len=min_seq_len, seed=17)
    per_sample_generate(cfg, str(tmp_path / "reference"))
    switch = sys.getswitchinterval()
    main = threading.current_thread().name
    for count in (1, 2):
        monkeypatch.setattr(qnn, "usable_cpus", lambda: count)
        draw_threads.clear()
        sys.setswitchinterval(1e-6)   # hand the interpreter lock over as often as it can go
        try:
            generate(cfg, str(tmp_path / f"cpus{count}"))
        finally:
            sys.setswitchinterval(switch)
        same_outputs(tmp_path / f"cpus{count}", tmp_path / "reference")
        # Both halves are always drawn; the helper draws the second only
        # on two CPUs with two chunks.
        helper = [t for t in draw_threads if t != main]
        assert len(draw_threads) == 2
        assert len(helper) == (count == 2 and n_samples > datagen.CHUNK)
        assert all(t.startswith("qnn-rows") for t in helper)


def test_two_cpu_generate_enters_traced_names_on_the_calling_thread(tmp_path, monkeypatch,
                                                                  draw_threads):
    entered = spy_traced_names(monkeypatch)
    monkeypatch.setattr(qnn, "usable_cpus", lambda: 2)
    datagen.generate(dataclasses.replace(SMALL, n_samples=3 * datagen.CHUNK), str(tmp_path))
    main = threading.current_thread().name
    assert ("qin.datagen.generate", main) in entered
    assert [(n, t) for n, t in entered if t != main] == []
    assert len(set(draw_threads)) == 2
    assert len(helper_threads()) == 1


def test_helper_error_reaches_generate_with_its_type(tmp_path, monkeypatch):
    # An error in the helper's half leaves no output directory, and the
    # helper goes on drawing the same bits for the next call.
    cfg = dataclasses.replace(SMALL, n_samples=3 * datagen.CHUNK)
    caller = threading.current_thread()
    monkeypatch.setattr(qnn, "usable_cpus", lambda: 2)
    with monkeypatch.context() as failing:
        real = datagen._draw_histories

        def draw(*args, **kwargs):
            if threading.current_thread() is not caller:   # the helper's half only
                raise ShapeError("helper half failed")
            return real(*args, **kwargs)

        failing.setattr(datagen, "_draw_histories", draw)
        with pytest.raises(ShapeError, match="helper half failed"):
            generate(cfg, str(tmp_path / "failed"))
    assert not (tmp_path / "failed").exists()
    assert len(helper_threads()) == 1
    generate(cfg, str(tmp_path / "two"))
    monkeypatch.setattr(qnn, "usable_cpus", lambda: 1)
    generate(cfg, str(tmp_path / "one"))
    same_outputs(tmp_path / "two", tmp_path / "one")


@pytest.mark.parametrize("cfg", [GenConfig(), SMALL], ids=["default", "small"])
@pytest.mark.parametrize("rows", [1, 2, 3, datagen.CHUNK - 1, datagen.CHUNK])
def test_chunk_logits_have_the_bits_of_the_whole_table(cfg, rows):
    # The generated files cannot show this: a logit's last bit moved no
    # history pick in any config tried, the one-row chunks included.
    rng = make_rng(cfg.seed)
    items = rng.standard_normal((cfg.n_items, cfg.emb_dim)).astype(np.float32).astype(float)
    users = rng.standard_normal((cfg.n_users, cfg.emb_dim)).astype(np.float32).astype(float)
    user_ids = rng.integers(0, cfg.n_users, rows)
    table = (users @ items.T) / datagen.TEMPERATURE
    assert np.array_equal(datagen._user_logits(users, items, user_ids), table[user_ids])


def test_generate_holds_no_user_by_item_table(tmp_path):
    # The logits are formed per chunk: a (n_users, n_items) float64 table,
    # 160 MB here, would be ten times the bound, which is 16 arrays of a
    # chunk's keys. Four chunks peaked at about 8 MiB.
    cfg = GenConfig(n_users=20_000, n_items=1_000, n_samples=4 * datagen.CHUNK, seed=3)
    tracemalloc.start()
    try:
        generate(cfg, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * datagen.CHUNK * cfg.n_items * 8


# sha256 of generate(GenConfig()): the frozen default data the acceptance
# criteria and the benchmark's desk numbers are measured on.
DEFAULT_DIGESTS = {
    "embeddings.qemb": "e81fa880ed112fba90d1d459a98d3972a1ba6ce57dd110bd09681b0f13e4bb92",
    "train.jsonl": "3f96533c3e51d003b6756a2c8cf78d6f723f5a1729b80420d8a19131a2f35059",
    "valid.jsonl": "8cc81a30d1642448b1e3819883cb947ef1f35c2c56ed8983a88f3eb76db01bab",
    "truth.txt": "2dd8aa36868ec1f6743d9633034a564ef4e44ce0d9cb4be97e4149b0307a7a1f",
}


def test_default_dataset_bytes_are_frozen(default_dataset):
    out_dir = os.path.dirname(default_dataset.train_path)
    for name, digest in DEFAULT_DIGESTS.items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


@pytest.mark.parametrize("content, where, problem", [
    (b"# n_samples=2\n0.5\nnan\n", 3, "probability nan is not in"),
    (b"0.5\ninf\n", 2, "probability inf is not in"),
    (b"0.5\n-inf\n", 2, "probability -inf is not in"),
    (b"1.5\n", 1, r"probability 1\.5 is not in"),
    (b"0.25\n-0.01\n", 2, r"probability -0\.01 is not in"),
    (b"0.5\n0.\xff5\n", 2, "line is not UTF-8 text"),
    (b"0.5\nhalf\n", 2, "bad probability"),
])
def test_read_truth_rejects_non_probabilities(tmp_path, content, where, problem):
    path = tmp_path / "truth.txt"
    path.write_bytes(content)
    with pytest.raises(DataError, match=rf"truth\.txt:{where}: {problem}"):
        read_truth(str(path))


def test_read_truth_accepts_the_closed_unit_interval(tmp_path):
    path = tmp_path / "truth.txt"
    path.write_text("# n_samples=4 seed=1\n0\n1\n0.25\n\n1e-300\n")
    assert read_truth(str(path)).tolist() == [0.0, 1.0, 0.25, 1e-300]
    with pytest.raises(DataError, match="cannot open truth file"):
        read_truth(str(tmp_path / "absent.txt"))
