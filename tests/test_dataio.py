import json
import os

import numpy as np
import pytest

from qin import dataio, datagen, embedding, params, train
from qin.atomic import atomic_write
from qin.config import HyperParams
from qin.dataio import (as_split, build_batch, make_batches, parse_dataset,
                        read_dataset, write_dataset)
from qin.embedding import Sample
from qin.errors import DataError
from qin.linalg import make_rng
from qin.train import HistoryEntry

SEQ_LEN = 8


def ragged_samples(seed=4, lengths=(0, 8, 3, 8, 0, 1, 5, 7, 2, 8, 4)):
    """Histories of every kind: empty, partial and full seq_len."""
    rng = make_rng(seed)
    return [Sample(target_id=int(rng.integers(0, 50)),
                   seq_ids=[int(v) for v in rng.integers(0, 50, k)], label=i % 2)
            for i, k in enumerate(lengths)]


def columns(split):
    return split.targets, split.labels, split.offsets, split.ids


def test_split_from_file_equals_split_from_samples(tmp_path):
    samples = ragged_samples()
    path = str(tmp_path / "ragged.jsonl")
    write_dataset(samples, path, seed=0)
    parsed, manifest = parse_dataset(path, 50, SEQ_LEN)
    converted = as_split(samples)
    assert manifest == {"n_samples": len(samples),
                        "positives": sum(s.label for s in samples), "seed": 0}
    for got, want, dtype in zip(columns(parsed), columns(converted),
                                (np.int64, np.float64, np.int64, np.int64)):
        assert got.dtype == want.dtype == dtype and np.array_equal(got, want)
    assert list(parsed) == samples and list(converted) == samples
    assert read_dataset(path, 50, SEQ_LEN)[0] == samples
    assert as_split(parsed) is parsed


def test_split_is_a_read_only_sequence():
    samples = ragged_samples()
    split = as_split(samples)
    assert len(split) == len(samples)
    assert split[2] == samples[2] and split[-1] == samples[-1]
    assert list(split[3:7]) == samples[3:7] and list(split[5:2]) == []
    assert [s.label for s in split] == [s.label for s in samples]
    assert np.array_equal(split.lengths, [len(s.seq_ids) for s in samples])
    with pytest.raises(IndexError):
        split[len(samples)]
    with pytest.raises(ValueError):
        split[::2]
    with pytest.raises(ValueError):
        split.ids[0] = 1


@pytest.mark.parametrize("shuffle_seed", [None, 9])
def test_make_batches_same_bits_for_split_and_list(shuffle_seed):
    samples = ragged_samples()

    def batches(data):
        rng = None if shuffle_seed is None else make_rng(shuffle_seed)
        return list(make_batches(data, 4, SEQ_LEN, rng=rng))

    from_list, from_split = batches(samples), batches(as_split(samples))
    assert [b.size for b in from_split] == [4, 4, 3]
    for a, b in zip(from_list, from_split):
        for field in ("target_ids", "seq_ids", "mask", "labels"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and np.array_equal(x, y), field
            assert y.shape[-1] == SEQ_LEN or field in ("target_ids", "labels")
    single = build_batch(as_split(samples), SEQ_LEN)
    assert np.array_equal(single.seq_ids, build_batch(samples, SEQ_LEN).seq_ids)


def test_length_sorted_batches_cut_to_longest_history():
    samples = ragged_samples(lengths=(3, 0, 2, 0, 0, 0, 5, 1, 0))
    order, batches = dataio.length_sorted_batches(samples, 4, SEQ_LEN)
    batches = list(batches)
    lengths = [len(s.seq_ids) for s in samples]
    assert list(order) == sorted(range(len(samples)), key=lambda i: lengths[i])
    # The first batch holds only empty histories and keeps one masked slot.
    assert [b.seq_ids.shape[1] for b in batches] == [1, 3, 5]
    assert not batches[0].mask.any()
    for at, batch in zip(range(0, len(samples), 4), batches):
        full = build_batch([samples[i] for i in order[at:at + 4]], SEQ_LEN)
        width = batch.seq_ids.shape[1]
        assert np.array_equal(batch.seq_ids, full.seq_ids[:, :width])
        assert np.array_equal(batch.mask, full.mask[:, :width])
        assert not full.mask[:, width:].any()


def test_batching_rejects_overlong_history_in_split():
    split = as_split(ragged_samples())
    with pytest.raises(DataError, match="exceeds"):
        make_batches(split, 4, SEQ_LEN - 1)
    with pytest.raises(DataError, match="exceeds"):
        dataio.length_sorted_batches(split, 4, SEQ_LEN - 1)


def test_write_dataset_lines_match_json_dumps(tmp_path):
    samples = ragged_samples()
    path = tmp_path / "out.jsonl"
    write_dataset(as_split(samples), str(path), seed=3)
    lines = path.read_text().splitlines()
    assert lines[1:] == [json.dumps({"target": s.target_id, "seq": s.seq_ids, "label": s.label},
                                    separators=(",", ":")) for s in samples]


def record(target=1, seq=(0,), label=1):
    return json.dumps({"target": target, "seq": list(seq), "label": label})


def test_parser_reports_earliest_bad_line(tmp_path):
    path = tmp_path / "two_bad.jsonl"
    path.write_text("\n".join([record(), record(), record(target=99), record(),
                               record(label=7)]) + "\n")
    with pytest.raises(DataError, match=r"two_bad\.jsonl:3: item id 99"):
        read_dataset(str(path), 10, 4)
    path.write_text("\n".join([record(), record(label=7), "not json"]) + "\n")
    with pytest.raises(DataError, match=r"two_bad\.jsonl:2: label"):
        read_dataset(str(path), 10, 4)


def test_parser_reports_length_before_id_range_on_one_line(tmp_path):
    path = tmp_path / "both.jsonl"
    path.write_text(record(seq=(0, 1, 2, 99, 3)) + "\n")
    with pytest.raises(DataError, match=r"both\.jsonl:1: sequence length 5 exceeds limit 4"):
        read_dataset(str(path), 10, 4)


def test_atomic_write_keeps_previous_file_when_writer_raises(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("previous\n")
    with pytest.raises(RuntimeError):
        with atomic_write(str(path)) as fh:
            fh.write("half of the new")
            raise RuntimeError("writer failed")
    assert path.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["data.txt"]
    with atomic_write(str(path), "wb") as fh:
        fh.write(b"new\n")
    assert path.read_bytes() == b"new\n" and os.listdir(tmp_path) == ["data.txt"]


WRITERS = {
    "write_dataset": lambda p: write_dataset(ragged_samples(), p, seed=1),
    "write_truth": lambda p: datagen.write_truth(np.array([0.25, 0.5]), p, seed=1),
    "save_embeddings": lambda p: embedding.save_embeddings(np.ones((3, 2)), p),
    "write_history": lambda p: train.write_history(
        [HistoryEntry(epoch=0, loss=0.5, val_auc=0.5, val_logloss=0.7)], p),
    "save_checkpoint": lambda p: params.save_checkpoint(params.init_params(
        HyperParams(d_t=4, seq_len=2, vocab=3, d_frozen=1), make_rng(0)), p),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_file_writers_replace_atomically(tmp_path, monkeypatch, writer):
    path = tmp_path / "target"
    path.write_bytes(b"previous")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        WRITERS[writer](str(path))
    assert path.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["target"]
    monkeypatch.undo()
    WRITERS[writer](str(path))
    assert path.read_bytes() != b"previous" and os.listdir(tmp_path) == ["target"]

