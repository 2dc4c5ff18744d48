import json
import os

import numpy as np
import pytest
from conftest import relabeled, split_of

from qin import dataio, datagen, embedding, params, train
from qin.atomic import atomic_write
from qin.config import HyperParams
from qin.dataio import Split, build_batch, make_batches, read_dataset, write_dataset
from qin.embedding import Sample
from qin.errors import DataError
from qin.linalg import make_rng
from qin.train import HistoryEntry

SEQ_LEN = 8
# Ragged histories, no rows, and rows whose histories are all empty.
SPLIT_CASES = [(0, 8, 3, 8, 0, 1, 5, 7, 2, 8, 4), (), (0, 0, 0)]


def ragged_samples(seed=4, lengths=(0, 8, 3, 8, 0, 1, 5, 7, 2, 8, 4)):
    """Histories of every kind: empty, partial and full seq_len."""
    rng = make_rng(seed)
    return [Sample(target_id=int(rng.integers(0, 50)),
                   seq_ids=[int(v) for v in rng.integers(0, 50, k)], label=i % 2)
            for i, k in enumerate(lengths)]


def columns(split):
    return split.targets, split.labels, split.offsets, split.ids


def test_split_from_file_equals_split_from_samples(tmp_path):
    for case, lengths in enumerate(SPLIT_CASES):
        samples = ragged_samples(lengths=lengths)
        built = split_of(samples)
        path = str(tmp_path / f"case{case}.jsonl")
        write_dataset(built, path, seed=0)
        parsed, manifest = read_dataset(path, 50, SEQ_LEN)
        assert manifest == {"n_samples": len(samples),
                            "positives": sum(s.label for s in samples), "seed": 0}
        for got, want, dtype in zip(columns(parsed), columns(built),
                                    (np.int64, np.float64, np.int64, np.int64)):
            assert got.dtype == want.dtype == dtype and np.array_equal(got, want)
            assert not got.flags.writeable and not want.flags.writeable
        assert parsed.offsets[0] == built.offsets[0] == 0
        assert isinstance(parsed, Split)
        assert list(parsed) == samples and list(built) == samples


def test_split_is_a_read_only_sequence():
    for lengths in SPLIT_CASES:
        samples = ragged_samples(lengths=lengths)
        split = split_of(samples)
        n = len(samples)
        assert len(split) == n
        assert [split[i] for i in range(-n, n)] == samples + samples
        assert list(split[3:7]) == samples[3:7] and list(split[5:2]) == []
        assert [s.label for s in split] == [s.label for s in samples]
        assert np.array_equal(split.lengths, [len(s.seq_ids) for s in samples])
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                split[index]
        with pytest.raises(ValueError):
            split[::2]
        for column in columns(split):
            with pytest.raises(ValueError):
                column[...] = 1


@pytest.mark.parametrize("shuffle_seed", [None, 9])
def test_make_batches_same_bits_for_split_and_list(shuffle_seed):
    """Each batch has the bits of build_batch on a split of just its rows, in order."""
    samples = ragged_samples()
    rng = None if shuffle_seed is None else make_rng(shuffle_seed)
    batches = list(make_batches(split_of(samples), 4, SEQ_LEN, rng=rng))
    order = (np.arange(len(samples)) if shuffle_seed is None
             else make_rng(shuffle_seed).permutation(len(samples)))
    assert [b.size for b in batches] == [4, 4, 3]
    for at, b in zip(range(0, len(samples), 4), batches):
        a = build_batch(split_of(samples[i] for i in order[at:at + 4]), SEQ_LEN)
        for field in ("target_ids", "seq_ids", "mask", "labels"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and np.array_equal(x, y), field
            assert y.shape[-1] == SEQ_LEN or field in ("target_ids", "labels")


def test_length_sorted_batches_cut_to_longest_history():
    samples = ragged_samples(lengths=(3, 0, 2, 0, 0, 0, 5, 1, 0))
    order, batches = dataio.length_sorted_batches(split_of(samples), 4, SEQ_LEN)
    batches = list(batches)
    lengths = [len(s.seq_ids) for s in samples]
    assert list(order) == sorted(range(len(samples)), key=lambda i: lengths[i])
    # The first batch holds only empty histories and keeps one masked slot.
    assert [b.seq_ids.shape[1] for b in batches] == [1, 3, 5]
    assert not batches[0].mask.any()
    for at, batch in zip(range(0, len(samples), 4), batches):
        full = build_batch(split_of(samples[i] for i in order[at:at + 4]), SEQ_LEN)
        width = batch.seq_ids.shape[1]
        assert np.array_equal(batch.seq_ids, full.seq_ids[:, :width])
        assert np.array_equal(batch.mask, full.mask[:, :width])
        assert not full.mask[:, width:].any()


def length_case(name):
    """Many ties of history lengths whose largest needs a uint8, uint16 or uint32 key."""
    rng = make_rng(12)
    if name == "equal":
        return np.full(300, 5)
    top = {"uint8": 255, "uint16": 65_535, "uint32": 70_000}[name]
    lengths = rng.integers(0, 12, 300)
    # Ties among long histories, at the narrow types' boundaries up to top.
    long = [v for v in (top, top, top - 1, 65_536, 65_535, 256, 256, 255, 255) if v <= top]
    lengths[rng.choice(300, len(long), replace=False)] = long
    return lengths


@pytest.mark.parametrize("name", ["uint8", "uint16", "uint32", "equal"])
def test_length_sorted_order_is_the_stable_int64_order(name):
    lengths = length_case(name)
    n = len(lengths)
    split = Split.from_lengths(np.zeros(n), np.arange(n) % 2, lengths,
                               np.zeros(int(lengths.sum())))
    order, _ = dataio.length_sorted_batches(split, 64, int(lengths.max()))
    assert np.array_equal(order, np.argsort(lengths.astype(np.int64), kind="stable"))


def test_batching_rejects_overlong_history_in_split():
    split = split_of(ragged_samples())
    with pytest.raises(DataError, match="exceeds"):
        make_batches(split, 4, SEQ_LEN - 1)
    with pytest.raises(DataError, match="exceeds"):
        dataio.length_sorted_batches(split, 4, SEQ_LEN - 1)


def test_write_dataset_lines_match_json_dumps(tmp_path):
    samples = ragged_samples()
    path = tmp_path / "out.jsonl"
    write_dataset(split_of(samples), str(path), seed=3)
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
    "write_dataset": lambda p: write_dataset(split_of(ragged_samples()), p, seed=1),
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



@pytest.mark.parametrize("line, problem", [
    ('{"target": 1.7, "seq": [0], "label": 1}', "target must be a JSON integer, got 1.7"),
    ('{"target": "5", "seq": [0], "label": 1}', 'target must be a JSON integer, got "5"'),
    ('{"target": true, "seq": [0], "label": 1}', "target must be a JSON integer, got true"),
    ('{"target": 1, "seq": "123", "label": 1}', 'seq must be a JSON array, got "123"'),
    ('{"target": 1, "seq": {"0": 1}, "label": 1}', 'seq must be a JSON array, got {"0": 1}'),
    ('{"target": 1, "seq": [0, 2.0], "label": 1}', "seq entry must be a JSON integer, got 2.0"),
    ('{"target": 1, "seq": [0, false], "label": 1}',
     "seq entry must be a JSON integer, got false"),
    ('{"target": 1, "seq": [0], "label": true}', "label must be a JSON integer, got true"),
    ('{"target": 1, "seq": [0], "label": 1.5}', "label must be a JSON integer, got 1.5"),
    ('{"target": 1, "seq": [0], "label": 1.0}', "label must be a JSON integer, got 1.0"),
    ('{"target": Infinity, "seq": [0], "label": 1}',
     "target must be a JSON integer, got Infinity"),
    ('{"target": 1, "seq": [NaN], "label": 1}', "seq entry must be a JSON integer, got NaN"),
])
def test_parser_accepts_json_integers_only(tmp_path, line, problem):
    path = tmp_path / "typed.jsonl"
    path.write_text(record() + "\n" + line + "\n")
    with pytest.raises(DataError) as exc:
        read_dataset(str(path), 10, 4)
    assert str(exc.value) == f"{path}:2: malformed record ({problem})"


@pytest.mark.parametrize("content, where, problem", [
    (record().encode() + b"\n" + record().encode() + b"\xff\n", 2, "line is not UTF-8 text"),
    (b"# n_samples=abc\n" + record().encode() + b"\n", 1, "bad manifest"),
    (record().encode() + b"\n" + b"[" * 100_000 + b"\n", 2, "malformed record"),
    (b'{"target": -Infinity, "seq": [0], "label": 1}\n', 1, "malformed record"),
    (b'{"target": 1, "seq": [' + b"9" * 5000 + b'], "label": 1}\n', 1, "malformed record"),
])
def test_parser_raises_only_data_errors(tmp_path, content, where, problem):
    """Undecodable bytes, a bad manifest, deep nesting and huge numbers are DataErrors."""
    path = tmp_path / "raw.jsonl"
    path.write_bytes(content)
    with pytest.raises(DataError, match=rf"raw\.jsonl:{where}: {problem}"):
        read_dataset(str(path), 10, 4)


def test_parser_counts_lines_as_text_mode_does(tmp_path):
    """\\r, \\r\\n and \\n all end a line, so the reported number is the editor's."""
    path = tmp_path / "mixed.jsonl"
    path.write_bytes(b"# n_samples=3\r" + record().encode() + b"\r\n" + record().encode()
                     + b"\n\r" + record(label=5).encode() + b"\n")
    with pytest.raises(DataError, match=r"mixed\.jsonl:5: label must be 0 or 1, got 5"):
        read_dataset(str(path), 10, 4)
    path.write_bytes(path.read_bytes().replace(b'"label": 5', b'"label": 0'))
    split, manifest = read_dataset(str(path), 10, 4)
    assert manifest == {"n_samples": 3} and list(split.labels) == [1.0, 1.0, 0.0]


@pytest.mark.parametrize("canonical", [True, False])
def test_manifest_counts_must_match_the_records(tmp_path, canonical):
    """A cut file keeps its manifest; both parsers refuse it instead of loading 5 of 10."""
    samples = [Sample(target_id=i, seq_ids=[i + 1], label=int(i < 4)) for i in range(10)]
    path = tmp_path / "cut.jsonl"
    write_dataset(split_of(samples), str(path), seed=3)
    lines = path.read_text().splitlines(keepends=True)
    if not canonical:   # spaces after the colons send the file to the per-line parser
        lines = [lines[0], *(line.replace(":", ": ") for line in lines[1:])]
    path.write_text("".join(lines))
    split, _ = read_dataset(str(path), 20, 4)
    assert len(split) == 10
    path.write_text("".join(lines[:6]))
    with pytest.raises(DataError, match=r"cut\.jsonl:1: manifest n_samples=10 but the "
                                        r"records give 5"):
        read_dataset(str(path), 20, 4)
    # Five records again, but the manifest now only disagrees on the positives.
    path.write_text(lines[0].replace("n_samples=10", "n_samples=5") + "".join(lines[5:10]))
    with pytest.raises(DataError, match=r"cut\.jsonl:1: manifest positives=4 but the "
                                        r"records give 0"):
        read_dataset(str(path), 20, 4)


@pytest.mark.parametrize("label", [2, 0.5, -1, float("nan")])
def test_write_dataset_rejects_labels_outside_0_1(tmp_path, label):
    split = relabeled(split_of(ragged_samples()), 3, label)
    path = tmp_path / "labels.jsonl"
    with pytest.raises(DataError, match=r"labels\.jsonl: sample 3 has label .*, expected 0 or 1"):
        write_dataset(split, str(path), seed=0)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("label", [2, 0.5, -1, float("nan")])
def test_from_lengths_rejects_a_label_other_than_0_or_1(label):
    samples = ragged_samples()
    labels = [s.label for s in samples]
    labels[3] = labels[6] = label
    with pytest.raises(DataError, match=rf"^sample 3 has label {float(label)!r}, expected 0 or 1$"):
        Split.from_lengths(targets=[s.target_id for s in samples], labels=labels,
                           lengths=[len(s.seq_ids) for s in samples],
                           ids=[v for s in samples for v in s.seq_ids])


def test_parser_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot open dataset"):
        read_dataset(str(tmp_path / "absent.jsonl"), 10, 4)
