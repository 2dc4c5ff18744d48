"""The bulk dataset writer and reader against the per-record references they replaced.

`reference_write` is the writer that formatted one line per record with
Python string work; `reference_parse` is the per-line parser as it stood
before the strict record grammar (one ``json.loads`` and ``int()`` per
field). On well-typed records the two grammars agree, so every file here
must give the reference's arrays, or its DataError message, exactly.
"""

import json
import os
import tempfile
from array import array
from unittest import mock

import numpy as np
import pytest
from conftest import split_of
from hypothesis import given, settings
from hypothesis import strategies as st

from qin import dataio
from qin.dataio import parse_manifest, read_dataset, write_dataset
from qin.embedding import Sample
from qin.errors import DataError
from qin.linalg import FLOAT

N_ITEMS = 40
SEQ_LEN = 6
FIELDS = ("targets", "labels", "offsets", "ids")


def reference_write(split, path, seed):
    manifest = f"n_samples={len(split)} positives={int(split.labels.sum())} seed={seed}"
    offsets = split.offsets.tolist()
    seqs = (",".join(map(str, split.ids[offsets[i]:offsets[i + 1]].tolist()))
            for i in range(len(split)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {manifest}\n")
        fh.writelines(f'{{"target":{target},"seq":[{seq}],"label":{label}}}\n'
                      for target, seq, label in zip(split.targets.tolist(), seqs,
                                                    split.labels.astype(np.int64).tolist()))
    return manifest


def reference_parse(path, n_items, max_seq_len):
    targets, labels, lengths, ids = array("q"), array("q"), array("q"), array("q")
    manifest = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if lineno == 1:
                    manifest = parse_manifest(line)
                continue
            try:
                rec = json.loads(line)
                target = int(rec["target"])
                seq = list(map(int, rec["seq"]))
                label = int(rec["label"])
            except (ValueError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: malformed record ({exc})") from exc
            if label not in (0, 1):
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {label}")
            if len(seq) > max_seq_len:
                raise DataError(
                    f"{path}:{lineno}: sequence length {len(seq)} exceeds limit {max_seq_len}")
            if not 0 <= target < n_items or (seq and not 0 <= min(seq) <= max(seq) < n_items):
                item = next(v for v in (target, *seq) if not 0 <= v < n_items)
                raise DataError(f"{path}:{lineno}: item id {item} out of range [0, {n_items})")
            targets.append(target)
            labels.append(label)
            lengths.append(len(seq))
            ids.extend(seq)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(lengths, dtype=np.int64), out=offsets[1:])
    return {"targets": np.frombuffer(targets, dtype=np.int64),
            "labels": np.frombuffer(labels, dtype=np.int64).astype(FLOAT),
            "offsets": offsets, "ids": np.frombuffer(ids, dtype=np.int64)}, manifest


def outcome(parse, path):
    """(columns, manifest) of a parse, or the DataError message it raised."""
    try:
        columns, manifest = parse(path, N_ITEMS, SEQ_LEN)
    except DataError as exc:
        return str(exc)
    if not isinstance(columns, dict):
        columns = {field: getattr(columns, field) for field in FIELDS}
    return columns, manifest


def assert_same_outcome(path):
    got, want = outcome(read_dataset, path), outcome(reference_parse, path)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got[1] == want[1]
    for field in FIELDS:
        assert got[0][field].dtype == want[0][field].dtype, field
        assert np.array_equal(got[0][field], want[0][field]), field


def rows(ids):
    return st.lists(st.tuples(ids, st.lists(ids, max_size=SEQ_LEN), st.integers(0, 1)),
                    max_size=25)


def split_drawn(drawn):
    return split_of(Sample(target_id=t, seq_ids=seq, label=label) for t, seq, label in drawn)


@settings(deadline=None, max_examples=150)
@given(drawn=rows(st.one_of(st.integers(0, 60), st.integers(-2**63, 2**63 - 1))),
       cut=st.integers(0, 25), seed=st.integers(0, 2**31))
def test_writer_byte_identical_to_reference(drawn, cut, seed):
    split = split_drawn(drawn)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.jsonl"), os.path.join(tmp, "want.jsonl")
        for part in (split[:cut], split[cut:]):
            assert write_dataset(part, got, seed) == reference_write(part, want, seed)
            with open(got, "rb") as a, open(want, "rb") as b:
                assert a.read() == b.read()


@pytest.mark.parametrize("drawn", [
    [],
    [(3, [], 0)],
    [(0, [], 1), (1, [], 0), (2, [5], 1), (3, [], 0)],
    [(2**63 - 1, [0, -2**63, 10**18], 1), (-1, [], 0)],
])
def test_writer_edge_splits_match_reference(tmp_path, drawn):
    got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    write_dataset(split_drawn(drawn), str(got), 5)
    reference_write(split_drawn(drawn), str(want), 5)
    assert got.read_bytes() == want.read_bytes()


def test_writer_chunks_rows_across_writes(tmp_path, monkeypatch):
    """Rows split over many gathers, and a row longer than one gather, write the same bytes."""
    drawn = [(i % N_ITEMS, list(range(i % 9)), i % 2) for i in range(200)]
    want = tmp_path / "want.jsonl"
    reference_write(split_drawn(drawn), str(want), 1)
    for tokens in (1, 7, 64):
        monkeypatch.setattr(dataio, "WRITE_TOKENS", tokens)
        got = tmp_path / f"got{tokens}.jsonl"
        write_dataset(split_drawn(drawn), str(got), 1)
        assert got.read_bytes() == want.read_bytes()


def write_canonical(path, drawn, seed=0):
    reference_write(split_drawn(drawn), path, seed)
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


@settings(deadline=None, max_examples=150)
@given(drawn=rows(st.integers(0, N_ITEMS - 1)), manifest=st.booleans(),
       read_bytes=st.sampled_from([1, 64, 1 << 20]))
def test_reader_bulk_path_on_canonical_files(drawn, manifest, read_bytes):
    """Canonical files never reach the per-line parser, and give its arrays."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.jsonl")
        lines = write_canonical(path, drawn)
        if not manifest:
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in lines[1:])
        with mock.patch.object(dataio, "READ_BYTES", read_bytes), \
                mock.patch.object(dataio, "_parse_lines",
                                  side_effect=AssertionError("took the per-line path")):
            assert_same_outcome(path)


def spaced(line):
    return json.dumps(json.loads(line))


def reordered(line):
    rec = json.loads(line)
    return json.dumps({"label": rec["label"], "seq": rec["seq"], "target": rec["target"]},
                      separators=(",", ":"))


def with_field(line, **fields):
    rec = json.loads(line)
    rec.update(fields)
    return json.dumps(rec, separators=(",", ":"))


def first_number_as(line, text):
    """The target written as `text`, a literal that json may or may not accept."""
    return f'{{"target":{text},{line.split(",", 1)[1]}'


def on_line(edit):
    """The mutation that rewrites line k as edit(line k)."""
    return lambda lines, k: "".join((edit(line) if i == k else line) + "\n"
                                    for i, line in enumerate(lines))


def seq_of(line):
    return json.loads(line)["seq"]


# Each mutation maps (record lines, k) to the file body after the manifest.
MUTATIONS = {
    "spaces": on_line(spaced),
    "key_order": on_line(reordered),
    "leading_zero": on_line(lambda line: first_number_as(line, f"0{json.loads(line)['target']}")),
    "minus_zero": on_line(lambda line: first_number_as(line, "-0")),
    "crlf": lambda lines, k: "".join(line + "\r\n" for line in lines),
    "no_final_newline": lambda lines, k: "\n".join(lines),
    "blank_line": on_line(lambda line: "\n" + line),
    "comment_line": on_line(lambda line: "# note\n" + line),
    "nineteen_digit_id": on_line(
        lambda line: with_field(line, seq=[*seq_of(line)[:SEQ_LEN - 1], 10**18 + 7])),
    "huge_target": on_line(lambda line: first_number_as(line, "9" * 25)),
    "bad_label": on_line(lambda line: with_field(line, label=2)),
    "too_long": on_line(lambda line: with_field(line, seq=list(range(SEQ_LEN + 1)))),
    "id_out_of_range": on_line(
        lambda line: with_field(line, seq=[*seq_of(line)[:SEQ_LEN - 1], N_ITEMS])),
    "target_out_of_range": on_line(lambda line: with_field(line, target=N_ITEMS)),
}


@settings(deadline=None, max_examples=300)
@given(drawn=rows(st.integers(0, N_ITEMS - 1)).filter(bool),
       mutation=st.sampled_from(sorted(MUTATIONS)), at=st.floats(0, 1, exclude_max=True),
       manifest=st.booleans(), read_bytes=st.sampled_from([1, 64, 1 << 20]))
def test_reader_matches_reference_on_mutated_files(drawn, mutation, at, manifest, read_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.jsonl")
        lines = write_canonical(path, drawn)
        body = MUTATIONS[mutation](lines[1:], int(at * len(drawn)))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write((lines[0] + "\n" if manifest else "") + body)
        with mock.patch.object(dataio, "READ_BYTES", read_bytes):
            assert_same_outcome(path)


def test_reader_reports_first_bad_line_across_chunks(tmp_path, monkeypatch):
    """A bad record deep in a canonical file is reported with its own line number."""
    drawn = [(i % N_ITEMS, [i % N_ITEMS], i % 2) for i in range(300)]
    path = tmp_path / "data.jsonl"
    lines = write_canonical(str(path), drawn)
    lines[251] = lines[251].replace('"label":1', '"label":3').replace('"label":0', '"label":3')
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(dataio, "READ_BYTES", 256)
    with pytest.raises(DataError, match=r"data\.jsonl:252: label must be 0 or 1, got 3"):
        read_dataset(str(path), N_ITEMS, SEQ_LEN)


@pytest.mark.parametrize("manifest_end", ["\r", "\r\n", "\n\n", " \n"])
def test_reader_manifest_line_ends_as_in_text_mode(tmp_path, manifest_end):
    """A bare \\r ends the manifest line in text mode, so the next record is its own line."""
    path = tmp_path / "data.jsonl"
    lines = write_canonical(str(path), [(1, [2, 3], 1), (4, [], 0)])
    path.write_bytes((lines[0] + manifest_end + "\n".join(lines[1:]) + "\n").encode())
    assert_same_outcome(str(path))
    assert len(read_dataset(str(path), N_ITEMS, SEQ_LEN)[0]) == 2
