"""Dataset file format, the columnar split, and mini-batching.

A dataset file is line-delimited: an optional leading manifest comment
``# n_samples=<k> positives=<k> seed=<k>``, whose counts must match the
records, followed by one JSON record per line,
``{"target": <id>, "seq": [<ids>], "label": 0|1}``. The target, the label
and every history entry are JSON integers (not booleans, floats or
strings) and ``seq`` is a JSON array. Ids are validated against the
embedding store on load; a malformed line is reported with its number.

The writer emits one canonical form per record, the compact ``json.dumps``
line ``{"target":T,"seq":[a,b],"label":L}``, assembled for many rows at a
time from a byte table of tokens. A file made only of canonical lines
(after the optional manifest) is read in bulk: a regular expression checks
the lines and their numbers are converted in one numpy call. Any other
file, and any file with a record that fails a check, is read line by line
by the parser that states the grammar and every error message.

In memory a split is a :class:`Split`, the one data form the library
takes: four arrays, filled once by a parser or the generator and held
until batching, which gathers each batch from them by row index.
Training batches are ``max_seq_len`` wide and follow the epoch shuffle.
Evaluation batches follow the stable history-length order and are each
cut to their longest history, so ragged data scores few padded slots;
the caller puts the results back in input order.
"""

from __future__ import annotations

import io
import json
import operator
import re
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .config import HyperParams
from .embedding import Batch, Sample, load_embeddings
from .errors import DataError
from .linalg import FLOAT, TRAIN_FLOAT

WRITE_TOKENS = 1 << 14  # line tokens gathered into bytes per write
READ_BYTES = 1 << 18    # bytes of canonical lines cut into columns per step

# A canonical file: an optional manifest line, then canonical lines. Ids and
# targets are decimal without leading zeros and at most 18 digits, so none
# overflows int64. Possessive repeats keep no backtracking state, so the
# match holds no memory per line.
_ID = rb"(?:0|[1-9][0-9]{0,17}+)"
_CANONICAL_FILE = re.compile(
    rb'(?P<manifest>#[^\r\n]*\n)?+'
    rb'(?:\{"target":%b,"seq":\[(?:%b(?:,%b)*+)?\],"label":[01]\}\n)*+' % (_ID, _ID, _ID))
_DIGITS_ONLY = bytes(c if chr(c) in "0123456789" else ord(" ") for c in range(256))


def check_labels(labels: np.ndarray) -> None:
    """Raise DataError naming the first label that is neither 0 nor 1; NaN is neither."""
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if bad.size:
        raise DataError(f"sample {bad[0]} has label {labels[bad[0]].item()!r}, expected 0 or 1")


@dataclass(frozen=True, eq=False)
class Split(Sequence[Sample]):
    """One split as columns; row i's history is ``ids[offsets[i]:offsets[i + 1]]``.

    A read-only sequence of samples: ``split[i]`` builds one Sample, and a
    contiguous slice is a Split over the same arrays.
    """

    targets: np.ndarray   # (n,) int64
    labels: np.ndarray    # (n,) float64, each 0.0 or 1.0
    offsets: np.ndarray   # (n + 1,) int64, offsets[0] == 0
    ids: np.ndarray       # (offsets[-1],) int64, the histories back to back

    def __post_init__(self):
        for column in (self.targets, self.labels, self.offsets, self.ids):
            column.flags.writeable = False

    @classmethod
    def from_lengths(cls, targets, labels, lengths, ids) -> "Split":
        """Row i has targets[i], labels[i] and the next lengths[i] entries of ids.

        Labels become float64 and every other column int64. A label other
        than 0 or 1 raises DataError (see check_labels).
        """
        labels = np.asarray(labels, dtype=FLOAT)
        check_labels(labels)
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(targets=np.asarray(targets, dtype=np.int64), labels=labels,
                   offsets=offsets, ids=np.asarray(ids, dtype=np.int64))

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return self.targets.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ValueError("a Split slice must be contiguous")
            stop = max(start, stop)
            lo, hi = self.offsets[start], self.offsets[stop]
            return Split(targets=self.targets[start:stop], labels=self.labels[start:stop],
                         offsets=self.offsets[start:stop + 1] - lo, ids=self.ids[lo:hi])
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"row {index} out of range for a split of {len(self)}")
        return Sample(target_id=int(self.targets[i]),
                      seq_ids=self.ids[self.offsets[i]:self.offsets[i + 1]].tolist(),
                      label=int(self.labels[i]))


def _token_table(values: np.ndarray, form: str):
    """(tokens, row_of): ``form % v`` as bytes for each distinct value v, and
    a function from an array of those values to their rows in that list.

    Values over a range not much wider than their count (ids below a vocab
    size) get one row per integer in it, found by a subtraction; others one
    row per distinct value, found by a binary search.
    """
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, -1)
    if hi - lo <= values.size + 1024:
        return [(form % key).encode() for key in range(lo, hi + 1)], lambda v: v - lo
    keys = np.unique(values)
    return [(form % key).encode() for key in keys.tolist()], keys.searchsorted


def write_dataset(split: Split, path: str, seed: int) -> str:
    """Write records plus the manifest comment line; returns the manifest.

    Each line is the canonical record ``{"target":T,"seq":[a,b],"label":L}``,
    the compact ``json.dumps`` form. A line is a run of tokens: the head
    ``{"target":T,"seq":[``, one ``,id`` per history entry (the first
    without its comma) and the tail ``],"label":L}`` plus newline. Each
    token is a row of a byte table with one row per distinct value, and
    the lines are gathered from it a bounded number of tokens at a time.
    A label other than 0 or 1 raises DataError before the file is opened.
    """
    n = len(split)
    try:
        check_labels(split.labels)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    labels = split.labels.astype(np.int64)
    manifest = f"n_samples={n} positives={int(split.labels.sum())} seed={seed}"
    heads, head_of = _token_table(split.targets, '{"target":%d,"seq":[')
    seps, id_of = _token_table(split.ids, ",%d")
    tails, tail_of = _token_table(labels, '],"label":%d}\n')
    tokens = heads + seps + tails
    size = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    start = np.zeros(len(tokens), dtype=np.int64)
    np.cumsum(size[:-1], out=start[1:])
    table = np.frombuffer(b"".join(tokens), dtype=np.uint8)
    offsets = split.offsets
    # Tokens before row i: a head and a tail per earlier row, plus its ids.
    before = offsets + 2 * np.arange(n + 1)
    with atomic_write(path, "wb") as fh:
        fh.write(f"# {manifest}\n".encode())
        r0 = 0
        while r0 < n:
            r1 = int(np.searchsorted(before, before[r0] + WRITE_TOKENS, side="right")) - 1
            r1 = min(max(r1, r0 + 1), n)
            at = before[r0:r1 + 1] - before[r0]
            head_at, tail_at = at[:-1], at[1:] - 1
            row = np.empty(at[-1], dtype=np.int64)
            is_id = np.ones(row.size, dtype=bool)
            is_id[head_at] = is_id[tail_at] = False
            row[head_at] = head_of(split.targets[r0:r1])
            row[is_id] = id_of(split.ids[offsets[r0]:offsets[r1]]) + len(heads)
            row[tail_at] = tail_of(labels[r0:r1]) + len(heads) + len(seps)
            src, length = start[row], size[row]
            first = head_at[tail_at - head_at > 1] + 1
            src[first] += 1
            length[first] -= 1
            end = np.cumsum(length)
            fh.write(table[np.arange(end[-1]) + np.repeat(src - (end - length), length)])
            r0 = r1
    return manifest


def parse_manifest(line: str) -> dict:
    out = {}
    for tok in line.lstrip("#").split():
        if "=" in tok:
            key, val = tok.split("=", 1)
            out[key] = int(val)
    return out


def read_bytes(path: str, what: str) -> bytes:
    """The whole file; DataError if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {what} {path}: {exc}") from exc


def numbered_lines(path: str, data: bytes) -> Iterator[tuple[int, str]]:
    """The file's non-blank lines, stripped, with their numbers from 1.

    Lines end as in text mode, at ``\\n``, ``\\r\\n`` or ``\\r``. A line that
    is not UTF-8 raises DataError naming it.
    """
    # Bytes that are not UTF-8 become lone surrogates, which do not encode.
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    for lineno, line in enumerate(text, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise DataError(f"{path}:{lineno}: line is not UTF-8 text") from None
        yield lineno, line


def _record(line: str) -> tuple[int, list[int], int]:
    """(target, seq, label) of one record line; ValueError if a field has the wrong JSON type."""
    rec = json.loads(line)
    target, seq, label = rec["target"], rec["seq"], rec["label"]
    if type(seq) is not list:
        raise ValueError(f"seq must be a JSON array, got {json.dumps(seq)[:40]}")
    for what, values in (("target", (target,)), ("seq entry", seq), ("label", (label,))):
        # Exactly int: neither a bool nor a float such as 1.0.
        if not set(map(type, values)) <= {int}:
            bad = next(v for v in values if type(v) is not int)
            raise ValueError(f"{what} must be a JSON integer, got {json.dumps(bad)[:40]}")
    return target, seq, label


def _parse_lines(path: str, data: bytes, n_items: int,
                 max_seq_len: int) -> tuple[Split, dict | None]:
    """The per-line parser: the statement of the grammar and of every error.

    Each line is checked in order (UTF-8, well-formed, label, length, id
    range), so the error names the first bad line and its first problem.
    """
    targets, labels, lengths, ids = array("q"), array("q"), array("q"), array("q")
    manifest = None
    for lineno, line in numbered_lines(path, data):
        if line.startswith("#"):
            if lineno == 1:
                try:
                    manifest = parse_manifest(line)
                except ValueError as exc:
                    raise DataError(f"{path}:1: bad manifest ({exc})") from exc
            continue
        try:
            target, seq, label = _record(line)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
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
    return Split.from_lengths(*(np.frombuffer(col, dtype=np.int64)
                                for col in (targets, labels, lengths, ids))), manifest


def _parse_canonical(data: bytes, n_items: int,
                     max_seq_len: int) -> tuple[Split, dict | None] | None:
    """The bulk parser: the columns of a file of canonical lines, else None.

    A canonical file is an optional manifest line and then lines exactly
    as write_dataset writes them. It also returns None when a record fails
    the length or id-range check, so that the per-line parser reports it.
    """
    match = _CANONICAL_FILE.fullmatch(data)
    if match is None:
        return None
    manifest, pos = None, 0
    if match["manifest"] is not None:
        try:
            manifest = parse_manifest(match["manifest"].decode("utf-8"))
        except ValueError:  # UnicodeDecodeError included
            return None
        pos = match.end("manifest")
    n = data.count(b"\n", pos)
    # A line with k >= 1 ids holds k + 1 commas; one with none holds 2 and "[]".
    ids = np.empty(data.count(b",", pos) - n - data.count(b"[]", pos), dtype=np.int64)
    targets, labels, lengths = (np.empty(n, dtype=np.int64) for _ in range(3))
    row = at = 0
    while pos < len(data):
        end = data.find(b"\n", min(pos + READ_BYTES, len(data)) - 1) + 1
        chunk = np.frombuffer(data, dtype=np.uint8, count=end - pos, offset=pos)
        line_ends = np.flatnonzero(chunk == ord("\n"))
        commas = np.searchsorted(np.flatnonzero(chunk == ord(",")), line_ends)
        count = np.diff(commas, prepend=0) - 1
        count -= chunk[np.flatnonzero(chunk == ord("[")) + 1] == ord("]")
        # Each line's numbers in order: its target, its ids, its label.
        numbers = np.fromstring(data[pos:end].translate(_DIGITS_ONLY), dtype=np.int64,
                                sep=" ")
        target_at = np.zeros(len(count), dtype=np.int64)
        np.cumsum(count[:-1] + 2, out=target_at[1:])
        label_at = target_at + count + 1
        is_id = np.ones(numbers.size, dtype=bool)
        is_id[target_at] = is_id[label_at] = False
        rows, live = slice(row, row + len(count)), numbers[is_id]
        targets[rows], labels[rows], lengths[rows] = (
            numbers[target_at], numbers[label_at], count)
        ids[at:at + live.size] = live
        row, at, pos = rows.stop, at + live.size, end
    if (lengths.max(initial=0) > max_seq_len or targets.max(initial=0) >= n_items
            or ids.max(initial=0) >= n_items):
        return None
    return Split.from_lengths(targets, labels, lengths, ids), manifest


def read_dataset(path: str, n_items: int, max_seq_len: int) -> tuple[Split, dict | None]:
    """Parse and validate records into a Split; returns (split, manifest dict or None).

    A file of canonical lines, as write_dataset writes them, is cut into
    columns in bulk. Any other file, or one with a record that fails a
    check, goes through the per-line parser, which names the first bad
    line and its first problem. A manifest's n_samples and positives, when
    given, must match the records, else DataError names line 1.
    """
    data = read_bytes(path, "dataset")
    parsed = _parse_canonical(data, n_items, max_seq_len)
    split, manifest = parsed or _parse_lines(path, data, n_items, max_seq_len)
    for key, count in (("n_samples", len(split)), ("positives", int(split.labels.sum()))):
        if manifest is not None and key in manifest and manifest[key] != count:
            raise DataError(f"{path}:1: manifest {key}={manifest[key]} but the records "
                            f"give {count}")
    return split, manifest


def load_dataset(path: str, embedding_path: str, hp: HyperParams):
    """Load one split, as a Split, plus its embedding store, cross-validated."""
    store = load_embeddings(embedding_path)
    split, manifest = read_dataset(path, store.count, hp.seq_len)
    return split, store, manifest


def _check_batching(split: Split, batch_size: int, max_seq_len: int) -> int:
    """The split's longest history length, after checking it and batch_size."""
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    longest = int(split.lengths.max(initial=0))
    if longest > max_seq_len:
        raise DataError(f"sequence length {longest} exceeds limit {max_seq_len}")
    return longest


def _gather(split: Split, rows: np.ndarray, width: int | None) -> Batch:
    """Rows of the split as one padded Batch, histories left-aligned.

    width None cuts the batch to its longest history, at least 1 slot, so
    an all-empty batch still has a (masked) slot to pool over.
    """
    starts = split.offsets[rows]
    lengths = split.offsets[rows + 1] - starts
    if width is None:
        width = max(1, int(lengths.max(initial=0)))
    slots = np.arange(width)
    live = slots < lengths[:, None]
    at = starts[:, None] + slots
    # Padded slots read a clipped neighbour, then are zeroed: a take plus a
    # masked store is cheaper than gathering through the boolean mask.
    seq_ids = split.ids.take(at, mode="clip") if split.ids.size else np.zeros_like(at)
    seq_ids[~live] = 0
    return Batch(target_ids=split.targets[rows], seq_ids=seq_ids, mask=live.astype(TRAIN_FLOAT),
                 labels=split.labels[rows].astype(TRAIN_FLOAT))


def _batches(split: Split, order: np.ndarray, batch_size: int,
             width: int | None) -> Iterator[Batch]:
    for at in range(0, len(order), batch_size):
        yield _gather(split, order[at:at + batch_size], width)


def build_batch(split: Split, max_seq_len: int) -> Batch:
    """Pack the split into one max_seq_len-wide Batch."""
    _check_batching(split, 1, max_seq_len)
    return _gather(split, np.arange(len(split)), max_seq_len)


def make_batches(split: Split, batch_size: int, max_seq_len: int,
                 rng: np.random.Generator | None = None) -> Iterator[Batch]:
    """Optionally shuffled max_seq_len-wide batches; the final partial batch is kept.

    Each batch is gathered from the columns only when the returned iterator
    reaches it.
    """
    _check_batching(split, batch_size, max_seq_len)
    order = rng.permutation(len(split)) if rng is not None else np.arange(len(split))
    return _batches(split, order, batch_size, max_seq_len)


def length_sorted_batches(split: Split, batch_size: int,
                          max_seq_len: int) -> tuple[np.ndarray, Iterator[Batch]]:
    """Batches in stable history-length order, each cut to its longest history.

    Returns (order, batches): the rows of the batches, concatenated, are
    split rows order[0], order[1], ... When every history has the same
    length, the order is the identity and every batch is that wide. The
    sort key is the lengths in the narrowest unsigned type that holds the
    longest; numpy's stable sort of a uint8 or uint16 key is a radix sort,
    and gives the same order as the int64 sort.
    """
    longest = _check_batching(split, batch_size, max_seq_len)
    order = np.argsort(split.lengths.astype(np.min_scalar_type(longest)), kind="stable")
    return order, _batches(split, order, batch_size, None)
