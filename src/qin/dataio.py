"""Dataset file format, the columnar split, and mini-batching.

A dataset file is line-delimited: an optional leading manifest comment
``# n_samples=<k> positives=<k> seed=<k>`` followed by one JSON record per
line, ``{"target": <id>, "seq": [<ids>], "label": 0|1}``. Ids are validated
against the embedding store on load; malformed lines are reported with
their line number.

In memory a split is a :class:`Split`: four arrays, filled once by the
parser (or by the generator) and held until batching, which gathers each
batch from them by row index. Training batches are ``max_seq_len`` wide
and follow the epoch shuffle. Evaluation batches follow the stable
history-length order and are each cut to their longest history, so
ragged data scores few padded slots; the caller puts the results back in
input order.
"""

from __future__ import annotations

import itertools
import json
import operator
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .config import HyperParams
from .embedding import Batch, Sample, load_embeddings
from .errors import DataError
from .linalg import FLOAT


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


def as_split(samples: Split | list[Sample]) -> Split:
    """A Split as is; a list of Samples converted to columns once."""
    if isinstance(samples, Split):
        return samples
    n = len(samples)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter((len(s.seq_ids) for s in samples), dtype=np.int64, count=n),
              out=offsets[1:])
    return Split(targets=np.fromiter((s.target_id for s in samples), dtype=np.int64, count=n),
                 labels=np.fromiter((s.label for s in samples), dtype=FLOAT, count=n),
                 offsets=offsets,
                 ids=np.fromiter(itertools.chain.from_iterable(s.seq_ids for s in samples),
                                 dtype=np.int64, count=int(offsets[-1])))


def write_dataset(samples: Split | list[Sample], path: str, seed: int) -> str:
    """Write records plus the manifest comment line; returns the manifest.

    Each line is the compact ``json.dumps`` form of its record, formatted
    straight from the columns.
    """
    split = as_split(samples)
    manifest = f"n_samples={len(split)} positives={int(split.labels.sum())} seed={seed}"
    offsets = split.offsets.tolist()
    # One row's ids at a time become Python ints: the whole split's would
    # cost tens of MB.
    seqs = (",".join(map(str, split.ids[offsets[i]:offsets[i + 1]].tolist()))
            for i in range(len(split)))
    with atomic_write(path) as fh:
        fh.write(f"# {manifest}\n")
        fh.writelines(f'{{"target":{target},"seq":[{seq}],"label":{label}}}\n'
                      for target, seq, label in zip(split.targets.tolist(), seqs,
                                                    split.labels.astype(np.int64).tolist()))
    return manifest


def parse_manifest(line: str) -> dict:
    out = {}
    for tok in line.lstrip("#").split():
        if "=" in tok:
            key, val = tok.split("=", 1)
            out[key] = int(val)
    return out


def parse_dataset(path: str, n_items: int, max_seq_len: int) -> tuple[Split, dict | None]:
    """Parse and validate records into a Split; returns (split, manifest dict or None).

    Each line is checked in order (well-formed, label, length, id range),
    so the error names the first bad line and its first problem.
    """
    targets, labels, lengths, ids = array("q"), array("q"), array("q"), array("q")
    manifest = None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open dataset {path}: {exc}") from exc
    with fh:
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
    return Split(targets=np.frombuffer(targets, dtype=np.int64),
                 labels=np.frombuffer(labels, dtype=np.int64).astype(FLOAT),
                 offsets=offsets, ids=np.frombuffer(ids, dtype=np.int64)), manifest


def read_dataset(path: str, n_items: int, max_seq_len: int):
    """Parse and validate records; returns (samples, manifest dict or None)."""
    split, manifest = parse_dataset(path, n_items, max_seq_len)
    return list(split), manifest


def load_dataset(path: str, embedding_path: str, hp: HyperParams):
    """Load one split, as a Split, plus its embedding store, cross-validated."""
    store = load_embeddings(embedding_path)
    split, manifest = parse_dataset(path, store.count, hp.seq_len)
    return split, store, manifest


def _check_batching(split: Split, batch_size: int, max_seq_len: int) -> None:
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    longest = int(split.lengths.max(initial=0))
    if longest > max_seq_len:
        raise DataError(f"sequence length {longest} exceeds limit {max_seq_len}")


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
    return Batch(target_ids=split.targets[rows], seq_ids=seq_ids, mask=live.astype(FLOAT),
                 labels=split.labels[rows])


def _batches(split: Split, order: np.ndarray, batch_size: int,
             width: int | None) -> Iterator[Batch]:
    for at in range(0, len(order), batch_size):
        yield _gather(split, order[at:at + batch_size], width)


def build_batch(samples: Split | list[Sample], max_seq_len: int) -> Batch:
    """Pack samples (a Split or a list of Samples) into one max_seq_len-wide Batch."""
    split = as_split(samples)
    _check_batching(split, 1, max_seq_len)
    return _gather(split, np.arange(len(split)), max_seq_len)


def make_batches(samples: Split | list[Sample], batch_size: int, max_seq_len: int,
                 rng: np.random.Generator | None = None) -> Iterator[Batch]:
    """Optionally shuffled max_seq_len-wide batches; the final partial batch is kept.

    samples is a Split or a list of Samples (converted once). Each batch is
    gathered from the columns only when the returned iterator reaches it.
    """
    split = as_split(samples)
    _check_batching(split, batch_size, max_seq_len)
    order = rng.permutation(len(split)) if rng is not None else np.arange(len(split))
    return _batches(split, order, batch_size, max_seq_len)


def length_sorted_batches(samples: Split | list[Sample], batch_size: int,
                          max_seq_len: int) -> tuple[np.ndarray, Iterator[Batch]]:
    """Batches in stable history-length order, each cut to its longest history.

    Returns (order, batches): the rows of the batches, concatenated, are
    split rows order[0], order[1], ... When every history has the same
    length, the order is the identity and every batch is that wide.
    """
    split = as_split(samples)
    _check_batching(split, batch_size, max_seq_len)
    order = np.argsort(split.lengths, kind="stable")
    return order, _batches(split, order, batch_size, None)
