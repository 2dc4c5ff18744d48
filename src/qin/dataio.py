"""Dataset file format and mini-batching.

A dataset file is line-delimited: an optional leading manifest comment
``# n_samples=<k> positives=<k> seed=<k>`` followed by one JSON record per
line, ``{"target": <id>, "seq": [<ids>], "label": 0|1}``. Ids are validated
against the embedding store on load; malformed lines are reported with
their line number.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator

import numpy as np

from .config import HyperParams
from .embedding import Batch, Sample, load_embeddings
from .errors import DataError
from .linalg import FLOAT


def write_dataset(samples: list[Sample], path: str, seed: int) -> str:
    """Write records plus the manifest comment line; returns the manifest."""
    positives = sum(s.label for s in samples)
    manifest = f"n_samples={len(samples)} positives={positives} seed={seed}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {manifest}\n")
        for s in samples:
            fh.write(json.dumps({"target": s.target_id, "seq": s.seq_ids,
                                 "label": s.label}, separators=(",", ":")) + "\n")
    return manifest


def parse_manifest(line: str) -> dict:
    out = {}
    for tok in line.lstrip("#").split():
        if "=" in tok:
            key, val = tok.split("=", 1)
            out[key] = int(val)
    return out


def read_dataset(path: str, n_items: int, max_seq_len: int):
    """Parse and validate records; returns (samples, manifest dict or None)."""
    samples: list[Sample] = []
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
                seq = [int(v) for v in rec["seq"]]
                label = int(rec["label"])
            except (ValueError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: malformed record ({exc})") from exc
            if label not in (0, 1):
                raise DataError(f"{path}:{lineno}: label must be 0 or 1, got {label}")
            if len(seq) > max_seq_len:
                raise DataError(
                    f"{path}:{lineno}: sequence length {len(seq)} exceeds limit {max_seq_len}")
            for item in (target, *seq):
                if not 0 <= item < n_items:
                    raise DataError(
                        f"{path}:{lineno}: item id {item} out of range [0, {n_items})")
            samples.append(Sample(target_id=target, seq_ids=seq, label=label))
    return samples, manifest


def load_dataset(path: str, embedding_path: str, hp: HyperParams):
    """Load one split plus its embedding store, cross-validated."""
    store = load_embeddings(embedding_path)
    samples, manifest = read_dataset(path, store.count, hp.seq_len)
    return samples, store, manifest


def build_batch(samples: list[Sample], max_seq_len: int) -> Batch:
    """Pack samples into one padded Batch, histories left-aligned."""
    n = len(samples)
    lengths = np.fromiter((len(s.seq_ids) for s in samples), dtype=np.int64, count=n)
    if n and lengths.max() > max_seq_len:
        raise DataError(f"sequence length {int(lengths.max())} exceeds limit {max_seq_len}")
    live = np.arange(max_seq_len) < lengths[:, None]
    seq_ids = np.zeros((n, max_seq_len), dtype=np.int64)
    seq_ids[live] = np.fromiter(itertools.chain.from_iterable(s.seq_ids for s in samples),
                                dtype=np.int64, count=int(lengths.sum()))
    return Batch(target_ids=np.fromiter((s.target_id for s in samples), dtype=np.int64, count=n),
                 seq_ids=seq_ids, mask=live.astype(FLOAT),
                 labels=np.fromiter((s.label for s in samples), dtype=FLOAT, count=n))


def make_batches(samples: list[Sample], batch_size: int, max_seq_len: int,
                 rng: np.random.Generator | None = None) -> Iterator[Batch]:
    """Optionally shuffled batches; the final partial batch is kept.

    The split is packed once, here; each batch is sliced from it only when
    the returned iterator reaches it, so no second copy of the split is
    held.
    """
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    packed = build_batch(samples, max_seq_len)
    order = rng.permutation(len(samples)) if rng is not None else None
    return _slice_batches(packed, batch_size, order)


def _slice_batches(packed: Batch, batch_size: int,
                   order: np.ndarray | None) -> Iterator[Batch]:
    for at in range(0, packed.size, batch_size):
        rows = slice(at, at + batch_size) if order is None else order[at:at + batch_size]
        yield Batch(target_ids=packed.target_ids[rows], seq_ids=packed.seq_ids[rows],
                    mask=packed.mask[rows], labels=packed.labels[rows])
