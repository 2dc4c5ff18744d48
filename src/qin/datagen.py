"""Seeded synthetic CTR dataset with a known quadratic click model.

Construction, all draws from one PCG64 stream:
  * item embeddings e_i and user latents z_u are standard normal vectors
    scaled by 1/sqrt(emb_dim), then rounded through float32 so the values
    in memory match the embedding file bit-exactly;
  * each sample picks a user, draws a history length in
    [min_seq_len, max_seq_len], and samples that many distinct items with
    probability proportional to exp(z_u . e_i / TEMPERATURE) (Gumbel top-k);
  * the interest vector u is the mean of the history embeddings and the
    raw affinity is r = u . e_target for a uniformly random target;
  * r is standardized over the whole dataset to t = (r - mean) / std, and
    the click logit is QUAD_STRENGTH * (t^2 - 1) plus Normal(0, NOISE_STD)
    noise. Centering the quadratic term keeps logits two-sided; without it
    every probability would sit above 1/2 and no scorer could rank well.
  * label ~ Bernoulli(sigmoid(logit)).

Because the label depends on t only through t^2, any scorer linear in the
affinity is blind to it, while the true probabilities (written to the
truth file for the validation split) give the Bayes-optimal reference AUC.

The histories are drawn CHUNK samples at a time. Each chunk forms the
logits of its own users (``_user_logits``), with the bits of their rows
of the (n_users, n_items) table z_u . e_i / TEMPERATURE, which is not
held: it would take 8 * n_users * n_items bytes (15.3 MiB at the
defaults). The first half of the chunks is drawn from the stream itself
and the rest from a copy of the bit generator advanced past the first
half's draws: each float64 key takes exactly one 64-bit output. With
two CPUs usable and at least two chunks, the process's one helper thread
(``qnn.row_helper``) draws the second half while the calling thread
draws the first; otherwise the calling thread draws both in turn. The
noise and labels are then drawn from the copy, which stands where the
one stream would, so every output byte is the same on one CPU as on two.
"""

from __future__ import annotations

import copy
import functools
import os
from dataclasses import dataclass

import numpy as np

from . import qnn
from .atomic import atomic_write
from .config import GenConfig
from .dataio import Split, numbered_lines, read_bytes, write_dataset
from .embedding import save_embeddings
from .errors import ConfigError, DataError
from .linalg import FLOAT, make_rng, segment_sum, sigmoid
from .metrics import auc

# Samples whose histories are drawn in one array. A chunk's keys, logits
# and argpartition indices take 8 * CHUNK * n_items bytes each (1 MiB at
# 1 000 items, about 100 MB at 100 000), and on two CPUs two chunks are in
# flight, so CHUNK sets generate's peak memory. That is no longer a
# benchmark workload's peak RSS: in one qinbench process each, ru_maxrss
# read 62.5 MiB after the first generate and 65.1 at the end on
# desk_train, 49.1 and 67.0 on wide_qnn_train, and 57.0 and 62.3 on
# ragged_score. Paired qinbench runs (4 seeds, 2-core Xeon VM, one BLAS
# thread, the logit table still held) of the two-thread draw at 128 / 192
# / 256 rows against one thread at 512: set-up time 0.61 / 0.64 / 0.60x on
# desk_train, 0.63 / 0.60 / 0.57x on wide_qnn_train and 0.70 / 0.70 /
# 0.75x on ragged_score; peak RSS 0.91 / 0.96 / 1.01x, 0.95 / 0.98 /
# 1.02x and 0.91 / 0.96 / 1.03x. On one CPU, desk-size generate took
# 0.82-0.90 s at 128 rows and 0.91-1.10 s at 512.
CHUNK = 128
TEMPERATURE = 0.1  # histories draw item i with probability ~ exp(z_u . e_i / TEMPERATURE)
QUAD_STRENGTH = 4.0  # click logit: QUAD_STRENGTH * (t^2 - 1) + Normal(0, NOISE_STD)
NOISE_STD = 0.1


@dataclass
class GenResult:
    embedding_path: str
    train_path: str
    valid_path: str
    truth_path: str
    manifest: str


def _f32_round(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float32).astype(FLOAT)


def _user_logits(users, items, user_ids) -> np.ndarray:
    """(len(user_ids), n_items) item logits of the users: the bits of their
    rows of the whole (n_users, n_items) table users @ items.T / TEMPERATURE.

    OpenBLAS 0.3.31 (AVX-512 Xeon) gives a block of 2 or more rows of a
    product the whole product's bits: of blocks of 1-599 rows of
    GenConfig()'s product only the one-row block differed. numpy sends a
    one-row product to gemv, whose last bits differ, so one user is taken
    twice and the first row kept. Of other item counts probed, 999, 1003
    and 1004 gave the last items of some blocks other last bits; gen-data
    at 5 000 samples still wrote the same files with them.
    """
    ids = user_ids if len(user_ids) > 1 else np.repeat(user_ids, 2)
    logits = (users[ids] @ items.T)[:len(user_ids)]
    logits /= TEMPERATURE
    return logits


def _draw_histories(rng, start: int, stop: int, *, items, users, user_ids, target_ids,
                    seq_lens, offsets, seq_ids, raw) -> None:
    """Draw the histories of rows start..stop in CHUNK-row steps from rng,
    filling their slices of seq_ids and raw."""
    n_items = len(items)
    for at in range(start, stop, CHUNK):
        rows = slice(at, min(at + CHUNK, stop))
        take = seq_lens[rows]
        # One (rows, n_items) draw is the same stream as one draw per row;
        # the Gumbel keys are formed in place to hold one array per chunk.
        keys = rng.random((len(take), n_items))
        np.negative(np.log(keys, out=keys), out=keys)
        np.negative(np.log(keys, out=keys), out=keys)
        keys += _user_logits(users, items, user_ids[rows])
        width = int(take.max())
        top = np.argpartition(keys, -width, axis=1)[:, -width:]
        by_key = np.take_along_axis(
            top, np.argsort(-np.take_along_axis(keys, top, axis=1), axis=1), axis=1)
        live = np.arange(width) < take[:, None]
        # Each row's history in ascending id order, then padding.
        picked = np.sort(np.where(live, by_key, n_items), axis=1)
        seq_ids[offsets[at]:offsets[at + len(take)]] = picked[live]
        # Padded slots add exact zeros after the live rows, so the sum runs
        # in the same order as a per-row mean over the sorted history.
        hist = np.where(live[:, :, None], items[np.where(live, picked, 0)], 0.0)
        u = hist.sum(axis=1) / take[:, None]
        raw[rows] = (u[:, None, :] @ items[target_ids[rows]][:, :, None])[:, 0, 0]


def generate(cfg: GenConfig, out_dir: str) -> GenResult:
    """Write embeddings.qemb, train.jsonl, valid.jsonl, truth.txt into out_dir."""
    rng = make_rng(cfg.seed)

    items = _f32_round(rng.standard_normal((cfg.n_items, cfg.emb_dim)) / np.sqrt(cfg.emb_dim))
    users = _f32_round(rng.standard_normal((cfg.n_users, cfg.emb_dim)) / np.sqrt(cfg.emb_dim))

    user_ids = rng.integers(0, cfg.n_users, cfg.n_samples)
    target_ids = rng.integers(0, cfg.n_items, cfg.n_samples)
    seq_lens = rng.integers(cfg.min_seq_len, cfg.max_seq_len + 1, cfg.n_samples)

    offsets = np.zeros(cfg.n_samples + 1, dtype=np.int64)
    np.cumsum(seq_lens, out=offsets[1:])
    seq_ids = np.empty(offsets[-1], dtype=np.int64)
    raw = np.empty(cfg.n_samples, dtype=FLOAT)
    draw = functools.partial(_draw_histories, items=items, users=users,
                             user_ids=user_ids, target_ids=target_ids, seq_lens=seq_lens,
                             offsets=offsets, seq_ids=seq_ids, raw=raw)
    # The second half draws from a copy of the stream moved past the first
    # half's keys; afterwards the copy stands past both, so the rest of
    # generate draws from it (module docstring).
    n_chunks = -(-cfg.n_samples // CHUNK)
    half = min((n_chunks + 1) // 2 * CHUNK, cfg.n_samples)
    bits = copy.deepcopy(rng.bit_generator)
    bits.advance(half * cfg.n_items)
    rest = np.random.Generator(bits)
    qnn.both(qnn.row_helper(n_chunks >= 2), lambda: draw(rng, 0, half),
             lambda: draw(rest, half, cfg.n_samples))
    rng = rest

    # Equal affinities can still have a float std of an ulp's size, so test equality.
    if raw.min() == raw.max():
        raise ConfigError("degenerate generator config: zero variance in item affinity")
    t = (raw - raw.mean()) / raw.std()

    noise = rng.standard_normal(cfg.n_samples) * NOISE_STD
    probs = sigmoid(QUAD_STRENGTH * (t * t - 1.0) + noise)
    labels = (rng.random(cfg.n_samples) < probs).astype(FLOAT)

    split = Split(targets=target_ids, labels=labels, offsets=offsets, ids=seq_ids)
    n_train = int(round(cfg.n_samples * cfg.split_frac))
    n_train = min(max(n_train, 1), cfg.n_samples - 1)

    emb_path = os.path.join(out_dir, "embeddings.qemb")
    train_path = os.path.join(out_dir, "train.jsonl")
    valid_path = os.path.join(out_dir, "valid.jsonl")
    truth_path = os.path.join(out_dir, "truth.txt")

    os.makedirs(out_dir, exist_ok=True)  # only now, so a config error leaves no directory
    save_embeddings(items, emb_path)
    manifest = write_dataset(split[:n_train], train_path, cfg.seed)
    write_dataset(split[n_train:], valid_path, cfg.seed)
    write_truth(probs[n_train:], truth_path, cfg.seed)
    return GenResult(embedding_path=emb_path, train_path=train_path,
                     valid_path=valid_path, truth_path=truth_path, manifest=manifest)


def write_truth(probs: np.ndarray, path: str, seed: int) -> None:
    """Ground-truth click probabilities for the validation split, one per line."""
    with atomic_write(path) as fh:
        fh.write(f"# n_samples={len(probs)} seed={seed}\n")
        fh.writelines(f"{p:.17g}\n" for p in probs)


def read_truth(path: str) -> np.ndarray:
    """The probabilities of a truth file; DataError names a line that is not one in [0, 1]."""
    probs = []
    for lineno, line in numbered_lines(path, read_bytes(path, "truth file")):
        if line.startswith("#"):
            continue
        try:
            p = float(line)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad probability ({exc})") from exc
        if not 0.0 <= p <= 1.0:  # NaN fails this too
            raise DataError(f"{path}:{lineno}: probability {line} is not in [0, 1]")
        probs.append(p)
    return np.asarray(probs, dtype=FLOAT)


def bayes_auc(truth_probs: np.ndarray, labels: np.ndarray) -> float:
    """AUC of scoring by the true click probabilities; the reference ceiling."""
    return auc(truth_probs, labels)


def history_means(split: Split, store_data: np.ndarray) -> np.ndarray:
    """(n, dim) mean of each row's history rows of store_data; zeros for an empty one.

    One segment sum over the flat history ids adds each row's entries in
    history order, so every mean has the bits of
    ``store_data[seq_ids].mean(axis=0)``.
    """
    lengths = split.lengths
    rows = np.repeat(np.arange(len(split)), lengths)
    sums = segment_sum(rows, len(split), (store_data[split.ids], None))
    return sums / np.maximum(lengths, 1)[:, None]


def affinity_features(split: Split, store_data: np.ndarray) -> np.ndarray:
    """Raw affinity u . e_target per sample, from the frozen store."""
    return np.sum(history_means(split, store_data) * store_data[split.targets], axis=1)


def linear_baseline_auc(split: Split, store_data: np.ndarray) -> float:
    """AUC of a logistic regression on the scalar affinity feature.

    Newton iterations on (weight, bias); the affinity is the one scalar a
    linear model can extract, so this is the strongest linear baseline for
    the quadratic click model.
    """
    x = affinity_features(split, store_data)
    y = split.labels
    feats = np.stack([x, np.ones_like(x)], axis=1)
    beta = np.zeros(2, dtype=FLOAT)
    for _ in range(25):
        z = feats @ beta
        p = sigmoid(z)
        g = feats.T @ (p - y)
        w = np.clip(p * (1.0 - p), 1e-9, None)
        hess = feats.T @ (feats * w[:, None]) + 1e-9 * np.eye(2)
        step = np.linalg.solve(hess, g)
        beta -= step
        if np.max(np.abs(step)) < 1e-10:
            break
    return auc(feats @ beta, y.astype(int))
