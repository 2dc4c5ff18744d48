"""Command-line interface: gen-data, train, eval, inspect, gradcheck, ablate.

stdout carries machine-parseable results only; diagnostics go to stderr.
Exit codes: 0 success, 1 gradcheck failure, 2 config/usage error,
3 I/O or file-format error, 4 single-class data.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys

import numpy as np

from . import datagen
from .config import (KEYS, PRESETS, GenConfig, HyperParams, TrainConfig,
                     build, parse_value, read_config_file, resolve_config)
from .dataio import load_dataset
from .errors import (CheckpointError, ConfigError, DataError, QinError,
                     SingleClassError)
from .gradcheck import gradcheck_hyperparams, run_model_gradcheck
from .linalg import make_rng
from .params import init_params, load_checkpoint, save_checkpoint
from .train import evaluate, train, write_history

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SINGLE_CLASS = 4

ABLATION_VARIANTS = [
    ("qin_full", {}),
    ("qin_wo_qnn_mlp", {"interaction": "mlp"}),
    ("qin_wo_asta_mean", {"attn_kind": "mean"}),
    ("asta_softmax", {"attn_kind": "softmax"}),
    ("qnn_relu_act", {"qnn_act": "relu"}),
]

# The config keys gradcheck reads besides seed; its instance's dims are fixed.
GRADCHECK_KEYS = ("attn_kind", "interaction", "dropout_p", "qnn_act")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    # Whole flags only: a prefix such as --dropout must not pass for
    # --dropout-p.
    parser.allow_abbrev = False
    parser.add_argument("--config", metavar="FILE", help="key=value config file")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named preset")
    group = parser.add_argument_group("config overrides")
    for key in KEYS:
        group.add_argument(f"--{key.replace('_', '-')}", dest=f"cfg_{key}",
                           metavar="V", help=argparse.SUPPRESS)


def _resolve(args) -> dict:
    file_values = read_config_file(args.config) if args.config else None
    flag_values = {}
    for key in KEYS:
        raw = getattr(args, f"cfg_{key}", None)
        if raw is not None:
            flag_values[key] = parse_value(key, raw)
    return resolve_config(args.preset, file_values, flag_values)


def _load_split(data_dir: str, split: str, cfg: dict):
    path = f"{data_dir}/{split}.jsonl"
    emb = f"{data_dir}/embeddings.qemb"
    # Sequence-length bound is all load_dataset needs; use a 1-item vocab probe.
    return load_dataset(path, emb, build(HyperParams, cfg, vocab=1, d_frozen=0))


def _check_positive(**flags) -> None:
    for name, value in flags.items():
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"--{name} must be finite and > 0, got {value!r}")


def cmd_gen_data(args) -> int:
    cfg = _resolve(args)
    result = datagen.generate(build(GenConfig, cfg), args.out)
    print(result.manifest)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve(args)
    train_samples, store, _ = _load_split(args.data, "train", cfg)
    valid_samples, _, _ = _load_split(args.data, "valid", cfg)
    hp = build(HyperParams, cfg, vocab=store.count, d_frozen=store.dim)
    tc = build(TrainConfig, cfg)
    params = init_params(hp, make_rng(tc.seed))
    result = train(params, hp, store, train_samples, valid_samples, tc)
    os.makedirs(args.out, exist_ok=True)
    save_checkpoint(result.params, f"{args.out}/best.ckpt")
    write_history(result.history, f"{args.out}/history.log")
    for entry in result.history:
        print(entry.line())
    print(f"best_epoch={result.best_epoch} best_val_auc={result.best_auc:.17g}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    samples, store, _ = _load_split(args.data, args.split, cfg)
    hp = build(HyperParams, cfg, vocab=store.count, d_frozen=store.dim)
    params = load_checkpoint(args.ckpt, hp)
    metrics = evaluate(params, hp, store, samples)
    print(f"auc={metrics['auc']:.17g} logloss={metrics['logloss']:.17g}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    """One line per checkpoint entry, then a total: name, shape, value count, L2 norm."""
    params = load_checkpoint(args.ckpt)
    for name, view in params.views.items():
        shape = ",".join(map(str, view.shape))
        print(f"name={name} shape=({shape}) values={view.size} "
              f"l2={np.linalg.norm(view.ravel()):.17g}")
    print(f"total entries={len(params.views)} values={params.flat.size} "
          f"l2={np.linalg.norm(params.flat):.17g}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    _check_positive(seeds=args.seeds, step=args.step, tol=args.tol)
    cfg = _resolve(args)
    hp = gradcheck_hyperparams(**{key: cfg[key] for key in GRADCHECK_KEYS})
    reports = [report for i in range(args.seeds)
               for report in run_model_gradcheck(cfg["seed"] + i, hp=hp, step=args.step,
                                                 sabotage=args.sabotage, rel_tol=args.tol)]
    ok = True
    for name in sorted({report.name for report in reports}):
        report = max((r for r in reports if r.name == name),
                     key=lambda r: (r.n_checked == 0, r.max_rel_err))
        passed = report.n_checked > 0 and report.max_rel_err < args.tol
        ok = ok and passed
        print(f"{report.line()} status={'ok' if passed else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_ablate(args) -> int:
    _check_positive(seeds=args.seeds)
    cfg = _resolve(args)
    train_samples, store, _ = _load_split(args.data, "train", cfg)
    valid_samples, _, _ = _load_split(args.data, "valid", cfg)
    rows = []
    for name, overrides in ABLATION_VARIANTS:
        variant_cfg = dict(cfg)
        variant_cfg.update(overrides)
        hp = build(HyperParams, variant_cfg, vocab=store.count, d_frozen=store.dim)
        aucs = []
        for i in range(args.seeds):
            tc = build(TrainConfig, {**variant_cfg, "seed": variant_cfg["seed"] + i})
            params = init_params(hp, make_rng(tc.seed))
            result = train(params, hp, store, train_samples, valid_samples, tc)
            aucs.append(result.best_auc)
        rows.append((name, statistics.median(aucs)))
    print("| variant | val_auc |")
    print("|---|---|")
    for name, value in rows:
        print(f"| {name} | {value:.4f} |")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qin",
                                     description="Quadratic interest network CTR toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, metavar="DIR")
    _add_config_flags(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train on a generated dataset")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--ckpt", required=True, metavar="FILE")
    p.add_argument("--split", default="valid", choices=["train", "valid"])
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="print a checkpoint's entries and their norms")
    p.add_argument("ckpt", metavar="CKPT")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("gradcheck", help="certify analytic gradients", description=(
        "Certify every gradient class on small random instances (d_t 16, seq len 8, depth = "
        f"m = 2). Reads the keys seed, {', '.join(GRADCHECK_KEYS)}; only checks the rest."))
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--sabotage", metavar="CLASS", help="flip one class's analytic sign")
    _add_config_flags(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="run the ablation variant grid")
    p.add_argument("--data", required=True, metavar="DIR")
    p.add_argument("--seeds", type=int, default=1)
    _add_config_flags(p)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SingleClassError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_SINGLE_CLASS
    except (DataError, CheckpointError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except QinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
