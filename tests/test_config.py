import ast
import dataclasses
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qin.cli import ABLATION_VARIANTS, GRADCHECK_KEYS, _resolve, build_parser, main
from qin.config import (ATTN_KINDS, INTERACTIONS, KEYS, PRESETS, GenConfig, HyperParams,
                        TrainConfig, build, read_config_file, resolve_config)
from qin.errors import ConfigError

NAN, INF = float("nan"), float("inf")

# Each bad value exits 2 with a config error from the CLI ("gen-data" or
# "train"), and raises ConfigError from the constructor. Adam's beta1, beta2
# and eps are constants in train.py, and attention dropout is gone, so none
# is a key: a config file line or a resolved config that sets one names an
# unknown key (their retired flags are in test_retired_keys_exit_2). A
# "--config" case gives the file's line.
CLI_CASES = {
    "gen_seed_negative": ["gen-data", "--seed", "-1"],
    "train_seed_negative": ["train", "--seed", "-1"],
    "mlp_dims_zero": ["train", "--interaction", "mlp", "--mlp-dims", "0"],
    "mlp_dims_negative": ["train", "--interaction", "mlp", "--mlp-dims", "-3"],
    "split_frac_nan": ["gen-data", "--split-frac", "nan"],
    "adam_beta1_one": ["train", "--config", "adam_beta1=1"],
    "adam_beta2_one": ["train", "--config", "adam_beta2=1"],
    "lr_inf": ["train", "--lr", "inf"],
    "adam_eps_zero": ["train", "--attn-kind", "softmax", "--config", "adam_eps=0"],
}
CONSTRUCTOR_CASES = {
    "attn_dropout_p_one": lambda: resolve_config(file_values={"attn_dropout_p": 1.0}),
    "hp_mlp_dims_zero": lambda: HyperParams(vocab=5, interaction="mlp", mlp_dims=(8, 0)),
    "hp_d_a_not_d_t": lambda: HyperParams(vocab=5, d_t=8, d_a=16),
    "train_seed_negative": lambda: TrainConfig(seed=-1),
    "adam_beta1_one": lambda: resolve_config(file_values={"adam_beta1": 1.0}),
    "adam_beta2_one": lambda: resolve_config(file_values={"adam_beta2": 1.0}),
    "lr_inf": lambda: TrainConfig(lr=INF),
    "adam_eps_zero": lambda: resolve_config(flag_values={"adam_eps": 0.0}),
    "gen_seed_negative": lambda: GenConfig(seed=-1),
    "split_frac_nan": lambda: GenConfig(split_frac=NAN),
    "depth_float": lambda: HyperParams(vocab=3, depth=2.5),
    "attn_dropout_p_str": lambda: resolve_config(flag_values={"attn_dropout_p": "0.1"}),
    "batch_size_float": lambda: TrainConfig(batch_size=2.5),
    "epochs_str": lambda: TrainConfig(epochs="3"),
    "lr_str": lambda: TrainConfig(lr="0.1"),
}


@pytest.mark.parametrize("case", [f"cli-{k}" for k in CLI_CASES]
                         + [f"ctor-{k}" for k in CONSTRUCTOR_CASES])
def test_bad_values_raise_config_error(case, tmp_path, capsys):
    kind, name = case.split("-", 1)
    if kind == "ctor":
        with pytest.raises(ConfigError):
            CONSTRUCTOR_CASES[name]()
        return
    command, *flags = CLI_CASES[name]
    if "--config" in flags:
        at = flags.index("--config") + 1
        (tmp_path / "case.cfg").write_text(flags[at] + "\n")
        flags[at] = str(tmp_path / "case.cfg")
    places = ["--out", str(tmp_path / "out")]
    if command == "train":
        places += ["--data", str(tmp_path / "data")]
    assert main([command, *places, *flags]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# key -> (flag value, the value it parses to); every one differs from the default.
NON_DEFAULT = {
    "d_t": ("12", 12),
    "max_seq_len": ("5", 5), "qnn_depth": ("3", 3), "qnn_m": ("4", 4),
    "dropout_p": ("0.25", 0.25), "attn_kind": ("softmax", "softmax"),
    "interaction": ("mlp", "mlp"),
    "mlp_dims": ("9,4", (9, 4)),
    "lr": ("0.01", 0.01), "emb_weight_decay": ("0.001", 0.001),
    "batch_size": ("17", 17), "epochs": ("4", 4), "patience": ("1", 1),
    "seed": ("11", 11),
    "n_items": ("300", 300), "n_users": ("120", 120), "n_samples": ("900", 900),
    "emb_dim": ("5", 5), "min_seq_len": ("2", 2), "split_frac": ("0.7", 0.7),
}
# Keys whose field has another name, or that feed two configs.
FEEDS = {
    "max_seq_len": [(HyperParams, "seq_len"), (GenConfig, "max_seq_len")],
    "qnn_depth": [(HyperParams, "depth")],
    "qnn_m": [(HyperParams, "m")],
    "seed": [(TrainConfig, "seed"), (GenConfig, "seed")],
}


def defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)}


def resolve_flags(*flags) -> dict:
    return _resolve(build_parser().parse_args(["gen-data", "--out", "unused", *flags]))


def test_every_key_reaches_its_config_fields():
    assert set(NON_DEFAULT) == set(KEYS)
    flags = [arg for key, (raw, _) in NON_DEFAULT.items()
             for arg in (f"--{key.replace('_', '-')}", raw)]
    cfg = resolve_flags(*flags)
    built = {HyperParams: build(HyperParams, cfg, vocab=300, d_frozen=5),
             TrainConfig: build(TrainConfig, cfg), GenConfig: build(GenConfig, cfg)}
    for key, (_, value) in NON_DEFAULT.items():
        targets = FEEDS.get(key) or [(cls, key) for cls in built if key in defaults(cls)]
        assert len(targets) == 1 or key in FEEDS, key
        for cls, name in targets:
            assert getattr(built[cls], name) == value, (key, cls.__name__, name)
            assert defaults(cls)[name] != value, (key, cls.__name__, name)

    # The shared keys have one default, whichever config reads them.
    resolved = resolve_config()
    assert defaults(HyperParams)["seq_len"] == defaults(GenConfig)["max_seq_len"] \
        == resolved["max_seq_len"]
    assert defaults(TrainConfig)["seed"] == defaults(GenConfig)["seed"] == resolved["seed"]

    # min_seq_len left at its default follows max_seq_len; 0 is out of range.
    assert build(GenConfig, resolve_flags("--max-seq-len", "12")).min_seq_len == 12
    assert GenConfig(max_seq_len=9).min_seq_len == 9
    with pytest.raises(ConfigError):
        GenConfig(min_seq_len=0)

    # d_t alone sets the one item width.
    assert build(HyperParams, resolve_flags("--d-t", "8"), vocab=3).qnn_dim == 16


# Keys that no preset, ablation variant or benchmark set: d_b and d_a had to
# equal d_t, attn_dropout repeated attn_dropout_p = 0, and the QNN residual
# and mid-activation switches selected layer forms the model never runs.
# pooling=mean is attn_kind=mean, the attention block with mean weights.
# Adam's beta1, beta2 and eps are constants in train.py. Attention dropout
# (attn_dropout_p) and the plain-ReLU QNN activation (qnn_act=relu) are
# gone: neither is one of the paper's ablations, and PReLU is the one QNN
# activation. The generator's click model is fixed (datagen.py's constants):
# only unit tests ever set its temperature, strengths or noise, and the
# linear strength was always 0.
RETIRED_KEYS = ("d_b", "d_a", "attn_dropout", "qnn_residual", "qnn_mid_act", "pooling",
                "adam_beta1", "adam_beta2", "adam_eps", "attn_dropout_p", "qnn_act",
                "quad_strength", "linear_strength", "noise_std", "temperature")


@pytest.mark.parametrize("key", RETIRED_KEYS)
def test_retired_keys_exit_2(key, tmp_path, capsys):
    out = str(tmp_path / "out")
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--out", out, f"--{key.replace('_', '-')}", "16"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

    cfg_file = tmp_path / "retired.cfg"
    cfg_file.write_text(f"{key}=16\n")
    assert main(["gen-data", "--out", out, "--config", str(cfg_file)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Squared ReLU and SiLU, attention kinds that no preset, ablation variant
# or benchmark ran, are gone: naming one is a config error, by flag or in
# a config file.
@pytest.mark.parametrize("kind", ["relu2", "silu"])
@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_retired_attn_kinds_exit_2(command, kind, tmp_path, capsys):
    places = ["--out", str(tmp_path / "out")]
    if command == "train":
        places += ["--data", str(tmp_path / "data")]
    assert main([command, *places, "--attn-kind", kind]) == 2
    assert capsys.readouterr().err.startswith("config error:")

    cfg_file = tmp_path / "retired.cfg"
    cfg_file.write_text(f"attn_kind={kind}\n")
    assert main([command, *places, "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


# Every choice of a model key is the HyperParams default or the value an
# ablation variant sets, so no choice stays that nothing runs.
def test_every_model_choice_is_the_default_or_an_ablation_variant():
    choices = {f.metadata["key"] or f.name: f for f in dataclasses.fields(HyperParams)
               if isinstance(f.metadata.get("rule"), tuple)}
    assert {key: f.metadata["rule"] for key, f in choices.items()} == {
        "attn_kind": ATTN_KINDS, "interaction": INTERACTIONS}
    for key, f in choices.items():
        run = {f.default} | {v[key] for _, v in ABLATION_VARIANTS if key in v}
        assert set(f.metadata["rule"]) == run, key


# Every key is set by a preset, an ablation variant, gradcheck, the
# acceptance suite or a benchmark workload; a key that only unit tests set
# tunes nothing anyone runs. The acceptance suite and the benchmark are
# read as source, not imported.
def test_every_key_is_set_outside_the_unit_tests():
    root = Path(__file__).resolve().parent.parent
    key_of = {f.name: key for key, f in KEYS.items()} | {key: key for key in KEYS}
    configs = {cls.__name__ for cls in (GenConfig, HyperParams, TrainConfig)}
    acceptance = ast.parse((root / "tests" / "test_acceptance.py").read_text())
    bench = ast.parse((root / "qinbench" / "run.py").read_text())
    names = {kw.arg for node in ast.walk(acceptance) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) in configs for kw in node.keywords}
    names |= {kw.arg for node in ast.walk(bench) if isinstance(node, ast.Call)
              for kw in node.keywords}
    names |= {k.value for node in ast.walk(bench) if isinstance(node, ast.Dict)
              for k in node.keys if isinstance(k, ast.Constant)}
    set_by = ({key_of[name] for name in names if name in key_of}
              | {key for preset in PRESETS.values() for key in preset}
              | {key for _, overrides in ABLATION_VARIANTS for key in overrides}
              | set(GRADCHECK_KEYS))
    unset = sorted(set(KEYS) - set_by)
    assert not unset, f"keys that only unit tests set: {unset}"


def test_config_file_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(b"# fine\nd_t=1\xff6\n")
    assert main(["gen-data", "--out", str(tmp_path / "out"), "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"{cfg_file}:2:" in err and "UTF-8" in err
    assert not (tmp_path / "out").exists()


# Values a config file might hold that its parsers could mishandle:
# non-finite and overflowing floats, digit separators, non-ASCII digits,
# empty values and comma lists.
HOSTILE_VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "1e999", "-1e999", "1e-400", "1_0", "_1",
                     "0x10", "", " ", ",", "1,", ",2", "1,,2", "3, 0", "-1", "0", "2.5",
                     "relu", "mean", "mlp", "\u0663", "\uff11\uff12", "\u00b2"]),
    st.text(st.characters(categories=["Nd"]), min_size=1, max_size=4),
    st.lists(st.integers(-2, 300).map(str), max_size=4).map(",".join),
    st.floats().map(repr),
    st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\n\r"),
            max_size=6),
)


@settings(deadline=None, max_examples=200)
@given(lines=st.lists(st.tuples(st.sampled_from(sorted(KEYS) + list(RETIRED_KEYS)),
                                HOSTILE_VALUES), max_size=6),
       preset=st.sampled_from([None, *PRESETS]))
def test_config_file_fuzz_builds_or_raises_config_error(lines, preset):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key}={value}\n" for key, value in lines)
        try:
            cfg = resolve_config(preset, read_config_file(path))
            build(HyperParams, cfg, vocab=1, d_frozen=0)
            build(TrainConfig, cfg)
            build(GenConfig, cfg)
        except ConfigError:
            return
    assert all(math.isfinite(v) for v in cfg.values() if isinstance(v, float)), cfg
