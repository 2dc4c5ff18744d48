import dataclasses

import pytest

from qin.cli import _resolve, build_parser, main
from qin.config import (ITEM_WIDTH_KEYS, KEYS, GenConfig, HyperParams, TrainConfig, build,
                        resolve_config)
from qin.errors import ConfigError

NAN, INF = float("nan"), float("inf")

# Each bad value exits 2 with a config error from the CLI ("gen-data" or
# "train"), and raises ConfigError from the constructor.
CLI_CASES = {
    "gen_seed_negative": ["gen-data", "--seed", "-1"],
    "train_seed_negative": ["train", "--seed", "-1"],
    "mlp_dims_zero": ["train", "--interaction", "mlp", "--mlp-dims", "0"],
    "mlp_dims_negative": ["train", "--interaction", "mlp", "--mlp-dims", "-3"],
    "temperature_nan": ["gen-data", "--temperature", "nan"],
    "noise_std_nan": ["gen-data", "--noise-std", "nan"],
    "adam_beta1_one": ["train", "--adam-beta1", "1"],
    "adam_beta2_one": ["train", "--adam-beta2", "1"],
    "lr_inf": ["train", "--lr", "inf"],
    "adam_eps_zero": ["train", "--adam-eps", "0", "--qnn-act", "relu"],
    "d_b_not_d_t": ["train", "--d-t", "8", "--d-b", "16"],
}
CONSTRUCTOR_CASES = {
    "attn_dropout_p_one": lambda: HyperParams(vocab=5, attn_dropout=True, attn_dropout_p=1.0),
    "hp_mlp_dims_zero": lambda: HyperParams(vocab=5, interaction="mlp", mlp_dims=(8, 0)),
    "hp_d_a_not_d_t": lambda: HyperParams(vocab=5, d_t=8, d_a=16),
    "train_seed_negative": lambda: TrainConfig(seed=-1),
    "adam_beta1_one": lambda: TrainConfig(adam_beta1=1.0),
    "adam_beta2_one": lambda: TrainConfig(adam_beta2=1.0),
    "lr_inf": lambda: TrainConfig(lr=INF),
    "adam_eps_zero": lambda: TrainConfig(adam_eps=0.0),
    "gen_seed_negative": lambda: GenConfig(seed=-1),
    "temperature_nan": lambda: GenConfig(temperature=NAN),
    "noise_std_nan": lambda: GenConfig(noise_std=NAN),
    "quad_strength_inf": lambda: GenConfig(quad_strength=INF),
    "depth_float": lambda: HyperParams(vocab=3, depth=2.5),
    "attn_dropout_str": lambda: HyperParams(vocab=3, attn_dropout="no"),
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
    places = ["--out", str(tmp_path / "out")]
    if command == "train":
        places += ["--data", str(tmp_path / "data")]
    assert main([command, *places, *flags]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# key -> (flag value, the value it parses to); every one differs from the default.
NON_DEFAULT = {
    "d_t": ("12", 12), "d_b": ("12", 12), "d_a": ("12", 12),
    "max_seq_len": ("5", 5), "qnn_depth": ("3", 3), "qnn_m": ("4", 4),
    "dropout_p": ("0.25", 0.25), "attn_kind": ("softmax", "softmax"),
    "attn_dropout": ("yes", True), "attn_dropout_p": ("0.2", 0.2),
    "pooling": ("mean", "mean"), "interaction": ("mlp", "mlp"),
    "mlp_dims": ("9,4", (9, 4)), "qnn_act": ("relu", "relu"),
    "qnn_residual": ("off", False), "qnn_mid_act": ("1", True),
    "lr": ("0.01", 0.01), "emb_weight_decay": ("0.001", 0.001),
    "batch_size": ("17", 17), "epochs": ("4", 4), "patience": ("1", 1),
    "seed": ("11", 11), "adam_beta1": ("0.8", 0.8), "adam_beta2": ("0.99", 0.99),
    "adam_eps": ("1e-7", 1e-7),
    "n_items": ("300", 300), "n_users": ("120", 120), "n_samples": ("900", 900),
    "emb_dim": ("5", 5), "min_seq_len": ("2", 2), "quad_strength": ("2.5", 2.5),
    "linear_strength": ("0.5", 0.5), "noise_std": ("0.3", 0.3),
    "split_frac": ("0.7", 0.7), "temperature": ("0.4", 0.4),
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
    assert set(NON_DEFAULT) == set(KEYS) | set(ITEM_WIDTH_KEYS)
    flags = [arg for key, (raw, _) in NON_DEFAULT.items()
             for arg in (f"--{key.replace('_', '-')}", raw)]
    cfg = resolve_flags(*flags)
    built = {HyperParams: build(HyperParams, cfg, vocab=300, d_frozen=5),
             TrainConfig: build(TrainConfig, cfg), GenConfig: build(GenConfig, cfg)}
    for key, (_, value) in NON_DEFAULT.items():
        if key in ITEM_WIDTH_KEYS:
            # Checked against d_t, then dropped: nothing downstream reads them.
            assert key not in cfg
            continue
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

    # d_t alone sets the one item width; d_b/d_a are only checked against it.
    assert build(HyperParams, resolve_flags("--d-t", "8"), vocab=3).qnn_dim == 16
    assert "d_a" not in resolve_flags("--d-t", "8", "--d-a", "8")
