"""Run configuration: the typed configs are the schema.

HyperParams, TrainConfig and GenConfig are the one statement of every
config key. Each key is a field that gives the key's default, its parser
for text values and its range rule; field metadata names the key where it
differs from the field (``max_seq_len`` -> HyperParams.seq_len,
``qnn_depth`` -> depth, ``qnn_m`` -> m). ``seed`` and ``max_seq_len`` feed
a field in two configs and have one default each. A config checks its
values when it is built, so a bad value raises ConfigError whether it comes
from the CLI, a config file or a direct constructor call. Every float must
be finite.

A run is configured by a flat key=value namespace. Resolution order is
defaults < preset < config file < command-line flags; unknown keys are
rejected, and ``resolve_config`` validates the result by building the three
configs. Targets and behaviors share one item vector and the attention
residual adds the target back, so d_t is the only item width and the only
width key. ``attn_kind`` is the attention weight rule; ``mean`` is the
"w/o ASTA" ablation, fixed mean weights over the live history. Dropout
applies to the QNN branches alone. Adam's beta1, beta2 and eps are not keys
but constants in train.py.
``desk`` is the default preset (small dims, minutes on one CPU); ``paper``
pins the reference hyperparameters (lr 2e-3, embedding weight decay 2e-4,
batch 8192, dim 128, depth = capacity = 4, dropout 0.1).
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import InitVar, dataclass, field, fields

from .errors import ConfigError

ATTN_KINDS = ("relu", "softmax", "mean")
INTERACTIONS = ("qnn", "mlp")
QNN_ACTS = ("prelu", "relu")

# Range rules a field names in its metadata.
RULES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "> 0": lambda v: v > 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in (0, 1)": lambda v: 0 < v < 1,
}

# Type rule per field kind, the first name in the field's annotation other
# than "tuple": "int | None" is an int, "tuple[int, ...]" holds ints. A
# str field has a tuple of choices as its range rule.
KINDS = {
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
}


def _parse_int_list(s: str) -> list[int]:
    s = s.strip()
    if not s:
        return []
    return [int(tok) for tok in s.replace(",", " ").split()]


def _field(default, parse=None, rule=None, key=None):
    """A checked field; with a parser it is also a config key.

    rule is a RULES name or a tuple of allowed values, and applies to each
    entry of a tuple value. key names the config key when it is not the
    field name.
    """
    return field(default=default, metadata={"parse": parse, "rule": rule, "key": key})


# A key that feeds a field in two configs gets its default and rule from one
# factory (a dataclass field object cannot be shared between classes).
def _seed():
    return _field(7, int, ">= 0")


def _max_seq_len(key=None):
    return _field(32, int, ">= 1", key=key)


def _key(f) -> str:
    return f.metadata["key"] or f.name


def _check(cfg) -> None:
    """Apply each field's type rule, then its range rule; floats must be finite."""
    for f in fields(cfg):
        rule = f.metadata["rule"]
        kind = next(name for name in re.findall(r"\w+", f.type) if name != "tuple")
        value = getattr(cfg, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if kind in KINDS and not KINDS[kind](v):
                raise ConfigError(f"{_key(f)} must be of type {kind}, got {v!r}")
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{_key(f)} must be finite, got {v!r}")
            if isinstance(rule, tuple) and v not in rule:
                raise ConfigError(f"{_key(f)} must be one of {rule}, got {v!r}")
            if isinstance(rule, str) and not RULES[rule](v):
                raise ConfigError(f"{_key(f)} must be {rule}, got {v!r}")


def check_item_width(d_t: int, **widths) -> None:
    """Each width given (not None) must equal d_t, the one item width."""
    for name, width in widths.items():
        if width is not None and width != d_t:
            raise ConfigError(
                f"{name} must equal d_t (targets and behaviors share one item vector, and "
                f"the attention residual adds the target back), got {name}={width} d_t={d_t}")


@dataclass(frozen=True)
class HyperParams:
    """Model dimensions and architectural switches.

    d_t is the width of every item vector, target and behavior alike, and
    of the attention output that the residual adds the target onto; the
    d_b and d_a arguments, which are not config keys, are accepted only
    when equal to it. attn_kind picks the attention weight rule, mean
    pooling (attn_kind mean) included.
    d_frozen is the width of the frozen pretrained part of each item
    vector; the trainable id-embedding supplies the remaining d_t -
    d_frozen coordinates. vocab and d_frozen come from the embedding store,
    not from the config. The interaction input width is 2 * d_t (target
    concat interest). m, the paper's QNN head count, is an init-scale and
    learning-rate multiplier: each layer stores the sum of its m heads as
    one matrix, initialised as the sum of m draws and trained at m times
    the learning rate.
    """

    d_t: int = _field(16, int, ">= 1")
    d_b: InitVar[int | None] = None
    d_a: InitVar[int | None] = None
    seq_len: int = _max_seq_len(key="max_seq_len")
    depth: int = _field(2, int, ">= 1", key="qnn_depth")
    m: int = _field(2, int, ">= 1", key="qnn_m")
    dropout_p: float = _field(0.1, float, "in [0, 1)")
    attn_kind: str = _field("relu", str, ATTN_KINDS)
    interaction: str = _field("qnn", str, INTERACTIONS)
    mlp_dims: tuple[int, ...] = _field((64, 32), _parse_int_list, ">= 1")
    qnn_act: str = _field("prelu", str, QNN_ACTS)
    vocab: int = _field(0, rule=">= 1")
    d_frozen: int = _field(0, rule=">= 0")

    def __post_init__(self, d_b, d_a):
        object.__setattr__(self, "mlp_dims", tuple(self.mlp_dims))
        _check(self)
        check_item_width(self.d_t, d_b=d_b, d_a=d_a)
        if self.d_frozen >= self.d_t:
            raise ConfigError(
                f"d_frozen must be < d_t, got {self.d_frozen} vs d_t={self.d_t}")
        if self.interaction == "mlp" and not self.mlp_dims:
            raise ConfigError("mlp_dims must be non-empty when interaction=mlp")

    @property
    def qnn_dim(self) -> int:
        """Interaction input width: target embedding concat interest vector."""
        return 2 * self.d_t

    @property
    def d_id(self) -> int:
        """Trainable id-embedding width."""
        return self.d_t - self.d_frozen

    @property
    def out_dim(self) -> int:
        """Width of the vector fed to the prediction head."""
        return self.qnn_dim if self.interaction == "qnn" else self.mlp_dims[-1]


@dataclass(frozen=True)
class TrainConfig:
    lr: float = _field(4e-3, float, "> 0")
    emb_weight_decay: float = _field(2e-4, float, ">= 0")
    batch_size: int = _field(256, int, ">= 1")
    epochs: int = _field(10, int, ">= 0")
    patience: int = _field(3, int, ">= 0")
    seed: int = _seed()

    def __post_init__(self):
        _check(self)


@dataclass(frozen=True)
class GenConfig:
    """Synthetic dataset knobs; the click model is quadratic by default.

    min_seq_len left at None follows max_seq_len (fixed-length histories).
    """

    n_items: int = _field(1000, int, ">= 1")
    n_users: int = _field(2000, int, ">= 1")
    n_samples: int = _field(50_000, int, ">= 1")
    emb_dim: int = _field(6, int, ">= 1")
    max_seq_len: int = _max_seq_len()
    min_seq_len: int | None = _field(None, int, ">= 1")
    quad_strength: float = _field(4.0, float)
    linear_strength: float = _field(0.0, float)
    noise_std: float = _field(0.1, float, ">= 0")
    seed: int = _seed()
    split_frac: float = _field(0.8, float, "in (0, 1)")
    temperature: float = _field(0.1, float, "> 0")

    def __post_init__(self):
        if self.min_seq_len is None:
            object.__setattr__(self, "min_seq_len", self.max_seq_len)
        _check(self)
        if self.min_seq_len > self.max_seq_len:
            raise ConfigError(
                f"min_seq_len must be <= max_seq_len, got {self.min_seq_len} > {self.max_seq_len}")
        if self.n_items < self.max_seq_len:
            raise ConfigError("n_items must be >= max_seq_len "
                              "(sequences sample items without replacement)")


def _key_fields(cls) -> list:
    return [f for f in fields(cls) if f.metadata["parse"] is not None]


def _schema() -> dict:
    """key -> the field behind it; a key that feeds two configs maps to the first."""
    keys = {}
    for cls in (HyperParams, TrainConfig, GenConfig):
        for f in _key_fields(cls):
            keys.setdefault(_key(f), f)
    return keys


KEYS = _schema()

PRESETS: dict[str, dict] = {
    "desk": {},
    "paper": {
        "lr": 2e-3,
        "emb_weight_decay": 2e-4,
        "batch_size": 8192,
        "d_t": 128,
        "qnn_depth": 4,
        "qnn_m": 4,
        "dropout_p": 0.1,
        "mlp_dims": [1024, 512, 256],
    },
}


def build(cls, cfg: dict, **extra):
    """A typed config from a resolved one: each key field of cls takes cfg[key]."""
    values = {f.name: cfg[_key(f)] for f in _key_fields(cls) if _key(f) in cfg}
    return cls(**values, **extra)


def parse_value(key: str, raw: str):
    if key not in KEYS:
        raise ConfigError(f"unknown config key: {key!r}")
    parser = KEYS[key].metadata["parse"]
    try:
        return parser(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def read_config_file(path: str) -> dict:
    """Parse a UTF-8 key=value file; '#' starts a comment, blank lines ignored."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, blob in enumerate(data.splitlines(), start=1):
        try:
            line = blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}:{lineno}: not UTF-8 ({exc.reason} at byte "
                              f"{exc.start})") from None
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        out[key.strip()] = parse_value(key.strip(), raw.strip())
    return out


def resolve_config(preset: str | None = None,
                   file_values: dict | None = None,
                   flag_values: dict | None = None) -> dict:
    """Merge defaults < preset < file < flags; building the configs validates it."""
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    cfg = {key: f.default for key, f in KEYS.items()}
    for layer in (PRESETS.get(preset), file_values, flag_values):
        for key, value in (layer or {}).items():
            if key not in KEYS:
                raise ConfigError(f"unknown config key: {key!r}")
            cfg[key] = value
    build(HyperParams, cfg, vocab=1, d_frozen=0)
    build(TrainConfig, cfg)
    build(GenConfig, cfg)
    return cfg
