"""Experiment configuration: a documented ``key = value`` text format.

Unknown keys are rejected. Lists are comma separated, booleans are
``true``/``false``, and ``#`` starts a comment. The canonical serialization
(sorted keys, one per line) is what the config hash is computed over, so two
configs with the same settings hash identically regardless of formatting.

Keys (defaults in parentheses):

    task                 classification | segmentation | denoising
    features             ff | meshcnn5 | xyz | xyz-inv | laplacian  (ff)
    channel_mask         comma list of 0/1 over the feature channels (all 1)
    output_features      ff | xyz, denoising target kind (ff)
    pooling              enhanced | legacy  (enhanced)
    conv_channels        comma list of conv widths, each 1..MAX_WIDTH  (16,32)
    pool_targets         comma list of edge targets, strictly decreasing
    epochs               (100)
    batch_size           gradient-accumulation group size (8)
    optimizer            adam | sgd  (adam)
    learning_rate        positive (2e-4), decayed x0.1 at 75% of epochs
    momentum             SGD momentum in [0, 1) (0.9)
    noise_variance       vertex noise for denoising pairs (0.1)
    augment_rotation     random training rotations (false)
    augment_jitter       training vertex jitter sigma (0.0)
    seed                 non-negative (0)

Every float is finite.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

from .errors import ConfigError
from .features import KIND_CHANNELS, KIND_TOKENS, OUTPUT_TOKENS
from .optim import METHODS
from .pooling import ENHANCED, POLICIES

CLASSIFICATION = "classification"
SEGMENTATION = "segmentation"
DENOISING = "denoising"

# 32x the widest stage the benchmark trains; a decoder conv this wide holds 5 x 4096^2 weights.
MAX_WIDTH = 4096


@dataclass
class ExperimentConfig:
    task: str = CLASSIFICATION
    features: str = "ff"
    channel_mask: tuple = ()
    output_features: str = "ff"
    pooling: str = ENHANCED
    conv_channels: tuple = (16, 32)
    pool_targets: tuple = (350, 210)
    epochs: int = 100
    batch_size: int = 8
    optimizer: str = METHODS[0]
    learning_rate: float = 2e-4
    momentum: float = 0.9
    noise_variance: float = 0.1
    augment_rotation: bool = False
    augment_jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for key, kind in _KEY_TYPES.items():
            value = getattr(self, key)
            if not _has_type(value, kind):
                raise ConfigError(f"bad value {value!r} for key {key!r}")
            if kind is tuple:
                setattr(self, key, tuple(map(int, value)))
        if self.task not in (CLASSIFICATION, SEGMENTATION, DENOISING):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.features not in KIND_TOKENS:
            raise ConfigError(f"unknown feature kind {self.features!r}")
        if self.output_features not in OUTPUT_TOKENS:
            raise ConfigError(
                f"output_features must be {' or '.join(OUTPUT_TOKENS)}, "
                f"got {self.output_features!r}"
            )
        if self.pooling not in POLICIES:
            raise ConfigError(f"pooling must be one of {', '.join(POLICIES)}")
        if any(not 1 <= c <= MAX_WIDTH for c in self.conv_channels):
            raise ConfigError(f"conv_channels must be in 1..{MAX_WIDTH}, got {self.conv_channels}")
        if len(self.conv_channels) != len(self.pool_targets):
            raise ConfigError("conv_channels and pool_targets lengths must match")
        if not self.conv_channels:
            raise ConfigError("at least one conv stage is required")
        if any(t <= 0 for t in self.pool_targets) or any(
            a <= b for a, b in zip(self.pool_targets, self.pool_targets[1:])
        ):
            raise ConfigError("pool_targets must be positive and strictly decreasing")
        if self.channel_mask:
            kind = KIND_TOKENS[self.features]
            if len(self.channel_mask) != KIND_CHANNELS[kind]:
                raise ConfigError(
                    f"channel_mask length must be {KIND_CHANNELS[kind]} for "
                    f"{self.features}"
                )
            if not set(self.channel_mask) <= {0, 1} or not any(self.channel_mask):
                raise ConfigError(f"channel_mask must be 0/1 with a 1, got {self.channel_mask}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.optimizer not in METHODS:
            raise ConfigError(f"optimizer must be {' or '.join(METHODS)}")
        for key, in_range, rule in (
            ("learning_rate", self.learning_rate > 0.0, "positive"),
            ("momentum", 0.0 <= self.momentum < 1.0, "in [0, 1)"),
            ("noise_variance", self.noise_variance >= 0.0, "non-negative"),
            ("augment_jitter", self.augment_jitter >= 0.0, "non-negative"),
        ):
            value = getattr(self, key)
            if not (in_range and math.isfinite(value)):
                raise ConfigError(f"{key} must be finite and {rule}, got {value!r}")
        check_seed(self.seed, "seed")

    @property
    def feature_kind(self):
        return KIND_TOKENS[self.features]

    @property
    def output_kind(self):
        return KIND_TOKENS[self.output_features]

    def input_channels(self):
        if self.channel_mask:
            return int(sum(self.channel_mask))
        return KIND_CHANNELS[self.feature_kind]


def check_seed(seed, name):
    """ConfigError unless ``seed`` is non-negative, as numpy's seeding requires."""
    if seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer, got {seed}")


# key -> type of its default: bool, int, float, str, or tuple (of ints)
_KEY_TYPES = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def _has_type(value, kind):
    """Whether ``value`` fits a field of ``kind``: int takes an integral number, float
    a real one (a bool is neither), tuple a list or tuple of ints, bool and str their own."""
    if kind is tuple:
        return isinstance(value, (list, tuple)) and all(_has_type(v, int) for v in value)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, {int: Integral, float: Real}.get(kind, kind))


def parse_config(text: str, overrides=None) -> ExperimentConfig:
    """Parse the key = value format; ``overrides`` win over file values."""
    values = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_number}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {line_number}: unknown key {key!r}")
        values[key] = value
    if overrides:
        for key, value in overrides.items():
            if key not in _KEY_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            if value is not None:
                values[key] = str(value)
    kwargs = {}
    for key, value in values.items():
        kind = _KEY_TYPES[key]
        try:
            if kind is bool:
                if value.lower() not in ("true", "false"):
                    raise ValueError(value)
                kwargs[key] = value.lower() == "true"
            elif kind is tuple:
                kwargs[key] = tuple(
                    int(v.strip()) for v in value.split(",") if v.strip()
                )
            else:
                kwargs[key] = kind(value)
        except ValueError:
            raise ConfigError(f"bad value {value!r} for key {key!r}")
    return ExperimentConfig(**kwargs)


def format_config(config: ExperimentConfig) -> str:
    """Canonical serialization: sorted keys, one per line."""
    lines = []
    for key, kind in sorted(_KEY_TYPES.items()):
        value = getattr(config, key)
        if kind is tuple:
            value = ",".join(str(v) for v in value)
        elif kind is bool:
            value = "true" if value else "false"
        elif kind is float:
            value = repr(float(value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(format_config(config).encode("utf-8")).hexdigest()[:12]
