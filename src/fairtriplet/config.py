"""Experiment configuration: YAML parsing, defaults, canonical hashing.

Each section is a frozen value that checks itself in ``__post_init__``,
from a file or in code, and ``replace``/``with_`` check again: a config
that exists is valid.

Config files are nested key/value YAML. The canonical serialization (sorted
JSON of the fully resolved config) defines two hashes:

* ``config_hash``: the whole experiment; resume requires an exact match.
* ``model_hash``: seed + data + training + sampler sections, and a dynamic
  sampler's validation settings; evaluating a checkpoint requires the model
  hash to match, so other eval settings can change without invalidating
  trained checkpoints.
"""
from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

import yaml

from .core import CONTINENTS, ConfigError, axis_groups
from .datagen import GeneratorConfig
from .model import TrainingConfig
from .sampling import (
    FAR_WEIGHT_EXPONENT,
    SamplerSpec,
    equal_weights,
    preset_weights,
)


@dataclass(frozen=True)
class SamplerConfig:
    variant: str = "natural"
    axis: str = "continent"
    weights: Mapping[str, float] | str | None = None  # map or preset name
    lam: float = FAR_WEIGHT_EXPONENT
    alpha_smooth: float = 0.2

    def resolved_weights(self) -> dict[str, float] | None:
        """The weights the sampler starts from; dynamic ones start equal."""
        if self.variant == "dynamic":
            return equal_weights(axis_groups(self.axis))
        if isinstance(self.weights, str):
            return preset_weights(self.weights, self.axis)
        return dict(self.weights) if self.weights is not None else None

    def __post_init__(self) -> None:
        if self.axis not in ("continent", "country"):
            raise ConfigError(f"sampler.axis must be continent or country, got {self.axis!r}")
        if self.variant in ("natural", "dynamic") and self.weights is not None:
            raise ConfigError(f"sampler.weights has no effect on a {self.variant} sampler")
        if isinstance(self.weights, Mapping):
            unknown = set(self.weights) - set(axis_groups(self.axis))
            if unknown:
                raise ConfigError(f"sampler.weights keys outside the {self.axis} groups: "
                                  f"{sorted(unknown, key=str)}")
        if self.variant == "dynamic" and self.lam <= 0:
            raise ConfigError("sampler.lam must be > 0")
        if self.variant == "dynamic" and not 0.0 < self.alpha_smooth <= 1.0:
            raise ConfigError("sampler.alpha_smooth must be in (0, 1]")
        self.build()  # the spec checks the variant and the weights

    def build(self) -> SamplerSpec:
        return SamplerSpec(variant=self.variant, axis=self.axis, weights=self.resolved_weights())


@dataclass(frozen=True)
class EvalConfig:
    target_far: float = 1e-3
    n_eval_pairs: int = 2000          # natural-composition pool for calibration
    group_pool_size: int = 300        # per-group pool for FAR matrices
    matrix_axis: str = "continent"
    roc_points: int = 50
    n_roc_splits: int = 1
    split_fraction: float = 0.5
    validation_every: int = 200       # training rounds between validations
    far_floor: float | None = None    # default: 1 / pool impostor comparisons

    def __post_init__(self) -> None:
        if not 0 < self.target_far <= 1:
            raise ConfigError("target_far must be in (0, 1]")
        if min(self.n_eval_pairs, self.group_pool_size, self.roc_points,
               self.n_roc_splits, self.validation_every) < 1:
            raise ConfigError("eval sizes must be positive")
        if self.group_pool_size < 2:
            # A one-pair pool has no impostor comparison within its group.
            raise ConfigError("group_pool_size must be >= 2")
        if self.matrix_axis not in ("continent", "country"):
            raise ConfigError("matrix_axis must be continent or country")
        if not 0 < self.split_fraction <= 1:
            raise ConfigError("split_fraction must be in (0, 1]")
        if self.far_floor is not None and self.far_floor <= 0:
            raise ConfigError("far_floor must be > 0")

    def resolved_far_floor(self) -> float:
        if self.far_floor is not None:
            return self.far_floor
        n = self.group_pool_size
        return 1.0 / (n * (n - 1))


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    output_dir: str = "runs/experiment"
    data: GeneratorConfig = field(default_factory=GeneratorConfig)
    data_path: str | None = None      # use a dataset file instead of generating
    training: TrainingConfig = field(default_factory=TrainingConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self) -> None:
        # Checked here, not in GeneratorConfig: per-country validation and
        # eval pools rekey the composition and keep the run's country_weights.
        by_country = not set(self.data.composition) <= set(CONTINENTS)
        if by_country and self.data.country_weights is not None:
            raise ConfigError("data.country_weights has no effect on a country-keyed composition")
        if self.data_path is not None and not Path(self.data_path).exists():
            raise ConfigError(f"dataset file not found: {self.data_path}")

    def with_(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)

    # ---- canonical form and hashes ----

    def to_dict(self) -> dict[str, Any]:
        # output_dir is deliberately absent: where a run writes is an
        # execution detail, not part of the experiment's identity.
        return {
            "seed": self.seed,
            "data_path": self.data_path,
            "data": _plain(self.data),
            "training": _plain(self.training),
            "sampler": _plain(self.sampler),
            "eval": _plain(self.eval),
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    def model_hash(self) -> str:
        d = self.to_dict()
        part = {k: d[k] for k in ("seed", "data", "data_path", "training", "sampler")}
        if self.sampler.variant == "dynamic":  # its validations steer its weights
            keys = ("validation_every", "target_far", "n_eval_pairs", "group_pool_size",
                    "far_floor")
            part["eval"] = {k: d["eval"][k] for k in keys}
        text = json.dumps(part, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(obj):
    """Make a config fragment JSON-clean (dataclasses and mappings -> dicts,
    tuples -> lists, numpy -> python). Unlike ``dataclasses.asdict`` it copies
    nothing, so any ``Mapping`` serialises, a ``MappingProxyType`` included."""
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    if hasattr(obj, "item"):
        return obj.item()
    raise ConfigError(f"cannot serialize config value of type {type(obj)!r}")


_NOUNS = {int: "an integer", float: "a number", str: "a string", tuple: "a list",
          Mapping: "a mapping", type(None): "null"}


def _expected(hint) -> str:
    if get_origin(hint) in (Union, UnionType):
        return " or ".join(_expected(arm) for arm in get_args(hint))
    return _NOUNS.get(get_origin(hint) or hint, "a mapping")


def _section(raw: Any, name: str) -> Mapping[str, Any]:
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"section {name!r} must be a mapping")
    return raw


def _coerce(hint, value: Any, where: str) -> Any:
    """``value`` read from a config file as a ``hint``; ConfigError otherwise.

    Ints must be integral; numbers may be strings such as '1e-3', which
    YAML 1.1 does not read as floats.
    """
    origin, args = get_origin(hint), get_args(hint)
    if is_dataclass(hint):
        return _from_section(hint, value, where)
    if origin in (Union, UnionType):
        for arm in args:
            try:
                return _coerce(arm, value, where)
            except ConfigError:
                pass
    elif hint is type(None) or hint is str:
        if isinstance(value, hint):
            return value
    elif hint in (int, float):
        if isinstance(value, str):
            try:
                value = float(value)
            except ValueError:
                pass
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if hint is float:
                return float(value)
            if float(value).is_integer():
                return int(value)
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(_coerce(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    elif origin is Mapping:
        if isinstance(value, Mapping):
            return {_coerce(args[0], k, where): _coerce(args[1], v, f"{where}.{k}")
                    for k, v in value.items()}
    raise ConfigError(f"{where}: expected {_expected(hint)}, got {value!r}")


def _from_section(cls, raw: Any, where: str):
    """Build the config dataclass ``cls`` from its section, field by field."""
    label = where or "config"
    sec = _section(raw, label)
    # A config file names the dataset file data.path, not data_path.
    unknown = set(sec) - ({f.name for f in fields(cls)} - {"data_path"})
    if unknown:
        raise ConfigError(f"unknown {label} keys: {sorted(unknown, key=str)}")
    hints = get_type_hints(cls)
    prefix = f"{where}." if where else ""
    return cls(**{k: _coerce(hints[k], v, prefix + k) for k, v in sec.items()})


def config_from_dict(raw: Mapping[str, Any]) -> ExperimentConfig:
    data = dict(_section(raw.get("data"), "data"))
    data_path = _coerce(str | None, data.pop("path", None), "data.path")
    try:
        cfg = _from_section(ExperimentConfig, {**raw, "data": data}, "")
        return cfg.with_(data_path=data_path)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        with open(path) as f:
            raw = yaml.safe_load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"cannot parse {path}: {e}") from e
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config root must be a mapping: {path}")
    return config_from_dict(raw)
