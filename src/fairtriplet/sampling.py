"""Group-sampling strategies and the FAR-driven dynamic weight scheduler.

Four strategies:

* ``natural``     - groups at their empirical dataset frequencies,
* ``fixed``       - groups at externally chosen weights,
* ``dynamic``     - weights recomputed from measured per-group FAR,
* ``homogeneous`` - one weighted group draw per batch, all samples from it.

All but natural draw by ``SamplerSpec.weights``. Dynamic weights start equal
and follow a power law w = FAR^lambda with lambda = log10(4), so a 10-fold FAR
increase quadruples a group's raw weight, smoothed across validations by
exponential averaging into the next spec's weights.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import COUNTRIES, Dataset, axis_groups, continent_of

FAR_WEIGHT_EXPONENT = math.log10(4.0)

VARIANTS = ("natural", "fixed", "dynamic", "homogeneous")


@dataclass(frozen=True)
class SamplerSpec:
    variant: str
    axis: str = "continent"
    weights: dict[str, float] | None = None   # all variants but natural

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown sampler variant: {self.variant!r}")
        if self.variant != "natural":
            if not self.weights:
                raise ValueError(f"{self.variant} sampler needs weights")
            _check_weights(self.weights)


def _check_weights(weights: Mapping[str, float]) -> None:
    if any(w < 0 for w in weights.values()):
        raise ValueError("weights must be >= 0")
    if not any(w > 0 for w in weights.values()):
        raise ValueError("at least one weight must be positive")


def _normalized(weights: Mapping[str, float]) -> dict[str, float]:
    _check_weights(weights)
    total = float(sum(weights.values()))
    return {g: float(w) / total for g, w in weights.items()}


def probabilities(spec: SamplerSpec, dataset: Dataset) -> dict[str, float]:
    """Group -> sampling probability, summing to 1 (within float rounding).

    Natural uses the empirical dataset frequencies on the spec's axis; the
    weighted variants use their (normalized) weights. Positive-probability
    groups must be present in the dataset.
    """
    if spec.variant == "natural":
        n = len(dataset)
        return {g: len(members) / n
                for g, members in dataset.group_index(spec.axis).items()
                if len(members) > 0}
    missing = absent_groups(spec, dataset)
    if missing:
        raise ValueError(f"groups with positive weight absent from dataset: {missing}")
    return _normalized(spec.weights)


def absent_groups(spec: SamplerSpec, dataset: Dataset) -> list[str]:
    """Groups the spec weights positively that have no pairs in the dataset.
    Natural sampling draws only from groups present, so it has none."""
    if spec.variant == "natural":
        return []
    index = dataset.group_index(spec.axis)
    return [g for g, w in spec.weights.items() if w > 0 and len(index.get(g, ())) == 0]


def raw_dynamic_weights(per_group_far: Mapping[str, float], lam: float,
                        far_floor: float) -> dict[str, float]:
    """Raw (unsmoothed) weights FAR^lam, with measured FARs floored.

    A measured FAR of zero is a resolution artifact; the floor (default: one
    over the impostor comparison count of the measurement) keeps weights
    positive and the power law meaningful.
    """
    if far_floor <= 0:
        raise ValueError("far_floor must be > 0")
    out = {}
    for g, f in per_group_far.items():
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"FAR for {g!r} out of [0, 1]: {f}")
        out[g] = max(f, far_floor) ** lam
    return out


def update_dynamic_weights(weights: Mapping[str, float], per_group_far: Mapping[str, float],
                           lam: float, alpha_smooth: float,
                           far_floor: float) -> dict[str, float]:
    """One exponential-averaging step from ``weights`` toward the FAR-power ones.

    Computed incrementally as w + alpha * (w_raw - w) so that a raw weight
    equal to the current one is an exact fixed point; alpha_smooth == 1
    short-circuits to the raw weights exactly.
    """
    raw = raw_dynamic_weights(per_group_far, lam, far_floor)
    missing = set(weights) - set(raw)
    if missing:
        raise ValueError(f"per_group_far missing groups: {sorted(missing)}")
    if alpha_smooth == 1.0:
        return {g: raw[g] for g in weights}
    return {g: w + alpha_smooth * (raw[g] - w) for g, w in weights.items()}


def choose_homogeneous_group(weights: Mapping[str, float],
                             rng: np.random.Generator) -> str:
    """Pick the single group a homogeneous batch is drawn from."""
    probs = _normalized(weights)
    groups = list(probs)
    idx = rng.choice(len(groups), p=np.array([probs[g] for g in groups]))
    return groups[int(idx)]


def equal_weights(groups) -> dict[str, float]:
    return {g: 1.0 for g in groups}


def continent_adjusted_weights() -> dict[str, float]:
    """Continent preset: upweight the two worst-performing continents."""
    return {"EU": 1.0, "AM": 1.0, "OC": 1.0, "UN": 1.0, "AF": 3.0, "AS": 3.0}


def country_adjusted_weights() -> dict[str, float]:
    """Country preset: weight 4 for every country in AF, AS, and AM except
    usa and canada; weight 1 elsewhere."""
    out = {}
    for country in COUNTRIES:
        cont = continent_of(country)
        boosted = cont in ("AF", "AS") or (cont == "AM" and country not in ("usa", "canada"))
        out[country] = 4.0 if boosted else 1.0
    return out


def preset_weights(name: str, axis: str) -> dict[str, float]:
    """Named weight presets for config files."""
    if name == "equal":
        return equal_weights(axis_groups(axis))
    if name == "adjusted":
        if axis == "continent":
            return continent_adjusted_weights()
        if axis == "country":
            return country_adjusted_weights()
    raise ValueError(f"unknown weight preset {name!r} for axis {axis!r}")
