"""Synthetic generator for demographically imbalanced cross-domain pair data.

The latent model: each continent has a center direction on a shell around the
origin; EU/AM/OC sit on a near shell and AF/AS on a strictly farther one, so
the near groups are mutually more similar than either is to the far groups.
Countries scatter around their continent center, identities scatter around
their country center (plus a gender offset direction), and each identity is
rendered as two views:

    selfie = v + gaussian(0, selfie_noise)
    doc    = S v + gaussian(0, doc_noise[continent])

with S a fixed seeded linear domain-shift map. Document noise defaults are
higher for AF and AS, standing in for the much larger variation in print and
capture quality of those documents; under the default imbalanced composition
this induces the baseline per-group FAR differential the sampling strategies
are meant to repair.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .core import (
    CONTINENTS, COUNTRIES, GENDERS, ConfigError, Dataset, continent_of, countries_in,
)

# Continent shares of the default training composition (fractions of all
# pairs). The published percentages sum to 99.9 due to rounding; they are
# renormalized here so the composition is a proper distribution.
_RAW_SHARES = {"EU": 0.610, "AM": 0.151, "AF": 0.005, "AS": 0.047, "OC": 0.003, "UN": 0.183}
DEFAULT_CONTINENT_SHARES = {k: v / sum(_RAW_SHARES.values()) for k, v in _RAW_SHARES.items()}

# Gender mix per continent (male, female, unknown), normalized row-wise from
# the same composition table. UN documents carry no gender metadata at all.
_RAW_GENDER = {
    "EU": (29.0, 16.5, 15.5),
    "AM": (9.2, 5.6, 0.3),
    "AF": (0.3, 0.1, 0.1),
    "AS": (2.4, 0.7, 1.6),
    "OC": (0.1, 0.1, 0.2),
    "UN": (0.0, 0.0, 18.3),
}
DEFAULT_GENDER_SPLIT = {
    cont: {g: x / sum(row) for g, x in zip(GENDERS, row)}
    for cont, row in _RAW_GENDER.items()
}

DEFAULT_DOC_NOISE = {"EU": 0.22, "AM": 0.22, "AF": 0.30, "AS": 0.27, "OC": 0.22, "UN": 0.24}

_NEAR_SHELL = ("EU", "AM", "OC")
_FAR_SHELL = ("AF", "AS")

# Substream tags under the generator seed.
_GEOMETRY_STREAM = 0
_SAMPLING_STREAM = 1


@dataclass(frozen=True)
class GroupGeometry:
    """Knobs for the latent group layout.

    ``separation`` scales every center radius; 0 collapses all centers to the
    origin. Radii are relative: the far shell must stay strictly outside the
    near shell for the built-in similarity structure to hold.
    """

    separation: float = 2.5
    near_radius: float = 1.0
    far_radius: float = 1.5
    unknown_radius: float = 1.4
    # Country offsets stay well inside the identity cloud so within-continent
    # impostor hardness does not depend on how many countries a continent has.
    country_spread: float = 0.12

    def __post_init__(self) -> None:
        if self.separation < 0:
            raise ConfigError("separation must be >= 0")
        if min(self.near_radius, self.far_radius, self.unknown_radius, self.country_spread) < 0:
            raise ConfigError("geometry radii must be >= 0")
        if self.separation > 0 and not self.far_radius > self.near_radius:
            raise ConfigError("far_radius must exceed near_radius")


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    # The latent geometry (group centers, domain-shift map, gender directions)
    # is drawn from geometry_seed so several datasets can share one underlying
    # population while their identity/noise draws differ. None: use seed.
    geometry_seed: int | None = None
    input_dim: int = 32
    n_pairs: int = 50_000
    # Group -> probability; keys may be continents or countries. Continent
    # shares are spread over the continent's countries by country_weights
    # (uniform by default).
    composition: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CONTINENT_SHARES)
    )
    country_weights: Mapping[str, float] | None = None
    gender_split: Mapping[str, Mapping[str, float]] = field(
        default_factory=lambda: {c: dict(r) for c, r in DEFAULT_GENDER_SPLIT.items()}
    )
    identity_spread: float = 0.30
    gender_spread: Mapping[str, float] = field(
        default_factory=lambda: {g: 1.0 for g in GENDERS}
    )
    gender_offset: float = 0.25
    selfie_noise: float = 0.17
    doc_noise: Mapping[str, float] = field(default_factory=lambda: dict(DEFAULT_DOC_NOISE))
    domain_shift_strength: float = 0.30
    duplicate_rate: float = 0.02
    geometry: GroupGeometry = GroupGeometry()

    def __post_init__(self) -> None:
        if self.input_dim < len(CONTINENTS):
            raise ConfigError(f"input_dim must be >= {len(CONTINENTS)}")
        if self.n_pairs < 1:
            raise ConfigError("n_pairs must be positive")
        total = float(sum(self.composition.values()))
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"composition must sum to 1 (got {total:.12g})")
        keys = set(self.composition)
        if not (keys <= set(CONTINENTS) or keys <= set(COUNTRIES)):
            raise ConfigError("composition keys must all be continents or all be countries")
        if any(v < 0 for v in self.composition.values()):
            raise ConfigError("composition values must be >= 0")
        for name, table, mapping in (
            ("country_weights", COUNTRIES, self.country_weights or {}),
            ("doc_noise", CONTINENTS, self.doc_noise),
            ("gender_split", CONTINENTS, self.gender_split),
            *((f"gender_split.{c}", GENDERS, row) for c, row in self.gender_split.items()),
            ("gender_spread", GENDERS, self.gender_spread),
        ):
            unknown = set(mapping) - set(table)
            if unknown:
                raise ConfigError(f"data.{name} keys outside the group table: "
                                  f"{sorted(unknown, key=str)}")
        if self.selfie_noise <= 0:
            raise ConfigError("selfie_noise must be > 0")
        for cont in CONTINENTS:
            if self.doc_noise.get(cont, 0.0) <= 0:
                raise ConfigError(f"doc_noise[{cont}] must be > 0")
            row = self.gender_split.get(cont)
            if row is None or abs(sum(row.get(g, 0.0) for g in GENDERS) - 1.0) > 1e-9:
                raise ConfigError(f"gender_split[{cont}] must sum to 1 over {GENDERS}")
        if self.identity_spread <= 0:
            raise ConfigError("identity_spread must be > 0")
        if any(self.gender_spread.get(g, 0.0) <= 0 for g in GENDERS):
            raise ConfigError("gender_spread multipliers must be > 0")
        if not 0.0 <= self.duplicate_rate < 1.0:
            raise ConfigError("duplicate_rate must be in [0, 1)")
        if self.domain_shift_strength < 0:
            raise ConfigError("domain_shift_strength must be >= 0")

    def with_(self, **kw) -> "GeneratorConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class GeometryRealization:
    """Deterministic latent layout drawn from the generator seed."""

    continent_centers: dict[str, np.ndarray]
    country_centers: dict[str, np.ndarray]
    gender_directions: dict[str, np.ndarray]
    shift_matrix: np.ndarray  # S, applied to latents for the doc view


def _geometry_rng(config: GeneratorConfig) -> np.random.Generator:
    base = config.seed if config.geometry_seed is None else config.geometry_seed
    return np.random.default_rng(np.random.SeedSequence([base, _GEOMETRY_STREAM]))


def realize_geometry(config: GeneratorConfig) -> GeometryRealization:
    d = config.input_dim
    geo = config.geometry
    rng = _geometry_rng(config)

    # Orthonormal continent directions guarantee center distance
    # sqrt(r_i^2 + r_j^2), so any near-near distance (r*sqrt(2)) is strictly
    # below any far-near distance (sqrt(R^2 + r^2)) whenever R > r.
    raw = rng.standard_normal((d, len(CONTINENTS)))
    q, _ = np.linalg.qr(raw)
    radius = {}
    for cont in CONTINENTS:
        if cont in _NEAR_SHELL:
            radius[cont] = geo.near_radius
        elif cont in _FAR_SHELL:
            radius[cont] = geo.far_radius
        else:
            radius[cont] = geo.unknown_radius
    continent_centers = {
        cont: geo.separation * radius[cont] * q[:, i]
        for i, cont in enumerate(CONTINENTS)
    }

    country_centers = {}
    for country in COUNTRIES:
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        cont = continent_of(country)
        country_centers[country] = continent_centers[cont] + geo.separation * geo.country_spread * u

    gender_directions = {}
    for g in GENDERS:
        if g == "unknown":
            gender_directions[g] = np.zeros(d)
        else:
            u = rng.standard_normal(d)
            gender_directions[g] = u / np.linalg.norm(u)

    shift = np.eye(d) + config.domain_shift_strength * rng.standard_normal((d, d)) / np.sqrt(d)
    return GeometryRealization(continent_centers, country_centers, gender_directions, shift)


def country_probabilities(config: GeneratorConfig) -> np.ndarray:
    """Per-country draw probabilities implied by composition + country weights,
    aligned with ``COUNTRIES``."""
    probs = np.zeros(len(COUNTRIES))
    if set(config.composition) <= set(CONTINENTS):
        for cont, share in config.composition.items():
            members = countries_in(cont)
            w = np.array(
                [
                    (config.country_weights or {}).get(c, 1.0)
                    for c in members
                ],
                dtype=np.float64,
            )
            if w.sum() <= 0:
                raise ConfigError(f"country weights within {cont} must have positive sum")
            w /= w.sum()
            for c, wc in zip(members, w):
                probs[COUNTRIES.index(c)] = share * wc
    else:
        for c, share in config.composition.items():
            probs[COUNTRIES.index(c)] = share
    return probs


def generate_dataset(config: GeneratorConfig) -> Dataset:
    """Generate the full pair dataset, bit-deterministic in the config.

    A ``duplicate_rate`` fraction of slots re-render an identity already used
    by an earlier slot (independent noise, same identity id and label),
    mirroring the small repeated-identity contamination of production data.
    """
    real = realize_geometry(config)
    n, d = config.n_pairs, config.input_dim
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _SAMPLING_STREAM]))

    # Fixed draw order; every stage draws for all n slots so the stream layout
    # is independent of dataset content.
    id_base = int(rng.integers(0, 2**32)) << 24
    if n >= (1 << 24):
        raise ConfigError("n_pairs must be < 2**24")
    probs = country_probabilities(config)
    country_idx = rng.choice(len(COUNTRIES), size=n, p=probs)
    gender_u = rng.random(n)
    hidden_u = rng.random(n)
    dup_flags = rng.random(n) < config.duplicate_rate
    dup_flags[0] = False
    src_u = rng.random(n)
    eps_id = rng.standard_normal((n, d))
    eps_selfie = rng.standard_normal((n, d))
    eps_doc = rng.standard_normal((n, d))

    continents_idx = np.array([CONTINENTS.index(continent_of(c)) for c in COUNTRIES])[country_idx]

    # Gender via inverse CDF of the per-continent split.
    gender_cdf = np.zeros((len(CONTINENTS), len(GENDERS)))
    for i, cont in enumerate(CONTINENTS):
        row = [config.gender_split[cont][g] for g in GENDERS]
        gender_cdf[i] = np.cumsum(row)
    gender_idx = (gender_u[:, None] >= gender_cdf[continents_idx]).sum(axis=1)
    gender_idx = np.minimum(gender_idx, len(GENDERS) - 1)

    # Unknown is a missing label, not a phenotype: identities labeled unknown
    # draw a hidden male/female gender that drives the latent model.
    unknown_idx = GENDERS.index("unknown")
    male_idx, female_idx = GENDERS.index("male"), GENDERS.index("female")
    hidden_idx = np.where(hidden_u < 0.5, male_idx, female_idx)
    hidden_idx = np.where(gender_idx == unknown_idx, hidden_idx, gender_idx)

    # Resolve duplicate slots to their source identity (source index < slot).
    root = np.arange(n)
    src = np.floor(src_u * np.arange(n)).astype(np.int64)
    for i in np.flatnonzero(dup_flags):
        root[i] = root[src[i]]

    country_codes = np.array(COUNTRIES)[country_idx[root]]
    genders = np.array(GENDERS)[gender_idx[root]]
    root_cont_idx = continents_idx[root]

    country_center = np.stack([real.country_centers[c] for c in COUNTRIES])
    gender_dir = np.stack([real.gender_directions[g] for g in GENDERS])
    spread_mult = np.array([config.gender_spread[g] for g in GENDERS])

    # Each n x d stage is built in place, with the operations of
    # ``center + offset * gender_dir + spread * mult * eps_id``,
    # ``latents + noise * eps_selfie`` and ``latents @ shift.T + sigma *
    # eps_doc`` in the same order: IEEE addition and multiplication are
    # commutative, so the bytes are those of the expressions.
    hidden = hidden_idx[root]
    latents = np.take(country_center, country_idx[root], axis=0)
    term = np.take(gender_dir, hidden, axis=0)
    term *= config.gender_offset
    latents += term
    np.take(eps_id, root, axis=0, out=term)
    term *= config.identity_spread * spread_mult[hidden, None]
    latents += term

    doc_sigma = np.array([config.doc_noise[c] for c in CONTINENTS])[root_cont_idx]
    selfies = eps_selfie
    selfies *= config.selfie_noise
    selfies += latents
    docs = np.matmul(latents, real.shift_matrix.T, out=term)
    eps_doc *= doc_sigma[:, None]
    docs += eps_doc

    return Dataset(
        identity_ids=id_base + root,
        countries=country_codes,
        genders=genders,
        selfie_features=selfies,
        doc_features=docs,
    )
