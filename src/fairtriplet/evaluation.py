"""Biometric verification metrics: FAR/FRR, threshold calibration, per-group
FAR matrices, ROC curves, and gender readouts.

Conventions, fixed across the whole toolkit and its file formats:

* a comparison is ACCEPTED iff its squared distance is strictly below the
  threshold theta, and rejected iff it is >= theta;
* impostor comparisons are all ordered (selfie_i, doc_j) pairs whose identity
  ids differ -- same-identity pairs are excluded even at different indices,
  which handles duplicated identities;
* all rates are ratios of exact integer counts;
* distances come from :func:`fairtriplet.core.cross_squared_distances`, so a
  threshold calibrated here compares exactly against distances computed
  anywhere else in the toolkit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    Dataset,
    GENDERS,
    ResolutionError,
    assert_unit_rows,
    cross_squared_distances,
)
from .model import EmbeddingNetwork

_CHUNK_ROWS = 512


@dataclass(frozen=True)
class EvalSet:
    """Matching pairs with embeddings attached."""

    selfie_emb: np.ndarray   # (M, d) unit rows
    doc_emb: np.ndarray      # (M, d) unit rows
    identity_ids: np.ndarray  # (M,)
    countries: np.ndarray
    continents: np.ndarray
    genders: np.ndarray

    def __post_init__(self) -> None:
        m = len(self.identity_ids)
        if not (len(self.selfie_emb) == len(self.doc_emb) == m):
            raise ValueError("eval set columns are misaligned")
        assert_unit_rows(self.selfie_emb)
        assert_unit_rows(self.doc_emb)

    def __len__(self) -> int:
        return len(self.identity_ids)

    @classmethod
    def from_dataset(cls, net: EmbeddingNetwork, dataset: Dataset) -> "EvalSet":
        return cls(
            selfie_emb=net.forward(dataset.selfie_features),
            doc_emb=net.forward(dataset.doc_features),
            identity_ids=dataset.identity_ids,
            countries=dataset.countries,
            continents=dataset.continents,
            genders=dataset.genders,
        )

    def subset(self, idx: np.ndarray) -> "EvalSet":
        return EvalSet(
            self.selfie_emb[idx], self.doc_emb[idx], self.identity_ids[idx],
            self.countries[idx], self.continents[idx], self.genders[idx],
        )


def genuine_distances(eval_set: EvalSet) -> np.ndarray:
    d = eval_set.selfie_emb - eval_set.doc_emb
    return np.einsum("ij,ij->i", d, d)


def frr_counts(eval_set: EvalSet, theta: float) -> tuple[int, int]:
    """(rejected genuine pairs, genuine pairs) at threshold theta."""
    if len(eval_set) == 0:
        raise ValueError("eval set is empty")
    dist = genuine_distances(eval_set)
    return int(np.sum(dist >= theta)), len(dist)


def frr(eval_set: EvalSet, theta: float) -> float:
    rejected, total = frr_counts(eval_set, theta)
    return rejected / total


def far_counts(selfie_emb: np.ndarray, selfie_ids: np.ndarray,
               doc_emb: np.ndarray, doc_ids: np.ndarray,
               theta: float) -> tuple[int, int]:
    """(accepted impostor comparisons, impostor comparisons) at theta.

    Row-chunked so the full distance matrix never materializes.
    """
    accepted = 0
    comparisons = 0
    for lo in range(0, len(selfie_emb), _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, len(selfie_emb))
        d = cross_squared_distances(selfie_emb[lo:hi], doc_emb)
        same = selfie_ids[lo:hi, None] == doc_ids[None, :]
        acc = d < theta
        accepted += int(np.count_nonzero(acc & ~same))
        comparisons += acc.shape[0] * acc.shape[1] - int(np.count_nonzero(same))
    if comparisons == 0:
        raise ValueError("no impostor comparisons available")
    return accepted, comparisons


def far(eval_set: EvalSet, theta: float) -> float:
    """FAR of the set's selfies against its own docs (single-pool protocol)."""
    accepted, comparisons = far_counts(
        eval_set.selfie_emb, eval_set.identity_ids,
        eval_set.doc_emb, eval_set.identity_ids, theta,
    )
    return accepted / comparisons


def impostor_distances(selfie_emb: np.ndarray, selfie_ids: np.ndarray,
                       doc_emb: np.ndarray, doc_ids: np.ndarray) -> np.ndarray:
    """All impostor squared distances (same-identity pairs excluded), sorted."""
    chunks = []
    for lo in range(0, len(selfie_emb), _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, len(selfie_emb))
        d = cross_squared_distances(selfie_emb[lo:hi], doc_emb)
        same = selfie_ids[lo:hi, None] == doc_ids[None, :]
        chunks.append(d[~same])
    out = np.concatenate(chunks) if chunks else np.empty(0)
    out.sort()
    return out


def calibrate_threshold(eval_set: EvalSet, target_far: float) -> float:
    """Largest threshold on the impostor-distance grid with FAR <= target.

    The grid is the sorted impostor distances themselves, extended by a value
    one float step above the maximum (the accept-everything end). With n
    impostor comparisons the returned threshold is the (floor(target*n))-th
    smallest distance; FAR at the next distinct grid value exceeds the
    target. Requires n * target_far >= 1, otherwise the target is below the
    measurement's resolution.
    """
    dists = impostor_distances(
        eval_set.selfie_emb, eval_set.identity_ids,
        eval_set.doc_emb, eval_set.identity_ids,
    )
    return calibrate_threshold_from_distances(dists, target_far)


def calibrate_threshold_from_distances(sorted_impostor: np.ndarray,
                                       target_far: float) -> float:
    n = len(sorted_impostor)
    if target_far <= 0 or n * target_far < 1.0:
        raise ResolutionError(
            f"target FAR {target_far:g} needs >= {1.0 / target_far if target_far > 0 else np.inf:.0f} "
            f"impostor comparisons, have {n}"
        )
    k = int(np.floor(target_far * n))
    if k >= n:
        return float(np.nextafter(sorted_impostor[-1], np.inf))
    return float(sorted_impostor[k])


@dataclass(frozen=True)
class FarMatrix:
    """Cross-group FAR grid: cell (g, h) compares selfies from g with docs
    from h; diagonal cells are within-group impostors."""

    axis: str
    groups: tuple[str, ...]
    theta: float
    values: np.ndarray      # (k, k) float
    accepted: np.ndarray    # (k, k) int
    comparisons: np.ndarray  # (k, k) int

    def __post_init__(self) -> None:
        k = len(self.groups)
        if self.values.shape != (k, k):
            raise ValueError("matrix shape does not match group count")

    def value(self, g: str, h: str) -> float:
        return float(self.values[self.groups.index(g), self.groups.index(h)])


def far_matrix(pools: Mapping[str, EvalSet], theta: float, axis: str = "continent") -> FarMatrix:
    groups = tuple(pools)
    k = len(groups)
    values = np.zeros((k, k))
    accepted = np.zeros((k, k), dtype=np.int64)
    comparisons = np.zeros((k, k), dtype=np.int64)
    for i, g in enumerate(groups):
        for j, h in enumerate(groups):
            a, c = far_counts(
                pools[g].selfie_emb, pools[g].identity_ids,
                pools[h].doc_emb, pools[h].identity_ids, theta,
            )
            values[i, j] = a / c
            accepted[i, j] = a
            comparisons[i, j] = c
    return FarMatrix(axis, groups, theta, values, accepted, comparisons)


def per_group_far(pools: Mapping[str, EvalSet], theta: float) -> dict[str, float]:
    """Within-group FAR per pool at a shared threshold."""
    return {g: far(pool, theta) for g, pool in pools.items()}


def per_group_frr(pools: Mapping[str, EvalSet], theta: float) -> dict[str, float]:
    return {g: frr(pool, theta) for g, pool in pools.items()}


def gender_pools(eval_set: EvalSet) -> dict[str, EvalSet]:
    tags = eval_set.genders
    return {
        g: eval_set.subset(np.flatnonzero(tags == g))
        for g in GENDERS
        if np.any(tags == g)
    }


@dataclass(frozen=True)
class RocCurve:
    """Operating points along a strictly increasing threshold grid."""

    thetas: np.ndarray
    far: np.ndarray
    frr: np.ndarray
    far_std: np.ndarray | None = None
    frr_std: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not np.all(np.diff(self.thetas) > 0):
            raise ValueError("thetas must be strictly increasing")
        if np.any(np.diff(self.far) < 0) or np.any(np.diff(self.frr) > 0):
            raise ValueError("ROC monotonicity violated")


def default_theta_grid(eval_set: EvalSet, points: int = 50) -> np.ndarray:
    """Threshold grid spanning reject-all to accept-all, from impostor
    distance quantiles."""
    dists = impostor_distances(
        eval_set.selfie_emb, eval_set.identity_ids,
        eval_set.doc_emb, eval_set.identity_ids,
    )
    qs = np.linspace(0.0, 1.0, max(points - 2, 2))
    grid = np.quantile(dists, qs)
    grid = np.concatenate([[0.0], grid, [np.nextafter(dists[-1], np.inf)]])
    return np.unique(grid)


def roc_curve(eval_set: EvalSet, thetas: np.ndarray) -> RocCurve:
    """FAR/FRR at every grid threshold, via sorted-distance counting.

    Counting is searchsorted on the same distance arrays far()/frr() use, so
    single points agree exactly with those operations.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.size == 0:
        raise ValueError("theta grid is empty")
    imp = impostor_distances(
        eval_set.selfie_emb, eval_set.identity_ids,
        eval_set.doc_emb, eval_set.identity_ids,
    )
    gen = np.sort(genuine_distances(eval_set))
    fars = np.searchsorted(imp, thetas, side="left") / len(imp)
    frrs = (len(gen) - np.searchsorted(gen, thetas, side="left")) / len(gen)
    return RocCurve(thetas, fars, frrs)


def roc_curve_over_splits(eval_set: EvalSet, thetas: np.ndarray, n_splits: int,
                          split_fraction: float, rng: np.random.Generator) -> RocCurve:
    """Mean and standard deviation of the ROC over random pair subsets.

    split_fraction == 1 degenerates to n_splits identical curves with zero
    standard deviation.
    """
    if not 0.0 < split_fraction <= 1.0:
        raise ValueError("split_fraction must be in (0, 1]")
    if n_splits < 1:
        raise ValueError("n_splits must be >= 1")
    m = len(eval_set)
    size = max(int(round(split_fraction * m)), 2)
    fars, frrs = [], []
    for _ in range(n_splits):
        idx = np.sort(rng.choice(m, size=min(size, m), replace=False))
        curve = roc_curve(eval_set.subset(idx), thetas)
        fars.append(curve.far)
        frrs.append(curve.frr)
    fars = np.stack(fars)
    frrs = np.stack(frrs)
    # Shift by the first split before std so identical splits give exact zero.
    return RocCurve(
        np.asarray(thetas, dtype=np.float64),
        fars.mean(axis=0), frrs.mean(axis=0),
        far_std=(fars - fars[0]).std(axis=0), frr_std=(frrs - frrs[0]).std(axis=0),
    )
