"""Biometric verification metrics: FAR/FRR, threshold calibration, per-group
FAR matrices, ROC curves, and gender readouts.

Conventions, fixed across the whole toolkit and its file formats:

* a comparison is ACCEPTED iff its squared distance is strictly below the
  threshold theta, and rejected iff it is >= theta;
* impostor comparisons are all ordered (selfie_i, doc_j) pairs whose identity
  ids differ -- same-identity pairs are excluded even at different indices,
  which handles duplicated identities;
* all rates are ratios of exact integer counts;
* distances come from :func:`fairtriplet.core.cross_squared_distances` in
  fixed 128-row selfie tiles (``_tile_windows``), read one at a time with no
  impostor vector, and ``far_counts`` decides on the products of the same
  tiles, so a threshold calibrated here counts exactly there.

Counting decides ``d < theta`` on each tile's raw product with
``core.decide_below``, the rule the miner decides its candidates by.
``far_counts``, ``per_group_far`` and ``far_matrix`` check that each side's
embeddings are finite when they prepare it, before any counting, and take
the bracket of every comparison's product cut, in closed form, from one
``core.product_cuts`` call on the calling thread. ``far_matrix`` prepares
each pool's two sides once and counts its selfie pools (matrix rows) on up
to one thread per core that BLAS leaves free (``core.worker_threads``).
Every cell is an integer count on the same tiles whichever thread computes
it, so the matrix does not depend on the thread count.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .core import (
    Dataset,
    GENDERS,
    ResolutionError,
    assert_unit_rows,
    cross_squared_distances,
    decide_below,
    product_cuts,
    same_identity_pairs,
    squared_norms,
    worker_threads,
)
from .model import EmbeddingNetwork

# Selfie rows per distance tile; one (_TILE_ROWS, n_docs) float64 buffer is
# live per counting call.
_TILE_ROWS = 128


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


def _tile_windows(n: int):
    """Yield ``(lo, rows)`` for consecutive selfie-row tiles: ``rows`` is the
    slice of selfies whose product the tile computes, and the rows from ``lo``
    on are the tile's own.

    Every slice has min(_TILE_ROWS, n) rows, so the last one is the window
    ending at the last selfie and overlaps the tile before it. BLAS picks its
    kernel by the shape of the product (a one-row product goes through a
    matrix-vector routine), so a short last tile could round differently
    from the rows above it.
    """
    height = min(_TILE_ROWS, n)
    for lo in range(0, n, _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, n)
        yield lo, slice(hi - height, hi)


def _distance_tiles(selfie_emb: np.ndarray, doc_emb: np.ndarray):
    """Yield ``(lo, d)`` per tile of ``_tile_windows``, with ``d[i - lo, j]``
    the squared distance of selfie i and doc j. ``d`` is a view of one buffer
    that the next tile overwrites."""
    doc_emb = np.asarray(doc_emb, dtype=np.float64)
    buf = np.empty((min(_TILE_ROWS, len(selfie_emb)), len(doc_emb)))
    doc_norms = squared_norms(doc_emb)
    for lo, rows in _tile_windows(len(selfie_emb)):
        d = cross_squared_distances(selfie_emb[rows], doc_emb,
                                    b_norms=doc_norms, out=buf)
        yield lo, d[lo - rows.start:]


def _impostor_tiles(selfie_emb: np.ndarray, selfie_ids: np.ndarray,
                    doc_emb: np.ndarray, doc_ids: np.ndarray):
    """``_distance_tiles`` flat, with the same-identity cells at +inf, which
    sorts last and is never below a threshold: a view of one buffer."""
    same_rows, same_cols = same_identity_pairs(selfie_ids, doc_ids)
    for lo, d in _distance_tiles(selfie_emb, doc_emb):
        a, b = np.searchsorted(same_rows, (lo, lo + len(d)))
        d[same_rows[a:b] - lo, same_cols[a:b]] = np.inf
        yield d.reshape(-1)


class _Side(NamedTuple):
    """One side of a comparison, prepared for counting: float64 rows, their
    identity ids, the ids' stable sort order, the rows' squared norms and the
    largest and smallest of them (-inf and inf for no rows)."""

    emb: np.ndarray
    ids: np.ndarray
    id_order: np.ndarray
    norms: np.ndarray
    extremes: tuple[float, float]


def _side(emb: np.ndarray, ids: np.ndarray) -> _Side:
    emb = np.asarray(emb, dtype=np.float64)
    norms = squared_norms(emb)
    if not np.isfinite(norms).all():
        raise ValueError("embeddings must be finite")
    return _Side(emb, ids, np.argsort(ids, kind="stable"), norms,
                 (norms.max(initial=-np.inf), norms.min(initial=np.inf)))


def _cuts(pairs: list[tuple[_Side, _Side]], theta: float) -> np.ndarray:
    """The ``(sure, maybe)`` product cuts of theta for each (selfie, doc)
    pair of sides, one row per pair, from one ``core.product_cuts`` call:
    ``sure`` at both sides' largest norms and ``maybe`` at their smallest."""
    na_max, na_min = np.array([selfie.extremes for selfie, _ in pairs]).T
    nb_max, nb_min = np.array([doc.extremes for _, doc in pairs]).T
    return product_cuts(theta, na_max, nb_max, na_min, nb_min).T


def far_counts(selfie_emb: np.ndarray, selfie_ids: np.ndarray,
               doc_emb: np.ndarray, doc_ids: np.ndarray,
               theta: float) -> tuple[int, int]:
    """(accepted impostor comparisons, impostor comparisons) at theta.

    Decides each cell on the raw product ``g = selfie . doc`` of the row tiles
    of ``_tile_windows``, without forming its distance, by
    ``core.decide_below`` with the product cuts of theta at the sides'
    extreme norms. The same-identity cells (found once per call from a sort
    of the doc ids) are taken out of the count where the tile's mask accepts
    them. Tiles keep their shapes, so every product, and with it every
    decision, is that of the distance tiles.
    """
    pair = _side(selfie_emb, selfie_ids), _side(doc_emb, doc_ids)
    return _count_far(*pair, _cuts([pair], theta)[0], theta)


def _count_far(selfie: _Side, doc: _Side, cuts: np.ndarray,
               theta: float) -> tuple[int, int]:
    """``far_counts`` on prepared sides with their ``_cuts``. Allocates its
    own tile buffers, so calls on different threads share nothing they
    write."""
    same_rows, same_cols = same_identity_pairs(selfie.ids, doc.ids, doc.id_order)
    comparisons = len(selfie.emb) * len(doc.emb) - same_rows.size
    if comparisons == 0:
        raise ValueError("no impostor comparisons available")
    if not theta > 0:
        return 0, comparisons  # no distance is below theta <= 0 (or NaN)
    na, nb = selfie.norms, doc.norms
    height = min(_TILE_ROWS, len(selfie.emb))
    buf = np.empty((height, len(doc.emb)))
    mask_buf = np.empty((height, len(doc.emb)), dtype=bool)
    accepted = 0
    for lo, rows in _tile_windows(len(selfie.emb)):
        g = np.matmul(selfie.emb[rows], doc.emb.T, out=buf)[lo - rows.start:]
        mask = mask_buf[:len(g)]
        n_accepted = decide_below(g, cuts, theta, na[lo:lo + len(g), None], nb, mask)
        if n_accepted:
            a, b = np.searchsorted(same_rows, (lo, lo + len(g)))
            same = mask[same_rows[a:b] - lo, same_cols[a:b]]
            accepted += n_accepted - int(np.count_nonzero(same))
    return accepted, comparisons


def far(eval_set: EvalSet, theta: float) -> float:
    """FAR of the set's selfies against its own docs (single-pool protocol)."""
    accepted, comparisons = far_counts(
        eval_set.selfie_emb, eval_set.identity_ids,
        eval_set.doc_emb, eval_set.identity_ids, theta,
    )
    return accepted / comparisons


def impostor_distances(selfie_emb: np.ndarray, selfie_ids: np.ndarray,
                       doc_emb: np.ndarray, doc_ids: np.ndarray,
                       smallest: int | None = None) -> np.ndarray:
    """All impostor squared distances (same-identity pairs excluded), in
    row-major order: selfie by selfie, each against the docs in order.

    With ``smallest``, only some of them, in no set order, among which are
    the ``smallest`` smallest. Before each tile the pass partitions what it
    holds, in place, once that is more than ``smallest`` values, truncates it
    to the ``smallest`` smallest and from then on keeps only values below
    their largest, which one equal to it cannot displace.

    The distances come from the same tiles as ``far_counts``, so a threshold
    taken from them counts exactly there.
    """
    tile_cells = min(_TILE_ROWS, len(selfie_emb)) * len(doc_emb)
    out = np.empty(len(selfie_emb) * len(doc_emb) if smallest is None else smallest + tile_cells)
    pos, bound = 0, np.inf
    for tile in _impostor_tiles(selfie_emb, selfie_ids, doc_emb, doc_ids):
        if smallest is not None and pos > smallest:
            out[:pos].partition(smallest - 1)
            pos, bound = smallest, out[smallest - 1]
        values = tile[tile < bound]
        out[pos:pos + values.size] = values
        pos += values.size
    return out[:pos]


def calibrate_threshold(eval_set: EvalSet, target_far: float) -> float:
    """Largest threshold on the impostor-distance grid with FAR <= target.

    The grid is the sorted impostor distances themselves, extended by a value
    one float step above the maximum (the accept-everything end). With n
    impostor comparisons the returned threshold is the (floor(target*n))-th
    smallest distance; FAR at the next distinct grid value exceeds the
    target. Requires n * target_far >= 1, otherwise the target is below the
    measurement's resolution. One bounded ``impostor_distances`` pass finds
    that distance; no impostor vector is built.
    """
    ids = eval_set.identity_ids
    n = len(ids) ** 2 - same_identity_pairs(ids, ids)[0].size
    k = _calibration_rank(n, target_far)
    values = impostor_distances(eval_set.selfie_emb, ids, eval_set.doc_emb, ids,
                                smallest=k + 1)
    if k >= n:
        return float(np.nextafter(values.max(), np.inf))
    values.partition(k)
    return float(values[k])


def calibrate_threshold_from_distances(sorted_impostor: np.ndarray,
                                       target_far: float) -> float:
    """``calibrate_threshold`` on impostor distances sorted ascending."""
    n = len(sorted_impostor)
    k = _calibration_rank(n, target_far)
    if k >= n:
        return float(np.nextafter(sorted_impostor.max(), np.inf))
    return float(sorted_impostor[k])


def _calibration_rank(n: int, target_far: float) -> int:
    """The calibrated threshold's rank among n impostor distances, from 0."""
    if target_far <= 0 or n * target_far < 1.0:
        raise ResolutionError(
            f"target FAR {target_far:g} needs >= {1.0 / target_far if target_far > 0 else np.inf:.0f} "
            f"impostor comparisons, have {n}"
        )
    return int(np.floor(target_far * n))


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


def far_matrix(pools: Mapping[str, EvalSet], theta: float, axis: str = "continent") -> FarMatrix:
    groups = tuple(pools)
    k = len(groups)
    selfies = [_side(pools[g].selfie_emb, pools[g].identity_ids) for g in groups]
    docs = [_side(pools[g].doc_emb, pools[g].identity_ids) for g in groups]
    cuts = _cuts([(s, d) for s in selfies for d in docs], theta).reshape(k, k, 2)

    def row(i: int) -> list[tuple[int, int]]:
        return [_count_far(selfies[i], doc, cut, theta) for doc, cut in zip(docs, cuts[i])]

    with ThreadPoolExecutor(max_workers=worker_threads(k)) as pool:
        counts = np.array(list(pool.map(row, range(k))), dtype=np.int64)  # (k, k, 2)
    accepted, comparisons = counts[..., 0], counts[..., 1]
    return FarMatrix(axis, groups, theta, accepted / comparisons, accepted, comparisons)


def per_group_far(pools: Mapping[str, EvalSet], theta: float) -> dict[str, float]:
    """Within-group FAR per pool at a shared threshold: ``far`` of each
    pool, with every pool's cuts from one search."""
    pairs = [(_side(p.selfie_emb, p.identity_ids), _side(p.doc_emb, p.identity_ids))
             for p in pools.values()]
    counts = (_count_far(*pair, cuts, theta) for pair, cuts in zip(pairs, _cuts(pairs, theta)))
    return {g: accepted / comparisons for g, (accepted, comparisons) in zip(pools, counts)}


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
        if np.isnan(self.thetas).any() or not np.all(np.diff(self.thetas) > 0):
            raise ValueError("thetas must be strictly increasing")
        if np.any(np.diff(self.far) < 0) or np.any(np.diff(self.frr) > 0):
            raise ValueError("ROC monotonicity violated")


def _sorted_tiles(eval_set: EvalSet):
    """The set's ``_impostor_tiles``, each sorted in its buffer."""
    for tile in _impostor_tiles(eval_set.selfie_emb, eval_set.identity_ids,
                                eval_set.doc_emb, eval_set.identity_ids):
        tile.sort()
        yield tile


def default_theta_grid(eval_set: EvalSet, points: int = 50) -> np.ndarray:
    """Threshold grid spanning reject-all to accept-all, from impostor
    distance quantiles (np.quantile's, bit for bit) whose order statistics
    bucket select (Alabi et al. 2012, ACM JEA 17) reads in two tile passes."""
    edges = np.concatenate([[-np.inf], np.arange(4097) / 1024, [np.inf]])
    below = sum(np.searchsorted(tile, edges) for tile in _sorted_tiles(eval_set))
    n = int(below[-1])
    qs = np.linspace(0.0, 1.0, max(points - 2, 2))  # ends at 1: a[-1] is the largest
    virtual = (n - 1) * qs
    prev = np.floor(virtual)
    nxt = prev + 1
    top = virtual >= n - 1
    prev[top] = nxt[top] = -1
    gamma = virtual - prev
    ranks = np.concatenate([prev, nxt]).astype(np.intp) % n  # rank -1 is the largest
    bucket = np.searchsorted(below, ranks, side="right") - 1  # [edges[b], edges[b + 1])
    wanted = np.unique(bucket)
    kept = []
    for tile in _sorted_tiles(eval_set):
        cuts = zip(np.searchsorted(tile, edges[wanted]), np.searchsorted(tile, edges[wanted + 1]))
        kept += [tile[i:j].copy() for i, j in cuts]  # the next tile overwrites this one
    kept = np.sort(np.concatenate(kept))
    # Rank r's index among the kept: r, less all values below its bucket, plus the kept ones.
    a, b = kept[ranks - below[bucket] + np.searchsorted(kept, edges[bucket])].reshape(2, -1)
    diff = b - a
    grid = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=grid, where=gamma >= 0.5)
    return np.unique(np.concatenate([[0.0], grid, [np.nextafter(a[-1], np.inf)]]))


def roc_curve(eval_set: EvalSet, thetas: np.ndarray) -> RocCurve:
    """FAR/FRR at every grid threshold.

    Counting is searchsorted on each sorted distance tile and on the genuine
    distances, so single points agree exactly with far()/frr().
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.size == 0:
        raise ValueError("theta grid is empty")
    edges = np.append(thetas, np.inf)  # below +inf lie all the impostor distances
    below = sum(np.searchsorted(tile, edges) for tile in _sorted_tiles(eval_set))
    gen = np.sort(genuine_distances(eval_set))
    fars = below[:-1] / below[-1]
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
