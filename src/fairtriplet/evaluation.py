"""Biometric verification metrics: FAR/FRR, threshold calibration, per-group
FAR matrices, ROC curves, and gender readouts.

Conventions, fixed across the whole toolkit and its file formats:

* a comparison is ACCEPTED iff its squared distance is strictly below the
  threshold theta, and rejected iff it is >= theta;
* impostor comparisons are all ordered (selfie_i, doc_j) pairs whose identity
  ids differ -- same-identity pairs are excluded even at different indices,
  which handles duplicated identities;
* all rates are ratios of exact integer counts;
* distances come from the kernel of
  :func:`fairtriplet.core.cross_squared_distances` in fixed 128-row selfie
  tiles (``_tile_windows``), read one at a time per thread with no impostor
  vector, and ``far_counts`` decides on the products of the same tiles, so a
  threshold calibrated here counts exactly there.

Counting decides ``d < theta`` on each tile's raw product with
``core.decide_below``, the rule the miner decides its candidates by, once
the tile's same-identity products are -inf, which no cut lies below. Each
count takes the bracket of its comparisons' product cut, in closed form,
from its own ``core.product_cuts`` call.

Counting screens each tile on a float32 product first. ``g32`` differs from
the tile's float64 product ``g64`` by at most ``eps = ((2u + u^2) +
gamma_k(u) (1 + u)^2 + gamma_k(2^-53)) sqrt(na_max nb_max)``, with ``u =
2^-24``, ``k`` the embedding dimension and the sides' largest squared norms
(``_product_error_bound``; Higham, *Accuracy and Stability of Numerical
Algorithms*, §3.1). The bracket widened by ``eps`` and rounded outward to
float32, ``(low, high)``, decides a tile whose largest ``g32`` is at or
below ``low`` (it accepts nothing) or that has no ``g32`` in ``(low,
high]`` (it accepts the cells above ``high``). Only the rest compute their
float64 product and go through ``core.decide_below``, so every count is
exact whatever the float32 kernel. Where the bound does not hold (a bracket
that is not finite, largest squared norms outside [2^-60, 2^60]), every
tile takes the float64 path. The float32 tile is written into the float64
tile buffer's bytes; the float32 copies of the two sides are the only
memory the screen adds. Calibration, the theta grid and the ROC, which
read distance values rather than counts, stay in float64.

Every pass (counting, calibration,
the theta grid and the ROC) prepares its two sides with ``_side``, which
checks that their embeddings are finite before any tile is computed, and
finds the same-identity cells with ``_impostor_cells``.

``far_matrix`` counts its selfie pools (matrix rows), and the theta grid and
the ROC their sorted distance tiles, on ``core.in_order_on_threads`` (see
its docstring and the README's "Worker threads"). Every cell and every tile
count is an integer on the same tiles whichever thread computes it, and the
calling thread sums the counts and sorts the kept values, so no readout
depends on the thread count. Calibration makes its bounded pass on the
calling thread, through the canonical kernel.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, NamedTuple

import numpy as np

from .core import (
    Dataset,
    GENDERS,
    ResolutionError,
    assert_unit_rows,
    cell_distances,
    cross_squared_distances,
    decide_below,
    in_order_on_threads,
    product_cuts,
    same_identity_pairs,
    squared_norms,
    worker_threads,
)
from .model import EmbeddingNetwork

# Selfie rows per distance tile; one (_TILE_ROWS, n_docs) float64 buffer is
# live per counting call, and per thread in a sorted tile pass.
_TILE_ROWS = 128

# Distance tiles per sorted-pass thread: the theta grid and the ROC of a set
# get a second thread from 8 tiles (more than 896 pairs) on. With BLAS
# pinned, a grid plus ROC of 8 tiles took 37-42 ms on one thread and 32 ms
# on two; of 5 tiles, 15 ms on either.
_TILES_PER_THREAD = 4


@dataclass(frozen=True)
class EvalSet:
    """Matching pairs with embeddings attached."""

    selfie_emb: np.ndarray   # (M, d) unit rows
    doc_emb: np.ndarray      # (M, d) unit rows
    identity_ids: np.ndarray  # (M,)
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
            genders=dataset.genders,
        )

    def subset(self, idx: np.ndarray) -> "EvalSet":
        return EvalSet(self.selfie_emb[idx], self.doc_emb[idx],
                       self.identity_ids[idx], self.genders[idx])


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


class _Side(NamedTuple):
    """One side of a comparison, prepared for counting and for distance
    tiles: float64 rows, their identity ids, the ids' stable sort order, the
    rows' squared norms and the largest and smallest of them (-inf and inf
    for no rows)."""

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


def _impostor_cells(selfie: _Side, doc: _Side) -> tuple[np.ndarray, np.ndarray, int]:
    """``(rows, cols, comparisons)``: the same-identity cells of selfies
    against docs, row-major, and the number of impostor comparisons. Raises
    when there are none, which leaves neither a FAR nor a quantile."""
    rows, cols = same_identity_pairs(selfie.ids, doc.ids, doc.id_order)
    comparisons = len(selfie.emb) * len(doc.emb) - rows.size
    if comparisons == 0:
        raise ValueError("no impostor comparisons available")
    return rows, cols, comparisons


def _tile_buffer(selfie: _Side, doc: _Side, dtype=np.float64) -> np.ndarray:
    """A buffer that holds one tile of selfies against docs."""
    return np.empty((min(_TILE_ROWS, len(selfie.emb)), len(doc.emb)), dtype=dtype)


def _tile_distances(a: np.ndarray, b: np.ndarray, b_norms: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """``cross_squared_distances(a, b, b_norms, out)`` from the kernel's own
    ops, bit for bit, for worker threads: they call no function that the
    benchmark traces."""
    g = np.matmul(a, b.T, out=out)
    return cell_distances(g, squared_norms(a)[:, None], b_norms[None, :], out=g)


def _impostor_tile(selfie: _Side, doc: _Side, same: tuple[np.ndarray, np.ndarray],
                   lo: int, rows: slice, buf: np.ndarray,
                   distances=_tile_distances) -> np.ndarray:
    """The tile of ``_tile_windows`` at ``lo``, flat, in ``buf``: the squared
    distances of its selfies to every doc, row by row, with the
    same-identity cells ``same`` at +inf, which sorts last and is never
    below a threshold. The one place the impostor rule is written for
    distances."""
    same_rows, same_cols = same
    d = distances(selfie.emb[rows], doc.emb, doc.norms, buf)[lo - rows.start:]
    a, b = np.searchsorted(same_rows, (lo, lo + len(d)))
    d[same_rows[a:b] - lo, same_cols[a:b]] = np.inf
    return d.reshape(-1)


def far_counts(selfie_emb: np.ndarray, selfie_ids: np.ndarray,
               doc_emb: np.ndarray, doc_ids: np.ndarray,
               theta: float) -> tuple[int, int]:
    """(accepted impostor comparisons, impostor comparisons) at theta.

    Decides each cell on the raw product ``g = selfie . doc`` of the row tiles
    of ``_tile_windows``, without forming its distance, by
    ``core.decide_below`` with the product cuts of theta at the sides'
    extreme norms. The same-identity cells (found once per call from a sort
    of the doc ids) get the product -inf before their tile is decided, which
    is above no cut, as ``_impostor_tile`` gives them the distance +inf.
    Tiles keep their shapes, so every product, and with it every decision,
    is that of the distance tiles. A tile computes that product only when
    its float32 product, screened with an error bound, leaves a cell
    undecided (``_count_far``).
    """
    return _count_far(_side(selfie_emb, selfie_ids), _side(doc_emb, doc_ids), theta)


def _count_far(selfie: _Side, doc: _Side, theta: float) -> tuple[int, int]:
    """``far_counts`` on prepared sides, with the product cuts of theta at
    both sides' largest norms (``sure``) and smallest (``maybe``).

    Each window is first decided on its float32 product against the cuts
    widened by ``_product_error_bound`` (``_screen``): one whose largest
    float32 product is at or below ``low`` accepts nothing, and one with no
    product in ``(low, high]`` accepts its products above ``high``. Only a
    window with a product in that band computes its float64 product, with
    the call and shape of the distance tiles, for ``core.decide_below``.
    Its float32 tile lies in the float64 tile buffer's bytes. Allocates its
    own buffers and float32 copies of the sides, so calls on different
    threads share nothing they write."""
    same_rows, same_cols, comparisons = _impostor_cells(selfie, doc)
    if not theta > 0:
        return 0, comparisons  # no distance is below theta <= 0 (or NaN)
    cuts = product_cuts(theta, selfie.extremes[0], doc.extremes[0],
                        selfie.extremes[1], doc.extremes[1])
    na, nb = selfie.norms, doc.norms
    screen = _screen(selfie, doc, cuts)
    if screen is not None:
        # The float32 copies before the tile buffers: in the other order
        # validate-country's peak RSS read 1.3 MB higher, from heap layout.
        low, high = screen
        selfie32, doc32 = selfie.emb.astype(np.float32), doc.emb.astype(np.float32)
    buf = _tile_buffer(selfie, doc)
    mask_buf = _tile_buffer(selfie, doc, bool)
    if screen is not None:
        buf32 = buf.reshape(-1).view(np.float32)[:buf.size].reshape(buf.shape)

    def products(a: np.ndarray, b: np.ndarray, lo: int, rows: slice, out: np.ndarray):
        g = np.matmul(a[rows], b.T, out=out)[lo - rows.start:]
        i, j = np.searchsorted(same_rows, (lo, lo + len(g)))
        g[same_rows[i:j] - lo, same_cols[i:j]] = -np.inf
        return g

    accepted = 0
    for lo, rows in _tile_windows(len(selfie.emb)):
        if screen is not None:
            g = products(selfie32, doc32, lo, rows, buf32)
            if g.max() <= low:
                continue
            mask = mask_buf[:len(g)]
            above_high = int(np.count_nonzero(np.greater(g, high, out=mask)))
            if int(np.count_nonzero(np.greater(g, low, out=mask))) == above_high:
                accepted += above_high
                continue
        g = products(selfie.emb, doc.emb, lo, rows, buf)
        accepted += decide_below(g, cuts, theta, na[lo:lo + len(g), None], nb,
                                 mask_buf[:len(g)])
    return accepted, comparisons


# Unit roundoffs of float32 and float64.
_U32, _U64 = 2.0 ** -24, 2.0 ** -53
# The screen runs where both sides' largest squared norms lie in this range
# and the rows have fewer than _SCREEN_MAX_DIMS dimensions. There no float32
# copy or product overflows, and what gradual underflow can add to a float32
# product (at most 2**-149 per element and per term) stays below the
# bound's 2**-20 relative widening, which also covers the float64 rounding
# of the bound itself and of the squared norms it is taken at.
_SCREEN_NORMS = (2.0 ** -60, 2.0 ** 60)
_SCREEN_MAX_DIMS = 2 ** 20


def _gamma(k: int, u: float) -> float:
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * u / (1 - k * u)


def _product_error_bound(dims: int, na_max: float, nb_max: float) -> float:
    """A bound on ``|g32 - g64|`` for rows of ``dims`` dimensions with
    squared norms at most ``na_max`` and ``nb_max``: ``g64`` is a float64
    dot product of the rows, and ``g32`` one of their float32 copies, each
    summed in any order, with or without fused multiply-adds.

    Rounding the rows to float32 moves their exact dot product by at most
    ``(2u + u^2) sum |a_i b_i|``; the float32 sum adds ``gamma_k(u)`` of the
    copies' ``sum |a_i b_i|``, at most ``(1 + u)^2`` times the rows', and
    the float64 sum ``gamma_k(2^-53)`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, §3.1). By Cauchy-Schwarz ``sum |a_i b_i| <=
    sqrt(na_max nb_max)``."""
    u = _U32
    return (((2 * u + u * u) + _gamma(dims, u) * (1 + u) ** 2 + _gamma(dims, _U64))
            * float(np.sqrt(na_max * nb_max)))


def _screen(selfie: _Side, doc: _Side, cuts: np.ndarray):
    """``(low, high)``, float32: a float32 product at or below ``low`` has
    its float64 product at or below ``maybe``, and one above ``high`` has it
    above ``sure``. Both are the cuts widened by ``_product_error_bound``,
    rounded outward. None where that bound does not hold: a bracket that is
    not finite, norms outside ``_SCREEN_NORMS`` or too many dimensions."""
    sure, maybe = cuts
    (na_max, _), (nb_max, _) = selfie.extremes, doc.extremes
    dims = selfie.emb.shape[1]
    smallest, largest = _SCREEN_NORMS
    if not (np.isfinite(sure) and np.isfinite(maybe) and dims < _SCREEN_MAX_DIMS
            and smallest <= na_max <= largest and smallest <= nb_max <= largest):
        return None
    eps = _product_error_bound(dims, na_max, nb_max) * (1 + 2.0 ** -20)
    low = np.float32(np.nextafter(maybe - eps, -np.inf))
    high = np.float32(np.nextafter(sure + eps, np.inf))
    return np.nextafter(low, np.float32(-np.inf)), np.nextafter(high, np.float32(np.inf))


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

    The distances come from the same tiles as ``far_counts``, through the
    canonical kernel and on the calling thread, so a threshold taken from
    them counts exactly there. Raises as ``far_counts`` does on non-finite
    embeddings and on a comparison with no impostor cell.
    """
    # ``out`` before the tile buffer: in the other order validate-country's
    # peak RSS read 0.8 MB higher, from the heap layout alone.
    tile_cells = min(_TILE_ROWS, len(selfie_emb)) * len(doc_emb)
    out = np.empty(len(selfie_emb) * len(doc_emb) if smallest is None else smallest + tile_cells)
    selfie, doc = _side(selfie_emb, selfie_ids), _side(doc_emb, doc_ids)
    same = _impostor_cells(selfie, doc)[:2]
    buf = _tile_buffer(selfie, doc)
    pos, bound = 0, np.inf
    for lo, rows in _tile_windows(len(selfie_emb)):
        tile = _impostor_tile(selfie, doc, same, lo, rows, buf, cross_squared_distances)
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

    groups: tuple[str, ...]
    theta: float
    values: np.ndarray      # (k, k) float
    accepted: np.ndarray    # (k, k) int
    comparisons: np.ndarray  # (k, k) int

    def __post_init__(self) -> None:
        k = len(self.groups)
        if self.values.shape != (k, k):
            raise ValueError("matrix shape does not match group count")


def far_matrix(pools: Mapping[str, EvalSet], theta: float) -> FarMatrix:
    groups = tuple(pools)
    k = len(groups)
    selfies = [_side(pools[g].selfie_emb, pools[g].identity_ids) for g in groups]
    docs = [_side(pools[g].doc_emb, pools[g].identity_ids) for g in groups]

    def row(i: int, _) -> list[tuple[int, int]]:  # each count allocates its own tiles
        return [_count_far(selfies[i], doc, theta) for doc in docs]

    counts = np.array(list(in_order_on_threads(range(k), row, lambda: None, worker_threads(k))),
                      dtype=np.int64)  # (k, k, 2)
    accepted, comparisons = counts[..., 0], counts[..., 1]
    return FarMatrix(groups, theta, accepted / comparisons, accepted, comparisons)


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
        if np.isnan(self.thetas).any() or not np.all(np.diff(self.thetas) > 0):
            raise ValueError("thetas must be strictly increasing")
        if np.any(np.diff(self.far) < 0) or np.any(np.diff(self.frr) > 0):
            raise ValueError("ROC monotonicity violated")


def _for_each_sorted_tile(eval_set: EvalSet, task) -> None:
    """Call ``task(k, tile)`` for every impostor tile of the set, k counting
    the tiles from 0, with the tile sorted in its buffer. Raises
    ``far_counts``' errors on a set with no impostor comparisons, which has
    neither quantiles nor a FAR, and on non-finite embeddings.

    The tiles run on ``core.in_order_on_threads``, one thread per
    ``_TILES_PER_THREAD`` tiles, each thread with a tile buffer. ``task``
    runs on those threads and writes what it reads from its tile into arrays
    the calling thread allocated, so no result outlives a tile in a worker's
    own malloc arena (which glibc would keep resident). Whichever thread
    computes a tile, its values are the same.
    """
    ids = eval_set.identity_ids
    selfie, doc = _side(eval_set.selfie_emb, ids), _side(eval_set.doc_emb, ids)
    same = _impostor_cells(selfie, doc)[:2]
    windows = list(enumerate(_tile_windows(len(ids))))

    def run(window: tuple[int, tuple[int, slice]], buf: np.ndarray) -> None:
        k, (lo, rows) = window
        tile = _impostor_tile(selfie, doc, same, lo, rows, buf)
        tile.sort()
        task(k, tile)

    for _ in in_order_on_threads(windows, run, partial(_tile_buffer, selfie, doc),
                                 worker_threads(len(windows) // _TILES_PER_THREAD)):
        pass


def _tile_counts(eval_set: EvalSet, edges: np.ndarray) -> np.ndarray:
    """Row k: ``np.searchsorted(tile, edges)`` on the set's sorted tile k."""
    counts = np.empty((-(-len(eval_set) // _TILE_ROWS), len(edges)), dtype=np.intp)

    def count(k: int, tile: np.ndarray) -> None:
        counts[k] = np.searchsorted(tile, edges)

    _for_each_sorted_tile(eval_set, count)
    return counts


def default_theta_grid(eval_set: EvalSet, points: int = 50) -> np.ndarray:
    """Threshold grid spanning reject-all to accept-all, from impostor
    distance quantiles (np.quantile's, bit for bit) whose order statistics
    bucket select (Alabi et al. 2012, ACM JEA 17) reads in two tile passes."""
    edges = np.concatenate([[-np.inf], np.arange(4097) / 1024, [np.inf]])
    counts = _tile_counts(eval_set, edges)
    below = counts.sum(axis=0)
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
    # The first pass's counts locate each wanted bucket in each sorted tile,
    # and give each (tile, bucket) its own span of ``kept``.
    starts, stops = counts[:, wanted], counts[:, wanted + 1]
    ends = np.cumsum(stops - starts).reshape(starts.shape)
    kept = np.empty(ends[-1, -1])

    def keep(k: int, tile: np.ndarray) -> None:
        for i, j, end in zip(starts[k].tolist(), stops[k].tolist(), ends[k].tolist()):
            kept[end - (j - i):end] = tile[i:j]

    _for_each_sorted_tile(eval_set, keep)
    kept.sort()
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
    below = _tile_counts(eval_set, edges).sum(axis=0)
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
