"""Core domain types: the fixed country table, datasets, and the unit-sphere
distance primitives shared by every other module.

Embeddings are plain float64 numpy arrays with unit L2 norm (unit rows for
batches); ``normalize`` / ``normalize_rows`` are the constructors that
guarantee the invariant and evaluation entry points re-check it. All
distances in the toolkit are squared Euclidean; for unit vectors they live
in [0, 4] and satisfy ``||a - b||^2 == 2 - 2 <a, b>``.

Everything here is immutable after construction and safe to share across
threads.
"""
from __future__ import annotations

import hashlib
import io
import os
import zipfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CONTINENTS = ("EU", "AM", "AF", "AS", "OC", "UN")
GENDERS = ("male", "female", "unknown")

# Canonical country-group table: 30 groups, each pinned to exactly one
# continent. The "*_rem" buckets are atomic remainder groups, not unions of
# the named countries.
_COUNTRY_ROWS = (
    ("france", "EU"),
    ("great_britain", "EU"),
    ("ireland", "EU"),
    ("italy", "EU"),
    ("latvia", "EU"),
    ("lithuania", "EU"),
    ("poland", "EU"),
    ("portugal", "EU"),
    ("romania", "EU"),
    ("spain", "EU"),
    ("europe_rem", "EU"),
    ("brazil", "AM"),
    ("canada", "AM"),
    ("colombia", "AM"),
    ("usa", "AM"),
    ("venezuela", "AM"),
    ("americas_rem", "AM"),
    ("nigeria", "AF"),
    ("north_africa", "AF"),
    ("south_africa", "AF"),
    ("africa_rem", "AF"),
    ("china", "AS"),
    ("india", "AS"),
    ("indonesia", "AS"),
    ("malaysia", "AS"),
    ("singapore", "AS"),
    ("thailand", "AS"),
    ("asia_rem", "AS"),
    ("oceania", "OC"),
    ("unknown", "UN"),
)
# The canonical group order of reports, CSV headers and sampling.
COUNTRIES = tuple(c for c, _ in _COUNTRY_ROWS)
_CONTINENT_OF = dict(_COUNTRY_ROWS)
# The country codes in sorted order and each one's continent, for mapping a
# column of country codes by binary search instead of a per-row lookup.
_SORTED_COUNTRIES = np.array(sorted(COUNTRIES))
_CONTINENT_OF_SORTED = np.array([_CONTINENT_OF[c] for c in _SORTED_COUNTRIES.tolist()])

# Recorded in dataset file headers; a file written under another table is
# rejected on load.
TAXONOMY_HASH = hashlib.sha256(
    "\n".join(f"{c}:{k}" for c, k in _COUNTRY_ROWS).encode("ascii")
).hexdigest()[:16]


class ConfigError(Exception):
    """Invalid or inconsistent configuration."""


class ResolutionError(Exception):
    """A measurement was requested below its statistical resolution."""


def continent_of(country: str) -> str:
    """Continent code for a country group, per the canonical table."""
    try:
        return _CONTINENT_OF[country]
    except KeyError:
        raise ValueError(f"unknown country code: {country!r}") from None


def countries_in(continent: str) -> tuple[str, ...]:
    """Country groups of a continent, in canonical order."""
    if continent not in CONTINENTS:
        raise ValueError(f"unknown continent code: {continent!r}")
    return tuple(c for c, k in _COUNTRY_ROWS if k == continent)


def axis_groups(axis: str) -> tuple[str, ...]:
    """Canonical group codes for a grouping axis."""
    if axis == "country":
        return COUNTRIES
    if axis == "continent":
        return CONTINENTS
    if axis == "gender":
        return GENDERS
    raise ValueError(f"unknown grouping axis: {axis!r}")


def normalize(v: np.ndarray) -> np.ndarray:
    """Project a vector onto the unit sphere. Raises on zero (or NaN) norm."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if not n > 0.0:
        raise ValueError("cannot normalize a zero-norm vector")
    return v / n


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise unit normalization of a 2-D array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {x.shape}")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    if not np.all(norms > 0.0):
        raise ValueError("cannot normalize rows with zero norm")
    return x / norms


def squared_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance, computed by direct subtraction."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.dot(d, d))


def squared_norms(x: np.ndarray) -> np.ndarray:
    """Squared L2 norm of each row, as ``cross_squared_distances`` takes it."""
    return np.einsum("ij,ij->i", x, x)


def cross_squared_distances(a: np.ndarray, b: np.ndarray,
                            b_norms: np.ndarray | None = None,
                            out: np.ndarray | None = None) -> np.ndarray:
    """All-pairs squared Euclidean distances between rows of two matrices.

    Uses the expansion ||a||^2 + ||b||^2 - 2<a,b>, clipped at zero. This is
    the canonical distance kernel for every batch computation in the toolkit
    (mining, FAR counting, calibration). A threshold taken from one
    computation compares exactly in another only when both use the same
    shape of ``a``: BLAS can round a cell of a taller or shorter product
    differently, which is why evaluation fixes its row tiles.

    A caller that pairs many row blocks of ``a`` with one ``b`` passes
    ``b_norms = squared_norms(b)`` once instead of having it recomputed per
    call, and may pass a float64 ``out`` of shape (len(a), len(b)) to be
    reused; neither changes a single bit of the result.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = squared_norms(a)
    nb = squared_norms(b) if b_norms is None else b_norms
    d = np.matmul(a, b.T, out=out)
    d *= -2.0
    d += na[:, None]
    d += nb[None, :]
    np.maximum(d, 0.0, out=d)
    return d


def cell_distances(g: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """The kernel's arithmetic on gathered cells of product ``g`` and squared
    norms ``na``, ``nb``, in its operation order: ``max(fl(fl(na - 2g) + nb), 0)``."""
    d = g * -2.0
    d += na
    d += nb
    return np.maximum(d, 0.0, out=d)


# Ordered keys of the doubles, as int64: the key order is the float order,
# -0.0 and +0.0 share key 0, and -inf and +inf sit one key beyond the finite
# range.
_SIGN = np.int64(-1 << 63)
_INF_KEY = int(np.float64(np.inf).view(np.int64))


def _keys_of(x: np.ndarray) -> np.ndarray:
    bits = x.view(np.int64)
    return np.where(bits < 0, -(bits & ~_SIGN), bits)


def _floats_of(keys: np.ndarray) -> np.ndarray:
    return np.where(keys < 0, -keys | _SIGN, keys).view(np.float64)


# Halvings of ``product_cuts``' first bracket, which spans 2**_CUT_STEPS grid
# steps.
_CUT_STEPS = 6


def product_cuts(theta: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """For each element, the largest finite product ``g`` whose kernel
    distance ``max(fl(fl(na - 2g) + nb), 0)`` is still >= ``theta``, or -inf
    when there is none.

    The distance never increases as ``g`` grows (round-to-nearest addition
    is monotone), so at these norms every product above the cut is accepted
    by ``d < theta`` and every product at or below it is rejected. All
    elements are searched at once, by bisection on a grid. The real root
    ``(na + nb - theta) / 2`` lies within 1.5 ulps of ``|na| + |nb| +
    |theta|`` of the cut, and the distance changes only where one of the
    kernel's roundings does, which is at multiples of a sixteenth of that ulp
    or between neighbouring doubles. So a bracket of 2**_CUT_STEPS such grid
    steps, aligned to the grid, is halved _CUT_STEPS times, and the cut is
    read off the last step's ends, each checked against its neighbouring
    double. An element that does not check out (extreme or non-finite
    inputs) is bisected over the ordered keys of the doubles instead, in at
    most 64 steps.
    """
    theta, na, nb = (np.ravel(x).astype(np.float64)
                     for x in np.broadcast_arrays(theta, na, nb))
    # max(d, 0) >= theta is d >= theta for theta > 0, and holds for every
    # finite d otherwise.
    bound = np.where(theta > 0, theta, -np.inf)
    bound[np.isnan(theta)] = np.nan

    def holds(g, at=slice(None)):
        """d(g) >= theta at the elements ``at``, for finite g."""
        d = g * -2.0
        d += na[at]
        d += nb[at]
        return d >= bound[at]

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        scale = np.spacing(np.abs(na) + np.abs(nb) + np.abs(theta))
        root = (na + nb - theta) * 0.5
        step = np.maximum(scale / 16, np.spacing(np.abs(root) + 3 * scale))
        lo = np.floor((root - 1.5 * scale) / step) * step
        half = step * 2.0 ** (_CUT_STEPS - 1)
        good = np.isfinite(lo) & np.isfinite(half) & holds(lo) & ~holds(lo + 2 * half)
        lo = np.where(good, lo, 0.0)
        for _ in range(_CUT_STEPS):
            mid = lo + half
            lo = np.where(holds(mid), mid, lo)
            half *= 0.5
        hi = lo + step
        up, down = np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)
        # d(lo) >= theta; the cut is lo or down if the next double fails.
        at_lo, at_down = ~holds(up), holds(down) & ~holds(hi)
        cut = np.where(at_lo, lo, down)
        good &= at_lo | at_down
        todo = np.flatnonzero(~good)
        if todo.size == 0:
            return cut
        # The rest: bisect the keys, from the last step where it brackets.
        fit = (np.isfinite(lo[todo]) & np.isfinite(hi[todo]) & holds(lo[todo], todo)
               & ~holds(hi[todo], todo))
        lo_key = np.where(fit, _keys_of(lo[todo]), -_INF_KEY)
        hi_key = np.where(fit, _keys_of(hi[todo]), _INF_KEY)
        while todo.size:  # every mid lies strictly inside, so is finite
            mid = (lo_key >> 1) + (hi_key >> 1) + (lo_key & hi_key & 1)  # no overflow
            ok = holds(_floats_of(mid), todo)
            lo_key, hi_key = np.where(ok, mid, lo_key), np.where(ok, hi_key, mid)
            done = hi_key - 1 <= lo_key  # hi_key - lo_key can overflow
            cut[todo[done]] = _floats_of(lo_key[done])
            todo, lo_key, hi_key = todo[~done], lo_key[~done], hi_key[~done]
        return cut


def decide_below(g: np.ndarray, cuts, theta, na, nb, out: np.ndarray) -> int:
    """Fill the boolean ``out`` with ``d < theta`` for the kernel's distance
    ``d`` of product ``g`` at squared norms ``na``, ``nb``, and return the
    number of accepted cells. ``cuts = (sure, maybe)`` are the
    ``product_cuts`` of ``theta`` at the largest and the smallest norms the
    cells have; every operand but ``g`` broadcasts over it.

    The distance never decreases as a norm grows, so a cell above ``sure`` is
    accepted and a cell at or below ``maybe`` is rejected; only the cells
    between the two (usually none) get the kernel's arithmetic on their own
    product and norms. A NaN ``theta`` has the cuts -inf, which accept every
    cell, so callers reject it first.
    """
    sure, maybe = cuts
    n_maybe = int(np.count_nonzero(np.greater(g, maybe, out=out)))
    if n_maybe == 0:
        return 0
    accepted = int(np.count_nonzero(np.greater(g, sure, out=out)))
    if n_maybe > accepted:
        r, c = np.nonzero((g > maybe) & ~out)

        def at(x):
            return np.broadcast_to(x, g.shape)[r, c]

        band = cell_distances(g[r, c], at(na), at(nb)) < at(theta)
        out[r, c] = band
        accepted += int(np.count_nonzero(band))
    return accepted


def same_identity_pairs(a_ids: np.ndarray, b_ids: np.ndarray,
                        b_order: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)`` of every cell with ``a_ids[row] == b_ids[col]``, in
    row-major order, found from a sort of ``b_ids`` rather than an all-pairs
    comparison.

    A caller that pairs many ``a_ids`` with one ``b_ids`` passes its stable
    order ``b_order = np.argsort(b_ids, kind="stable")`` once instead of
    having it recomputed per call. One search finds where each ``a`` id
    would start among the sorted ``b`` ids; the id is there or absent. Runs
    of equal ``b`` ids are measured only when some id repeats.
    """
    by_id = np.argsort(b_ids, kind="stable") if b_order is None else b_order
    sorted_ids = b_ids[by_id]
    first = np.searchsorted(sorted_ids, a_ids, side="left")
    if sorted_ids.size == 0:
        count = np.zeros(len(a_ids), dtype=np.int64)
    else:
        found = np.minimum(first, sorted_ids.size - 1)
        count = (sorted_ids[found] == a_ids).astype(np.int64)
        new_id = np.empty(sorted_ids.size + 1, dtype=bool)
        new_id[0] = new_id[-1] = True
        np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=new_id[1:-1])
        bounds = np.flatnonzero(new_id)
        if bounds.size <= sorted_ids.size:  # some id repeats
            run = np.zeros(sorted_ids.size, dtype=np.int64)
            run[bounds[:-1]] = np.diff(bounds)
            count *= run[found]
    rows = np.repeat(np.arange(len(a_ids)), count)
    offset = np.repeat(first - (np.cumsum(count) - count), count)
    return rows, by_id[offset + np.arange(rows.size)]


def worker_threads(n_tasks: int) -> int:
    """Threads for ``n_tasks`` independent BLAS-bound tasks: ``min(n_tasks,
    usable cores // BLAS threads)``, at least one. The BLAS thread count is
    read in OpenBLAS's order, from ``OPENBLAS_NUM_THREADS``,
    ``GOTO_NUM_THREADS`` and then ``OMP_NUM_THREADS``; when none holds a
    positive count, BLAS spreads each product over every core, and Python
    threads on top of it only contend. OpenBLAS reads these variables once,
    when numpy loads it, so the rule holds only if they were set before that
    and not changed since."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    blas = cores
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            blas = n
            break
    return max(1, min(n_tasks, cores // blas))


def savez_deterministic(path, arrays: dict) -> None:
    """Write an .npz archive with fixed zip metadata.

    np.savez embeds wall-clock timestamps in the zip entries; this writer pins
    them so identical arrays give byte-identical files. np.load reads the
    result like any other .npz.
    """
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.save(buf, np.asarray(arr))
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def assert_unit_rows(x: np.ndarray, tol: float = 1e-6, what: str = "embeddings") -> None:
    norms = np.linalg.norm(np.asarray(x, dtype=np.float64), axis=-1)
    err = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
    if not err <= tol:  # a NaN or inf row makes err NaN or inf
        raise ValueError(f"{what} are not unit-norm (max |norm-1| = {err:.3g})")


@dataclass
class Dataset:
    """Columnar store of sample pairs.

    Arrays are aligned by pair index and made read-only at construction;
    ``group_index`` gives the index partition for a grouping axis, built once
    per axis and kept with the dataset.
    """

    identity_ids: np.ndarray   # (n,) int64, opaque
    countries: np.ndarray      # (n,) unicode country codes
    genders: np.ndarray        # (n,) unicode
    selfie_features: np.ndarray  # (n, d) float64
    doc_features: np.ndarray     # (n, d) float64

    def __post_init__(self) -> None:
        n = len(self.identity_ids)
        for name in ("countries", "genders", "selfie_features", "doc_features"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} has length != {n}")
        if self.selfie_features.ndim != 2 or self.selfie_features.shape != self.doc_features.shape:
            raise ValueError("feature matrices must be 2-D and equally shaped")
        bad = sorted(set(np.unique(self.countries).tolist()) - set(COUNTRIES))
        if bad:
            raise ValueError(f"unknown country codes in dataset: {bad}")
        bad_g = sorted(set(np.unique(self.genders).tolist()) - set(GENDERS))
        if bad_g:
            raise ValueError(f"unknown genders in dataset: {bad_g}")
        for name in ("identity_ids", "countries", "genders", "selfie_features", "doc_features"):
            arr = getattr(self, name)
            if arr.flags.owndata:
                arr.setflags(write=False)
        self._group_indexes: dict[str, dict[str, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.identity_ids)

    @property
    def input_dim(self) -> int:
        return self.selfie_features.shape[1]

    @cached_property
    def continents(self) -> np.ndarray:
        # Every code is in the table (checked at construction), so the search
        # lands on it.
        out = _CONTINENT_OF_SORTED[np.searchsorted(_SORTED_COUNTRIES, self.countries)]
        out.setflags(write=False)
        return out

    def labels(self, axis: str) -> np.ndarray:
        if axis == "country":
            return self.countries
        if axis == "continent":
            return self.continents
        if axis == "gender":
            return self.genders
        raise ValueError(f"unknown grouping axis: {axis!r}")

    def group_index(self, axis: str) -> dict[str, np.ndarray]:
        """Partition of pair indices by group, in canonical group order.

        Every axis group is present as a key; groups absent from the data map
        to empty index arrays. The partition is built on the first call for
        an axis and kept; its index arrays are read-only.
        """
        index = self._group_indexes.get(axis)
        if index is None:
            tags = self.labels(axis)
            index = {g: np.flatnonzero(tags == g) for g in axis_groups(axis)}
            for members in index.values():
                members.setflags(write=False)
            self._group_indexes[axis] = index
        return dict(index)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            identity_ids=self.identity_ids[idx],
            countries=self.countries[idx],
            genders=self.genders[idx],
            selfie_features=self.selfie_features[idx],
            doc_features=self.doc_features[idx],
        )
