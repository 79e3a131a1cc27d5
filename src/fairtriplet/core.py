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

    Uses the expansion ||a||^2 + ||b||^2 - 2<a,b>, clipped at zero:
    ``cell_distances`` on the product. Calibration reads this canonical
    kernel; mining and FAR counting read only its products (``decide_below``).
    A threshold taken from one computation compares exactly in another only
    when both use the same shape of ``a``: BLAS can round a cell of a taller
    or shorter product differently, which is why evaluation fixes its row
    tiles.

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
    return cell_distances(d, na[:, None], nb[None, :], out=d)


def cell_distances(g: np.ndarray, na: np.ndarray, nb: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The kernel's arithmetic on products ``g`` and squared norms ``na``,
    ``nb``, in its operation order: ``max(fl(fl(na - 2g) + nb), 0)``. Given
    ``out`` (which may be ``g``), it writes the distances there."""
    d = np.multiply(g, -2.0, out=out)
    d += na
    d += nb
    return np.maximum(d, 0.0, out=d)


# The margin of ``product_cuts``' bracket, in ulps of S = |theta| + |na| +
# |nb|. Near the real root (na + nb - theta) / 2 the kernel's two roundings
# move the distance by at most one ulp of S, and the distance moves by 2 per
# unit of product, so the cut lies within one ulp of S of the root: half for
# the roundings, half for the step to the next double. The computed root lies
# within half an ulp of the real one, so 1.5 ulps hold the cut. Four ulps of
# the computed S are at least two of S even where the sum rounds down across
# a power of two, which leaves room for the rounding of root +- margin.
_CUT_ULPS = 4


def product_cuts(theta, na_max, nb_max, na_min, nb_min) -> np.ndarray:
    """``(sure, maybe)``, stacked: a bracket of the cut of ``theta`` for the
    cells with squared norms in [na_min, na_max] x [nb_min, nb_max].

    The cut at norms ``na``, ``nb`` is the largest product whose kernel
    distance is still >= ``theta``; ``d < theta`` accepts exactly the
    products above it. It never decreases as a norm grows, so ``sure``, the
    root ``(na + nb - theta) / 2`` at the largest norms plus ``_CUT_ULPS``
    ulps, lies at or above every cell's cut, and ``maybe``, the root at the
    smallest norms minus as much, at or below it. A theta <= 0 or NaN gives
    (inf, inf), which accepts nothing; a bracket that is not finite gives
    (inf, -inf), which leaves every cell to the kernel.
    """
    theta = np.asarray(theta, dtype=np.float64)
    with np.errstate(all="ignore"):
        sure, maybe = ((na + nb - theta) * 0.5
                       + side * np.spacing(np.abs(theta) + np.abs(na) + np.abs(nb))
                       for na, nb, side in ((na_max, nb_max, _CUT_ULPS),
                                            (na_min, nb_min, -_CUT_ULPS)))
    none, open_ = ~(theta > 0), ~(np.isfinite(sure) & np.isfinite(maybe))
    return np.stack(np.broadcast_arrays(
        np.where(none | open_, np.inf, sure),
        np.where(none, np.inf, np.where(open_, -np.inf, maybe))))


def decide_below(g: np.ndarray, cuts, theta, na, nb, out: np.ndarray) -> int:
    """Fill the boolean ``out`` with ``d < theta`` for the kernel's distance
    ``d`` of product ``g`` at squared norms ``na``, ``nb``, and return the
    number of accepted cells. ``cuts = (sure, maybe)`` is the
    ``product_cuts`` bracket of ``theta`` over the norms the cells have;
    every operand but ``g`` broadcasts over it.

    A cell above ``sure`` is accepted and a cell at or below ``maybe`` is
    rejected; only the cells between the two (usually none) get the kernel's
    arithmetic on their own product and norms. A NaN ``theta`` has the cuts
    (inf, inf), which accept nothing, as ``d < theta`` does.
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
