import math
import struct
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairtriplet import core
from fairtriplet.core import (
    CONTINENTS,
    COUNTRIES,
    TAXONOMY_HASH,
    Dataset,
    assert_unit_rows,
    cell_distances,
    continent_of,
    countries_in,
    cross_squared_distances,
    decide_below,
    in_order_on_threads,
    normalize,
    normalize_rows,
    product_cuts,
    same_identity_pairs,
    squared_distance,
    squared_norms,
)
from fairtriplet.datagen import GeneratorConfig, generate_dataset


def unit_vectors(dim=5):
    return arrays(
        np.float64, dim,
        elements=st.floats(-1.0, 1.0, allow_nan=False),
    ).filter(lambda v: np.linalg.norm(v) > 1e-3).map(normalize)


def test_every_export_resolves():
    import fairtriplet

    assert [name for name in fairtriplet.__all__ if not hasattr(fairtriplet, name)] == []


class TestNormalize:
    def test_already_unit(self):
        assert np.array_equal(normalize(np.array([1.0, 0.0, 0.0])), [1.0, 0.0, 0.0])

    def test_three_four_five(self):
        assert np.allclose(normalize(np.array([3.0, 4.0])), [0.6, 0.8], atol=0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(2))

    @given(unit_vectors())
    def test_unit_norm(self, v):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-6

    def test_rows(self):
        x = np.array([[3.0, 4.0], [0.0, 2.0]])
        out = normalize_rows(x)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)


class TestSquaredDistance:
    def test_identical(self):
        v = normalize(np.array([1.0, 2.0, 3.0]))
        assert squared_distance(v, v) == 0.0

    def test_antipodal(self):
        assert squared_distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 4.0

    def test_orthogonal(self):
        assert squared_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            squared_distance(np.zeros(2), np.zeros(3))

    @given(unit_vectors(), unit_vectors())
    def test_symmetry_and_range(self, a, b):
        d1 = squared_distance(a, b)
        d2 = squared_distance(b, a)
        assert d1 == d2
        assert -1e-12 <= d1 <= 4.0 + 1e-12

    @given(unit_vectors(), unit_vectors())
    def test_inner_product_identity(self, a, b):
        # For unit vectors, direct subtraction equals 2 - 2<a,b>.
        assert abs(squared_distance(a, b) - (2.0 - 2.0 * float(a @ b))) < 1e-9

    @given(unit_vectors(), unit_vectors())
    def test_zero_iff_equal(self, a, b):
        if squared_distance(a, b) < 1e-20:
            assert np.allclose(a, b, atol=1e-9)

    def test_cross_matrix_matches_scalar(self):
        rng = np.random.default_rng(0)
        a = normalize_rows(rng.normal(size=(7, 4)))
        b = normalize_rows(rng.normal(size=(9, 4)))
        d = cross_squared_distances(a, b)
        for i in range(7):
            for j in range(9):
                assert abs(d[i, j] - squared_distance(a[i], b[j])) < 1e-12

    def test_given_norms_and_buffer_change_no_bit(self):
        rng = np.random.default_rng(1)
        a = normalize_rows(rng.normal(size=(130, 16)))
        b = normalize_rows(rng.normal(size=(500, 16)))
        buf = np.empty((130, 500))
        d = cross_squared_distances(a, b, b_norms=squared_norms(b), out=buf)
        assert d is buf
        assert np.array_equal(d, cross_squared_distances(a, b))

    def test_same_identity_pairs_match_dense_comparison(self):
        rng = np.random.default_rng(2)
        a_ids = rng.integers(0, 20, 50)
        b_ids = rng.integers(0, 20, 35)
        want_rows, want_cols = np.nonzero(a_ids[:, None] == b_ids[None, :])
        order = np.argsort(b_ids, kind="stable")
        for rows, cols in (same_identity_pairs(a_ids, b_ids),
                           same_identity_pairs(a_ids, b_ids, order)):
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        empty_ids = np.array([99, 100])
        for empty in (same_identity_pairs(a_ids, empty_ids),
                      same_identity_pairs(a_ids, empty_ids, np.arange(2))):
            assert empty[0].size == empty[1].size == 0
        for b in (np.array([], dtype=np.int64), rng.permutation(60), np.array([7, 7, 7])):
            want_rows, want_cols = np.nonzero(a_ids[:, None] == b[None, :])
            rows, cols = same_identity_pairs(a_ids, b)
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)


    def test_norms_of_a_row_window_equal_its_slice(self):
        # far_counts takes each tile's selfie norms from one call over the set.
        rng = np.random.default_rng(3)
        for n, dim in ((1, 8), (129, 8), (513, 32), (1000, 32)):
            x = normalize_rows(rng.normal(size=(n, dim)))
            whole = squared_norms(x)
            height = min(128, n)
            for stop in range(height, n + 1, 7):
                window = slice(stop - height, stop)
                assert squared_norms(x[window]).tobytes() == whole[window].tobytes()


# The reference cut search: a scalar bisection over the ordered keys of the
# doubles, one kernel distance per step, in plain Python floats (which round
# as numpy's float64 ufuncs do). The key order is the float order, -0.0 and
# +0.0 share key 0, and -inf and +inf sit one key beyond the finite range.
_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<Q")
_INF_KEY = _BITS.unpack(_DOUBLE.pack(math.inf))[0]


def _float_of_key(key: int) -> float:
    return _DOUBLE.unpack(_BITS.pack(key if key >= 0 else -key | 1 << 63))[0]


def _cell_distance(g: float, na: float, nb: float) -> float:
    """The kernel's arithmetic for one cell: ``max(fl(fl(na - 2g) + nb), 0)``."""
    return max(na - 2.0 * g + nb, 0.0)


def scalar_cut(theta: float, na: float, nb: float) -> float:
    """Largest finite product whose ``_cell_distance`` is still >= theta, or
    -inf when there is none, in at most 64 steps."""
    lo, hi = -_INF_KEY, _INF_KEY  # d(-inf) >= theta, d(+inf) = 0 < theta
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _cell_distance(_float_of_key(mid), na, nb) >= theta:
            lo = mid
        else:
            hi = mid
    return _float_of_key(lo)


def scalar_cuts(theta, na, nb) -> np.ndarray:
    return np.array([scalar_cut(float(t), float(a), float(b))
                     for t, a, b in np.broadcast(theta, na, nb)])


def assert_encloses(theta, na, nb):
    """The bracket of each element's cut at one pair of norms holds the
    scalar search's cut and spans at most a few ulps of |theta| + |na| +
    |nb|; a theta <= 0 or NaN has the bracket (inf, inf)."""
    with np.errstate(all="raise"):
        sure, maybe = product_cuts(theta, na, nb, na, nb)
    theta, na, nb = np.broadcast_arrays(theta, na, nb)
    cut = scalar_cuts(theta, na, nb)
    positive = theta > 0
    assert (maybe[positive] <= cut[positive]).all()
    assert (cut[positive] <= sure[positive]).all()
    assert (sure[~positive] == np.inf).all() and (maybe[~positive] == np.inf).all()
    with np.errstate(over="ignore"):
        ulp = np.spacing(np.abs(theta) + np.abs(na) + np.abs(nb))
    closed = positive & np.isfinite(sure) & np.isfinite(maybe)
    assert (sure[closed] - maybe[closed] <= 10 * ulp[closed]).all()


class TestProductCuts:
    def test_cut_is_the_last_product_at_or_above_theta(self):
        up, down = np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)
        cases = [
            (1.0, 1.0, 2.0),             # theta = na + nb: the root sits at g = 0
            (up, down, up + down),
            (1.0, 1.0, np.nextafter(2.0, 3.0)),  # just below g = 0
            (1.0, 1.0, 1e-300),
            (up, up, 0.5),
            (down, down, 3.999),
            (1.0, 1.0, 4.0),
            (1.0, 1.0, 10.0),            # above every distance of unit rows
        ]
        na, nb, theta = (np.array(x) for x in zip(*cases))
        cuts = scalar_cuts(theta, na, nb)
        assert np.isfinite(cuts).all()
        assert (cell_distances(cuts, na, nb) >= theta).all()
        assert (cell_distances(np.nextafter(cuts, np.inf), na, nb) < theta).all()
        assert scalar_cut(2.0, 1.0, 1.0) >= 0.0
        assert scalar_cut(np.nextafter(2.0, 3.0), 1.0, 1.0) < 0.0
        assert [_float_of_key(k) for k in (-1, 0, 1, _INF_KEY)] == [
            -5e-324, 0.0, 5e-324, np.inf]
        assert_encloses(theta, na, nb)

    @pytest.mark.parametrize("theta_range", [(0.0, 4.2), (0.0, 1e-9), (4.0 - 1e-9, 4.0),
                                             (2.0 - 1e-12, 2.0 + 1e-12)])
    def test_bracket_encloses_the_scalar_cut_near_unit_norms(self, theta_range):
        rng = np.random.default_rng(17)
        n = 2000
        theta = rng.uniform(*theta_range, n)
        na = 1.0 + np.finfo(np.float64).eps * rng.integers(-8, 9, n)
        nb = 1.0 + np.finfo(np.float64).eps * rng.integers(-8, 9, n)
        assert_encloses(theta, na, nb)

    def test_bracket_encloses_the_scalar_cut_on_wide_and_extreme_inputs(self):
        rng = np.random.default_rng(18)
        n = 1500
        cases = [
            (rng.uniform(-1, 8, n), rng.uniform(0, 3, n), rng.uniform(0, 3, n)),
            (rng.uniform(0, 1e-300, n), rng.uniform(0, 1e-300, n), rng.uniform(0, 1e-300, n)),
            (rng.uniform(0, 1e308, n), rng.uniform(0, 1e308, n), rng.uniform(0, 1e308, n)),
            (np.array([0.0, -1.0, 5e-324, 2.0, np.nextafter(2.0, 3.0), 4.0, 10.0,
                       np.inf, np.nan]), 1.0, 1.0),
        ]
        for theta, na, nb in cases:
            assert_encloses(theta, na, nb)

    def test_nonpositive_theta_accepts_nothing_and_overflow_leaves_every_cell(self):
        big = np.finfo(np.float64).max
        with np.errstate(all="raise"):
            none = product_cuts(np.array([0.0, -1.0, -np.inf, np.nan]), 1.0, 1.0, 1.0, 1.0)
            open_ = product_cuts(np.array([1.0, 1.0, 1.0, np.inf]),
                                 np.array([big, np.inf, 1.0, 1.0]), big,
                                 np.array([1.0, 1.0, np.nan, 1.0]), 1.0)
            # theta <= 0 accepts nothing, whatever the norms.
            nan_norms = product_cuts(0.0, np.nan, np.inf, np.nan, 1.0)
        assert none.tolist() == [[np.inf] * 4, [np.inf] * 4]
        assert open_.tolist() == [[np.inf] * 4, [-np.inf] * 4]
        assert nan_norms.tolist() == [np.inf, np.inf]


def band_rows(rng, n, n_dirs=6, dim=8, max_ulps=300):
    """Rows from a few shared directions, each scaled off unit norm by up to
    ``max_ulps`` ulp, so that many cells of their product tie in direction
    but differ in norm: their products fall between the cuts."""
    dirs = normalize_rows(rng.normal(size=(n_dirs, dim)))
    scale = 1.0 + np.finfo(np.float64).eps * rng.integers(-max_ulps, max_ulps + 1, (n, 1))
    return dirs[rng.integers(0, n_dirs, n)] * scale


class TestDecideBelow:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mask_is_the_kernel_decision(self, seed):
        rng = np.random.default_rng(seed)
        a, b = band_rows(rng, 70), band_rows(rng, 90)
        g = a @ b.T
        na, nb = squared_norms(a)[:, None], squared_norms(b)[None, :]
        d = cell_distances(g, na, nb)
        out = np.empty(g.shape, dtype=bool)
        band = 0

        def check(cuts, theta):
            nonlocal band
            sure, maybe = cuts
            band += np.count_nonzero((g > maybe) & (g <= sure))
            accepted = decide_below(g, cuts, theta, na, nb, out)
            want = d < theta
            assert np.array_equal(out, want)
            assert accepted == np.count_nonzero(want)

        # One threshold for every cell, at the extremes of both sides' norms.
        for theta in (*rng.choice(d.ravel(), 12), 0.0, 1e-300, 4.5, np.nan):
            check(product_cuts(theta, na.max(), nb.max(), na.min(), nb.min()), theta)
        # Per row, at the row's own norm (the miner's selfie anchors) ...
        theta = d[np.arange(len(a)), rng.integers(0, len(b), len(a))][:, None]
        check(product_cuts(theta, na, nb.max(), na, nb.min()), theta)
        # ... and per column, at the column's own norm (its doc anchors).
        theta = d[rng.integers(0, len(a), len(b)), np.arange(len(b))][None, :]
        check(product_cuts(theta, na.max(), nb, na.min(), nb), theta)
        assert band > 0  # the cells between the cuts were decided by the kernel

        # A squared norm that overflows leaves every cell to the kernel.
        a[0] *= 1e160
        with np.errstate(over="ignore"):
            g = a @ b.T
            na = squared_norms(a)[:, None]
            d = cell_distances(g, na, nb)
        assert na[0, 0] == np.inf
        for theta in (*rng.choice(d[1:].ravel(), 4), np.nan):
            cuts = product_cuts(theta, na.max(), nb.max(), na.min(), nb.min())
            assert cuts.tolist() == ([np.inf, -np.inf] if theta > 0 else [np.inf, np.inf])
            check(cuts, theta)

    def test_nothing_above_maybe_returns_at_once(self, monkeypatch):
        rng = np.random.default_rng(4)
        a, b = band_rows(rng, 20), band_rows(rng, 30)
        g = a @ b.T
        out = np.ones(g.shape, dtype=bool)
        calls = []
        monkeypatch.setattr(core, "cell_distances", lambda *args: calls.append(args))
        assert decide_below(g, (np.inf, np.inf), 1.0, 1.0, 1.0, out) == 0
        assert not out.any() and calls == []


class TestAssertUnitRows:
    def test_unit_rows_pass(self):
        assert_unit_rows(normalize_rows(np.random.default_rng(4).normal(size=(5, 3))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        x = normalize_rows(np.random.default_rng(5).normal(size=(5, 3)))
        x[1, 0] = bad
        with pytest.raises(ValueError):
            assert_unit_rows(x)

    def test_off_unit_row_rejected(self):
        x = normalize_rows(np.random.default_rng(6).normal(size=(5, 3)))
        x[2] *= 1.001
        with pytest.raises(ValueError):
            assert_unit_rows(x)


class TestTaxonomy:
    def test_thirty_groups_partitioned(self):
        assert len(COUNTRIES) == 30
        buckets = {k: countries_in(k) for k in CONTINENTS}
        assert sum(len(v) for v in buckets.values()) == 30
        flat = [c for v in buckets.values() for c in v]
        assert sorted(flat) == sorted(COUNTRIES)

    def test_known_mappings(self):
        assert continent_of("nigeria") == "AF"
        assert continent_of("thailand") == "AS"
        assert continent_of("unknown") == "UN"
        assert continent_of("oceania") == "OC"
        assert continent_of("usa") == "AM"
        assert continent_of("poland") == "EU"

    def test_unknown_code(self):
        with pytest.raises(ValueError):
            continent_of("atlantis")

    def test_each_country_exactly_one_continent(self):
        for country in COUNTRIES:
            hits = [k for k in CONTINENTS if country in countries_in(k)]
            assert hits == [continent_of(country)]

    def test_table_hash_stable(self):
        # Dataset files record this hash; a new value rejects every file
        # written under the old table.
        assert TAXONOMY_HASH == "627e1355494ffcc8"


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(GeneratorConfig(seed=11, n_pairs=500, input_dim=8))


class TestDataset:
    @pytest.mark.parametrize("axis", ["country", "continent", "gender"])
    def test_group_index_partitions(self, dataset, axis):
        index = dataset.group_index(axis)
        all_idx = np.concatenate([v for v in index.values()])
        assert sorted(all_idx.tolist()) == list(range(len(dataset)))
        tags = dataset.labels(axis)
        for g, members in index.items():
            assert np.array_equal(members, np.flatnonzero(tags == g))

    def test_continents_follow_the_country_table(self, dataset):
        want = [continent_of(c) for c in dataset.countries.tolist()]
        assert dataset.continents.tolist() == want
        assert not dataset.continents.flags.writeable

    @pytest.mark.parametrize("axis", ["country", "continent", "gender"])
    def test_group_index_built_once_per_axis(self, monkeypatch, axis):
        ds = generate_dataset(GeneratorConfig(seed=12, n_pairs=200, input_dim=8))
        calls = []
        labels = Dataset.labels

        def counting(self, axis):
            calls.append(axis)
            return labels(self, axis)

        monkeypatch.setattr(Dataset, "labels", counting)
        first = ds.group_index(axis)
        second = ds.group_index(axis)
        assert calls == [axis]
        assert list(first) == list(second)
        for g, members in first.items():
            assert second[g] is members
            with pytest.raises(ValueError):
                members[:1] = 0
        other = "gender" if axis != "gender" else "country"
        ds.group_index(other)
        ds.group_index(other)
        assert calls == [axis, other]

    def test_arrays_read_only(self, dataset):
        with pytest.raises(ValueError):
            dataset.selfie_features[0, 0] = 1.0


class TestInOrderOnThreads:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_item_order_when_later_items_finish_first(self, workers):
        # Item 0 waits until item `workers - 1`, which another thread runs,
        # has finished.
        finished = []
        last_started = threading.Event()

        def work(item, buffer):
            if item == 0 and workers > 1:
                assert last_started.wait(timeout=10)
            finished.append(item)
            if item == workers - 1:
                last_started.set()
            return item * item

        got = list(in_order_on_threads(range(9), work, list, workers))
        assert got == [i * i for i in range(9)]
        assert sorted(finished) == list(range(9))
        if workers > 1:
            assert finished.index(workers - 1) < finished.index(0)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_buffers_built_on_the_calling_thread_once_per_thread(self, workers):
        made, used, held = [], [], set()
        lock = threading.Lock()
        all_running = threading.Barrier(workers)  # the first items hold every buffer at once

        def new_buffer():
            made.append(threading.get_ident())
            return object()

        def work(item, buffer):
            with lock:
                assert id(buffer) not in held  # no two running items share one
                held.add(id(buffer))
            if item < workers:
                all_running.wait(timeout=10)
            used.append(buffer)
            with lock:
                held.remove(id(buffer))
            return item

        assert list(in_order_on_threads(range(20), work, new_buffer, workers)) == list(range(20))
        assert made == [threading.get_ident()] * workers
        assert len({id(b) for b in used}) <= workers

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_twice_the_workers_submitted_ahead(self, monkeypatch, workers):
        submitted = []

        class Recording(core.ThreadPoolExecutor):
            def submit(self, *args):
                submitted.append(args)
                return super().submit(*args)

        monkeypatch.setattr(core, "ThreadPoolExecutor", Recording)
        ahead = []
        for k, item in enumerate(in_order_on_threads(range(30), lambda i, b: i, list, workers)):
            assert item == k
            ahead.append(len(submitted) - (k + 1))
        assert max(ahead) == 2 * workers
        assert len(submitted) == 30

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_work_items_error_reaches_the_consumer(self, workers):
        def work(item, buffer):
            if item == 4:
                raise ArithmeticError("item 4")
            return item

        got = []
        with pytest.raises(ArithmeticError, match="^item 4$"):
            for item in in_order_on_threads(range(12), work, list, workers):
                got.append(item)
        assert got == [0, 1, 2, 3]

    def test_one_worker_starts_no_pool(self, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool was started")

        monkeypatch.setattr(core, "ThreadPoolExecutor", NoPool)
        threads = []

        def work(item, buffer):
            threads.append(threading.get_ident())
            return item

        for workers in (0, 1):
            threads.clear()
            assert list(in_order_on_threads(range(5), work, list, workers)) == list(range(5))
            assert threads == [threading.get_ident()] * 5
