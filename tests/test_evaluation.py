import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtriplet import core, evaluation
from fairtriplet.core import (
    ResolutionError,
    cross_squared_distances,
    normalize_rows,
    same_identity_pairs,
    squared_norms,
)
from fairtriplet.evaluation import (
    EvalSet,
    RocCurve,
    calibrate_threshold,
    calibrate_threshold_from_distances,
    default_theta_grid,
    far,
    far_counts,
    far_matrix,
    frr,
    gender_pools,
    genuine_distances,
    impostor_distances,
    per_group_far,
    roc_curve,
    roc_curve_over_splits,
)


def make_eval_set(rng, m, dim=6, genders=None, ids=None, selfie=None, doc=None):
    selfie = selfie if selfie is not None else normalize_rows(rng.normal(size=(m, dim)))
    doc = doc if doc is not None else normalize_rows(rng.normal(size=(m, dim)))
    return EvalSet(
        selfie_emb=selfie,
        doc_emb=doc,
        identity_ids=ids if ids is not None else np.arange(m, dtype=np.int64),
        genders=genders if genders is not None else np.array(["male"] * m),
    )


def continent_pools(es, countries):
    """One pool per continent of the pairs' countries, in order of first
    appearance."""
    lut = {"poland": "EU", "nigeria": "AF", "india": "AS", "usa": "AM"}
    continents = np.array([lut[c] for c in countries.tolist()])
    return {g: es.subset(np.flatnonzero(continents == g))
            for g in dict.fromkeys(continents.tolist())}


def brute_force_far(es, theta, doc_es=None):
    """Pure-loop oracle: ordered impostor pairs, strict < acceptance."""
    docs = doc_es if doc_es is not None else es
    accepted = comparisons = 0
    for i in range(len(es)):
        for j in range(len(docs)):
            if es.identity_ids[i] == docs.identity_ids[j]:
                continue
            comparisons += 1
            d = float(sum((a - b) ** 2 for a, b in
                          zip(es.selfie_emb[i].tolist(), docs.doc_emb[j].tolist())))
            if d < theta:
                accepted += 1
    return accepted, comparisons


def dense_far_counts(selfie, selfie_ids, doc, doc_ids, theta):
    """One-shot reference: the whole distance matrix and a dense id mask."""
    d = cross_squared_distances(selfie, doc)
    impostor = selfie_ids[:, None] != doc_ids[None, :]
    return int(np.count_nonzero((d < theta) & impostor)), int(np.count_nonzero(impostor))


def brute_force_frr(es, theta):
    rejected = 0
    for i in range(len(es)):
        d = float(sum((a - b) ** 2 for a, b in
                      zip(es.selfie_emb[i].tolist(), es.doc_emb[i].tolist())))
        if d >= theta:
            rejected += 1
    return rejected, len(es)


def eval_set_with_genuine_distances(d2s):
    """Pairs placed on the circle so genuine distances are exactly d2s."""
    m = len(d2s)
    selfie = np.zeros((m, 2))
    doc = np.zeros((m, 2))
    selfie[:, 0] = 1.0
    for i, d2 in enumerate(d2s):
        cos = 1.0 - d2 / 2.0
        doc[i] = [cos, np.sqrt(max(1.0 - cos**2, 0.0))]
    return make_eval_set(np.random.default_rng(0), m, dim=2, selfie=selfie, doc=doc)


class TestFrr:
    def test_theta_zero_rejects_all(self):
        es = make_eval_set(np.random.default_rng(0), 20)
        assert frr(es, 0.0) == 1.0

    def test_theta_above_four_rejects_none(self):
        es = make_eval_set(np.random.default_rng(1), 20)
        assert frr(es, 4.0 + 1e-9) == 0.0

    def test_hand_enumeration(self):
        es = eval_set_with_genuine_distances([0.1, 0.5, 0.9])
        # 0.5 >= 0.5 counts as rejected, as does 0.9.
        assert frr(es, 0.5) == pytest.approx(2 / 3)


class TestFar:
    def test_theta_zero(self):
        es = make_eval_set(np.random.default_rng(2), 15)
        assert far(es, 0.0) == 0.0

    def test_theta_above_four(self):
        es = make_eval_set(np.random.default_rng(3), 15)
        assert far(es, 4.0 + 1e-9) == 1.0

    def test_three_identity_toy_vs_brute_force(self):
        es = make_eval_set(np.random.default_rng(4), 3)
        dists = sorted(
            impostor_distances(es.selfie_emb, es.identity_ids,
                               es.doc_emb, es.identity_ids).tolist()
        )
        assert len(dists) == 6
        for theta in [(a + b) / 2 for a, b in zip(dists, dists[1:])]:
            acc, comp = far_counts(es.selfie_emb, es.identity_ids,
                                   es.doc_emb, es.identity_ids, theta)
            b_acc, b_comp = brute_force_far(es, theta)
            assert (acc, comp) == (b_acc, b_comp)

    def test_duplicate_identities_excluded(self):
        rng = np.random.default_rng(5)
        ids = np.array([0, 0, 1, 2], dtype=np.int64)
        es = make_eval_set(rng, 4, ids=ids)
        _, comparisons = far_counts(es.selfie_emb, es.identity_ids,
                                    es.doc_emb, es.identity_ids, 1.0)
        # 16 ordered pairs minus 4 same-index minus 2 cross-index same-id.
        assert comparisons == 10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        es = make_eval_set(rng, 40)
        perm = rng.permutation(40)
        shuffled = es.subset(perm)
        for theta in (0.5, 1.0, 2.0):
            assert far(es, theta) == far(shuffled, theta)
            assert frr(es, theta) == frr(shuffled, theta)

    @settings(max_examples=20)
    @given(st.integers(5, 60), st.floats(0.0, 4.2), st.integers(0, 10_000))
    def test_matches_brute_force_random(self, m, theta, seed):
        es = make_eval_set(np.random.default_rng(seed), m)
        acc, comp = far_counts(es.selfie_emb, es.identity_ids,
                               es.doc_emb, es.identity_ids, theta)
        assert (acc, comp) == brute_force_far(es, theta)
        rej, tot = brute_force_frr(es, theta)
        assert frr(es, theta) == rej / tot

    def test_monotone_in_theta(self):
        es = make_eval_set(np.random.default_rng(7), 60)
        thetas = np.linspace(0, 4.1, 43)
        fars = [far(es, t) for t in thetas]
        frrs = [frr(es, t) for t in thetas]
        assert all(a <= b for a, b in zip(fars, fars[1:]))
        assert all(a >= b for a, b in zip(frrs, frrs[1:]))


class TestTiledFarCounts:
    @pytest.mark.parametrize("n_selfies", [1, 127, 128, 129, 513])
    def test_matches_dense_reference(self, n_selfies):
        rng = np.random.default_rng(n_selfies)
        n_docs = 300
        selfie = normalize_rows(rng.normal(size=(n_selfies, 8)))
        doc = normalize_rows(rng.normal(size=(n_docs, 8)))
        # Ids repeat within each side and across the two sides.
        selfie_ids = rng.integers(0, 150, n_selfies)
        doc_ids = rng.integers(0, 150, n_docs)
        d = cross_squared_distances(selfie, doc)
        impostor = selfie_ids[:, None] != doc_ids[None, :]
        # Ties on the first row and many on the last, which sits in the last
        # tile, where a one-row product can round some cells lower.
        ties = [*d[0, impostor[0]][::60], *d[-1, impostor[-1]][::3]]
        top = d[impostor].max()
        for theta in (0.0, *ties, top, np.nextafter(top, np.inf), 4.1):
            got = far_counts(selfie, selfie_ids, doc, doc_ids, theta)
            assert got == dense_far_counts(selfie, selfie_ids, doc, doc_ids, theta), theta
        accepted, comparisons = far_counts(selfie, selfie_ids, doc, doc_ids, top)
        assert accepted < comparisons  # a distance equal to theta is rejected
        assert far_counts(selfie, selfie_ids, doc, doc_ids, 0.0)[0] == 0
        assert far_counts(selfie, selfie_ids, doc, doc_ids, 4.1) == (comparisons, comparisons)

    def test_no_impostor_comparisons_rejected(self):
        rng = np.random.default_rng(21)
        selfie = normalize_rows(rng.normal(size=(130, 4)))
        doc = normalize_rows(rng.normal(size=(5, 4)))
        with pytest.raises(ValueError):
            far_counts(selfie, np.full(130, 7), doc, np.full(5, 7), 1.0)

    def test_far_matrix_matches_dense_recount(self):
        rng = np.random.default_rng(22)
        m = 400
        countries = rng.choice(np.array(["poland", "nigeria", "india"]), m)
        es = make_eval_set(rng, m, ids=rng.integers(0, 300, m))
        pools = continent_pools(es, countries)
        theta = float(np.quantile(np.sort(impostor_distances(
            es.selfie_emb, es.identity_ids, es.doc_emb, es.identity_ids)), 0.3))
        matrix = far_matrix(pools, theta)
        for i, g in enumerate(matrix.groups):
            for j, h in enumerate(matrix.groups):
                a, c = dense_far_counts(pools[g].selfie_emb, pools[g].identity_ids,
                                        pools[h].doc_emb, pools[h].identity_ids, theta)
                assert (matrix.accepted[i, j], matrix.comparisons[i, j]) == (a, c)
                assert matrix.values[i, j] == a / c

    def test_non_finite_embeddings_raise_in_every_pass(self):
        # A NaN distance is not below any bound, so a pass that did not check
        # would drop that row's distances without a word.
        es = make_eval_set(np.random.default_rng(26), 50)
        es.selfie_emb[7, 2] = np.nan
        args = es.selfie_emb, es.identity_ids, es.doc_emb, es.identity_ids
        with pytest.raises(ValueError) as want:
            far_counts(*args, 1.0)
        assert str(want.value) == "embeddings must be finite"
        for measure in (lambda: impostor_distances(*args),
                        lambda: impostor_distances(*args, smallest=10),
                        lambda: calibrate_threshold(es, 0.01),
                        lambda: default_theta_grid(es),
                        lambda: roc_curve(es, np.array([0.5, 1.0]))):
            with pytest.raises(ValueError) as got:
                measure()
            assert str(got.value) == str(want.value)

    def test_tile_passes_per_call(self, monkeypatch):
        # No impostor vector is kept with a set: each calibration makes one
        # pass over its distance tiles, the theta grid two and the ROC one
        # per set or split. A set of up to 128 pairs is one tile.
        passes = []
        impostor_tile = evaluation._impostor_tile

        def counting(selfie, *args):
            passes.append(len(selfie.emb))
            return impostor_tile(selfie, *args)

        monkeypatch.setattr(evaluation, "_impostor_tile", counting)
        es = make_eval_set(np.random.default_rng(23), 60)
        calibrate_threshold(es, 0.05)
        assert passes == [60]
        grid = default_theta_grid(es, 20)
        assert passes == [60] * 3
        roc_curve(es, grid)
        calibrate_threshold(es, 0.05)
        assert passes == [60] * 5
        roc_curve_over_splits(es, grid, n_splits=3, split_fraction=0.5,
                              rng=np.random.default_rng(0))
        assert passes == [60] * 5 + [30] * 3

    def test_theta_grid_equals_numpy_quantile_bits(self):
        # 1, 2, 3 and 5 tiles; n = 2 impostor comparisons (a square set
        # cannot have n = 1: n = m^2 minus a sum of squares); ties with
        # repeated ids; distances exactly on bucket edges (0, 2 and 4); and
        # every distance in one bucket, [2, 2 + 1/1024).
        rng = np.random.default_rng(25)
        axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        selfie_angles = rng.uniform(0.0, 1e-4, 150)
        doc_angles = np.pi / 2 + 1e-4 + rng.uniform(0.0, 1e-4, 150)
        sets = {
            "n = 2": make_eval_set(rng, 2),
            "spread, 2 tiles": make_eval_set(rng, 129),
            "tied, repeated ids, 3 tiles": tied_set(rng, 300, ids=rng.integers(0, 100, 300)),
            "tied, 5 tiles": tied_set(rng, 600),
            "on bucket edges": make_eval_set(
                rng, 200, dim=2, selfie=axes[rng.integers(0, 4, 200)],
                doc=axes[rng.integers(0, 4, 200)], ids=rng.integers(0, 150, 200)),
            "one bucket": make_eval_set(
                rng, 150, dim=2,
                selfie=np.stack([np.cos(selfie_angles), np.sin(selfie_angles)], axis=1),
                doc=np.stack([np.cos(doc_angles), np.sin(doc_angles)], axis=1)),
        }
        for name, es in sets.items():
            values = np.sort(impostor_distances(es.selfie_emb, es.identity_ids,
                                                es.doc_emb, es.identity_ids))
            if name == "one bucket":
                assert 2.0 <= values[0] and values[-1] < 2.0 + 1 / 1024
            if name == "on bucket edges":
                assert set(np.unique(values).tolist()) == {0.0, 2.0, 4.0}
            for points in (2, 3, 12, 48):
                qs = np.linspace(0.0, 1.0, max(points - 2, 2))
                want = np.unique(np.concatenate(
                    [[0.0], np.quantile(values, qs), [np.nextafter(values[-1], np.inf)]]))
                got = default_theta_grid(es, points)
                assert got.tobytes() == want.tobytes(), (name, points)

    def test_memory_is_one_tile(self):
        # A 128-row float tile against 4000 docs is 4.1 MB; a 512-row chunk
        # with its dense id mask and boolean temporaries is over 16 MB.
        rng = np.random.default_rng(24)
        n = 4000
        selfie = normalize_rows(rng.normal(size=(n, 8)))
        doc = normalize_rows(rng.normal(size=(n, 8)))
        ids = np.arange(n)
        tracemalloc.start()
        try:
            far_counts(selfie, ids, doc, ids, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    @pytest.mark.parametrize("far_first_tile", [False, True])
    def test_calibration_memory_is_bounded(self, far_first_tile):
        # The 2000-pair set's impostor vector takes 32 MB; a bounded pass
        # holds a tile (2 MB), its kept values and the k + 1 = 4000 smallest,
        # also when its first tile sets a bound above nearly every distance.
        es = far_first_tile_set(np.random.default_rng(28), 2000, 8) if far_first_tile \
            else make_eval_set(np.random.default_rng(28), 2000, dim=8)
        tracemalloc.start()
        try:
            calibrate_threshold(es, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12_000_000

    def test_theta_grid_and_roc_memory_is_bounded(self, monkeypatch):
        # The 2000-pair set's impostor vector takes 32 MB; the grid's passes
        # hold a tile (2 MB) per thread and the values of the buckets they
        # select, and the ROC's pass a tile per thread.
        es = make_eval_set(np.random.default_rng(29), 2000, dim=8)
        for workers in (1, 2):
            monkeypatch.setattr(evaluation, "worker_threads", lambda n: workers)
            tracemalloc.start()
            try:
                roc_curve(es, default_theta_grid(es))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 12_000_000, workers


def far_first_tile_set(rng, m, dim, ids=None):
    """An eval set whose docs cluster around one direction, with the first
    tile's selfies at the antipodes of their docs: far from every doc, so a
    bound taken from the first tile lies above nearly every distance."""
    doc = normalize_rows(np.eye(dim)[0] + 0.15 * rng.normal(size=(m, dim)))
    selfie = normalize_rows(doc + 0.15 * rng.normal(size=(m, dim)))
    selfie[:128] = -doc[:128]
    return make_eval_set(rng, m, dim=dim, selfie=selfie, doc=doc, ids=ids)


def tied_set(rng, m, dim=2, ids=None):
    """An eval set of rounded low-dimensional rows: many distances tie."""
    selfie = normalize_rows(np.round(rng.normal(size=(m, dim)), 1) + 1e-3)
    doc = normalize_rows(np.round(rng.normal(size=(m, dim)), 1) + 1e-3)
    return make_eval_set(rng, m, dim=dim, selfie=selfie, doc=doc, ids=ids)


def lowest_target(n):
    """The smallest target FAR that n impostor comparisons resolve: 1/n, or
    one float step above it where n * (1/n) rounds below 1."""
    return 1.0 / n if n * (1.0 / n) >= 1.0 else float(np.nextafter(1.0 / n, 1.0))


def sorted_calibration(es, target):
    """The calibration rule read off the set's full impostor vector, sorted."""
    return calibrate_threshold_from_distances(np.sort(impostor_distances(
        es.selfie_emb, es.identity_ids, es.doc_emb, es.identity_ids)), target)


def scale_rows_off_unit(rng, x, fraction=0.4, max_ulps=3):
    """Scale a random share of the rows by a few ulp up or down from 1."""
    x = x.copy()
    for i in rng.choice(len(x), size=int(len(x) * fraction), replace=False):
        scale = 1.0
        for _ in range(int(rng.integers(1, max_ulps + 1))):
            scale = np.nextafter(scale, rng.choice([-np.inf, np.inf]))
        x[i] *= scale
    return x


def tie_heavy_sets(n_selfies, n_docs, dim, n_dirs, seed):
    """Selfie and doc rows drawn from a few shared directions, so that many
    cells tie, with some rows a few ulp off unit norm and ids repeating within
    and across the two sides."""
    rng = np.random.default_rng(seed)
    dirs = normalize_rows(rng.normal(size=(n_dirs, dim)))
    selfie = scale_rows_off_unit(rng, dirs[rng.integers(0, n_dirs, n_selfies)])
    doc = scale_rows_off_unit(rng, dirs[rng.integers(0, n_dirs, n_docs)])
    n_ids = n_selfies // 2
    return selfie, rng.integers(0, n_ids, n_selfies), doc, rng.integers(0, n_ids, n_docs)


def distance_tiles(selfie, doc):
    """``(lo, d)`` per tile of evaluation's windows, with ``d[i - lo, j]`` the
    kernel's squared distance of selfie i and doc j."""
    return [(lo, cross_squared_distances(selfie[rows], doc)[lo - rows.start:])
            for lo, rows in evaluation._tile_windows(len(selfie))]


def distance_tile_far_counts(selfie, selfie_ids, doc, doc_ids, theta):
    """The counting path that decides on the distance tiles themselves:
    ``np.less`` on every cell of each tile, less its same-identity cells."""
    rows, cols = same_identity_pairs(selfie_ids, doc_ids)
    accepted = 0
    for lo, d in distance_tiles(selfie, doc):
        acc = np.less(d, theta)
        a, b = np.searchsorted(rows, (lo, lo + len(d)))
        accepted += int(np.count_nonzero(acc)) - int(np.count_nonzero(acc[rows[a:b] - lo, cols[a:b]]))
    return accepted, len(selfie) * len(doc) - rows.size


def distance_tile_impostor_values(selfie, selfie_ids, doc, doc_ids):
    """Every impostor cell of the distance tiles, sorted, with a dense id
    mask per tile: the count below theta is ``distance_tile_far_counts``."""
    values = [d[selfie_ids[lo:lo + len(d), None] != doc_ids[None, :]]
              for lo, d in distance_tiles(selfie, doc)]
    return np.sort(np.concatenate(values))


class TestProductCuts:
    @pytest.mark.parametrize("n_selfies, n_docs, dim, n_dirs",
                             [(513, 300, 8, 45), (129, 60, 32, 30)])
    def test_every_tie_counts_as_on_the_distance_tiles(self, n_selfies, n_docs, dim, n_dirs):
        selfie, selfie_ids, doc, doc_ids = tie_heavy_sets(n_selfies, n_docs, dim, n_dirs,
                                                          seed=n_selfies)
        assert len(np.unique(squared_norms(selfie))) > 1  # so the two cuts differ
        impostor = distance_tile_impostor_values(selfie, selfie_ids, doc, doc_ids)
        top = impostor[-1]
        thetas = np.array([*np.unique(impostor), 0.0, -1.0, 1e-300,
                           np.nextafter(top, np.inf), top + 1.0])
        want = np.searchsorted(impostor, thetas, side="left")
        for k in range(0, len(thetas), len(thetas) // 25):
            assert distance_tile_far_counts(selfie, selfie_ids, doc, doc_ids,
                                            thetas[k]) == (want[k], impostor.size)
        for theta, accepted in zip(thetas.tolist(), want.tolist()):
            got = far_counts(selfie, selfie_ids, doc, doc_ids, theta)
            assert got == (accepted, impostor.size), theta
        assert want[-1] == impostor.size and want[-2] == impostor.size
        assert far_counts(selfie, selfie_ids, doc, doc_ids, top)[0] < impostor.size

    def test_non_finite_embeddings_rejected(self):
        rng = np.random.default_rng(26)
        selfie = normalize_rows(rng.normal(size=(10, 4)))
        doc = normalize_rows(rng.normal(size=(10, 4)))
        ids = np.arange(10)
        for bad in (np.nan, np.inf):
            broken = doc.copy()
            broken[3, 1] = bad
            with pytest.raises(ValueError):
                far_counts(selfie, ids, broken, ids, 1.0)
            with pytest.raises(ValueError):
                make_eval_set(rng, 10, dim=4, selfie=selfie, doc=broken)

    @pytest.mark.parametrize("theta", [0.0, np.nan, 1.0])
    def test_non_finite_embeddings_rejected_at_every_theta(self, theta):
        # Each side is checked before any counting, so theta <= 0 or NaN,
        # which accepts nothing, does not let a NaN row through.
        pools = unequal_pools(np.random.default_rng(27), sizes=(6, 9, 12))
        pools["g1"].doc_emb[3, 1] = np.nan
        pool = pools["g1"]
        with pytest.raises(ValueError, match="^embeddings must be finite$"):
            far_counts(pool.selfie_emb, pool.identity_ids, pool.doc_emb, pool.identity_ids,
                       theta)
        with pytest.raises(ValueError, match="^embeddings must be finite$"):
            per_group_far(pools, theta)
        with pytest.raises(ValueError, match="^embeddings must be finite$"):
            far_matrix(pools, theta)


class TestCalibration:
    def test_enumeration_example(self):
        dists = np.array([0.2, 0.4, 0.6, 0.8])
        theta = calibrate_threshold_from_distances(dists, 0.25)
        assert theta == 0.4
        # FAR at theta is 1/4 <= target; at the next grid value it exceeds it.
        assert np.sum(dists < theta) / 4 <= 0.25
        assert np.sum(dists < 0.6) / 4 > 0.25

    def test_target_one_accepts_everything(self):
        dists = np.sort(np.random.default_rng(8).uniform(0, 4, 50))
        theta = calibrate_threshold_from_distances(dists, 1.0)
        assert theta > dists[-1]
        assert np.sum(dists < theta) == 50

    def test_scale_equivariance(self):
        dists = np.sort(np.random.default_rng(9).uniform(0, 2, 64))
        t1 = calibrate_threshold_from_distances(dists, 0.3)
        t2 = calibrate_threshold_from_distances(2.0 * dists, 0.3)
        assert t2 == 2.0 * t1

    def test_resolution_precondition(self):
        dists = np.sort(np.random.default_rng(10).uniform(0, 4, 50))
        with pytest.raises(ResolutionError):
            calibrate_threshold_from_distances(dists, 0.001)

    def test_contract_on_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(10, 400))
            dists = np.sort(rng.uniform(0, 4, n))
            target = float(rng.uniform(1.5 / n, 1.0))
            theta = calibrate_threshold_from_distances(dists, target)
            assert np.sum(dists < theta) / n <= target
            above = dists[dists > theta]
            if above.size:
                next_grid = above[0]
                assert np.sum(dists < next_grid) / n > target

    def test_end_to_end_with_eval_set(self):
        es = make_eval_set(np.random.default_rng(12), 80)
        theta = calibrate_threshold(es, 0.05)
        assert far(es, theta) <= 0.05

    def test_selection_equals_sorted_read(self):
        rng = np.random.default_rng(14)
        m = 600  # 5 tiles, the last overlapping the one before it
        repeated = rng.integers(0, m // 3, m)
        sets = {
            "far first tile": far_first_tile_set(rng, m, 6),
            "far first tile, repeated ids": far_first_tile_set(rng, m, 6, ids=repeated),
            "tied": tied_set(rng, m),
            "tied, repeated ids": tied_set(rng, m, ids=repeated),
            "spread": make_eval_set(rng, m),
        }
        first_tile = sets["far first tile"]
        d = distance_tiles(first_tile.selfie_emb, first_tile.doc_emb)[0][1]
        full = np.sort(impostor_distances(first_tile.selfie_emb, first_tile.identity_ids,
                                          first_tile.doc_emb, first_tile.identity_ids))
        # Every distance of the first tile lies above the 0.25 target's rank.
        assert d.min() > full[int(0.25 * full.size)]
        for name, es in sets.items():
            n = np.count_nonzero(es.identity_ids[:, None] != es.identity_ids[None, :])
            # n * target == 1 (k = 1), then 0.0015, 0.25, 0.999 and 1.
            for target in (lowest_target(n), 0.0015, 0.25, 0.999, 1.0):
                assert calibrate_threshold(es, target) == sorted_calibration(es, target), \
                    (name, target)

    def test_bounded_pass_holds_the_smallest_values(self):
        rng = np.random.default_rng(17)
        es = far_first_tile_set(rng, 300, 6, ids=rng.integers(0, 100, 300))
        args = es.selfie_emb, es.identity_ids, es.doc_emb, es.identity_ids
        full = np.sort(impostor_distances(*args))
        for smallest in (1, 2, 128, 5_000, full.size - 1, full.size, full.size + 7):
            kept = np.sort(impostor_distances(*args, smallest=smallest))
            assert full.size >= kept.size >= min(smallest, full.size)
            assert kept[:smallest].tobytes() == full[:smallest].tobytes(), smallest

    def test_selection_on_small_and_large_sets(self):
        # 1, 2 and 3 tiles (265 pairs hold 69,960 impostor comparisons), with
        # one and with repeated ids; test_selection_equals_sorted_read has 5.
        rng = np.random.default_rng(15)
        for m in (2, 3, 7, 100, 129, 256, 265):
            for ids in (None, rng.integers(0, max(m // 2, 2), m)):
                es = make_eval_set(rng, m, ids=ids)
                n = np.count_nonzero(es.identity_ids[:, None] != es.identity_ids[None, :])
                if n == 0:  # every pair shares its id
                    with pytest.raises(ResolutionError):
                        calibrate_threshold(es, 1.0)
                    continue
                for target in (lowest_target(n), 1.5 / n, 0.1, 1.0):
                    if n * target < 1.0:
                        continue
                    assert calibrate_threshold(es, target) == sorted_calibration(es, target), \
                        (m, target)

    def test_evaluation_leaves_nothing_on_the_set(self):
        # Calibration, the theta grid and the ROC keep nothing with the set,
        # and calibrating again gives the same threshold.
        es = make_eval_set(np.random.default_rng(16), 70)
        theta = calibrate_threshold(es, 0.05)
        assert theta == sorted_calibration(es, 0.05)
        roc_curve(es, default_theta_grid(es, 20))
        assert set(vars(es)) == {f.name for f in dataclasses.fields(es)}
        assert calibrate_threshold(es, 0.05) == theta


class TestFarMatrix:
    def test_identical_distributions_cells_agree(self):
        rng = np.random.default_rng(13)
        m = 300
        countries = np.array((["poland"] * (m // 2)) + (["india"] * (m // 2)))
        es = make_eval_set(rng, m)
        theta = np.quantile(
            impostor_distances(es.selfie_emb, es.identity_ids,
                               es.doc_emb, es.identity_ids), 0.2,
        )
        pools = continent_pools(es, countries)
        matrix = far_matrix(pools, float(theta))
        # Exchangeable groups: every cell estimates the same rate.
        p = matrix.values.mean()
        for i in range(2):
            for j in range(2):
                n = matrix.comparisons[i, j]
                sigma = np.sqrt(max(p * (1 - p) / n, 1e-12))
                assert abs(matrix.values[i, j] - p) <= 4 * sigma

    def test_theta_zero_gives_zero_matrix(self):
        rng = np.random.default_rng(14)
        countries = np.array(["poland"] * 10 + ["nigeria"] * 10)
        es = make_eval_set(rng, 20)
        pools = continent_pools(es, countries)
        matrix = far_matrix(pools, 0.0)
        assert np.all(matrix.values == 0.0)

    def test_diagonal_matches_pooled_far_when_identical(self):
        rng = np.random.default_rng(16)
        m = 400
        countries = np.array((["poland"] * (m // 2)) + (["india"] * (m // 2)))
        es = make_eval_set(rng, m)
        theta = 1.5
        pooled = far(es, theta)
        pools = continent_pools(es, countries)
        diag = per_group_far(pools, theta)
        for g, v in diag.items():
            n = m // 2 * (m // 2 - 1)
            sigma = np.sqrt(max(pooled * (1 - pooled) / n, 1e-12))
            assert abs(v - pooled) <= 4 * sigma


def unequal_pools(rng, sizes=(2, 127, 129, 300), dim=8):
    """Pools of the given sizes whose ids repeat within and across pools. (A
    one-pair pool has no impostor comparison in its diagonal cell.)"""
    pools = {}
    for k, m in enumerate(sizes):
        pools[f"g{k}"] = make_eval_set(rng, m, dim=dim, ids=rng.integers(0, 100, m))
    return pools


def per_cell_far_counts(pools, theta):
    """The matrix as per-cell ``far_counts`` calls: (values, accepted, comparisons)."""
    k = len(pools)
    values = np.zeros((k, k))
    accepted = np.zeros((k, k), dtype=np.int64)
    comparisons = np.zeros((k, k), dtype=np.int64)
    for i, g in enumerate(pools.values()):
        for j, h in enumerate(pools.values()):
            a, c = far_counts(g.selfie_emb, g.identity_ids, h.doc_emb, h.identity_ids, theta)
            values[i, j], accepted[i, j], comparisons[i, j] = a / c, a, c
    return values, accepted, comparisons


class TestThreadedFarMatrix:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equals_per_cell_far_counts_bit_for_bit(self, monkeypatch, workers):
        pools = unequal_pools(np.random.default_rng(31))
        big = pools["g3"]
        tile = cross_squared_distances(big.selfie_emb, big.doc_emb)
        thetas = [float(np.quantile(tile, 0.3)), *tile[-1, ::50].tolist(), 0.0, 4.1]
        threads = []

        def counting(*args):
            threads.append(threading.get_ident())
            return count(*args)

        count = evaluation._count_far
        monkeypatch.setattr(evaluation, "_count_far", counting)
        monkeypatch.setattr(evaluation, "worker_threads", lambda n: min(n, workers))
        for theta in thetas:
            threads.clear()
            matrix = far_matrix(pools, theta)
            assert len(threads) == len(pools) ** 2
            assert len(set(threads)) <= workers
            values, accepted, comparisons = per_cell_far_counts(pools, theta)
            assert matrix.values.tobytes() == values.tobytes(), theta
            assert np.array_equal(matrix.accepted, accepted)
            assert np.array_equal(matrix.comparisons, comparisons)
            assert matrix.groups == tuple(pools)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_errors_are_those_of_far_counts(self, monkeypatch, workers):
        monkeypatch.setattr(evaluation, "worker_threads", lambda n: min(n, workers))
        rng = np.random.default_rng(32)
        # The one-pair pool g1 compares its selfie only with its own doc.
        pools = unequal_pools(rng, sizes=(40, 1, 129))
        with pytest.raises(ValueError) as want:
            far_counts(pools["g1"].selfie_emb, pools["g1"].identity_ids,
                       pools["g1"].doc_emb, pools["g1"].identity_ids, 1.0)
        with pytest.raises(ValueError) as got:
            far_matrix(pools, 1.0)
        assert str(got.value) == str(want.value) == "no impostor comparisons available"

        pools = unequal_pools(rng, sizes=(30, 129, 40))
        pools["g1"].doc_emb[100, 3] = np.nan
        with pytest.raises(ValueError) as want:
            far_counts(pools["g0"].selfie_emb, pools["g0"].identity_ids,
                       pools["g1"].doc_emb, pools["g1"].identity_ids, 1.0)
        with pytest.raises(ValueError) as got:
            far_matrix(pools, 1.0)
        assert str(got.value) == str(want.value) == "embeddings must be finite"

    @pytest.mark.parametrize("cores, openblas, goto, omp, want", [
        (2, None, None, None, 1),   # unpinned BLAS spreads each product over every core
        (2, "1", None, None, 2),
        (2, "2", None, None, 1),
        (2, None, None, "1", 2),    # OpenBLAS falls back to OMP_NUM_THREADS
        (2, "2", None, "1", 1),     # OPENBLAS_NUM_THREADS wins
        (2, None, "1", None, 2),    # ... and before that to GOTO_NUM_THREADS
        (2, None, "1", "2", 2),     # GOTO_NUM_THREADS wins over OMP_NUM_THREADS
        (2, "2", "1", None, 1),     # OPENBLAS_NUM_THREADS wins over GOTO_NUM_THREADS
        (4, "2", None, None, 2),
        (8, "1", None, None, 5),    # never more than one thread per pool
        (1, "1", None, None, 1),
        (2, "0", None, None, 1),    # not a thread count: BLAS uses every core
        (2, "x", None, None, 1),
    ])
    def test_worker_count_rule(self, monkeypatch, cores, openblas, goto, omp, want):
        monkeypatch.setattr(core.os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("GOTO_NUM_THREADS", goto),
                           ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert core.worker_threads(5) == want

    @pytest.mark.parametrize("openblas, pools_started", [(None, []), ("1", [2])])
    def test_far_matrix_starts_threads_by_the_rule(self, monkeypatch, openblas, pools_started):
        monkeypatch.setattr(core.os, "sched_getaffinity",
                            lambda pid: {0, 1}, raising=False)
        monkeypatch.delenv("GOTO_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        if openblas is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", openblas)
        started = []

        class Recording(core.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(core, "ThreadPoolExecutor", Recording)
        pools = unequal_pools(np.random.default_rng(33), sizes=(20, 30, 40))
        far_matrix(pools, 1.0)
        assert started == pools_started


class TestThreadedSortedTiles:
    """The theta grid's and the ROC's tile passes on worker threads."""

    @staticmethod
    def sets():
        rng = np.random.default_rng(38)
        return {m: make_eval_set(rng, m, dim=8, ids=rng.integers(0, max(m // 3, 1), m))
                for m in (1, 127, 129, 300, 2000)}

    @staticmethod
    def readouts(es):
        grid = default_theta_grid(es, 40)
        curve = roc_curve(es, grid)
        splits = roc_curve_over_splits(es, grid, n_splits=2, split_fraction=0.6,
                                       rng=np.random.default_rng(0))
        return [a.tobytes() for a in (grid, curve.far, curve.frr, splits.far, splits.frr,
                                      splits.far_std, splits.frr_std)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equal_to_one_worker_bit_for_bit(self, monkeypatch, workers):
        sets = self.sets()
        monkeypatch.setattr(evaluation, "worker_threads", lambda n: 1)
        want = {m: self.readouts(es) for m, es in sets.items() if m > 1}
        passes = []  # the threads that computed each pass's tiles
        for_each_sorted_tile = evaluation._for_each_sorted_tile
        impostor_tile = evaluation._impostor_tile

        def recording_pass(*args):
            passes.append(set())
            return for_each_sorted_tile(*args)

        def recording_tile(*args):
            passes[-1].add(threading.get_ident())
            return impostor_tile(*args)

        monkeypatch.setattr(evaluation, "_for_each_sorted_tile", recording_pass)
        monkeypatch.setattr(evaluation, "_impostor_tile", recording_tile)
        monkeypatch.setattr(evaluation, "worker_threads", lambda n: workers)
        with pytest.raises(ValueError, match="^no impostor comparisons available$"):
            default_theta_grid(sets[1])
        for m, es in sets.items():
            if m == 1:
                continue
            passes.clear()
            assert self.readouts(es) == want[m], m
            assert len(passes) == 5  # the grid's two, the ROC's and two splits'
            assert all(len(threads) <= workers for threads in passes), m
            if m == 2000 and workers > 1:
                assert not any(threading.get_ident() in threads for threads in passes)

    def test_more_threads_than_cores_share_buffers_safely(self, monkeypatch):
        # Eight threads take and return the tile buffers while the
        # interpreter switches threads as often as it can: a buffer handed
        # to two threads at once would mix two tiles' values.
        es = self.sets()[2000]
        monkeypatch.setattr(evaluation, "worker_threads", lambda n: 1)
        want = self.readouts(es)
        monkeypatch.setattr(evaluation, "worker_threads", lambda n: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.readouts(es)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("openblas, started", [(None, []), ("1", [2, 2, 2])])
    def test_threads_by_the_rule(self, monkeypatch, openblas, started):
        # A 2000-pair set is 16 tiles: two threads on two cores with BLAS
        # pinned, for each of the grid's two passes and the ROC's pass.
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delenv("GOTO_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        if openblas is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", openblas)
        pools = []

        class Recording(core.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(core, "ThreadPoolExecutor", Recording)
        es = self.sets()[2000]
        roc_curve(es, default_theta_grid(es))
        assert pools == started


class TestCutsPerCall:
    """Counts on pools whose norms differ, each with its own product cuts."""

    @staticmethod
    def off_unit_pools(rng, sizes=(2, 127, 129, 300)):
        pools = unequal_pools(rng, sizes=sizes)
        for pool in pools.values():  # spread the norms so the pools' cuts differ
            for emb in (pool.selfie_emb, pool.doc_emb):
                emb[:] = scale_rows_off_unit(rng, emb, fraction=0.5, max_ulps=40)
        return pools

    def test_per_group_far_equals_per_pool_far_counts_bit_for_bit(self):
        pools = self.off_unit_pools(np.random.default_rng(34))
        big = pools["g3"]
        tile = cross_squared_distances(big.selfie_emb, big.doc_emb)
        for theta in (*tile[::37, ::41].ravel().tolist(), 0.0, 4.1, np.nan):
            got = per_group_far(pools, theta)
            assert list(got) == list(pools)
            for g, pool in pools.items():
                a, c = far_counts(pool.selfie_emb, pool.identity_ids,
                                  pool.doc_emb, pool.identity_ids, theta)
                assert np.float64(got[g]).tobytes() == np.float64(a / c).tobytes(), (g, theta)

    def test_nan_theta_accepts_nothing(self):
        pools = self.off_unit_pools(np.random.default_rng(36))
        pool = pools["g3"]
        accepted, comparisons = far_counts(pool.selfie_emb, pool.identity_ids,
                                           pool.doc_emb, pool.identity_ids, np.nan)
        assert accepted == 0 and comparisons > 0
        assert per_group_far(pools, np.nan) == {g: 0.0 for g in pools}
        matrix = far_matrix(pools, np.nan)
        assert not matrix.accepted.any() and matrix.comparisons.all()

    def test_empty_side_has_no_impostor_comparisons(self):
        rng = np.random.default_rng(37)
        pools = unequal_pools(rng, sizes=(40, 0, 30))
        full, empty = pools["g0"], pools["g1"]
        for selfie, doc in ((full, empty), (empty, full), (empty, empty)):
            with pytest.raises(ValueError, match="^no impostor comparisons available$"):
                far_counts(selfie.selfie_emb, selfie.identity_ids,
                           doc.doc_emb, doc.identity_ids, 1.0)
        with pytest.raises(ValueError, match="^no impostor comparisons available$"):
            far_matrix(pools, 1.0)


class TestRoc:
    def test_single_point_consistent_with_ops(self):
        es = make_eval_set(np.random.default_rng(17), 50)
        theta = 1.2345
        curve = roc_curve(es, np.array([theta]))
        assert curve.far[0] == far(es, theta)
        assert curve.frr[0] == frr(es, theta)

    def test_perfect_separation_has_zero_zero_point(self):
        # Identities far apart on the circle, views nearly coincident: every
        # genuine distance is below every impostor distance.
        angles = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
        selfie = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        doc = np.stack([np.cos(angles + 0.01), np.sin(angles + 0.01)], axis=1)
        es = make_eval_set(np.random.default_rng(0), 3, dim=2, selfie=selfie, doc=doc)
        imp = impostor_distances(es.selfie_emb, es.identity_ids,
                                 es.doc_emb, es.identity_ids)
        gen = genuine_distances(es)
        assert gen.max() < imp.min()
        theta = (gen.max() + imp.min()) / 2
        assert far(es, theta) == 0.0 and frr(es, theta) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_no_impostor_comparisons_rejected(self):
        es = make_eval_set(np.random.default_rng(39), 3, ids=np.array([5, 5, 5]))
        with pytest.raises(ValueError, match="^no impostor comparisons available$"):
            default_theta_grid(es)
        with pytest.raises(ValueError, match="^no impostor comparisons available$"):
            roc_curve(es, np.array([0.5, 1.0]))

    def test_monotone_invariants(self):
        es = make_eval_set(np.random.default_rng(18), 80)
        grid = default_theta_grid(es, 40)
        curve = roc_curve(es, grid)
        assert np.all(np.diff(curve.thetas) > 0)
        assert np.all(np.diff(curve.far) >= 0)
        assert np.all(np.diff(curve.frr) <= 0)

    def test_identical_splits_zero_std(self):
        es = make_eval_set(np.random.default_rng(19), 60)
        grid = default_theta_grid(es, 20)
        curve = roc_curve_over_splits(es, grid, n_splits=5, split_fraction=1.0,
                                      rng=np.random.default_rng(0))
        assert np.all(curve.far_std == 0.0)
        assert np.all(curve.frr_std == 0.0)

    def test_curve_invariant_validation(self):
        with pytest.raises(ValueError):
            RocCurve(
                thetas=np.array([0.0, 0.0]),
                far=np.array([0.0, 0.1]),
                frr=np.array([1.0, 0.5]),
            )
        # A NaN threshold is on no grid (and would count the same-identity
        # cells, set to +inf on the tiles, as accepted).
        es = make_eval_set(np.random.default_rng(38), 20, ids=np.repeat(np.arange(10), 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            roc_curve(es, np.array([np.nan]))


class TestGenderFar:
    def test_identical_distributions_equal_within_noise(self):
        rng = np.random.default_rng(20)
        m = 400
        genders = np.array((["male"] * (m // 2)) + (["female"] * (m // 2)))
        es = make_eval_set(rng, m, genders=genders)
        theta = 1.5
        rates = per_group_far(gender_pools(es), theta)
        pooled = far(es, theta)
        n = (m // 2) * (m // 2 - 1)
        sigma = np.sqrt(pooled * (1 - pooled) / n)
        assert abs(rates["male"] - rates["female"]) <= 8 * sigma

    def test_theta_zero_all_zero(self):
        rng = np.random.default_rng(21)
        genders = np.array(["male"] * 10 + ["female"] * 10)
        es = make_eval_set(rng, 20, genders=genders)
        assert set(per_group_far(gender_pools(es), 0.0).values()) == {0.0}

    def test_compact_female_cluster_raises_female_far(self):
        # Direction check straight from the generator: a more compact female
        # identity cloud yields closer female impostors at a fixed threshold.
        from fairtriplet.datagen import GeneratorConfig, generate_dataset
        from fairtriplet.model import EmbeddingNetwork

        cfg = GeneratorConfig(
            seed=5, n_pairs=1200, input_dim=16,
            gender_spread={"male": 1.0, "female": 0.45, "unknown": 1.0},
            composition={"EU": 1.0},
            gender_split={c: {"male": 0.5, "female": 0.5, "unknown": 0.0}
                          for c in ("EU", "AM", "AF", "AS", "OC", "UN")},
        )
        ds = generate_dataset(cfg)
        net = EmbeddingNetwork.create(16, (16,), 8, "tanh", np.random.default_rng(0))
        es = EvalSet.from_dataset(net, ds)
        theta = calibrate_threshold(es, 0.01)
        rates = per_group_far(gender_pools(es), theta)
        assert rates["female"] > rates["male"]
        # brute-force confirmation on subsampled pools
        pools = gender_pools(es)
        small = {g: p.subset(np.arange(min(len(p), 80))) for g, p in pools.items()}
        bf = {g: (lambda ac: ac[0] / ac[1])(brute_force_far(p, theta))
              for g, p in small.items()}
        assert bf["female"] > bf["male"]
