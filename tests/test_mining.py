import sys
import tracemalloc

import numpy as np
import pytest

from fairtriplet import core, mining
from fairtriplet.core import (
    cross_squared_distances,
    normalize_rows,
    product_cuts,
    squared_distance,
    squared_norms,
)
from fairtriplet.datagen import GeneratorConfig, generate_dataset
from fairtriplet.mining import (
    MINE_BLOCK_ROWS,
    MiningBatch,
    assemble_batch,
    mine_semi_hard,
    schedule_minibatches,
    semi_hard_candidates,
)
from fairtriplet.model import EmbeddingNetwork
from fairtriplet.sampling import SamplerSpec


def random_batch(rng, n, dim=4, n_identities=None, duplicate_ids=False):
    """A mining batch with random unit embeddings already attached."""
    ids = np.arange(n, dtype=np.int64)
    if duplicate_ids:
        ids = rng.integers(0, max(n // 2, 1), size=n).astype(np.int64)
    return MiningBatch(
        pair_indices=np.arange(n),
        identity_ids=ids,
        features=np.vstack([rng.normal(size=(n, dim)), rng.normal(size=(n, dim))]),
        selfie_emb=normalize_rows(rng.normal(size=(n, dim))),
        doc_emb=normalize_rows(rng.normal(size=(n, dim))),
    )


def brute_force_candidates(batch, margin):
    """Loop-based reference for the semi-hard candidate sets."""
    n = batch.n
    out = {}
    for i in range(n):
        d_ap = squared_distance(batch.selfie_emb[i], batch.doc_emb[i])
        sel = []
        doc = []
        for j in range(n):
            if batch.identity_ids[j] == batch.identity_ids[i]:
                continue
            if squared_distance(batch.selfie_emb[i], batch.doc_emb[j]) < d_ap + margin:
                sel.append(j)
            if squared_distance(batch.doc_emb[i], batch.selfie_emb[j]) < d_ap + margin:
                doc.append(j)
        out[(i, "selfie")] = sel
        out[(i, "doc")] = doc
    return out


def reference_mine(batch, margin, rng):
    """Loop-based reference for the picks: walk the anchors in mining order
    and draw uniformly from semi_hard_candidates with one uniform each."""
    n = batch.n
    cands = semi_hard_candidates(batch, margin)
    anchor, positive, negative = [], [], []
    for domain in ("selfie", "doc"):
        for i in range(n):
            c = cands[(i, domain)]
            if len(c) == 0:
                continue
            j = int(c[int(rng.random() * len(c))])
            if domain == "selfie":
                anchor.append(i), positive.append(n + i), negative.append(n + j)
            else:
                anchor.append(n + i), positive.append(i), negative.append(j)
    return tuple(np.array(x, dtype=np.int64) for x in (anchor, positive, negative))


def fixed_batch(selfies, docs):
    """A mining batch of distinct identities with the given unit embeddings."""
    n = len(selfies)
    return MiningBatch(
        pair_indices=np.arange(n),
        identity_ids=np.arange(n, dtype=np.int64),
        features=np.vstack([selfies, docs]),
        selfie_emb=selfies,
        doc_emb=docs,
    )


def one_sided_batch(copies):
    """2 * copies slots in 2 * copies dimensions where only the doc anchors
    have semi-hard candidates at margin 0.5.

    Each copy lives in its own plane: slot 0 has selfie = doc at angle 0;
    slot 1 has its doc at 60 and its selfie at 120 degrees. Selfie anchors:
    D(s0, d1) = 1 >= 0 + 0.5 and D(s1, d0) = 3 >= 1 + 0.5, so none.
    Doc anchor d1: D(s0, d1) = 1 < 1 + 0.5, so one candidate. Slots in other
    planes are at distance 2, beyond every limit.
    """
    def at(deg):
        return np.array([np.cos(np.radians(deg)), np.sin(np.radians(deg))])
    dim = 2 * copies
    selfies, docs = np.zeros((dim, dim)), np.zeros((dim, dim))
    for k in range(copies):
        plane = slice(2 * k, 2 * k + 2)
        selfies[2 * k, plane], docs[2 * k, plane] = at(0), at(0)
        selfies[2 * k + 1, plane], docs[2 * k + 1, plane] = at(120), at(60)
    return selfies, docs


def assert_same_triplets(got, want):
    assert len(got) == 3
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert g.tolist() == w.tolist()


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(GeneratorConfig(seed=23, n_pairs=3000, input_dim=8))


class TestAssembleBatch:
    def test_single_group_dataset(self, dataset):
        idx = np.flatnonzero(dataset.continents == "EU")[:200]
        ds_eu = dataset.subset(idx)
        spec = SamplerSpec("natural", axis="continent")
        batch = assemble_batch(ds_eu, spec, 50, np.random.default_rng(0))
        assert set(ds_eu.labels("continent")[batch.pair_indices].tolist()) == {"EU"}

    def test_equal_weights_multinomial(self, dataset):
        groups = ("EU", "AM", "AF", "AS", "OC", "UN")
        spec = SamplerSpec("fixed", axis="continent", weights={g: 1.0 for g in groups})
        batch = assemble_batch(dataset, spec, 6000, np.random.default_rng(1))
        tags = dataset.labels("continent")[batch.pair_indices]
        n, p = 6000, 1 / 6
        sigma = np.sqrt(n * p * (1 - p))
        for g in groups:
            count = int(np.sum(tags == g))
            assert abs(count - n * p) <= 4 * sigma, g

    def test_homogeneous_single_group(self, dataset):
        spec = SamplerSpec(
            "homogeneous", axis="continent",
            weights={g: 1.0 for g in ("EU", "AM", "AF", "AS", "OC", "UN")},
        )
        for seed in range(5):
            batch = assemble_batch(dataset, spec, 64, np.random.default_rng(seed))
            assert len(set(dataset.labels("continent")[batch.pair_indices].tolist())) == 1

    @pytest.mark.parametrize("variant", ["fixed", "homogeneous"])
    def test_positive_weight_empty_group_rejected(self, dataset, variant):
        idx = np.flatnonzero(dataset.continents != "AF")
        no_af = dataset.subset(idx)
        spec = SamplerSpec(variant, axis="continent", weights={"EU": 1.0, "AF": 1.0})
        with pytest.raises(ValueError, match="AF"):
            assemble_batch(no_af, spec, 16, np.random.default_rng(2))

    def test_with_replacement_from_tiny_group(self, dataset):
        # A group smaller than the batch must still fill it.
        idx = np.flatnonzero(dataset.continents == "OC")[:3]
        tiny = dataset.subset(idx)
        spec = SamplerSpec("natural", axis="continent")
        batch = assemble_batch(tiny, spec, 32, np.random.default_rng(3))
        assert batch.n == 32
        assert set(batch.pair_indices.tolist()) <= {0, 1, 2}

    def test_batch_features_match_dataset(self, dataset):
        spec = SamplerSpec("natural", axis="continent")
        batch = assemble_batch(dataset, spec, 16, np.random.default_rng(4))
        for k in range(batch.n):
            src = batch.pair_indices[k]
            assert np.array_equal(batch.features[k], dataset.selfie_features[src])
            assert np.array_equal(batch.features[batch.n + k], dataset.doc_features[src])
            assert batch.identity_ids[k] == dataset.identity_ids[src]


class TestMineSemiHard:
    def test_hand_placed_2d_candidates(self):
        # Three identities in 2-D with hand-checkable geometry.
        selfies = normalize_rows(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        docs = normalize_rows(np.array([[1.0, 0.2], [0.2, 1.0], [-1.0, 0.2]]))
        batch = fixed_batch(selfies, docs)
        margin = 0.6
        got = semi_hard_candidates(batch, margin)
        want = brute_force_candidates(batch, margin)
        for key in want:
            assert got[key].tolist() == want[key], key

    @pytest.mark.parametrize("seed,n", [(0, 16), (1, 64), (2, 128), (3, 256)])
    def test_candidates_match_brute_force(self, seed, n):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, n, duplicate_ids=(seed % 2 == 0))
        got = semi_hard_candidates(batch, 0.6)
        want = brute_force_candidates(batch, 0.6)
        for key in want:
            assert got[key].tolist() == want[key], key

    def test_max_separation_yields_no_triplets(self):
        # Antipodal identity clusters: every impostor is at distance >= the
        # genuine distance + margin.
        e = np.eye(4)
        points = np.vstack([e[0], -e[0]])
        batch = fixed_batch(points, points)
        got = mine_semi_hard(batch, 0.6, np.random.default_rng(0))
        assert_same_triplets(got, reference_mine(batch, 0.6, np.random.default_rng(0)))
        assert all(arr.size == 0 for arr in got)

    def test_constraints_hold_over_many_triplets(self):
        rng = np.random.default_rng(7)
        total = 0
        while total < 100_000:
            batch = random_batch(rng, 256, duplicate_ids=True)
            trips = mine_semi_hard(batch, 0.6, rng)
            n = batch.n
            ids = batch.identity_ids
            for anchor, positive, negative in zip(*trips):
                if anchor < n:  # selfie anchor
                    assert anchor < n <= positive
                    assert negative >= n
                    a, p, neg = anchor, positive - n, negative - n
                else:
                    assert anchor >= n > positive
                    assert negative < n
                    a, p, neg = anchor - n, positive, negative
                assert a == p
                assert ids[a] == ids[p]
                assert ids[neg] != ids[a]
            total += len(trips[0])

    def test_output_bounded_by_2n(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            batch = random_batch(np.random.default_rng(seed), 64)
            trips = mine_semi_hard(batch, 0.6, rng)
            assert all(len(t) == len(trips[0]) for t in trips)
            assert len(trips[0]) <= 2 * batch.n
            cands = semi_hard_candidates(batch, 0.6)
            if all(len(v) > 0 for v in cands.values()):
                assert len(trips[0]) == 2 * batch.n

    def test_same_seed_same_triplets(self):
        batch = random_batch(np.random.default_rng(9), 64)
        t1 = mine_semi_hard(batch, 0.6, np.random.default_rng(42))
        t2 = mine_semi_hard(batch, 0.6, np.random.default_rng(42))
        assert_same_triplets(t1, t2)

    def test_negative_always_in_candidate_set(self):
        rng = np.random.default_rng(10)
        batch = random_batch(rng, 64, duplicate_ids=True)
        cands = semi_hard_candidates(batch, 0.6)
        anchors, _, negatives = mine_semi_hard(batch, 0.6, rng)
        for anchor, negative in zip(anchors, negatives):
            n = batch.n
            if anchor < n:
                key, neg = (anchor, "selfie"), negative - n
            else:
                key, neg = (anchor - n, "doc"), negative
            assert neg in cands[key].tolist()

    def test_requires_embeddings(self):
        rng = np.random.default_rng(11)
        batch = random_batch(rng, 8)
        bare = MiningBatch(
            pair_indices=batch.pair_indices,
            identity_ids=batch.identity_ids,
            features=batch.features,
        )
        with pytest.raises(ValueError):
            mine_semi_hard(bare, 0.6, rng)

    def test_embed_with_attaches_current_network(self, dataset):
        spec = SamplerSpec("natural", axis="continent")
        batch = assemble_batch(dataset, spec, 16, np.random.default_rng(12))
        net = EmbeddingNetwork.create(8, (8,), 4, "tanh", np.random.default_rng(0))
        embedded = batch.embed_with(net)
        # Forwarding the halves of the batch's matrix gives the bits of a
        # forward pass over separate copies of the pairs' rows.
        rows = batch.pair_indices
        assert np.array_equal(embedded.selfie_emb, net.forward(dataset.selfie_features[rows]))
        assert np.array_equal(embedded.doc_emb, net.forward(dataset.doc_features[rows]))


class TestBlockedMiner:
    @pytest.mark.parametrize("n", [16, 101, 200, 257, 328, 2048])
    def test_picks_match_reference(self, n):
        batch = random_batch(np.random.default_rng(n), n)
        got = mine_semi_hard(batch, 0.6, np.random.default_rng(n + 1))
        want = reference_mine(batch, 0.6, np.random.default_rng(n + 1))
        assert_same_triplets(got, want)

    @pytest.mark.parametrize("n", [101, 257])
    def test_picks_match_reference_duplicate_ids(self, n):
        batch = random_batch(np.random.default_rng(n), n, duplicate_ids=True)
        assert len(set(batch.identity_ids.tolist())) < n
        got = mine_semi_hard(batch, 0.6, np.random.default_rng(3))
        want = reference_mine(batch, 0.6, np.random.default_rng(3))
        assert_same_triplets(got, want)

    def test_same_draws_as_reference(self):
        # The miner consumes exactly one uniform per nonempty anchor row.
        batch = random_batch(np.random.default_rng(5), 300, duplicate_ids=True)
        rng_got, rng_want = np.random.default_rng(6), np.random.default_rng(6)
        mine_semi_hard(batch, 0.6, rng_got)
        reference_mine(batch, 0.6, rng_want)
        assert rng_got.random() == rng_want.random()

    @pytest.mark.parametrize("swap", [False, True])
    def test_one_orientation_without_candidates(self, swap):
        copies = 150  # 300 slots, three blocks
        selfies, docs = one_sided_batch(copies)
        if swap:  # swapping the views swaps the orientations
            selfies, docs = docs, selfies
        batch = fixed_batch(selfies, docs)
        got = mine_semi_hard(batch, 0.5, np.random.default_rng(7))
        want = reference_mine(batch, 0.5, np.random.default_rng(7))
        assert_same_triplets(got, want)
        anchors, _, _ = got
        n = batch.n
        assert len(anchors) == copies
        selfie_anchored = int(np.sum(anchors < n))
        assert selfie_anchored == (copies if swap else 0)

    def test_memory_stays_below_a_quarter_of_a_float_matrix(self):
        n = 4096
        batch = random_batch(np.random.default_rng(8), n, dim=16)
        tracemalloc.start()
        try:
            mine_semi_hard(batch, 0.6, np.random.default_rng(9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


class TestPickPacked:
    """``_pick_packed`` against a direct unpack of each row: the pick is the
    row's int(u * count)-th set column, with one uniform per nonempty row."""

    @staticmethod
    def packed(mask):
        bits = np.zeros((len(mask), mining._packed_width(mask.shape[1])), dtype=np.uint8)
        packed = np.packbits(mask, axis=1, bitorder="little")
        bits[:, :packed.shape[1]] = packed
        return bits

    @staticmethod
    def reference(bits, rng):
        rows, cols = [], []
        for i, row in enumerate(bits):
            count = int(np.bitwise_count(row).sum())
            if count:
                u = rng.random()
                rows.append(i)
                cols.append(np.flatnonzero(np.unpackbits(row, bitorder="little"))[int(u * count)])
        return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)

    @pytest.mark.parametrize("n", [40, 64, 200, 320])  # one word wide up to five
    def test_matches_unpacked_reference(self, n):
        empty = np.zeros(n, dtype=bool)
        rows = [np.ones(n, dtype=bool)] * 64  # every rank of a full word drawn
        for col in (0, 7, 8, 63, 64, n - 1):
            if col < n:
                rows += [empty, np.eye(1, n, col, dtype=bool)[0]]
        rows += [empty, empty, np.random.default_rng(n).random(n) < 0.5, empty]
        bits = self.packed(np.array(rows))
        rng, want_rng = np.random.default_rng(n + 1), np.random.default_rng(n + 1)
        got = mining._pick_packed(bits, rng)
        want = self.reference(bits, want_rng)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        # One uniform per nonempty row, as the reference draws.
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_empty_mask(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        rows, cols = mining._pick_packed(np.zeros((5, 16), dtype=np.uint8), rng)
        assert rows.size == cols.size == 0 and rng.bit_generator.state == state


def kernel_block_candidates(batch, margin):
    """Candidate sets from the distance kernel itself: ``d < limit`` on the
    same 128-row distance blocks the miner decides on, with the limits from
    the 128 x 128 diagonal blocks."""
    selfie, doc, ids, n = batch.selfie_emb, batch.doc_emb, batch.identity_ids, batch.n
    starts = range(0, n, MINE_BLOCK_ROWS)
    limit = np.concatenate([
        np.diagonal(cross_squared_distances(selfie[r0:r0 + MINE_BLOCK_ROWS],
                                            doc[r0:r0 + MINE_BLOCK_ROWS]))
        for r0 in starts
    ]) + margin
    d = np.vstack([cross_squared_distances(selfie[r0:r0 + MINE_BLOCK_ROWS], doc)
                   for r0 in starts])
    other = ids[:, None] != ids[None, :]
    by_selfie = (d < limit[:, None]) & other
    by_doc = ((d < limit[None, :]) & other).T
    out = {}
    for i in range(n):
        out[(i, "selfie")] = np.flatnonzero(by_selfie[i])
        out[(i, "doc")] = np.flatnonzero(by_doc[i])
    return out


def band_batch(n, margin, seed):
    """Slots whose cross distances sit at the other slots' limits, with row
    norms spread over about 200 ulps.

    Even slots have selfie e0 and doc at angle a from it; odd slots are the
    same pair turned by c, chosen so that an even selfie and an odd doc are
    D_ap^2 + margin apart in exact arithmetic. Rounding then puts those cells
    on either side of the limit, and between the product cuts of their rows
    and columns.
    """
    rng = np.random.default_rng(seed)
    a = 0.9
    c = np.arccos(np.cos(a) - margin / 2) - a

    def at(angle):
        return np.array([np.cos(angle), np.sin(angle), 0.0, 0.0])

    odd = np.arange(n) % 2 == 1
    selfies = np.where(odd[:, None], at(c), at(0.0))
    docs = np.where(odd[:, None], at(c + a), at(a))
    eps = np.finfo(np.float64).eps
    selfies = selfies * (1 + eps * rng.integers(-50, 51, (n, 1)))
    docs = docs * (1 + eps * rng.integers(-50, 51, (n, 1)))
    return MiningBatch(
        pair_indices=np.arange(n),
        identity_ids=rng.integers(0, n // 2, n).astype(np.int64),
        features=np.vstack([selfies, docs]),
        selfie_emb=selfies,
        doc_emb=docs,
    )


def band_cells(batch, margin):
    """Cells whose product lies between their row's or column's two product
    cuts, on the miner's block products."""
    selfie, doc = batch.selfie_emb, batch.doc_emb
    na, nb = squared_norms(selfie), squared_norms(doc)
    limit = np.concatenate([
        np.diagonal(cross_squared_distances(selfie[r0:r0 + MINE_BLOCK_ROWS],
                                            doc[r0:r0 + MINE_BLOCK_ROWS]))
        for r0 in range(0, batch.n, MINE_BLOCK_ROWS)
    ]) + margin
    g = np.vstack([selfie[r0:r0 + MINE_BLOCK_ROWS] @ doc.T
                   for r0 in range(0, batch.n, MINE_BLOCK_ROWS)])
    row_sure, row_maybe = product_cuts(limit, na, nb.max(), na, nb.min())[:, :, None]
    col_sure, col_maybe = product_cuts(limit, na.max(), nb, na.min(), nb)[:, None, :]
    return int(np.count_nonzero((g > row_maybe) & (g <= row_sure))
               + np.count_nonzero((g > col_maybe) & (g <= col_sure)))


def two_workers(monkeypatch, workers=2):
    """Mine on ``workers`` threads whatever the batch size, cores and BLAS
    setting."""
    monkeypatch.setattr(mining, "worker_threads", lambda n: workers)


class TestProductCutMasks:
    @pytest.mark.parametrize("n", [16, 257, 328, 2048])
    @pytest.mark.parametrize("duplicate_ids", [False, True])
    def test_two_workers_pick_as_one_and_as_the_reference(self, monkeypatch, n, duplicate_ids):
        batch = random_batch(np.random.default_rng(n), n, duplicate_ids=duplicate_ids)
        rngs = [np.random.default_rng(n + 1) for _ in range(3)]
        two_workers(monkeypatch, workers=1)
        one = mine_semi_hard(batch, 0.6, rngs[0])
        two_workers(monkeypatch)
        two = mine_semi_hard(batch, 0.6, rngs[1])
        want = reference_mine(batch, 0.6, rngs[2])
        assert_same_triplets(one, want)
        assert_same_triplets(two, want)
        states = [r.bit_generator.state for r in rngs]
        assert states[0] == states[1] == states[2]

    def test_more_workers_than_cores_under_fast_thread_switching(self, monkeypatch):
        batch = random_batch(np.random.default_rng(12), 1000, duplicate_ids=True)
        want = mine_semi_hard(batch, 0.6, np.random.default_rng(13))
        two_workers(monkeypatch, workers=6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert_same_triplets(mine_semi_hard(batch, 0.6, np.random.default_rng(13)), want)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n, seed", [(300, 1), (64, 2)])
    def test_band_cells_decide_as_the_distance_kernel(self, monkeypatch, workers, n, seed):
        batch = band_batch(n, 0.6, seed)
        assert band_cells(batch, 0.6) > 0  # the band path is taken
        two_workers(monkeypatch, workers)
        got = semi_hard_candidates(batch, 0.6)
        want = kernel_block_candidates(batch, 0.6)
        for key in want:
            assert got[key].tolist() == want[key].tolist(), key
        # The even selfies and odd docs at the limits fall on both sides.
        ids = batch.identity_ids
        odd = np.arange(1, n, 2)
        hits = sum(np.isin(want[(i, "selfie")], odd).sum() for i in range(0, n, 2))
        cells = sum(np.count_nonzero(ids[odd] != ids[i]) for i in range(0, n, 2))
        assert 0 < hits < cells

    @pytest.mark.parametrize("n", [16, 257])
    def test_candidates_match_the_distance_kernel(self, n):
        batch = random_batch(np.random.default_rng(n), n, dim=32, duplicate_ids=True)
        got = semi_hard_candidates(batch, 0.6)
        want = kernel_block_candidates(batch, 0.6)
        for key in want:
            assert got[key].tolist() == want[key].tolist(), key

    @pytest.mark.parametrize("column", ["selfie_emb", "doc_emb"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_embeddings_rejected(self, column, value):
        batch = random_batch(np.random.default_rng(14), 200)
        getattr(batch, column)[150, 1] = value
        with pytest.raises(ValueError, match="finite"):
            mine_semi_hard(batch, 0.6, np.random.default_rng(15))
        with pytest.raises(ValueError, match="finite"):
            semi_hard_candidates(batch, 0.6)

    @pytest.mark.parametrize("n, openblas, pools_started", [
        (2048, None, []),    # unpinned BLAS spreads each product over every core
        (2048, "1", [2]),
        (1920, "1", []),     # 15 blocks: too few to share
        (10240, "1", [2]),
    ])
    def test_miner_starts_threads_by_the_rule(self, monkeypatch, n, openblas, pools_started):
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for var in ("GOTO_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        if openblas is not None:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", openblas)
        started = []

        class Recording(core.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(core, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(mining, "_block_bits", lambda plan, doc_bits, r0, buffers: (
            r0,
            np.zeros((min(MINE_BLOCK_ROWS, n - r0), mining._packed_width(n)), dtype=np.uint8)))
        batch = random_batch(np.random.default_rng(19), n)
        anchors, _, _ = mine_semi_hard(batch, 0.6, np.random.default_rng(20))
        assert started == pools_started and anchors.size == 0


class TestScheduleMinibatches:
    def _trips(self, k):
        a = np.arange(k, dtype=np.int64)
        return a, a + k, np.full(k, 2 * k, dtype=np.int64)

    def test_exact_split(self):
        mbs = schedule_minibatches(self._trips(64), 32, np.random.default_rng(0))
        assert [len(m[0]) for m in mbs] == [32, 32]

    def test_short_tail(self):
        mbs = schedule_minibatches(self._trips(33), 32, np.random.default_rng(0))
        assert [len(m[0]) for m in mbs] == [32, 1]

    def test_every_triplet_exactly_once(self):
        trips = self._trips(100)
        mbs = schedule_minibatches(trips, 8, np.random.default_rng(1))
        flat = np.concatenate([mb[0] for mb in mbs])
        assert sorted(flat.tolist()) == list(range(100))
        for a, p, n in mbs:  # the three arrays stay aligned
            assert np.array_equal(p, a + 100) and np.all(n == 200)

    def test_same_seed_same_order(self):
        trips = self._trips(50)
        a = schedule_minibatches(trips, 16, np.random.default_rng(2))
        b = schedule_minibatches(trips, 16, np.random.default_rng(2))
        assert len(a) == len(b)
        for mb_a, mb_b in zip(a, b):
            assert_same_triplets(mb_a, mb_b)

    def test_empty_input(self):
        empty = tuple(np.array([], dtype=np.int64) for _ in range(3))
        assert schedule_minibatches(empty, 32, np.random.default_rng(0)) == []
