import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fairtriplet.core import (
    CONTINENTS,
    COUNTRIES,
    TAXONOMY_HASH,
    Dataset,
    assert_unit_rows,
    continent_of,
    countries_in,
    cross_squared_distances,
    normalize,
    normalize_rows,
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
