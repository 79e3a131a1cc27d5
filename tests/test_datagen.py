import numpy as np
import pytest
from scipy import stats

from fairtriplet.core import CONTINENTS, ConfigError
from fairtriplet.datagen import (
    DEFAULT_CONTINENT_SHARES,
    GeneratorConfig,
    GroupGeometry,
    country_probabilities,
    generate_dataset,
    realize_geometry,
)


def centers(cfg):
    """Latent center per group (continents and countries; codes are disjoint)."""
    real = realize_geometry(cfg)
    return {**real.continent_centers, **real.country_centers}


class TestGeometry:
    def test_deterministic(self):
        cfg = GeneratorConfig(seed=5, input_dim=16)
        g1 = centers(cfg)
        g2 = centers(cfg)
        for k in g1:
            assert np.array_equal(g1[k], g2[k])

    def test_near_groups_closer_than_far_groups(self):
        g = centers(GeneratorConfig(seed=2))
        near = ("EU", "AM", "OC")
        near_dists = [
            np.linalg.norm(g[a] - g[b]) for a in near for b in near if a < b
        ]
        far_dists = [
            np.linalg.norm(g[a] - g[b]) for a in near for b in ("AF", "AS")
        ]
        assert max(near_dists) < min(far_dists)

    def test_degenerate_separation_collapses_centers(self):
        cfg = GeneratorConfig(seed=2, geometry=GroupGeometry(separation=0.0))
        g = centers(cfg)
        for v in g.values():
            assert np.array_equal(v, np.zeros(cfg.input_dim))

    def test_far_radius_must_exceed_near(self):
        with pytest.raises(ConfigError):
            GroupGeometry(near_radius=2.0, far_radius=1.0)


class TestRenderPair:
    """The selfie and doc views generate_dataset renders of each identity."""

    def test_noiseless_views_equal_latent(self):
        cfg = GeneratorConfig(
            seed=1, n_pairs=200, input_dim=8, selfie_noise=1e-300,
            doc_noise={c: 1e-300 for c in CONTINENTS}, domain_shift_strength=0.0,
        )
        ds = generate_dataset(cfg)
        assert np.allclose(ds.selfie_features, ds.doc_features, rtol=0.0, atol=1e-12)

    def test_same_rng_state_same_pair(self):
        # The sampling stream depends on seed alone: a different latent
        # geometry re-renders the same identities with the same labels.
        a = generate_dataset(GeneratorConfig(seed=1, n_pairs=300, input_dim=8))
        b = generate_dataset(GeneratorConfig(seed=1, n_pairs=300, input_dim=8,
                                             geometry_seed=2))
        assert np.array_equal(a.identity_ids, b.identity_ids)
        assert np.array_equal(a.countries, b.countries)
        assert np.array_equal(a.genders, b.genders)
        assert not np.array_equal(a.selfie_features, b.selfie_features)

    def test_selfie_noise_expectation(self):
        # Monte Carlo against the closed form: with no domain shift the two
        # views of one identity differ by independent selfie and doc noise,
        # so E||selfie - doc||^2 = d * (sigma_s^2 + sigma_d^2).
        cfg = GeneratorConfig(
            seed=1, n_pairs=10_000, input_dim=16, selfie_noise=0.2,
            doc_noise={c: 0.3 for c in CONTINENTS}, domain_shift_strength=0.0,
        )
        ds = generate_dataset(cfg)
        diff = ds.selfie_features - ds.doc_features
        mean = float(np.mean(np.einsum("ij,ij->i", diff, diff)))
        expected = cfg.input_dim * (0.2**2 + 0.3**2)
        assert abs(mean - expected) / expected < 0.05


class TestGenerateDataset:
    def test_deterministic_bit_identical(self):
        cfg = GeneratorConfig(seed=123, n_pairs=2000, input_dim=8)
        d1 = generate_dataset(cfg)
        d2 = generate_dataset(cfg)
        assert np.array_equal(d1.identity_ids, d2.identity_ids)
        assert np.array_equal(d1.countries, d2.countries)
        assert np.array_equal(d1.selfie_features, d2.selfie_features)
        assert np.array_equal(d1.doc_features, d2.doc_features)

    def test_af_count_binomial(self):
        ds = generate_dataset(GeneratorConfig(seed=17, n_pairs=10_000, input_dim=8))
        n_af = int(np.sum(ds.continents == "AF"))
        p = DEFAULT_CONTINENT_SHARES["AF"]
        sigma = np.sqrt(10_000 * p * (1 - p))
        assert abs(n_af - 10_000 * p) <= 4 * sigma

    def test_no_duplicates_when_rate_zero(self):
        ds = generate_dataset(
            GeneratorConfig(seed=3, n_pairs=5000, input_dim=8, duplicate_rate=0.0)
        )
        assert len(set(ds.identity_ids.tolist())) == len(ds)

    def test_duplicate_fraction(self):
        n = 50_000
        ds = generate_dataset(
            GeneratorConfig(seed=29, n_pairs=n, input_dim=8, duplicate_rate=0.02)
        )
        repeated_pairs = n - len(set(ds.identity_ids.tolist()))
        sigma = np.sqrt(n * 0.02 * 0.98)
        assert abs(repeated_pairs - n * 0.02) <= 4 * sigma

    def test_duplicates_share_labels_and_group(self):
        ds = generate_dataset(
            GeneratorConfig(seed=31, n_pairs=3000, input_dim=8, duplicate_rate=0.1)
        )
        by_id = {}
        for i, ident in enumerate(ds.identity_ids.tolist()):
            by_id.setdefault(ident, []).append(i)
        dups = [v for v in by_id.values() if len(v) > 1]
        assert dups, "expected some duplicated identities at rate 0.1"
        for idxs in dups:
            assert len({ds.countries[i] for i in idxs}) == 1
            assert len({ds.genders[i] for i in idxs}) == 1

    def test_composition_chi_square(self):
        # Need a clean multinomial, so duplicates off.
        n = 100_000
        ds = generate_dataset(
            GeneratorConfig(seed=41, n_pairs=n, input_dim=8, duplicate_rate=0.0)
        )
        counts = np.array([int(np.sum(ds.continents == c)) for c in CONTINENTS])
        expected = np.array([DEFAULT_CONTINENT_SHARES[c] * n for c in CONTINENTS])
        _, p_value = stats.chisquare(counts, expected)
        assert p_value > 0.001

    def test_genuine_distances_below_impostor(self):
        ds = generate_dataset(GeneratorConfig(seed=51, n_pairs=2000, input_dim=32))
        genuine = np.linalg.norm(ds.selfie_features - ds.doc_features, axis=1) ** 2
        rng = np.random.default_rng(0)
        i = rng.integers(0, len(ds), 20_000)
        j = rng.integers(0, len(ds), 20_000)
        keep = ds.identity_ids[i] != ds.identity_ids[j]
        impostor = np.linalg.norm(
            ds.selfie_features[i[keep]] - ds.doc_features[j[keep]], axis=1
        ) ** 2
        assert np.median(genuine) < np.median(impostor)

    def test_composition_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(composition={"EU": 0.5, "AF": 0.4})

    def test_country_composition_supported(self):
        cfg = GeneratorConfig(
            seed=1, n_pairs=400, input_dim=8,
            composition={"nigeria": 0.5, "poland": 0.5},
        )
        ds = generate_dataset(cfg)
        assert set(np.unique(ds.countries)) == {"nigeria", "poland"}

    def test_country_probabilities_sum_to_one(self):
        probs = country_probabilities(GeneratorConfig())
        assert abs(probs.sum() - 1.0) < 1e-9
