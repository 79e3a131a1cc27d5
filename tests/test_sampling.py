import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairtriplet.core import CONTINENTS
from fairtriplet.datagen import DEFAULT_CONTINENT_SHARES, GeneratorConfig, generate_dataset
from fairtriplet.sampling import (
    FAR_WEIGHT_EXPONENT,
    SamplerSpec,
    choose_homogeneous_group,
    continent_adjusted_weights,
    country_adjusted_weights,
    equal_weights,
    preset_weights,
    probabilities,
    raw_dynamic_weights,
    update_dynamic_weights,
)

far_maps = st.dictionaries(
    st.sampled_from(CONTINENTS),
    st.floats(1e-8, 1.0, allow_nan=False),
    min_size=2,
)

weight_maps = st.dictionaries(
    st.sampled_from(CONTINENTS),
    st.floats(1e-6, 1e6, allow_nan=False),
    min_size=1,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(GeneratorConfig(seed=77, n_pairs=20_000, input_dim=8))


class TestProbabilities:
    def test_adjusted_continent_preset(self, dataset):
        spec = SamplerSpec("fixed", axis="continent", weights=continent_adjusted_weights())
        probs = probabilities(spec, dataset)
        assert probs["AF"] == pytest.approx(3 / 10, abs=1e-15)
        assert probs["AS"] == pytest.approx(3 / 10, abs=1e-15)
        assert probs["EU"] == pytest.approx(1 / 10, abs=1e-15)

    def test_equal_weights(self, dataset):
        spec = SamplerSpec("fixed", axis="continent",
                           weights=equal_weights(CONTINENTS))
        probs = probabilities(spec, dataset)
        for g in CONTINENTS:
            assert probs[g] == pytest.approx(1 / 6, abs=1e-15)

    def test_natural_matches_empirical(self, dataset):
        spec = SamplerSpec("natural", axis="continent")
        probs = probabilities(spec, dataset)
        tags = dataset.continents
        for g, p in probs.items():
            assert p == int(np.sum(tags == g)) / len(dataset)
        # and the empirical AF share hovers near the configured 0.5%
        assert probs["AF"] == pytest.approx(DEFAULT_CONTINENT_SHARES["AF"], rel=0.5)

    def test_sum_to_one(self, dataset):
        for spec in (
            SamplerSpec("natural", axis="continent"),
            SamplerSpec("fixed", axis="continent", weights=continent_adjusted_weights()),
            SamplerSpec("dynamic", axis="continent", weights=equal_weights(CONTINENTS)),
        ):
            total = sum(probabilities(spec, dataset).values())
            assert abs(total - 1.0) < 1e-12

    @given(weight_maps, st.floats(1e-6, 1e6))
    def test_scale_invariance(self, weights, c):
        spec1 = SamplerSpec("fixed", axis="continent", weights=weights)
        spec2 = SamplerSpec("fixed", axis="continent",
                            weights={g: c * w for g, w in weights.items()})
        ds = _SCALE_DATASET
        p1 = probabilities(spec1, ds)
        p2 = probabilities(spec2, ds)
        for g in p1:
            assert p1[g] == pytest.approx(p2[g], abs=1e-12)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            SamplerSpec("fixed", axis="continent", weights={"EU": 0.0, "AF": 0.0})

    def test_positive_weight_group_missing_from_dataset(self, dataset):
        only_eu = dataset.subset(np.flatnonzero(dataset.continents == "EU"))
        spec = SamplerSpec("fixed", axis="continent", weights={"EU": 1.0, "AF": 1.0})
        with pytest.raises(ValueError, match="AF"):
            probabilities(spec, only_eu)


_SCALE_DATASET = generate_dataset(GeneratorConfig(seed=78, n_pairs=2000, input_dim=8))


class TestRawDynamicWeights:
    def test_tenfold_far_means_fourfold_weight(self):
        lam = FAR_WEIGHT_EXPONENT
        w = raw_dynamic_weights({"a": 1e-3, "b": 1e-2}, lam, far_floor=1e-9)
        assert w["b"] / w["a"] == pytest.approx(4.0, rel=1e-12)

    def test_equal_fars_equal_weights(self):
        w = raw_dynamic_weights({g: 0.2 for g in CONTINENTS}, 0.5, 1e-9)
        assert len(set(w.values())) == 1

    def test_floor_applied_to_zero_far(self):
        lam = FAR_WEIGHT_EXPONENT
        w = raw_dynamic_weights({"a": 0.0}, lam, far_floor=1e-6)
        assert w["a"] == (1e-6) ** lam

    @given(far_maps, st.floats(0.1, 2.0))
    def test_monotone_in_far(self, fars, lam):
        w = raw_dynamic_weights(fars, lam, far_floor=1e-12)
        items = sorted(fars.items(), key=lambda kv: kv[1])
        for (g1, f1), (g2, f2) in zip(items, items[1:]):
            assert w[g1] <= w[g2]

    @given(far_maps, st.floats(0.1, 2.0))
    def test_ratio_law_above_floor(self, fars, lam):
        w = raw_dynamic_weights(fars, lam, far_floor=1e-12)
        groups = list(fars)
        g1, g2 = groups[0], groups[-1]
        expected = (fars[g1] / fars[g2]) ** lam
        assert w[g1] / w[g2] == pytest.approx(expected, rel=1e-12)

    def test_out_of_range_far_rejected(self):
        with pytest.raises(ValueError):
            raw_dynamic_weights({"a": 1.5}, 0.5, 1e-9)


class TestUpdateDynamicWeights:
    def test_direct_arithmetic(self):
        # raw weight for FAR 1.0 at lam=1 is exactly 1.0
        new = update_dynamic_weights({"a": 0.5}, {"a": 1.0}, lam=1.0, alpha_smooth=0.2,
                                     far_floor=1e-9)
        assert new["a"] == 0.6

    def test_fixed_point_exact(self):
        weights = {"a": 0.123456789, "b": 0.7}
        fars = {"a": 0.123456789, "b": 0.7}  # raw == current at lam=1
        new = update_dynamic_weights(weights, fars, lam=1.0, alpha_smooth=0.2,
                                     far_floor=1e-12)
        assert new == weights

    def test_alpha_one_is_raw(self):
        fars = {"a": 0.25, "b": 0.5}
        new = update_dynamic_weights({"a": 0.9, "b": 0.1}, fars, lam=1.0, alpha_smooth=1.0,
                                     far_floor=1e-12)
        assert new == {"a": 0.25, "b": 0.5}

    def test_geometric_convergence(self):
        weights = {"a": 1.0}
        target = 0.125
        errors = []
        for _ in range(10):
            weights = update_dynamic_weights(weights, {"a": target}, lam=1.0,
                                             alpha_smooth=0.2, far_floor=1e-12)
            errors.append(abs(weights["a"] - target))
        for e0, e1 in zip(errors, errors[1:]):
            assert e1 == pytest.approx(0.8 * e0, rel=1e-9)

    def test_missing_group_rejected(self):
        with pytest.raises(ValueError):
            update_dynamic_weights(equal_weights(("a", "b")), {"a": 0.5},
                                   lam=FAR_WEIGHT_EXPONENT, alpha_smooth=0.2, far_floor=1e-9)


class TestChooseHomogeneousGroup:
    def test_single_positive_weight(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert choose_homogeneous_group({"a": 0.0, "b": 2.0}, rng) == "b"

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(1)
        weights = {g: 1.0 for g in CONTINENTS}
        n = 10_000
        counts = {g: 0 for g in CONTINENTS}
        for _ in range(n):
            counts[choose_homogeneous_group(weights, rng)] += 1
        p = 1 / len(CONTINENTS)
        sigma = math.sqrt(n * p * (1 - p))
        for g in CONTINENTS:
            assert abs(counts[g] - n * p) <= 4 * sigma

    def test_three_to_one_weights(self):
        rng = np.random.default_rng(2)
        n = 10_000
        hits = sum(
            choose_homogeneous_group({"a": 3.0, "b": 1.0}, rng) == "a"
            for _ in range(n)
        )
        sigma = math.sqrt(n * 0.75 * 0.25)
        assert abs(hits - n * 0.75) <= 4 * sigma


class TestPresets:
    def test_country_adjusted(self):
        w = country_adjusted_weights()
        assert w["nigeria"] == 4.0
        assert w["china"] == 4.0
        assert w["brazil"] == 4.0
        assert w["usa"] == 1.0
        assert w["canada"] == 1.0
        assert w["france"] == 1.0
        assert w["oceania"] == 1.0
        assert w["unknown"] == 1.0

    def test_preset_lookup(self):
        assert preset_weights("equal", "continent") == {g: 1.0 for g in CONTINENTS}
        assert preset_weights("adjusted", "continent") == continent_adjusted_weights()
        assert preset_weights("adjusted", "country") == country_adjusted_weights()
        with pytest.raises(ValueError):
            preset_weights("nope", "continent")
