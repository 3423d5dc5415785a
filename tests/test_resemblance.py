import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popres.divergences import (
    CategoryCounts,
    ReferenceDistribution,
    proportions,
    prs,
    uniform_reference,
)
from popres.errors import BoundaryOverlapError, ConstraintError, ValidationError
from popres.resemblance import (
    DecisionBoundaries,
    Region,
    ResemblanceConfig,
    classify_lewis,
    classify_prs,
    classify_yn,
    decision_boundaries,
    is_delta_resemblant,
    ks_p_value,
    lambda_sup,
    recommended_delta,
    yn_boundaries,
)

from oracles import enumerate_extreme_points

UNIFORM5 = uniform_reference(5)
# published critical values for the worked configurations
PUBLISHED = {
    (50, 5): (0.056569, 0.07441, 0.25722),
    (500, 10): (0.013416, 0.03063, 0.04890),
    (2000, 10): (0.006708, 0.00766, 0.01222),
    (10000, 20): (0.002179, 0.00394, 0.00439),
}


class TestRecommendedDelta:
    def test_equiprobable_closed_form(self):
        # c * B^-1 * sqrt((B-1)/n) for the equi-probable reference
        assert recommended_delta(UNIFORM5, 50, 1.0) == pytest.approx(0.056569, abs=1e-6)

    def test_cases_per_category_small(self):
        d = recommended_delta(UNIFORM5, 50, 0.7)
        assert d == pytest.approx(0.0395980, abs=1e-6)
        assert 50 * d == pytest.approx(1.98, abs=0.005)

    def test_cases_per_category_large(self):
        d = recommended_delta(uniform_reference(20), 10_000, 0.7)
        assert d == pytest.approx(0.0015256, abs=1e-6)
        assert 10_000 * d == pytest.approx(15.26, abs=0.01)

    def test_non_uniform_uses_min_se(self):
        p0 = ReferenceDistribution(np.array([0.1, 0.2, 0.3, 0.4]))
        expected = 0.5 * min(np.sqrt(p * (1 - p) / 80) for p in (0.1, 0.2, 0.3, 0.4))
        assert recommended_delta(p0, 80, 0.5) == pytest.approx(expected, abs=1e-15)


class TestLambdaSup:
    def test_odd_b_formula(self):
        assert lambda_sup(UNIFORM5, 50, 0.056569) == pytest.approx(
            50 * 0.056569**2 * 20, rel=1e-12
        )
        assert lambda_sup(UNIFORM5, 50, 0.056569) == pytest.approx(3.2, abs=1e-3)

    def test_even_b_formula(self):
        assert lambda_sup(uniform_reference(4), 100, 0.05) == pytest.approx(4.0, abs=1e-12)

    def test_large_even_case(self):
        val = lambda_sup(uniform_reference(20), 10_000, 0.0015256)
        assert val == pytest.approx(10_000 * 0.0015256**2 * 400, rel=1e-12)
        assert val == pytest.approx(9.311, abs=2e-3)

    def test_delta_exceeding_min_prob(self):
        with pytest.raises(ValidationError):
            lambda_sup(UNIFORM5, 50, 0.21)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_non_positive_n(self, n):
        with pytest.raises(ValidationError, match="sample size must be positive"):
            lambda_sup(UNIFORM5, n, 0.01)

    def test_scaling_consistency(self):
        # doubling n with delta from the recommendation keeps n * delta^2,
        # hence the non-centrality, exactly constant
        for B in (4, 5, 9):
            p0 = uniform_reference(B)
            for n in (50, 400):
                d1 = recommended_delta(p0, n, 0.7)
                d2 = recommended_delta(p0, 2 * n, 0.7)
                assert lambda_sup(p0, n, d1) == pytest.approx(
                    lambda_sup(p0, 2 * n, d2), abs=1e-12
                )

    def test_extreme_point_oracle_small(self):
        rng = np.random.default_rng(17)
        for B in (2, 3, 4, 5, 6, 7):
            for _ in range(8):
                q = rng.uniform(0.05, 1.0, size=B)
                q /= q.sum()
                p0 = ReferenceDistribution(q)
                delta = 0.5 * float(np.min(q))
                n = 200
                best = max(
                    n * float(np.sum((pt - q) ** 2 / q))
                    for pt in enumerate_extreme_points(p0, delta)
                )
                assert lambda_sup(p0, n, delta) == pytest.approx(best, abs=1e-10)


class TestDeltaResemblance:
    def test_zero_distance(self):
        assert is_delta_resemblant(UNIFORM5.probs, UNIFORM5, 0.001)

    def test_boundary_at_exact_deviation(self):
        p = np.array([0.15, 0.25, 0.2, 0.2, 0.2])
        assert is_delta_resemblant(p, UNIFORM5, 0.05)
        assert not is_delta_resemblant(p, UNIFORM5, 0.04)

    def test_table_row_not_resemblant(self):
        p = proportions(CategoryCounts(np.array([2, 5, 13, 14, 16])))
        assert not is_delta_resemblant(p, UNIFORM5, 0.0396)


class TestDecisionBoundaries:
    @pytest.mark.parametrize("n,B", list(PUBLISHED))
    def test_reproduces_published_critical_values(self, n, B):
        # the published table matches c=0.7 with the alpha roles exchanged
        # relative to the worked-example narrative; see the two-variant
        # comparison in the acceptance suite
        cfg = ResemblanceConfig(c=0.7, M=2.0, alpha1=0.05, alpha2=0.10)
        b = decision_boundaries(uniform_reference(B), n, cfg)
        _, tau1, tau2 = PUBLISHED[(n, B)]
        assert b.tau1 == pytest.approx(tau1, abs=5e-5)
        assert b.tau2 == pytest.approx(tau2, abs=5e-5)

    @pytest.mark.parametrize("n,B", list(PUBLISHED))
    def test_defaults_reproduce_published_critical_values(self, n, B):
        # half a unit in the last printed digit
        b = decision_boundaries(uniform_reference(B), n, ResemblanceConfig())
        _, tau1, tau2 = PUBLISHED[(n, B)]
        assert abs(b.tau1 - tau1) <= 5e-6
        assert abs(b.tau2 - tau2) <= 5e-6

    def test_delta_override(self):
        cfg = ResemblanceConfig(delta_override=0.03)
        b = decision_boundaries(UNIFORM5, 50, cfg)
        assert b.delta == 0.03

    def test_overlap_is_an_error(self):
        cfg = ResemblanceConfig(c=0.7, M=1.0 + 1e-9, alpha1=0.5, alpha2=0.5)
        with pytest.raises(BoundaryOverlapError):
            decision_boundaries(UNIFORM5, 50, cfg)

    def test_m_delta_constraint(self):
        cfg = ResemblanceConfig(c=1.0, M=4.0)
        with pytest.raises(ConstraintError):
            decision_boundaries(UNIFORM5, 50, cfg)

    def test_tau2_decreasing_in_alpha1(self):
        taus = [
            decision_boundaries(UNIFORM5, 50, ResemblanceConfig(alpha1=a)).tau2
            for a in (0.02, 0.05, 0.1, 0.2)
        ]
        assert all(b < a for a, b in zip(taus, taus[1:]))

    def test_boundaries_increase_with_delta(self):
        values = [
            decision_boundaries(UNIFORM5, 50, ResemblanceConfig(delta_override=d))
            for d in (0.02, 0.03, 0.04)
        ]
        lams = [v.lambda_sup for v in values]
        taus = [v.tau2 for v in values]
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert all(b > a for a, b in zip(taus, taus[1:]))


class TestClassification:
    BOUNDS = DecisionBoundaries(
        delta=0.056569, lambda_sup=3.2, tau1=0.07441, tau2=0.25722, n=50, B=5
    )

    def test_published_examples(self):
        assert classify_prs(0.068, self.BOUNDS) is Region.R1
        assert classify_prs(0.108, self.BOUNDS) is Region.R2
        assert classify_prs(0.300, self.BOUNDS) is Region.R3

    def test_ties_go_to_lower_severity(self):
        assert classify_prs(self.BOUNDS.tau1, self.BOUNDS) is Region.R1
        assert classify_prs(self.BOUNDS.tau2, self.BOUNDS) is Region.R2

    @settings(max_examples=100, deadline=None)
    @given(value=st.floats(0.0, 10.0))
    def test_region_partition(self, value):
        regions = [classify_prs(value, self.BOUNDS)]
        assert len(regions) == 1 and regions[0] in Region

    def test_lewis_rule(self):
        assert classify_lewis(0.072) is Region.R1
        assert classify_lewis(0.227) is Region.R2
        assert classify_lewis(0.310) is Region.R3
        assert classify_lewis(0.25) is Region.R3  # ties at 0.25 go to action

    def test_rag_mapping(self):
        assert Region.R1.value == "green"
        assert Region.R2.value == "amber"
        assert Region.R3.value == "red"


class TestYnRule:
    def test_thresholds(self):
        tau_red, tau_green = yn_boundaries(50, 5, 0.01, 0.10)
        assert tau_red == pytest.approx(2 * 13.2767 / 50, abs=1e-4)
        assert tau_green == pytest.approx(2 * 7.7794 / 50, abs=1e-4)

    def test_published_classifications(self):
        tau_red, tau_green = yn_boundaries(50, 5, 0.01, 0.10)
        assert classify_yn(0.426, tau_red, tau_green) is Region.R2
        assert classify_yn(0.310, tau_red, tau_green) is Region.R1

    def test_degenerate_levels(self):
        with pytest.raises(ValidationError):
            yn_boundaries(50, 5, 0.10, 0.10)

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_bad_sample_size(self, n):
        with pytest.raises(ValidationError, match="sample size must be positive"):
            yn_boundaries(n, 5, 0.01, 0.10)

    @pytest.mark.parametrize("B", [1, 0])
    def test_rejects_fewer_than_two_categories(self, B):
        with pytest.raises(ValidationError, match="B >= 2"):
            yn_boundaries(50, B, 0.01, 0.10)

    @pytest.mark.parametrize("level", [-0.1, 0.0, 1.0, 1.5, float("nan")])
    @pytest.mark.parametrize("name", ["alpha_upper", "alpha_lower"])
    def test_rejects_levels_outside_unit_interval(self, name, level):
        levels = {"alpha_upper": 0.01, "alpha_lower": 0.10, name: level}
        with pytest.raises(ValidationError, match=rf"{name} must lie in \(0, 1\)"):
            yn_boundaries(50, 5, **levels)


class TestKsPValue:
    def test_zero_statistic_gives_p_one(self):
        counts = CategoryCounts(np.array([10, 10, 10, 10, 10]))
        assert ks_p_value(counts, UNIFORM5, replications=2000, seed=3) == 1.0

    def test_extreme_row_is_significant(self):
        counts = CategoryCounts(np.array([2, 5, 13, 14, 16]))
        assert ks_p_value(counts, UNIFORM5, replications=10_000, seed=3) < 0.001

    def test_mild_row_is_not(self):
        counts = CategoryCounts(np.array([6, 9, 10, 11, 14]))
        p = ks_p_value(counts, UNIFORM5, replications=10_000, seed=3)
        assert p == pytest.approx(0.40, abs=0.03)

    def test_deterministic_in_seed(self):
        counts = CategoryCounts(np.array([6, 9, 10, 11, 14]))
        a = ks_p_value(counts, UNIFORM5, replications=5000, seed=11)
        b = ks_p_value(counts, UNIFORM5, replications=5000, seed=11)
        assert a == b

    def test_replication_floor(self):
        counts = CategoryCounts(np.array([10, 10, 10, 10, 10]))
        with pytest.raises(ValidationError):
            ks_p_value(counts, UNIFORM5, replications=100, seed=0)


class TestConfigValidation:
    def test_rejects_bad_m(self):
        with pytest.raises(ValidationError):
            ResemblanceConfig(M=1.0)
        with pytest.raises(ValidationError, match="finite"):
            ResemblanceConfig(M=np.inf)

    def test_rejects_nan_c(self):
        with pytest.raises(ValidationError, match="finite"):
            ResemblanceConfig(c=np.nan)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValidationError):
            ResemblanceConfig(alpha1=0.0)
        with pytest.raises(ValidationError):
            ResemblanceConfig(alpha2=1.0)
