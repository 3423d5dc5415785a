import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popres import resemblance
from popres.divergences import (
    CategoryCounts,
    ReferenceDistribution,
    ks_statistic,
    proportions,
    prs,
    uniform_reference,
)
from popres.errors import BoundaryOverlapError, ConstraintError, ValidationError
from popres.resemblance import (
    KS_MAX_N,
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
from popres.sampling import multinomial_matrix

from oracles import enumerate_extreme_points, ks_p_value_enumerated

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


# published snapshots: (500, 10) t2, (2000, 10) t3, and (10^4, 20) t2 to t4
ROW_500_10_T2 = (40, 45, 45, 45, 47, 48, 55, 55, 60, 60)
ROW_2000_10_T3 = (180, 180, 190, 194, 200, 200, 204, 210, 220, 222)
ROW_10000_20_T2 = (150, 170, 400, 400, 450, 450, 460, 460, 525, 525,
                   545, 545, 550, 550, 600, 620, 650, 650, 650, 650)
ROW_10000_20_T3 = (445, 455, 480, 480, 485, 485, 490, 495, 500, 500,
                   501, 502, 502, 510, 510, 520, 520, 530, 540, 550)
ROW_10000_20_T4 = (425, 425, 440, 440, 445, 445, 460, 460, 475, 475,
                   490, 490, 525, 525, 555, 555, 585, 585, 600, 600)


class TestKsPValue:
    def test_zero_statistic_gives_p_one(self):
        counts = CategoryCounts(np.array([10, 10, 10, 10, 10]))
        assert ks_p_value(counts, UNIFORM5) == 1.0

    def test_extreme_row_is_significant(self):
        counts = CategoryCounts(np.array([2, 5, 13, 14, 16]))
        assert ks_p_value(counts, UNIFORM5) < 0.001

    def test_mild_row_is_not(self):
        counts = CategoryCounts(np.array([6, 9, 10, 11, 14]))
        p = ks_p_value(counts, UNIFORM5)
        assert p == pytest.approx(0.40, abs=0.03)

    def test_deterministic(self):
        counts = CategoryCounts(np.array([6, 9, 10, 11, 14]))
        assert ks_p_value(counts, UNIFORM5) == ks_p_value(counts, UNIFORM5)

    @pytest.mark.parametrize(
        "counts, probs",
        [
            ((6, 9, 10, 11, 14), [0.2] * 5),
            ((10, 2, 3, 5, 0), [0.1, 0.2, 0.3, 0.25, 0.15]),
            ((1, 1, 1, 7), [0.4, 0.3, 0.2, 0.1]),
            # skewed reference, cumulative probabilities off the lattice
            ((2, 3, 5, 9, 6, 0), [0.05, 0.1, 0.15, 0.2, 0.2, 0.3]),
            ((30, 0, 0), [0.5, 0.3, 0.2]),
            ((0, 0, 12), [0.45, 0.45, 0.1]),
            # n F_j on the lattice: D = 2/20 is shared by many count vectors
            ((7, 5, 4, 4), [0.25] * 4),
            ((4, 4, 4, 3, 5), [0.2] * 5),
            # sums to 1 + 2.1e-14, so 1 - F_2 rounds below 0
            ((3, 5, 0), [0.3, 0.7 + 2e-14, 1e-15]),
        ],
    )
    def test_matches_enumeration_of_every_count_vector(self, counts, probs):
        c, q = CategoryCounts(np.array(counts)), ReferenceDistribution(np.array(probs))
        assert ks_p_value(c, q) == pytest.approx(ks_p_value_enumerated(c, q), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.integers(1, 9), min_size=2, max_size=6),
        base=st.lists(st.integers(0, 60), min_size=6, max_size=6),
        move=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 60)),
    )
    def test_in_unit_interval_and_nonincreasing_in_statistic(self, weights, base, move):
        B = len(weights)
        q = ReferenceDistribution(np.array(weights) / sum(weights))
        first = np.array(base[:B])
        if first.sum() == 0:
            first[0] = 1
        # a second snapshot of the same size: units moved between two categories
        src, dst, k = move[0] % B, move[1] % B, min(move[2], int(first[move[0] % B]))
        second = first.copy()
        second[src] -= k
        second[dst] += k
        pairs = []
        for counts in (first, second):
            c = CategoryCounts(counts)
            p = ks_p_value(c, q)
            assert 0.0 < p <= 1.0
            pairs.append((ks_statistic(proportions(c), q), p))
        (_, p_near), (_, p_far) = sorted(pairs)
        assert p_far <= p_near * (1 + 1e-9)

    @pytest.mark.parametrize("B, row", [(10, ROW_2000_10_T3), (20, ROW_10000_20_T3)])
    def test_within_4_se_of_monte_carlo(self, B, row):
        counts, q = CategoryCounts(np.array(row)), uniform_reference(B)
        K = 200_000
        sims = multinomial_matrix(counts.n, q.probs, K, seed=20)
        observed = ks_statistic(proportions(counts), q)
        p_mc = float(np.mean(ks_statistic(sims / counts.n, q) >= observed - 1e-12))
        p = ks_p_value(counts, q)
        assert abs(p_mc - p) <= 4 * np.sqrt(p * (1 - p) / K)

    def test_far_tail_stays_positive(self):
        counts = CategoryCounts(np.array(ROW_10000_20_T2))
        assert 0.0 < ks_p_value(counts, uniform_reference(20)) < 1e-25

    @pytest.mark.parametrize(
        "B, row", [(10, ROW_500_10_T2), (20, ROW_10000_20_T3), (20, ROW_10000_20_T4)]
    )
    def test_trimming_errs_upward_within_its_bound(self, monkeypatch, B, row):
        # at t4 (p about 7e-26) the band outgrows the 12-SD state window
        counts, q = CategoryCounts(np.array(row)), uniform_reference(B)
        p = ks_p_value(counts, q)
        # 30 standard deviations leave out less than 1e-190 of the mass, so
        # less the added allowance this is the p-value to rounding
        monkeypatch.setattr(resemblance, "_window_halfwidth",
                            lambda var: int(30 * np.sqrt(var) + 300))
        exact = ks_p_value(counts, q) - 4 * (B - 1) * np.exp(-72)
        assert exact * (1 - 1e-12) <= p <= exact * (1 + 1e-12) + 14 * (B - 1) * np.exp(-72)

    def test_refuses_samples_above_the_limit_before_any_window(self, monkeypatch):
        def no_window(mu):
            raise AssertionError("a window was built")

        monkeypatch.setattr(resemblance, "_poisson_window", no_window)
        counts = CategoryCounts(np.array([KS_MAX_N // 2, KS_MAX_N // 2 + 1]))
        with pytest.raises(ValidationError, match="at most 1,000,000,000 counts"):
            ks_p_value(counts, uniform_reference(2))


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
