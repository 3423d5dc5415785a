import re
import sys
import threading
import tracemalloc

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
from popres.errors import BoundaryOverlapError, ConstraintError, ConvergenceError, ValidationError
from popres.resemblance import (
    KS_MAX_N,
    DecisionBoundaries,
    Region,
    ResemblanceConfig,
    classify_lewis,
    classify_p_value,
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

from oracles import (
    boundaries_step_by_step,
    enumerate_extreme_points,
    ks_p_value_enumerated,
    ks_p_value_uncached,
    ks_rows,
    yn_step_by_step,
)

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

    @pytest.mark.parametrize("shape", [(4,), (2, 5)])
    def test_refuses_another_shape(self, shape):
        with pytest.raises(ValidationError, match=re.escape(f"shape (5,), got shape {shape}")):
            is_delta_resemblant(np.full(shape, 0.2), UNIFORM5, 0.05)


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

    @pytest.mark.parametrize("p, region", [
        (0.0, Region.R3), (0.0099, Region.R3), (0.01, Region.R2), (0.05, Region.R2),
        (0.10, Region.R2), (0.1001, Region.R1), (1.0, Region.R1),
    ])
    def test_p_value_rule(self, p, region):
        # ties at 1 % and 10 % go to amber
        assert classify_p_value(p) is region

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

# ks_p_value of the published (50, 5) and (500, 10) snapshots, pinned to rel 1e-12
KS_PUBLISHED_PINS = [
    ((6, 9, 10, 11, 14), 0.39537084109964626),
    ((4, 10, 11, 11, 14), 0.2306731757703399),
    ((7, 8, 8, 10, 17), 0.12297915691887595),
    ((3, 8, 12, 13, 14), 0.027539123493271776),
    ((2, 9, 12, 13, 14), 0.027539123493271776),
    ((2, 5, 13, 14, 16), 0.0005215076612487123),
    ((35, 40, 45, 45, 47, 50, 55, 58, 60, 65), 0.0020034499422950246),
    ((40, 45, 45, 45, 47, 48, 55, 55, 60, 60), 0.02197069604324009),
    ((35, 36, 42, 43, 44, 44, 60, 60, 61, 75), 1.4306172748272137e-06),
    ((20, 35, 35, 40, 40, 62, 65, 65, 65, 73), 1.63743730246528e-12),
]
# (n, B, reference, p of a snapshot drawn from it, p of one drawn from it tilted)
KS_SEEDED_PINS = [
    (1_000, 5, "uniform", 0.8924228829907931, 2.656883247541886e-10),
    (1_000, 5, "skewed", 0.8111661707123136, 3.627173910758007e-07),
    (1_000, 5, "repeated", 0.4649953104460144, 0.005622005026721148),
    (1_000, 20, "uniform", 0.6845246942245066, 1.0446248377628091e-07),
    (1_000, 20, "skewed", 0.9184132313013402, 1.5036952046036872e-06),
    (1_000, 20, "repeated", 0.29881637920207904, 1.6594548012827108e-06),
    (1_000, 60, "uniform", 0.9284419705230619, 1.5694822588839685e-08),
    (1_000, 60, "skewed", 0.8287933817251677, 3.121825152762082e-05),
    (1_000, 60, "repeated", 0.9780068679719713, 6.90379876630257e-08),
    (10_000, 5, "uniform", 0.011382477738491506, 3.212658352021838e-13),
    (10_000, 5, "skewed", 0.045062379992952095, 1.8435061339567762e-08),
    (10_000, 5, "repeated", 0.04277150503800498, 3.9616962630200674e-07),
    (10_000, 20, "uniform", 0.6177646855696965, 4.879472653813085e-06),
    (10_000, 20, "skewed", 0.5153306816034448, 0.008156534809327728),
    (10_000, 20, "repeated", 0.7854396377051932, 0.0001271112513116005),
    (10_000, 60, "uniform", 0.6716764482429121, 0.003219150107875545),
    (10_000, 60, "skewed", 0.6864031593516752, 0.0094205364236233),
    (10_000, 60, "repeated", 0.36521984101222366, 3.0496588613449046e-09),
    (100_000, 5, "uniform", 0.3330533469640331, 1.4392514057603206e-10),
    (100_000, 5, "skewed", 0.13699379785746046, 1.2645888877147766e-05),
    (100_000, 5, "repeated", 0.019245267557873324, 5.93320347029026e-05),
    (100_000, 20, "uniform", 0.5868797187092909, 6.133337452546292e-05),
    (100_000, 20, "skewed", 0.400668507649141, 0.0005922003026645666),
    (100_000, 20, "repeated", 0.7473580090269565, 0.0002108207000427848),
    (100_000, 60, "uniform", 0.923617755335947, 5.94784675976512e-11),
    (100_000, 60, "skewed", 0.6876297797517544, 1.5128514501136998e-08),
    (100_000, 60, "repeated", 0.7022057192543852, 4.4525644422766046e-11),
    (1_000_000, 5, "uniform", 0.6020091037319855, 1.9567324820591255e-09),
    (1_000_000, 5, "skewed", 0.5550820248859266, 2.6961163765943736e-06),
    (1_000_000, 5, "repeated", 0.7195681831166577, 0.00012863418381195196),
    (1_000_000, 20, "uniform", 0.7822706333665485, 4.206662517787102e-07),
    (1_000_000, 20, "skewed", 0.5774005470618864, 0.00018185704840348774),
    (1_000_000, 20, "repeated", 0.5949232463418475, 7.297943282608684e-08),
    (1_000_000, 60, "uniform", 0.27320694153112013, 4.239396434832003e-07),
    (1_000_000, 60, "skewed", 0.7597981201324642, 1.4403643439179721e-06),
    (1_000_000, 60, "repeated", 0.28696652227402697, 7.77219014483041e-08),
]


def ks_reference(kind, B):
    """Uniform, skewed (q_j proportional to j), or repeating 0.1, 0.1, 0.3, 0.3, 0.2."""
    if kind == "uniform":
        return uniform_reference(B)
    weights = np.arange(1, B + 1) if kind == "skewed" else np.tile([1, 1, 3, 3, 2], B // 5)
    return ReferenceDistribution(weights / weights.sum())


def ks_snapshot(n, q, tilt):
    """n counts drawn, seeded by the shape, from ``q`` tilted by ``tilt`` standard errors:
    category j's probability is scaled by 1 + tilt (2 j / (B - 1) - 1) / sqrt(n)."""
    B = q.size
    population = q * (1 + tilt * np.linspace(-1, 1, B) / np.sqrt(n))
    rng = np.random.default_rng([n, B, tilt])
    return CategoryCounts(rng.multinomial(n, population / population.sum()))


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
            # repeated entries: equal Poisson windows, adjacent or not
            ((3, 1, 4, 2, 2), [0.1, 0.1, 0.3, 0.3, 0.2]),
            ((2, 6, 1, 5), [0.35, 0.15, 0.35, 0.15]),
        ],
    )
    def test_matches_enumeration_of_every_count_vector(self, counts, probs):
        c, q = CategoryCounts(np.array(counts)), ReferenceDistribution(np.array(probs))
        assert ks_p_value(c, q) == pytest.approx(ks_p_value_enumerated(c, q), rel=1e-12)

    @pytest.mark.parametrize("row, pinned", KS_PUBLISHED_PINS,
                             ids=[f"n{sum(row)}-{i}" for i, (row, _) in enumerate(KS_PUBLISHED_PINS)])
    def test_published_snapshots_keep_their_pinned_value(self, row, pinned):
        q = uniform_reference(len(row))
        assert ks_p_value(CategoryCounts(np.array(row)), q) == pytest.approx(pinned, rel=1e-12)

    @pytest.mark.parametrize("n, B, kind, drawn, tilted", KS_SEEDED_PINS,
                             ids=[f"n{n}-B{B}-{kind}" for n, B, kind, _, _ in KS_SEEDED_PINS])
    def test_seeded_snapshots_keep_their_pinned_value(self, n, B, kind, drawn, tilted):
        q = ks_reference(kind, B)
        for tilt, pinned in ((0, drawn), (10, tilted)):
            p = ks_p_value(ks_snapshot(n, q.probs, tilt), q)
            assert p == pytest.approx(pinned, rel=1e-12), f"tilt {tilt}"

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
        p_mc = float(np.mean(ks_rows(sims / counts.n, q.probs) >= observed - 1e-12))
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


def kept_window_bytes():
    """Bytes of the distinct window arrays in the kept KS schedules."""
    arrays = {id(a): a for steps, _ in resemblance._ks_schedule._kept.values()
              for step in steps for a in (step[1], step[5])}
    return sum(a.nbytes for a in arrays.values())


KS_KINDS = ("uniform", "dirichlet", "repeated")


def drawn_reference(kind, B, seed):
    """Uniform, Dirichlet(1, ..., 1) drawn from ``seed``, or 0.1, 0.1, 0.3, 0.3, 0.2 repeated."""
    if kind == "uniform":
        return uniform_reference(B)
    if kind == "dirichlet":
        return ReferenceDistribution(np.random.default_rng(seed).dirichlet(np.ones(B)))
    weights = np.resize([1, 1, 3, 3, 2], B)
    return ReferenceDistribution(weights / weights.sum())


class TestKsSchedule:
    @settings(max_examples=80, deadline=None)
    @given(
        B=st.integers(2, 29),
        n=st.one_of(st.integers(1, 300), st.integers(300, 50_000)),
        # most references share (n, B), so a schedule kept for one must not serve another
        shapes=st.lists(st.tuples(st.sampled_from(KS_KINDS), st.integers(0, 2**32 - 1), st.booleans()),
                        min_size=1, max_size=4),
        calls=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0, 0, 1, 3, 6]),
                                 st.integers(0, 2**32 - 1), st.booleans()),
                       min_size=1, max_size=8),
    )
    def test_bits_equal_the_loop_that_builds_every_window_per_call(self, B, n, shapes, calls):
        # a history acks a resubmitted snapshot by comparing reports, so p must keep its bits
        references = [(2 * n if other else n, drawn_reference(kind, B + other, seed))
                      for kind, seed, other in shapes]
        for pick, tilt, seed, clear in calls:
            if clear:
                resemblance._ks_schedule.cache_clear()
            n, q = references[pick % len(references)]
            # tilt 0 draws from the reference; a tilt of t moves the draw by about t standard errors
            population = np.maximum(q.probs * (1 + tilt * np.linspace(-1, 1, q.probs.size) / np.sqrt(n)), 0)
            rng = np.random.default_rng(seed)
            counts = CategoryCounts(rng.multinomial(n, population / population.sum()))
            assert float.hex(ks_p_value(counts, q)) == float.hex(ks_p_value_uncached(counts, q))

    def test_repeated_call_builds_no_window(self, monkeypatch):
        counts, q = CategoryCounts(np.array(ROW_2000_10_T3)), uniform_reference(10)
        p = ks_p_value(counts, q)

        def no_window(mu):
            raise AssertionError("a window was built")

        monkeypatch.setattr(resemblance, "_poisson_window", no_window)
        assert float.hex(ks_p_value(counts, q)) == float.hex(p)
        row = np.array(ROW_2000_10_T3)
        row[[0, -1]] += (30, -30)
        assert ks_p_value(CategoryCounts(row), q) == ks_p_value_uncached(CategoryCounts(row), q)

    def test_schedule_is_rebuilt_under_another_window_rule(self, monkeypatch):
        counts, q = CategoryCounts(np.array(ROW_2000_10_T3)), uniform_reference(10)
        ks_p_value(counts, q)
        widths = []
        rule = resemblance._window_halfwidth
        monkeypatch.setattr(resemblance, "_window_halfwidth", lambda var: widths.append(var) or rule(var))
        ks_p_value(counts, q)
        assert widths

    def test_kept_windows_are_read_only(self):
        ks_p_value(CategoryCounts(np.array(ROW_2000_10_T3)), uniform_reference(10))
        for steps, _ in resemblance._ks_schedule._kept.values():
            for step in steps:
                for window in (step[1], step[5]):
                    with pytest.raises(ValueError, match="read-only"):
                        window[0] = 1.0

    def test_schedule_above_the_cap_is_not_kept(self):
        resemblance._ks_schedule.cache_clear()
        n, q = 1_000_000, uniform_reference(60)
        assert resemblance._schedule_nbytes(n, q.probs) > resemblance._SCHEDULE_CAP
        counts = ks_snapshot(n, q.probs, 0)
        assert float.hex(ks_p_value(counts, q)) == float.hex(ks_p_value_uncached(counts, q))
        assert resemblance._ks_schedule._kept == {}
        assert resemblance._ks_schedule.nbytes == 0

    def test_kept_schedules_stay_under_the_bound(self):
        cache = resemblance._ks_schedule
        cache.cache_clear()
        shapes = [(n, ks_reference(kind, 20).probs)
                  for n in (40_000, 60_000, 80_000) for kind in ("uniform", "skewed", "repeated")]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for n, q in shapes:
                cache(n, q)
                cache(*shapes[0])  # the first shape stays the most recently used
                held = tracemalloc.get_traced_memory()[0] - base
                assert kept_window_bytes() <= cache.nbytes <= resemblance._SCHEDULE_BOUND
                # the charge covers the Python objects around the windows too
                assert held <= cache.nbytes
                assert cache.nbytes == sum(size for _, size in cache._kept.values())
                assert cache.nbytes == sum(resemblance._schedule_nbytes(key[0], np.frombuffer(key[1]))
                                           for key in cache._kept)
        finally:
            tracemalloc.stop()
        kept = [(key[0], key[1]) for key in cache._kept]
        assert (shapes[0][0], shapes[0][1].tobytes()) == kept[-1]
        assert len(kept) < len(shapes)  # the bound dropped the least recently used
        assert (shapes[-1][0], shapes[-1][1].tobytes()) in kept


    def test_threads_sharing_the_cache_keep_its_byte_count(self):
        cache = resemblance._ks_schedule
        cache.cache_clear()
        # seven shapes of 0.7-0.8 MiB each: together they overflow the bound, so threads evict
        shapes = [(n, ks_reference("skewed", 20)) for n in range(50_000, 57_000, 1_000)]
        expected = {n: ks_p_value_uncached(ks_snapshot(n, q.probs, 0), q) for n, q in shapes}
        failures = []

        def worker(offset):
            for i in range(3 * len(shapes)):
                n, q = shapes[(i + offset) % len(shapes)]
                if ks_p_value(ks_snapshot(n, q.probs, 0), q) != expected[n]:
                    failures.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert cache.nbytes == sum(size for _, size in cache._kept.values()) <= resemblance._SCHEDULE_BOUND


# references for the boundaries tests: two share B = 5, and one has a category too small for most cfgs
MEMO_REFERENCES = (uniform_reference(5), ReferenceDistribution(np.array([0.1, 0.1, 0.3, 0.3, 0.2])),
                   uniform_reference(10), ReferenceDistribution(np.array([0.002, 0.499, 0.499])))


def outcome(fn, *args):
    """The repr of what ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return repr(fn(*args))
    except (ValidationError, BoundaryOverlapError, ConvergenceError) as exc:
        return type(exc), str(exc)


class TestBoundariesMemo:
    @settings(max_examples=150, deadline=None)
    @given(
        # a few settings of (n, c, M, alpha, delta_override), often alike but for one
        cases=st.lists(st.tuples(
            st.sampled_from([0, 50, 50, 500, 10**6]),
            st.sampled_from([0.3, 0.7, 0.7, 3.0]),
            st.sampled_from([1.5, 2.0, 2.0]),
            st.sampled_from([0.05, 0.05, 0.4]),
            st.sampled_from([None, None, 0.01]),
        ), min_size=1, max_size=3),
        # each call: a reference, a case, n as an int or a numpy int, and a YN lower level
        calls=st.lists(st.tuples(st.integers(0, len(MEMO_REFERENCES) - 1), st.integers(0, 2), st.booleans(),
                                 st.sampled_from([0.1, 0.2, 0.01])), min_size=1, max_size=20),
    )
    def test_kept_results_equal_those_derived_per_call(self, cases, calls):
        # each call derives anew: what a caller keeps equals the step-by-step derivation,
        # for n as an int or a numpy int, repeated or not
        for pick, case, numpy_n, lower in calls:
            n, c, M, alpha, delta = cases[case % len(cases)]
            n = np.int64(n) if numpy_n else n
            q = MEMO_REFERENCES[pick]
            cfg = ResemblanceConfig(c=c, M=M, alpha1=alpha, alpha2=2 * alpha, delta_override=delta)
            assert outcome(decision_boundaries, q, n, cfg) == outcome(boundaries_step_by_step, q.probs, n, cfg)
            levels = (n, q.B, alpha / 5, lower)
            assert outcome(yn_boundaries, *levels) == outcome(yn_step_by_step, *levels)

    def test_raising_call_keeps_nothing(self):
        for _ in range(2):
            with pytest.raises(ConstraintError):
                decision_boundaries(UNIFORM5, 50, ResemblanceConfig(M=100.0))
            with pytest.raises(ValidationError):
                yn_boundaries(50, 5, 0.1, 0.1)


@pytest.mark.parametrize("n", [2**63, np.uint64(2**63), 10**400], ids=["2**63", "uint64", "10**400"])
@pytest.mark.parametrize("call", [
    lambda n: recommended_delta(UNIFORM5, n, 0.7),
    lambda n: lambda_sup(UNIFORM5, n, 0.01),
    lambda n: decision_boundaries(UNIFORM5, n, ResemblanceConfig()),
    lambda n: decision_boundaries(UNIFORM5, n, ResemblanceConfig(delta_override=0.01)),
    lambda n: yn_boundaries(n, 5, 0.01, 0.10),
], ids=["recommended_delta", "lambda_sup", "decision_boundaries", "delta_override", "yn_boundaries"])
def test_sample_size_above_int64_is_refused(call, n):
    # no vector of int64 counts sums to n; 10**400 overflowed a float
    with pytest.raises(ValidationError, match=rf"sample size {n} exceeds the int64 range"):
        call(n)


def test_largest_int64_sample_size_is_taken():
    n = 2**63 - 1
    assert recommended_delta(UNIFORM5, n, 0.7) > 0
    assert decision_boundaries(UNIFORM5, n, ResemblanceConfig()).n == n
    assert yn_boundaries(n, 5, 0.01, 0.10)[0] > 0


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

    def test_stores_floats(self):
        cfg = ResemblanceConfig(c=1, M=np.int64(3), alpha1=np.float32(0.25), alpha2=0.5, delta_override=2)
        assert [type(getattr(cfg, f)) for f in ("c", "M", "alpha1", "alpha2", "delta_override")] == [float] * 5
        assert ResemblanceConfig().delta_override is None

    @pytest.mark.parametrize("field,value", [
        ("c", "0.7"), ("M", None), ("alpha1", 1j), ("alpha2", [0.1]), ("delta_override", "x"),
        ("c", True), ("delta_override", False),
    ])
    def test_rejects_non_numbers_by_field_name(self, field, value):
        with pytest.raises(ValidationError, match=rf"^{field} must be a number, got "):
            ResemblanceConfig(**{field: value})
