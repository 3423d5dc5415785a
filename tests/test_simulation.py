import itertools
import math

import numpy as np
import pytest
from scipy import stats

from popres.divergences import uniform_reference
from popres.errors import ValidationError
from popres.resemblance import ResemblanceConfig
from popres.sampling import multinomial_matrix
from popres.simulation import (
    MCEstimate,
    calibration_probabilities,
    classification_sweep,
    reconstruction_probability,
    stability_ratios,
)


class TestMultinomialSampling:
    def test_single_category_takes_every_draw(self):
        m = multinomial_matrix(37, np.array([1.0]), 1000, seed=0)
        assert m.shape == (1000, 1)
        assert np.all(m == 37)

    def test_zero_probability_category_stays_empty(self):
        p = np.array([0.3, 0.0, 0.5, 0.0, 0.2])
        m = multinomial_matrix(50, p, 20_000, seed=4)
        assert np.all(m[:, [1, 3]] == 0)
        assert np.all(m.sum(axis=1) == 50)

    def test_outcome_frequencies_follow_the_multinomial_law(self):
        # all 28 outcomes of Multinomial(6, p) over 3 categories, against the pmf
        n, p, K = 6, np.array([0.5, 0.3, 0.2]), 200_000
        m = multinomial_matrix(n, p, K, seed=11)
        outcomes = [c for c in itertools.product(range(n + 1), repeat=3) if sum(c) == n]
        assert len(outcomes) == 28
        index = {c: i for i, c in enumerate(outcomes)}
        observed = np.bincount([index[tuple(row)] for row in m.tolist()], minlength=28)
        expected = K * stats.multinomial.pmf(outcomes, n, p)
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    def test_matrix_rows_sum_to_n(self):
        m = multinomial_matrix(50, np.full(5, 0.2), 2000, seed=1)
        assert m.shape == (2000, 5)
        assert np.all(m.sum(axis=1) == 50)
        assert np.all(m >= 0)

    def test_marginal_means(self):
        K = 100_000
        m = multinomial_matrix(50, np.full(5, 0.2), K, seed=2)
        means = m.mean(axis=0)
        # each count is Binomial(50, 0.2): mean 10, sd sqrt(8)
        se = math.sqrt(50 * 0.2 * 0.8 / K)
        assert np.all(np.abs(means - 10.0) <= 5 * se)

    def test_covariance_structure(self):
        K = 100_000
        p = np.array([0.1, 0.2, 0.3, 0.4])
        n = 40
        m = multinomial_matrix(n, p, K, seed=3)
        emp = np.cov(m.T)
        theo = n * (np.diag(p) - np.outer(p, p))
        # sampling error of a covariance entry scales like theo / sqrt(K)
        assert np.all(np.abs(emp - theo) <= 5 * (np.abs(theo) + 1.0) / math.sqrt(K) * 10)

    def test_skewed_probabilities(self):
        K = 50_000
        p = np.array([0.9, 0.05, 0.03, 0.02])
        m = multinomial_matrix(20, p, K, seed=9)
        assert np.all(m.sum(axis=1) == 20)
        assert np.abs(m[:, 0].mean() - 18.0) < 0.05

    def test_worker_count_does_not_change_output(self):
        p = np.full(5, 0.2)
        a = multinomial_matrix(50, p, 100_000, seed=7, workers=1)
        b = multinomial_matrix(50, p, 100_000, seed=7, workers=4)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        p = np.full(5, 0.2)
        a = multinomial_matrix(50, p, 1000, seed=7, stream=1)
        b = multinomial_matrix(50, p, 1000, seed=7, stream=2)
        assert not np.array_equal(a, b)

    def test_prefix_stability(self):
        # extending the replication count leaves the earlier rows unchanged
        p = np.full(5, 0.2)
        short = multinomial_matrix(50, p, 40_000, seed=5)
        long = multinomial_matrix(50, p, 70_000, seed=5)
        assert np.array_equal(short, long[:40_000])


class TestSpecValidation:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_sampler_rejects_bad_workers(self, workers):
        with pytest.raises(ValidationError, match=f"got {workers}"):
            multinomial_matrix(50, np.full(5, 0.2), 1000, seed=1, workers=workers)

    def test_stability_rejects_bad_sizes(self):
        with pytest.raises(ValidationError, match="sample size"):
            stability_ratios(0, 5, 100, 0)

    def test_bad_n(self):
        with pytest.raises(ValidationError):
            reconstruction_probability(n=0, B=5, replications=100, seed=0)

    def test_bad_b(self):
        with pytest.raises(ValidationError):
            reconstruction_probability(n=50, B=1, replications=100, seed=0)

    def test_bad_replications(self):
        with pytest.raises(ValidationError):
            reconstruction_probability(n=50, B=5, replications=0, seed=0)

    def test_sweep_rejects_zero_replications(self):
        with pytest.raises(ValidationError, match="replication"):
            classification_sweep(50, 5, ResemblanceConfig(), replications=0)

    def test_calibration_rejects_zero_replications(self):
        with pytest.raises(ValidationError, match="replication"):
            calibration_probabilities(50, 5, ResemblanceConfig(), replications=0)


class TestReconstruction:
    def test_null_probability_small_n(self):
        est = reconstruction_probability(n=20, B=5, replications=50_000, seed=1)
        assert isinstance(est, MCEstimate)
        # a fair fraction of null samples at n=20 clear the 0.25 action line
        assert 0.15 < est.value < 0.35

    def test_null_probability_vanishes_at_large_n(self):
        est = reconstruction_probability(n=1000, B=5, replications=50_000, seed=1)
        assert est.value < 0.001

    def test_shifted_population_raises_probability(self):
        null = reconstruction_probability(n=50, B=5, replications=50_000, seed=1)
        shifted = reconstruction_probability(n=50, B=5, replications=50_000, seed=1, target_j=0.1)
        assert shifted.value > null.value + 3 * (null.std_error + shifted.std_error)

    def test_deterministic(self):
        spec = dict(n=50, B=5, replications=20_000, seed=6)
        assert reconstruction_probability(**spec) == reconstruction_probability(**spec)


class TestStabilityRatios:
    def test_prs_mean_is_stable_at_small_n(self):
        r = stability_ratios(20, 5, replications=100_000, seed=2)
        assert abs(r.mean_ratio_prs - 1.0) <= 3 * r.mean_se_prs

    def test_psi_mean_inflated_at_small_n(self):
        r = stability_ratios(20, 5, replications=100_000, seed=2)
        assert r.mean_ratio_psi > 1.0 + 3 * r.mean_se_psi

    def test_both_settle_at_large_n(self):
        r = stability_ratios(1000, 5, replications=100_000, seed=2)
        assert abs(r.mean_ratio_psi - 1.0) <= 0.05
        assert abs(r.mean_ratio_prs - 1.0) <= 0.05
        assert abs(r.var_ratio_psi - 1.0) <= 0.10
        assert abs(r.var_ratio_prs - 1.0) <= 0.10


class TestClassificationSweep:
    CFG = ResemblanceConfig(c=0.7, M=2.0, alpha1=0.05, alpha2=0.10)

    def test_shape_and_partition(self):
        res = classification_sweep(50, 5, self.CFG, grid_points=10, replications=5000, seed=4)
        assert res.grid.shape == (10,)
        assert res.region_probs.shape == (10, 3)
        assert np.allclose(res.region_probs.sum(axis=1), 1.0)
        assert res.grid[0] == 0.0

    def test_null_point_is_mostly_green(self):
        res = classification_sweep(500, 10, self.CFG, grid_points=5, replications=20_000, seed=4)
        assert res.region_probs[0, 0] > 0.90
        assert res.region_probs[0, 2] < 0.01

    def test_red_probability_monotone_in_the_tail(self):
        res = classification_sweep(500, 10, self.CFG, grid_points=12, replications=20_000, seed=4)
        r3 = res.region_probs[:, 2]
        assert r3[-1] > 0.99
        # beyond M*delta the red probability climbs steadily
        tail = r3[4:]
        assert all(b >= a - 0.01 for a, b in zip(tail, tail[1:]))

    def test_grid_respects_the_simplex(self):
        res = classification_sweep(50, 5, self.CFG, grid_points=6, replications=2000, seed=4)
        assert res.grid[-1] < 1.0 / 5


class TestCalibration:
    def test_large_n_calibration(self):
        cfg = ResemblanceConfig(c=0.7, M=2.0, alpha1=0.05, alpha2=0.10)
        out = calibration_probabilities(2000, 10, cfg, replications=50_000, seed=5)
        r3 = out["r3_at_delta"]
        r1 = out["r1_at_m_delta"]
        assert abs(r3.value - cfg.alpha1) <= 4 * r3.std_error + 0.003
        assert abs(r1.value - cfg.alpha2) <= 4 * r1.std_error + 0.003

    def test_deterministic(self):
        cfg = ResemblanceConfig()
        a = calibration_probabilities(200, 5, cfg, replications=10_000, seed=8)
        b = calibration_probabilities(200, 5, cfg, replications=10_000, seed=8, workers=4)
        assert a == b
