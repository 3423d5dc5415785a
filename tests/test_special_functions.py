import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from popres import special_functions
from popres.errors import ConvergenceError
from popres.special_functions import (
    chi2_cdf,
    chi2_quantile,
    ncx2_cdf,
    ncx2_quantile,
    regularized_lower_gamma,
)


def gamma_series_oracle(a: float, x: float, max_terms: int = 1_000_000) -> float:
    """Direct power-series summation of P(a, x), independent of the implementation."""
    if x == 0:
        return 0.0
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(max_terms):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total * math.exp(a * math.log(x) - x - math.lgamma(a))


class TestRegularizedLowerGamma:
    def test_exponential_special_case(self):
        assert regularized_lower_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_lower_limit(self):
        assert regularized_lower_gamma(0.5, 0.0) == 0.0

    def test_against_series_oracle(self):
        assert abs(regularized_lower_gamma(2.5, 3.0) - gamma_series_oracle(2.5, 3.0)) <= 1e-12

    def test_series_oracle_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = rng.uniform(0.5, 200.0)
            x = rng.uniform(0.0, min(1000.0, a + 8 * math.sqrt(a) + 20))
            assert abs(regularized_lower_gamma(a, x) - gamma_series_oracle(a, x)) <= 1e-12

    def test_limits_and_monotonicity(self):
        for a in (0.5, 1.0, 7.3, 120.0):
            values = [regularized_lower_gamma(a, x) for x in np.linspace(0, 800, 60)]
            assert values[0] == 0.0
            assert values[-1] == pytest.approx(1.0, abs=1e-12)
            assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    @pytest.mark.parametrize("a,x", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5)])
    def test_domain_errors(self, a, x):
        with pytest.raises(ValueError):
            regularized_lower_gamma(a, x)


class TestChi2:
    def test_lower_support_boundary(self):
        assert chi2_cdf(0.0, 4.0) == 0.0
        assert chi2_cdf(-3.0, 4.0) == 0.0

    def test_even_df_closed_form(self):
        # chi-square with 4 dof: CDF = 1 - exp(-x/2) (1 + x/2)
        assert chi2_cdf(4.0, 4.0) == pytest.approx(1.0 - math.exp(-2.0) * 3.0, abs=1e-13)

    def test_95th_percentile(self):
        assert chi2_cdf(9.487729, 4.0) == pytest.approx(0.95, abs=1e-6)

    def test_quantile_inverts_closed_form(self):
        assert chi2_quantile(1.0 - math.exp(-2.0) * 3.0, 4.0) == pytest.approx(4.0, abs=1e-6)

    def test_quantiles_for_yn_thresholds(self):
        assert chi2_quantile(0.99, 4.0) == pytest.approx(13.2767, abs=1e-3)
        assert chi2_quantile(0.90, 4.0) == pytest.approx(7.7794, abs=1e-3)

    def test_quantile_strictly_increasing(self):
        qs = [chi2_quantile(p, 7.0) for p in np.linspace(0.01, 0.99, 25)]
        assert all(b > a for a, b in zip(qs, qs[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi2_cdf(1.0, 0.0)
        for p in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                chi2_quantile(p, 4.0)


def ncx2_mc_sample(df: int, ncp: float, size: int, seed: int) -> np.ndarray:
    """Sum of df squared standard normals, one shifted to mean sqrt(ncp)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((size, df))
    z[:, 0] += math.sqrt(ncp)
    return (z**2).sum(axis=1)


class TestNcx2Cdf:
    def test_central_reduction_example(self):
        expected = 1.0 - math.exp(-2.5) * 3.5
        assert ncx2_cdf(5.0, 4.0, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_central_reduction_grid(self):
        for x in (0.5, 2.0, 7.7, 30.0):
            for df in (1.0, 4.0, 9.0, 19.0):
                assert abs(ncx2_cdf(x, df, 0.0) - chi2_cdf(x, df)) <= 1e-12
                assert abs(ncx2_cdf(x, df, 5e-324) - chi2_cdf(x, df)) <= 1e-12

    def test_upper_limit(self):
        assert ncx2_cdf(1e6, 4.0, 12.8) == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_oracle(self):
        size = 1_000_000
        sample = ncx2_mc_sample(4, 3.2, size, seed=99)
        p_emp = float(np.mean(sample <= 5.0))
        se = math.sqrt(p_emp * (1 - p_emp) / size)
        assert abs(ncx2_cdf(5.0, 4.0, 3.2) - p_emp) <= 3 * se

    def test_stochastic_ordering(self):
        ncps = [0.0, 0.5, 1.568, 3.2, 12.8, 19.0, 100.0]
        for x in (0.5, 3.0, 8.0, 25.0, 80.0):
            for df in (1.0, 4.0, 19.0):
                vals = [ncx2_cdf(x, df, l) for l in ncps]
                for lo, hi in zip(vals, vals[1:]):
                    assert lo >= hi - 1e-10

    def test_large_ncp_modal_path(self):
        # mixture summed outward from the Poisson mode; spot-check against
        # the normal limit of the standardized statistic
        for ncp in (2500.0, 50_000.0):
            df = 4.0
            mean = df + ncp
            sd = math.sqrt(2 * (df + 2 * ncp))
            val = ncx2_cdf(mean, df, ncp)
            assert 0.45 < val < 0.55
            assert ncx2_cdf(mean + 10 * sd, df, ncp) == pytest.approx(1.0, abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ncx2_cdf(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ncx2_cdf(1.0, 4.0, -0.1)

    @settings(max_examples=60, deadline=None)
    @given(
        x1=st.floats(0.1, 50.0),
        dx=st.floats(0.01, 30.0),
        df=st.floats(0.5, 30.0),
        ncp=st.floats(0.0, 50.0),
    )
    def test_monotone_in_x(self, x1, dx, df, ncp):
        assert ncx2_cdf(x1 + dx, df, ncp) >= ncx2_cdf(x1, df, ncp)


class TestNcx2Quantile:
    def test_inverts_central_example(self):
        p = 1.0 - math.exp(-2.5) * 3.5
        assert ncx2_quantile(p, 4.0, 0.0) == pytest.approx(5.0, abs=1e-6)

    def test_round_trip_grid(self):
        for p in np.linspace(0.01, 0.99, 15):
            for df in (1.0, 4.0, 9.0, 19.0):
                for ncp in (0.0, 1.568, 3.2, 12.8, 19.0):
                    q = ncx2_quantile(float(p), df, ncp)
                    assert abs(ncx2_cdf(q, df, ncp) - p) <= 1e-8

    def test_monte_carlo_quantile_oracle(self):
        size = 1_000_000
        sample = ncx2_mc_sample(4, 3.2, size, seed=7)
        q = ncx2_quantile(0.9, 4.0, 3.2)
        assert 11.5 < q < 15.5
        # bootstrap standard error of the empirical 90th percentile
        rng = np.random.default_rng(8)
        boots = [
            np.quantile(sample[rng.integers(0, size, 200_000)], 0.9) for _ in range(30)
        ]
        se = float(np.std(boots, ddof=1)) * math.sqrt(200_000 / size)
        assert abs(q - np.quantile(sample, 0.9)) <= 3 * max(se, 1e-3)

    def test_monotone_in_ncp(self):
        qs = [ncx2_quantile(0.9, 4.0, ncp) for ncp in (0.0, 1.0, 3.2, 12.8, 50.0)]
        assert all(b >= a for a, b in zip(qs, qs[1:]))

    def test_domain_errors(self):
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                ncx2_quantile(p, 4.0, 1.0)

    @pytest.mark.parametrize("ncp", [1450.0, 1600.0, 1800.0, 1990.0])
    def test_matches_scipy_where_exp_of_half_ncp_underflows(self, ncp):
        for df in (1.0, 4.0, 19.0):
            for p in (0.05, 0.10, 0.90, 0.95):
                expected = stats.ncx2.ppf(p, df, ncp)
                assert ncx2_quantile(p, df, ncp) == pytest.approx(expected, rel=1e-10)

    def test_matches_scipy_stats_ncx2_on_a_grid(self):
        # scipy.stats.ncx2 calls the same Boost ufuncs; a release whose
        # chndtr is not Boost's shows up here. The extra ncps cover
        # (1400, 2000], where exp(-ncp/2) underflows.
        ncps = np.concatenate([np.geomspace(1e-3, 1e5, 17), [1450.0, 1700.0, 1990.0]])
        for df in range(1, 60):
            for ncp in ncps:
                for p in (0.01, 0.05, 0.10, 0.50, 0.90, 0.95, 0.99):
                    q = ncx2_quantile(p, df, float(ncp))
                    assert q == pytest.approx(stats.ncx2.ppf(p, df, ncp), rel=1e-12)
                    x = q * 1.01
                    assert ncx2_cdf(x, df, float(ncp)) == pytest.approx(
                        stats.ncx2.cdf(x, df, ncp), rel=1e-12
                    )


class TestForwardCheck:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, "off"], ids=["nan", "inf", "off"])
    @pytest.mark.parametrize(
        "ufunc,quantile",
        [("chndtrix", lambda: ncx2_quantile(0.95, 4.0, 3.2)),
         ("gammaincinv", lambda: chi2_quantile(0.95, 4.0))],
        ids=["ncx2", "chi2"],
    )
    def test_bad_scipy_result_raises_convergence_error(self, monkeypatch, ufunc, quantile, bad):
        good = getattr(special_functions, ufunc)
        if bad == "off":
            # relative error 1e-3 moves the CDF by far more than 1e-8
            def patched(*args):
                return good(*args) * 1.001
        else:
            def patched(*args):
                return bad
        monkeypatch.setattr(special_functions, ufunc, patched)
        with pytest.raises(ConvergenceError, match="forward check"):
            quantile()
