import numpy as np
import pytest

from popres.divergences import (
    ReferenceDistribution,
    j_divergence,
    prs,
    uniform_reference,
)
from popres.errors import ValidationError
from popres.resemblance import is_delta_resemblant, lambda_sup
from popres.scenarios import perturbed_pv, solve_p_for_target_j

from oracles import enumerate_extreme_points


class TestPerturbedPv:
    def test_odd_b_center_fixed(self):
        p = perturbed_pv(5, 0.02)
        assert np.allclose(p, [0.18, 0.18, 0.20, 0.22, 0.22])

    def test_even_b(self):
        p = perturbed_pv(4, 0.05)
        assert np.allclose(p, [0.20, 0.20, 0.30, 0.30])

    def test_zero_perturbation(self):
        p = perturbed_pv(5, 0.0)
        assert np.allclose(p, 0.2)

    def test_entries_must_stay_positive(self):
        with pytest.raises(ValidationError):
            perturbed_pv(5, 0.2)

    def test_rejects_nan_delta_v(self):
        with pytest.raises(ValidationError, match="non-negative"):
            perturbed_pv(5, float("nan"))

    @pytest.mark.parametrize("B", [1, 0])
    def test_rejects_fewer_than_two_categories(self, B):
        with pytest.raises(ValidationError, match=rf"^need B >= 2 categories, got {B}$"):
            perturbed_pv(B, 0.0)

    def test_chebyshev_distance_is_exactly_delta_v(self):
        for B in (3, 4, 5, 8, 9):
            dv = 0.4 / B
            p = perturbed_pv(B, dv)
            u = uniform_reference(B)
            assert is_delta_resemblant(p, u, dv)
            assert not is_delta_resemblant(p, u, dv * 0.999)

    def test_attains_lambda_sup_for_odd_b(self):
        # the blockwise perturbation at delta_v = delta is an extreme point
        # of the tolerance region, so its non-centrality is maximal
        for B, n in ((5, 50), (9, 200)):
            u = uniform_reference(B)
            delta = 0.3 / B
            p = perturbed_pv(B, delta)
            assert n * prs(p, u) == pytest.approx(
                lambda_sup(u, n, delta), abs=1e-10
            )


class TestSolveForTargetJ:
    def test_zero_target_returns_reference(self):
        p = solve_p_for_target_j(uniform_reference(5), 0.0)
        assert np.allclose(p, 0.2)

    def test_constraint_residual(self):
        for B in (5, 10):
            p = solve_p_for_target_j(uniform_reference(B), 0.1)
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert abs(j_divergence(p, uniform_reference(B)) - 0.1) <= 1e-8
            # one magnitude: the upper block moves up as far as the lower moves down
            assert p[-1] - 1.0 / B == pytest.approx(1.0 / B - p[0], abs=1e-15)
            # blockwise shape: equal lower and upper blocks, odd B keeps 1/B
            half = B // 2
            assert np.all(p[:half] == p[0])
            assert np.all(p[B - half :] == p[-1])
            assert p[0] < 1.0 / B < p[-1]
            if B % 2:
                assert p[half] == 1.0 / B

    def test_non_uniform_reference(self):
        p0 = ReferenceDistribution(np.array([0.1, 0.15, 0.2, 0.25, 0.3]))
        p = solve_p_for_target_j(p0, 0.05)
        assert abs(j_divergence(p, p0) - 0.05) <= 1e-8

    @pytest.mark.parametrize("target", [-0.1, float("nan")])
    def test_rejects_negative_or_nan_target(self, target):
        with pytest.raises(ValidationError, match="non-negative"):
            solve_p_for_target_j(uniform_reference(5), target)

    @pytest.mark.parametrize("p0,target", [
        (np.array([0.5, 0.6]), 0.1),
        (np.array([np.nan, 1.0]), 0.0),
    ])
    def test_rejects_invalid_raw_reference(self, p0, target):
        with pytest.raises(ValidationError, match="reference probabilities"):
            solve_p_for_target_j(p0, target)

    def test_infeasible_target(self):
        with pytest.raises(ValidationError, match="infeasible"):
            solve_p_for_target_j(uniform_reference(3), 50.0)


class TestEnumerateExtremePoints:
    def test_even_b_count(self):
        pts = enumerate_extreme_points(uniform_reference(4), 0.05)
        assert len(pts) == 6

    def test_odd_b_count(self):
        pts = enumerate_extreme_points(uniform_reference(5), 0.05)
        assert len(pts) == 30

    def test_points_valid(self):
        u = uniform_reference(5)
        for pt in enumerate_extreme_points(u, 0.05):
            assert abs(pt.sum() - 1.0) <= 1e-12
            assert is_delta_resemblant(pt, u, 0.05)
            moved = np.abs(pt - 0.2) > 1e-15
            assert moved.sum() == 4  # odd B: exactly one coordinate fixed

    def test_oracle_equals_closed_form(self):
        rng = np.random.default_rng(31)
        for B in (2, 3, 4, 5, 6, 7):
            q = rng.uniform(0.05, 1.0, size=B)
            q /= q.sum()
            p0 = ReferenceDistribution(q)
            delta = 0.4 * float(np.min(q))
            best = max(
                100 * float(np.sum((pt - q) ** 2 / q))
                for pt in enumerate_extreme_points(p0, delta)
            )
            assert best == pytest.approx(lambda_sup(p0, 100, delta), abs=1e-10)

    def test_tied_maxima(self):
        # several maximal reference entries; the closed form is unchanged
        p0 = ReferenceDistribution(np.array([0.3, 0.3, 0.3, 0.05, 0.05]))
        best = max(
            100 * float(np.sum((pt - p0.probs) ** 2 / p0.probs))
            for pt in enumerate_extreme_points(p0, 0.04)
        )
        assert best == pytest.approx(lambda_sup(p0, 100, 0.04), abs=1e-10)

    def test_size_guard(self):
        with pytest.raises(ValidationError):
            enumerate_extreme_points(uniform_reference(13), 0.01)
