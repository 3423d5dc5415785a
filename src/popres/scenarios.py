"""Structured alternative populations for the simulation studies.

Three constructions: the blockwise +-delta_v perturbation of an
equi-probable reference, a vector on the simplex at a target symmetric KL
divergence (an SLSQP stationary point of the Euclidean distance, not its
minimum), and the enumeration of extreme points of the Chebyshev tolerance
region (the independent oracle for the closed-form maximal non-centrality).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy import optimize

from .divergences import ProportionVector, ReferenceDistribution, as_probs, j_divergence
from .errors import ConvergenceError, ValidationError

MAX_ENUM_B = 12


def perturbed_pv(B: int, delta_v: float) -> ProportionVector:
    """Current population perturbed around the equi-probable reference.

    Entries 1..floor(B/2) are 1/B - delta_v, the top block 1/B + delta_v;
    for odd B the central entry stays at 1/B.
    """
    if B < 2:
        raise ValidationError(f"need B >= 2 categories, got {B}")
    if delta_v < 0:
        raise ValidationError(f"delta_v must be non-negative, got {delta_v}")
    if delta_v >= 1.0 / B:
        raise ValidationError(f"delta_v={delta_v} would push an entry of uniform({B}) to zero")
    return ProportionVector(_blockwise(np.full(B, 1.0 / B), delta_v))


def _blockwise(q: np.ndarray, dv: float) -> np.ndarray:
    """q with its lower floor(B/2) entries down by dv and its upper ones up."""
    p = q.copy()
    half = q.size // 2
    p[:half] -= dv
    p[q.size - half :] += dv
    return p


def solve_p_for_target_j(p0: ReferenceDistribution, target_j: float) -> ProportionVector:
    """A vector on the simplex with J(p, p0) = target_j; 0 returns p0 itself.

    Starts at the blockwise perturbation whose magnitude is root-found to
    hit the target, runs SLSQP on ||p - p0||_2 under both constraints, and
    rescales the deviation so that J meets the target to 1e-8.  The result
    is a stationary point, not the minimal-distance vector: for even B and
    a uniform p0 SLSQP stays at the blockwise start, although one category
    down and the rest up meets the same J closer to p0 (at B=10, J=0.1:
    0.0766 against 0.0983).  For B=5 SLSQP moves to that one-down vector.
    """
    q = as_probs(p0)
    if not target_j >= 0:
        raise ValidationError(f"target divergence must be non-negative, got {target_j}")
    if target_j == 0:
        return ProportionVector(q.copy())

    x0 = _blockwise_start(q, target_j)
    res = optimize.minimize(
        lambda p: float(np.sum((p - q) ** 2)),
        x0,
        jac=lambda p: 2.0 * (p - q),
        method="SLSQP",
        constraints=[
            {"type": "eq", "fun": lambda p: float(p.sum() - 1.0)},
            {"type": "eq", "fun": lambda p: _j_raw(p, q) - target_j},
        ],
        bounds=[(1e-12, 1.0)] * q.size,
        options={"maxiter": 500, "ftol": 1e-16},
    )
    p = _polish(res.x if res.success else x0, q, target_j)
    achieved = _j_raw(p, q)
    if abs(achieved - target_j) > 1e-8:
        raise ConvergenceError(
            f"divergence constraint residual {abs(achieved - target_j):.3e} "
            f"exceeds 1e-8 (achieved J={achieved:.10f})"
        )
    return ProportionVector(p)


def _j_raw(p: np.ndarray, q: np.ndarray) -> float:
    """J(p, q), infinite where an entry of p has left the open simplex."""
    return np.inf if np.any(p <= 0) else j_divergence(p, q)


def _blockwise_start(q: np.ndarray, target_j: float) -> np.ndarray:
    hi = float(np.min(q)) - 1e-12
    if _j_raw(_blockwise(q, hi), q) < target_j:
        raise ValidationError(
            f"target divergence {target_j} is infeasible for this reference"
        )
    dv = optimize.brentq(lambda d: _j_raw(_blockwise(q, d), q) - target_j, 1e-12, hi)
    return _blockwise(q, dv)


def _polish(p: np.ndarray, q: np.ndarray, target_j: float) -> np.ndarray:
    """Rescale the deviation p - q to meet the divergence constraint exactly."""
    d = p - q
    d -= d.mean()  # keep the unit-sum constraint
    if np.allclose(d, 0):
        raise ConvergenceError("solver collapsed to the reference point")

    def j_at(t: float) -> float:
        return _j_raw(q + t * d, q)

    t_hi = 1.0
    while j_at(t_hi) < target_j:
        t_hi *= 1.5
        if t_hi > 1e6:
            raise ConvergenceError("could not bracket the divergence constraint")
    t = optimize.brentq(lambda t: j_at(t) - target_j, 0.0, t_hi, xtol=1e-15)
    return q + t * d


def enumerate_extreme_points(
    p0: ReferenceDistribution, delta: float
) -> list[ProportionVector]:
    """All extreme points of the delta-tolerance region around p0.

    Coordinates move by +-delta with equal numbers of up and down moves;
    for odd B exactly one coordinate stays put, for even B none does.
    """
    q = as_probs(p0)
    B = q.size
    if B > MAX_ENUM_B:
        raise ValidationError(f"enumeration guard: B={B} exceeds {MAX_ENUM_B}")
    if delta <= 0 or delta > float(np.min(q)) + 1e-15:
        raise ValidationError(
            f"delta={delta} must lie in (0, min reference probability]"
        )
    points: list[ProportionVector] = []
    if B % 2 == 0:
        for plus in combinations(range(B), B // 2):
            p = q - delta
            p[list(plus)] = q[list(plus)] + delta
            points.append(ProportionVector(p))
    else:
        for fixed in range(B):
            rest = [j for j in range(B) if j != fixed]
            for plus in combinations(rest, (B - 1) // 2):
                p = q - delta
                p[fixed] = q[fixed]
                p[list(plus)] = q[list(plus)] + delta
                points.append(ProportionVector(p))
    return points
