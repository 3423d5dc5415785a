"""Structured alternative populations for the simulation studies.

Three constructions: the blockwise +-delta_v perturbation of an
equi-probable reference, the same blockwise perturbation of any reference
with its magnitude root-found to a target symmetric KL divergence, and the
enumeration of extreme points of the Chebyshev tolerance region (the
independent oracle for the closed-form maximal non-centrality).
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
    """The blockwise perturbation of p0 with J(p, p0) = target_j; 0 returns p0.

    The lower floor(B/2) entries move down and the upper floor(B/2) entries
    up by one magnitude dv (the centre entry of odd B stays put), with dv
    root-found on (0, min p0) so that J meets the target to 1e-8.  Table 1's
    shifted rates are reproduced by this population (see the README).
    """
    q = as_probs(p0)
    if not target_j >= 0:
        raise ValidationError(f"target divergence must be non-negative, got {target_j}")
    if target_j == 0:
        return ProportionVector(q.copy())

    def excess(dv: float) -> float:
        return j_divergence(_blockwise(q, dv), q) - target_j

    hi = float(np.min(q)) - 1e-12
    if excess(hi) < 0:
        raise ValidationError(f"target divergence {target_j} is infeasible for this reference")
    p = _blockwise(q, optimize.brentq(excess, 1e-12, hi))
    achieved = j_divergence(p, q)
    if abs(achieved - target_j) > 1e-8:
        raise ConvergenceError(
            f"divergence constraint residual {abs(achieved - target_j):.3e} "
            f"exceeds 1e-8 (achieved J={achieved:.10f})"
        )
    return ProportionVector(p)


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
