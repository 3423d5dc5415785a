"""Structured alternative populations for the simulation studies.

Two constructions: the blockwise +-delta_v perturbation of an
equi-probable reference, and the same blockwise perturbation of any
reference with its magnitude root-found to a target symmetric KL
divergence.  Both return plain probability arrays.
"""

from __future__ import annotations

import numpy as np

from .divergences import ReferenceDistribution, as_probs, j_divergence
from .errors import ConvergenceError, ValidationError


def perturbed_pv(B: int, delta_v: float) -> np.ndarray:
    """Current population perturbed around the equi-probable reference.

    Entries 1..floor(B/2) are 1/B - delta_v, the top block 1/B + delta_v;
    for odd B the central entry stays at 1/B.
    """
    if B < 2:
        raise ValidationError(f"need B >= 2 categories, got {B}")
    if not delta_v >= 0:
        raise ValidationError(f"delta_v must be non-negative, got {delta_v}")
    if delta_v >= 1.0 / B:
        raise ValidationError(f"delta_v={delta_v} would push an entry of uniform({B}) to zero")
    return _blockwise(np.full(B, 1.0 / B), delta_v)


def _blockwise(q: np.ndarray, dv: float) -> np.ndarray:
    """q with its lower floor(B/2) entries down by dv and its upper ones up."""
    p = q.copy()
    half = q.size // 2
    p[:half] -= dv
    p[q.size - half :] += dv
    return p


def solve_p_for_target_j(p0: ReferenceDistribution, target_j: float) -> np.ndarray:
    """The blockwise perturbation of p0 with J(p, p0) = target_j; 0 returns p0.

    The lower floor(B/2) entries move down and the upper floor(B/2) entries
    up by one magnitude dv (the centre entry of odd B stays put), with dv
    root-found on (0, min p0) so that J meets the target to 1e-8.  Table 1's
    shifted rates are reproduced by this population (see the README).
    """
    q = ReferenceDistribution(as_probs(p0)).probs
    if not target_j >= 0:
        raise ValidationError(f"target divergence must be non-negative, got {target_j}")
    if target_j == 0:
        return q.copy()

    def excess(dv: float) -> float:
        return j_divergence(_blockwise(q, dv), q) - target_j

    hi = float(np.min(q)) - 1e-12
    if excess(hi) < 0:
        raise ValidationError(f"target divergence {target_j} is infeasible for this reference")
    from scipy.optimize import brentq  # imported here so that CLI start-up does not load it
    p = _blockwise(q, brentq(excess, 1e-12, hi))
    achieved = j_divergence(p, q)
    if abs(achieved - target_j) > 1e-8:
        raise ConvergenceError(
            f"divergence constraint residual {abs(achieved - target_j):.3e} "
            f"exceeds 1e-8 (achieved J={achieved:.10f})"
        )
    return p
