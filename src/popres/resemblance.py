"""The PRS decision framework and baseline comparator rules.

Critical values come from the non-central chi-square law of the scaled
statistic under the least favorable delta-resemblant population.  The
comparators are the fixed Lewis PSI thresholds, the sample-size dependent
chi-square thresholds of Yurdakul-Novak type, and a Monte Carlo p-value for
the discrete KS statistic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import sampling, special_functions
from .divergences import (
    CategoryCounts,
    ReferenceDistribution,
    VectorLike,
    as_probs,
    ks_statistic,
    proportions,
)
from .errors import BoundaryOverlapError, ConstraintError, ValidationError

LEWIS_WATCH = 0.10
LEWIS_ACTION = 0.25


class Region(enum.Enum):
    """Three-region classification with the usual red-amber-green mapping."""

    R1 = "green"
    R2 = "amber"
    R3 = "red"


@dataclass(frozen=True)
class ResemblanceConfig:
    """Practitioner parameters governing the decision framework."""

    c: float = 0.7
    M: float = 2.0
    alpha1: float = 0.05
    alpha2: float = 0.10
    delta_override: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("c", "M", "alpha1", "alpha2", "delta_override"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v}")
        if self.c <= 0:
            raise ValidationError(f"c must be positive, got {self.c}")
        if self.M <= 1:
            raise ValidationError(f"M must exceed 1, got {self.M}")
        for name in ("alpha1", "alpha2"):
            a = getattr(self, name)
            if not 0.0 < a < 1.0:
                raise ValidationError(f"{name} must lie in (0, 1), got {a}")
        if self.delta_override is not None and self.delta_override <= 0:
            raise ValidationError("delta_override must be positive when set")


@dataclass(frozen=True)
class DecisionBoundaries:
    """Derived quantities for a given (n, reference, config)."""

    delta: float
    lambda_sup: float
    tau1: float
    tau2: float
    n: int
    B: int


def recommended_delta(p0: ReferenceDistribution, n: int, c: float) -> float:
    """Tolerance scaled to the smallest per-category proportion standard error."""
    if n < 1:
        raise ValidationError(f"sample size must be positive, got {n}")
    q = as_probs(p0)
    return float(c * np.min(np.sqrt(q * (1.0 - q) / n)))


def lambda_sup(p0: ReferenceDistribution, n: int, delta: float) -> float:
    """Largest non-centrality over all delta-resemblant populations.

    Closed form from the extreme points of the tolerance region: for even B
    every coordinate moves by +-delta; for odd B one coordinate (a maximal
    one) stays put.
    """
    if n < 1:
        raise ValidationError(f"sample size must be positive, got {n}")
    q = as_probs(p0)
    if delta <= 0:
        raise ValidationError(f"delta must be positive, got {delta}")
    if delta > float(np.min(q)) + 1e-15:
        raise ValidationError(
            f"delta={delta} exceeds the smallest reference probability {np.min(q)}"
        )
    inv_sum = float(np.sum(1.0 / q))
    B = q.size
    if B % 2 == 0:
        return n * delta**2 * inv_sum
    return n * delta**2 * (inv_sum - 1.0 / float(np.max(q)))


def is_delta_resemblant(p: VectorLike, p0: VectorLike, delta: float) -> bool:
    """Chebyshev-ball membership: no category deviates by more than delta."""
    x, q = as_probs(p), as_probs(p0)
    if x.shape != q.shape:
        raise ValidationError(f"dimension mismatch: {x.shape} vs {q.shape}")
    # relative slack absorbs roundoff when the deviation sits exactly on the ball
    return bool(np.max(np.abs(q - x)) <= delta * (1.0 + 1e-12) + 1e-15)


def decision_boundaries(
    p0: ReferenceDistribution, n: int, cfg: ResemblanceConfig
) -> DecisionBoundaries:
    """Compute (delta, lambda_sup, tau1, tau2) for the given configuration."""
    q = as_probs(p0)
    delta = cfg.delta_override if cfg.delta_override is not None else recommended_delta(p0, n, cfg.c)
    if cfg.M * delta > float(np.min(q)) + 1e-15:
        raise ConstraintError(
            f"M*delta = {cfg.M * delta:.6g} exceeds min reference probability "
            f"{float(np.min(q)):.6g}; reduce c, M or delta_override"
        )
    lam = lambda_sup(p0, n, delta)
    B = q.size
    tau1 = special_functions.ncx2_quantile(cfg.alpha2, B - 1, cfg.M**2 * lam) / n
    tau2 = special_functions.ncx2_quantile(1.0 - cfg.alpha1, B - 1, lam) / n
    if tau1 >= tau2:
        raise BoundaryOverlapError(
            f"critical values overlap (tau1={tau1:.6g} >= tau2={tau2:.6g}); "
            "reduce alpha1/alpha2 or increase M so the monitoring region is non-empty"
        )
    return DecisionBoundaries(delta=delta, lambda_sup=lam, tau1=tau1, tau2=tau2, n=n, B=B)


def classify_prs(prs_value: float, bounds: DecisionBoundaries) -> Region:
    """Three-region classification; boundary ties go to the lower-severity region."""
    if prs_value <= bounds.tau1:
        return Region.R1
    if prs_value <= bounds.tau2:
        return Region.R2
    return Region.R3


def classify_lewis(psi_value: float) -> Region:
    """Fixed rule-of-thumb PSI thresholds 0.10 and 0.25."""
    if psi_value < LEWIS_WATCH:
        return Region.R1
    if psi_value < LEWIS_ACTION:
        return Region.R2
    return Region.R3


def yn_boundaries(
    n: int, B: int, alpha_upper: float, alpha_lower: float
) -> tuple[float, float]:
    """Sample-size dependent PSI thresholds 2/n * central chi-square quantile.

    Returns (tau_red, tau_green): PSI above tau_red is fully discrepant,
    below tau_green acceptable, in between needs monitoring.
    """
    if n < 1:
        raise ValidationError(f"sample size must be positive, got {n}")
    if B < 2:
        raise ValidationError(f"need B >= 2 categories, got {B}")
    for name, a in (("alpha_upper", alpha_upper), ("alpha_lower", alpha_lower)):
        if not 0.0 < a < 1.0:
            raise ValidationError(f"{name} must lie in (0, 1), got {a}")
    if alpha_upper >= alpha_lower:
        raise ValidationError(
            f"alpha_upper={alpha_upper} must be below alpha_lower={alpha_lower}"
        )
    tau_red = 2.0 / n * special_functions.ncx2_quantile(1.0 - alpha_upper, B - 1, 0.0)
    tau_green = 2.0 / n * special_functions.ncx2_quantile(1.0 - alpha_lower, B - 1, 0.0)
    return tau_red, tau_green


def classify_yn(psi_value: float, tau_red: float, tau_green: float) -> Region:
    if psi_value > tau_red:
        return Region.R3
    if psi_value < tau_green:
        return Region.R1
    return Region.R2


def ks_p_value(
    counts: CategoryCounts,
    p0: ReferenceDistribution,
    replications: int = 10_000,
    seed: int = 0,
) -> float:
    """Monte Carlo p-value for the discrete KS statistic under p0.

    Uses the add-one estimator (1 + #{D* >= D}) / (1 + replications) so the
    reported p-value is never exactly zero.
    """
    if replications < 1000:
        raise ValidationError(f"need at least 1000 replications, got {replications}")
    q = as_probs(p0)
    observed = ks_statistic(proportions(counts), p0)
    sims = sampling.multinomial_matrix(counts.n, q, replications, seed=seed, stream=5)
    d_star = ks_statistic(sims / counts.n, q)
    # the statistic lives on a lattice of multiples of 1/n; tolerance absorbs
    # floating roundoff when counting ties
    exceed = int(np.sum(d_star >= observed - 1e-12))
    return (1 + exceed) / (1 + replications)


def classify_p_value(p: float, alpha_upper: float = 0.01, alpha_lower: float = 0.10) -> Region:
    """Two-threshold classification of a p-value (1% red, 10% green by default)."""
    if p < alpha_upper:
        return Region.R3
    if p > alpha_lower:
        return Region.R1
    return Region.R2
