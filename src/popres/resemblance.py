"""The PRS decision framework and baseline comparator rules.

Critical values come from the non-central chi-square law of the scaled
statistic under the least favorable delta-resemblant population.  The
comparators are the fixed Lewis PSI thresholds, the sample-size dependent
chi-square thresholds of Yurdakul-Novak type, and the exact p-value of the
discrete KS statistic under the multinomial null.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Iterator, Optional

import numpy as np

from . import special_functions
from .divergences import (
    CategoryCounts,
    ReferenceDistribution,
    VectorLike,
    _check_sample_size,
    _paired,
    as_probs,
    ks_statistic,
    proportions,
)
from .errors import BoundaryOverlapError, ConstraintError, ValidationError

LEWIS_WATCH = 0.10
LEWIS_ACTION = 0.25
P_RED = 0.01  # p-value levels of the KS rule; YN thresholds are chi-square quantiles at them
P_GREEN = 0.10
KS_MAX_N = 10**9  # ks_p_value's windows grow as sqrt(n); here a call stays under ~100 MB


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
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None and f.default is None:
                continue
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValidationError(f"{f.name} must be a number, got {v!r}")
            if not math.isfinite(v):
                raise ValidationError(f"{f.name} must be finite, got {v}")
            object.__setattr__(self, f.name, float(v))
        if self.c <= 0:
            raise ValidationError(f"c must be positive, got {self.c}")
        if self.M <= 1:
            raise ValidationError(f"M must exceed 1, got {self.M}")
        for name in ("alpha1", "alpha2"):
            a = getattr(self, name)
            if not 0.0 < a < 1.0:
                raise ValidationError(f"{name} must lie in (0, 1), got {a}")
        # tau2 is the quantile at 1 - alpha1, which rounds to 1 below about 5.6e-17
        if not 1.0 - self.alpha1 < 1.0:
            raise ValidationError(f"alpha1 must be large enough that 1 - alpha1 < 1 in double precision "
                                  f"(above about 5.6e-17), got {self.alpha1}")
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
    _check_sample_size(n)
    q = as_probs(p0)
    return float(c * np.min(np.sqrt(q * (1.0 - q) / n)))


def lambda_sup(p0: ReferenceDistribution, n: int, delta: float) -> float:
    """Largest non-centrality over all delta-resemblant populations.

    Closed form from the extreme points of the tolerance region: for even B
    every coordinate moves by +-delta; for odd B one coordinate (a maximal
    one) stays put.
    """
    _check_sample_size(n)
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
    x, q = _paired(p, p0)
    # relative slack absorbs roundoff when the deviation sits exactly on the ball
    return bool(np.max(np.abs(q - x)) <= delta * (1.0 + 1e-12) + 1e-15)


def decision_boundaries(
    p0: ReferenceDistribution, n: int, cfg: ResemblanceConfig
) -> DecisionBoundaries:
    """Compute (delta, lambda_sup, tau1, tau2) for the given configuration."""
    q = as_probs(p0)
    delta = cfg.delta_override if cfg.delta_override is not None else recommended_delta(q, n, cfg.c)
    if cfg.M * delta > float(np.min(q)) + 1e-15:
        raise ConstraintError(
            f"M*delta = {cfg.M * delta:.6g} exceeds min reference probability "
            f"{float(np.min(q)):.6g}; reduce c, M or delta_override"
        )
    lam = lambda_sup(q, n, delta)
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


def yn_boundaries(n: int, B: int) -> tuple[float, float]:
    """Sample-size dependent PSI thresholds 2/n * central chi-square quantile
    at 1 - P_RED and 1 - P_GREEN.

    Returns (tau_red, tau_green): PSI above tau_red is fully discrepant,
    below tau_green acceptable, in between needs monitoring.
    """
    _check_sample_size(n)
    if B < 2:
        raise ValidationError(f"need B >= 2 categories, got {B}")
    tau_red = 2.0 / n * special_functions.ncx2_quantile(1.0 - P_RED, B - 1, 0.0)
    tau_green = 2.0 / n * special_functions.ncx2_quantile(1.0 - P_GREEN, B - 1, 0.0)
    return tau_red, tau_green


def classify_yn(psi_value: float, tau_red: float, tau_green: float) -> Region:
    if psi_value > tau_red:
        return Region.R3
    if psi_value < tau_green:
        return Region.R1
    return Region.R2


def _window_halfwidth(var: float) -> int:
    """Lattice half-width, about 12 standard deviations, that a binomial count
    of variance <= var leaves with probability <= 2 exp(-72) < 1.1e-31:
    Bernstein's 2 exp(-t^2 / (2 (var + t/3))) at t = 24 + sqrt(576 + 144 var)."""
    return int(24.0 + math.sqrt(576.0 + 144.0 * var)) + 1


def _poisson_window(mu: float) -> tuple[int, np.ndarray]:
    """Poisson(mu) pmf on lo, lo + 1, ... around the mean, normalised over the
    window, and read-only, so that a kept schedule can share it."""
    m, w = int(mu), _window_halfwidth(mu)
    lo = max(m - w, 0)
    # log pmf(k) - log pmf(k - 1) = log(mu / k): no two large terms cancel
    log_pmf = np.concatenate(([0.0], np.cumsum(np.log(mu / np.arange(lo + 1, m + w + 1)))))
    pmf = np.exp(log_pmf - log_pmf.max())
    pmf /= pmf.sum()
    pmf.flags.writeable = False
    return lo, pmf


def _ks_steps(n: int, q: np.ndarray) -> Iterator[tuple]:
    """Per category j < B, what the KS band recursion needs of (n, q) alone:
    (x_lo, pmf) of count j's window, the band centre n F_j and its state
    cut, and (r_lo, finish) of the window of the counts after j."""
    cdf = np.cumsum(q)
    rest = np.cumsum(q[::-1])[::-1][1:]  # q_{j+1} + ... + q_B; 1 - F_j can round below 0
    for j in range(q.size - 1):
        # equal neighbouring means share a window: a uniform reference builds one, not B - 1
        if j == 0 or q[j] != q[j - 1]:
            x_lo, pmf = _poisson_window(n * q[j])
        centre, cut = n * cdf[j], _window_halfwidth(n * cdf[j] * rest[j])
        r_lo, finish = _poisson_window(n * rest[j])
        yield x_lo, pmf, centre, cut, r_lo, finish


_SCHEDULE_CAP = 1 << 20  # bytes; a larger schedule is built step by step on every call


@functools.lru_cache(maxsize=4)
def _kept_schedule(n: int, probs: bytes) -> Optional[tuple]:
    """``_ks_steps`` of (n, reference), or None once it holds more than
    ``_SCHEDULE_CAP`` bytes: each distinct window's floats, and the Python
    objects around them, per step a tuple, ints, a float and array headers,
    per schedule its cache key and entry (tracemalloc, rounded up)."""
    steps, nbytes = [], 4096
    for step in _ks_steps(n, np.frombuffer(probs)):
        shared = steps and step[1] is steps[-1][1]
        nbytes += 768 + step[5].nbytes + (0 if shared else step[1].nbytes)
        if nbytes > _SCHEDULE_CAP:
            return None
        steps.append(step)
    return tuple(steps)


def ks_p_value(counts: CategoryCounts, p0: ReferenceDistribution) -> float:
    """Exact P(D* >= D) for the discrete KS statistic under Multinomial(n, p0).

    The multinomial is independent Poisson(n q_j) counts given their sum n.
    Category by category, the cumulative count S_j is convolved with the next
    pmf; mass leaving the band |S_j - n F_j| < n (D - 1e-12) is weighted by
    the chance that the other categories bring the total to exactly n.  The
    p-value is that escape mass over the mass of all paths ending at n, so
    tiny values keep their relative accuracy.  Windows are cut by
    ``_window_halfwidth``: band states beyond one count as escaped, and the
    at most 4 (B - 1) exp(-72) the pmf cuts drop is added back, so the result
    errs only upward, by at most 14 (B - 1) exp(-72), and is never 0.

    The windows, band centres and cuts depend only on (n, reference), so
    their schedule is built once per process and kept, read-only, if it
    holds at most 1 MiB: for a uniform reference up to n = 7e5 at B = 10,
    1.7e5 at B = 20 and 1.6e4 at B = 60.  A ``functools.lru_cache`` keeps
    the four most recently used (n, reference) pairs, so at most 4 MiB; a
    pair over the cap takes a slot with its verdict alone.  A repeated call
    then runs only the band recursion.  A larger schedule is built step by
    step on every call, as the recursion reaches each category, so a call
    still stays under ~100 MB.
    """
    n = counts.n
    if n > KS_MAX_N:
        raise ValidationError(f"the exact KS p-value takes at most {KS_MAX_N:,} counts, got n = {n:,}")
    q = as_probs(p0)
    # D* >= D - 1e-12 counts as a tie: the tolerance absorbs floating roundoff
    reach = n * (ks_statistic(proportions(counts), q) - 1e-12)
    if reach <= 0:
        return 1.0
    dropped = 4 * (q.size - 1) * math.exp(-72)
    # Massart's DKW bound P(D* >= reach / n) <= 2 exp(-2 reach^2 / n) holds for
    # any reference; below the allowance it already certifies the answer
    if 2.0 * math.exp(-2.0 * reach * reach / n) <= dropped:
        return dropped
    lo, states, escaped, stayed = 0, np.ones(1), 0.0, 0.0
    steps = _kept_schedule(n, q.tobytes()) or _ks_steps(n, q)
    for x_lo, pmf, centre, cut, r_lo, finish in steps:
        mass = np.convolve(states, pmf)
        first = lo + x_lo  # the state of mass[0]
        # the band |s - n F_j| < reach, cut by the state window, as indices [a, b) of mass
        low = max(math.floor(centre - reach) + 1, math.ceil(centre - cut)) - first
        high = min(math.ceil(centre + reach), math.floor(centre + cut) + 1) - first
        a = min(max(low, 0), mass.size)
        b = min(max(high, a), mass.size)
        # mass[i] ends at n if the rest bring n - first - i, finish[top - i] in their window
        top = n - first - r_lo
        i0 = max(top - finish.size + 1, 0)
        i1 = max(min(top + 1, mass.size), i0)
        weighted = np.zeros(mass.size)
        weighted[i0:i1] = mass[i0:i1] * finish[top - i1 + 1:top - i0 + 1][::-1]
        # both sides in one sum, so that p keeps its bits across releases and a
        # snapshot sent again after an upgrade still equals its stored report
        escaped += np.concatenate((weighted[:a], weighted[b:])).sum()
        stayed = weighted[a:b].sum()
        if a == b:
            break
        lo, states = first + a, mass[a:b]
    return min(1.0, escaped / (escaped + stayed) + dropped)


def classify_p_value(p: float) -> Region:
    """Two-threshold classification of a p-value: below P_RED red, above P_GREEN green."""
    if p < P_RED:
        return Region.R3
    if p > P_GREEN:
        return Region.R1
    return Region.R2
