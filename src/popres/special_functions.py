"""Central and non-central chi-square distribution functions.

Everything here is a pure function of its arguments; there is no shared
mutable state, so concurrent use from multiple threads is safe.

The incomplete gamma function uses the standard regime split (power series
for x < a + 1, Lentz continued fraction otherwise), which keeps both
branches in their numerically stable region.  The non-central chi-square
CDF is the Poisson-weighted mixture of central CDFs, truncated where the
Poisson weight on either side of the mode falls below a fixed tolerance
rather than after a fixed term count, so the truncation error is bounded
uniformly.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq

from .errors import ConvergenceError

_EPS = 1e-16
_MAX_ITER = 10_000
# Poisson weight below which the non-central mixture stops summing.
_NCX2_TAIL = 1e-14


def regularized_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x).

    Monotone non-decreasing in x with P(a, 0) = 0 and P(a, inf) = 1.
    """
    if a <= 0:
        raise ValueError(f"shape parameter must be positive, got a={a}")
    if x < 0:
        raise ValueError(f"argument must be non-negative, got x={x}")
    if x == 0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cont_frac(a, x)


def _gamma_series(a: float, x: float) -> float:
    """Power series for P(a, x), valid and stable for x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            log_prefactor = a * math.log(x) - x - math.lgamma(a)
            return min(1.0, total * math.exp(log_prefactor))
    raise ConvergenceError(f"gamma series did not converge for a={a}, x={x}")


def _gamma_cont_frac(a: float, x: float) -> float:
    """Modified Lentz continued fraction for Q(a, x), stable for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            log_prefactor = a * math.log(x) - x - math.lgamma(a)
            return math.exp(log_prefactor) * h
    raise ConvergenceError(
        f"gamma continued fraction did not converge for a={a}, x={x}"
    )


def chi2_cdf(x: float, df: float) -> float:
    """CDF of the central chi-square distribution with df degrees of freedom."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got df={df}")
    if x <= 0:
        return 0.0
    return regularized_lower_gamma(df / 2.0, x / 2.0)


def chi2_quantile(p: float, df: float) -> float:
    """Quantile function of the central chi-square distribution."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got p={p}")
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got df={df}")
    return _invert_cdf(lambda x: chi2_cdf(x, df), p, df + 10.0 * math.sqrt(2.0 * df))


def ncx2_cdf(x: float, df: float, ncp: float) -> float:
    """CDF of the non-central chi-square distribution.

    Computed as the Poisson(ncp/2)-weighted mixture of central chi-square
    CDFs with df + 2k degrees of freedom, summed outward from the modal index
    in both directions.  Starting at the mode keeps every weight that matters
    representable; starting at k = 0 would need exp(-ncp/2), which underflows
    once ncp exceeds about 1400.  The central terms are updated via the
    recurrence P(s+1, y) = P(s, y) - y^s e^{-y} / Gamma(s+1) rather than
    recomputed for each k.
    """
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got df={df}")
    if ncp < 0:
        raise ValueError(f"non-centrality must be non-negative, got ncp={ncp}")
    if ncp == 0:
        return chi2_cdf(x, df)
    if x <= 0:
        return 0.0

    a, y, half_ncp = df / 2.0, x / 2.0, ncp / 2.0
    m = int(half_ncp)
    # m = 0 skips the log: half_ncp itself underflows to 0 for a subnormal ncp
    log_rate = m * math.log(half_ncp) if m else 0.0
    w_m = math.exp(log_rate - half_ncp - math.lgamma(m + 1.0))
    central_m = regularized_lower_gamma(a + m, y)
    total = w_m * central_m

    # upward sweep: k = m+1, m+2, ...
    weight = w_m
    central = central_m
    term = _chi2_term(a + m, y)
    k = m
    while weight > _NCX2_TAIL:
        central = max(central - term, 0.0)
        term *= y / (a + k + 1.0)
        k += 1
        weight *= half_ncp / k
        total += weight * central
        if k - m > 1_000_000:
            raise ConvergenceError("non-central mixture (upward) did not converge")

    # downward sweep: k = m-1, ..., 0
    weight = w_m
    central = central_m
    k = m
    while k > 0 and weight > _NCX2_TAIL:
        weight *= k / half_ncp
        k -= 1
        central = min(central + _chi2_term(a + k, y), 1.0)
        total += weight * central

    return min(1.0, max(0.0, total))


def _chi2_term(s: float, y: float) -> float:
    """y^s e^{-y} / Gamma(s+1), the increment in the P(s, y) recurrence."""
    return math.exp(s * math.log(y) - y - math.lgamma(s + 1.0))


def ncx2_quantile(p: float, df: float, ncp: float) -> float:
    """Quantile function of the non-central chi-square distribution."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got p={p}")
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got df={df}")
    if ncp < 0:
        raise ValueError(f"non-centrality must be non-negative, got ncp={ncp}")
    hi = df + ncp + 20.0 * math.sqrt(2.0 * df + 4.0 * ncp) + 50.0
    return _invert_cdf(lambda x: ncx2_cdf(x, df, ncp), p, hi)


def _invert_cdf(cdf, p: float, initial_hi: float, tol: float = 1e-11) -> float:
    """Invert a CDF by bracketing and Brent's method.

    The upper bracket is expanded geometrically until it encloses p; Brent
    then converges for any continuous monotone CDF.  The result is verified
    against the forward CDF before being returned.
    """
    hi = initial_hi
    for _ in range(200):
        if cdf(hi) >= p:
            break
        hi *= 2.0
    else:
        raise ConvergenceError(f"could not bracket quantile for p={p}")
    x = brentq(lambda t: cdf(t) - p, 0.0, hi, xtol=1e-13, rtol=8.9e-16, maxiter=300)
    if abs(cdf(x) - p) > max(tol, 1e-8):
        raise ConvergenceError(
            f"quantile inversion residual {abs(cdf(x) - p):.3e} exceeds tolerance"
        )
    return x
