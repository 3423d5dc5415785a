"""Central and non-central chi-square distribution functions.

Thin wrappers over ``scipy.special``: ``gammainc`` and ``gammaincinv`` for
the central law, and ``chndtr`` and ``chndtrix``, which wrap the Boost Math
library, for the non-central one (``scipy.stats.ncx2`` calls the same
ufuncs).  The wrappers reject arguments outside each function's domain
with ``ValueError``, and every quantile is checked against the forward CDF
before it is returned: a result that is not finite, or whose CDF misses p
by more than 1e-8, raises :class:`ConvergenceError`.

Everything here is a pure function of its arguments; there is no shared
mutable state, so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import math

from scipy.special import chndtr, chndtrix, gammainc, gammaincinv

from .errors import ConvergenceError

# largest |CDF(quantile) - p| a returned quantile may leave
_QUANTILE_TOL = 1e-8


def regularized_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x).

    Monotone non-decreasing in x with P(a, 0) = 0 and P(a, inf) = 1.
    """
    if a <= 0:
        raise ValueError(f"shape parameter must be positive, got a={a}")
    if x < 0:
        raise ValueError(f"argument must be non-negative, got x={x}")
    return float(gammainc(a, x))


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
    x = 2.0 * float(gammaincinv(df / 2.0, p))
    return _checked(x, p, lambda t: chi2_cdf(t, df))


def ncx2_cdf(x: float, df: float, ncp: float) -> float:
    """CDF of the non-central chi-square distribution.

    The Poisson(ncp/2)-weighted mixture of central chi-square CDFs with
    df + 2k degrees of freedom, as Boost evaluates it.
    """
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got df={df}")
    if ncp < 0:
        raise ValueError(f"non-centrality must be non-negative, got ncp={ncp}")
    if x <= 0:
        return 0.0
    return float(chndtr(x, df, ncp))


def ncx2_quantile(p: float, df: float, ncp: float) -> float:
    """Quantile function of the non-central chi-square distribution."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got p={p}")
    if df <= 0:
        raise ValueError(f"degrees of freedom must be positive, got df={df}")
    if ncp < 0:
        raise ValueError(f"non-centrality must be non-negative, got ncp={ncp}")
    x = float(chndtrix(p, df, ncp))
    return _checked(x, p, lambda t: ncx2_cdf(t, df, ncp))


def _checked(x: float, p: float, cdf) -> float:
    """x, once it is finite and cdf(x) lies within _QUANTILE_TOL of p."""
    residual = abs(cdf(x) - p) if math.isfinite(x) else math.nan
    if not residual <= _QUANTILE_TOL:
        raise ConvergenceError(
            f"quantile for p={p} failed its forward check: x={x}, "
            f"|CDF(x) - p| = {residual:.3e} (tolerance {_QUANTILE_TOL:.0e})"
        )
    return x
