"""Chi-square distribution functions.

Thin wrappers over ``chndtr`` and ``chndtrix`` from ``scipy.special``,
which wrap the Boost Math library's non-central chi-square law
(``scipy.stats.ncx2`` calls the same ufuncs).  The central law is the same
family at ncp = 0.  The wrappers reject arguments outside each function's
domain with ``ValueError``, and every quantile is checked against the
forward CDF before it is returned: a result that is not finite, or whose
CDF misses p by more than 1e-8, raises :class:`ConvergenceError`.

Everything here is a pure function of its arguments; there is no shared
mutable state, so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import math

from scipy.special import chndtr, chndtrix

from .errors import ConvergenceError

# largest |CDF(quantile) - p| a returned quantile may leave
_QUANTILE_TOL = 1e-8


def ncx2_cdf(x: float, df: float, ncp: float) -> float:
    """CDF of the non-central chi-square distribution (central at ncp = 0).

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
    residual = abs(ncx2_cdf(x, df, ncp) - p) if math.isfinite(x) else math.nan
    if not residual <= _QUANTILE_TOL:
        raise ConvergenceError(
            f"quantile for p={p} failed its forward check: x={x}, "
            f"|CDF(x) - p| = {residual:.3e} (tolerance {_QUANTILE_TOL:.0e})"
        )
    return x
