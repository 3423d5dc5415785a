"""Chi-square distribution functions.

Thin wrappers over ``chndtr`` and ``chndtrix``, which wrap the Boost Math
library's non-central chi-square law (``scipy.stats.ncx2`` calls the same
ufuncs).  The central law is the same family at ncp = 0.  The wrappers
reject arguments outside each function's domain with ``ValueError``, and
every quantile is checked against the forward CDF before it is returned: a
result that is not finite, or whose CDF misses p by more than 1e-8, raises
:class:`ConvergenceError`.

The two ufuncs are imported from ``scipy.special._ufuncs`` without running
``scipy/special/__init__.py``.  That package ``__init__`` builds scipy's
array-API layer, which loads ``numpy.f2py``, ``numpy.testing`` and
``numpy.ma``, and it took more than half of the start-up of a ``popres``
call.  When ``scipy.special`` is not yet imported, a bare module stub whose
``__path__`` is scipy's ``special`` directory stands in for the package
while one import statement runs, once, when this module is imported; it is
then removed from ``sys.modules``.  Only a thread that imported
``scipy.special`` during that one statement could see the stub; the
functions below never touch ``sys.modules``.  When ``scipy.special`` is
already imported, or the stub import raises ``ImportError`` (a scipy that
lays the package out differently), the plain
``from scipy.special import chndtr, chndtrix`` is used.  Either way the
ufuncs are the objects ``scipy.special`` exports, so every value keeps its
bits, and a later ``import scipy.special`` runs the real ``__init__``, whose
``chndtrix`` is this module's.  One difference remains after the stub load:
the real package then lacks the attributes ``_special_ufuncs``,
``_ufuncs_cxx``, ``_gufuncs`` and ``_ellip_harm_2``, the extension modules
``_ufuncs`` imported while the stub stood in.  They stay in
``sys.modules``, so ``from scipy.special._gufuncs import ...`` still works;
only attribute access such as ``scipy.special._gufuncs`` fails, and scipy's
own non-test code does not use it.  Importing those modules again to bind
them could make new ufunc objects, so it is not done.

Everything here is a pure function of its arguments; there is no shared
mutable state, so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import math
import os
import sys
import types

from .errors import ConvergenceError


def _boost_ufuncs():
    """``(chndtr, chndtrix)``, loaded without ``scipy.special``'s package ``__init__``."""
    if "scipy.special" not in sys.modules:
        import scipy

        stub = types.ModuleType("scipy.special")
        stub.__path__ = [os.path.join(path, "special") for path in scipy.__path__]
        sys.modules["scipy.special"] = stub
        try:
            from scipy.special._ufuncs import chndtr, chndtrix

            return chndtr, chndtrix
        except ImportError:
            pass  # another scipy layout: the plain import below
        finally:
            del sys.modules["scipy.special"]
    from scipy.special import chndtr, chndtrix

    return chndtr, chndtrix


chndtr, chndtrix = _boost_ufuncs()

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
