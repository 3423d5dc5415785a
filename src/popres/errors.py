"""Exception hierarchy shared across the package."""


class PopresError(Exception):
    """Base class for package-specific failures."""


class ValidationError(PopresError, ValueError):
    """Malformed or inconsistent input (files, vectors, configuration)."""


class ConstraintError(ValidationError):
    """A framework parameter constraint is violated (e.g. M*delta too large)."""


class ConvergenceError(PopresError, RuntimeError):
    """A numerical routine did not converge, or its result failed a check."""


class BoundaryOverlapError(PopresError):
    """The two critical values collapsed (tau1 >= tau2).

    Remediation: reduce alpha1/alpha2 or increase M so the intermediate
    monitoring region is non-empty.
    """
