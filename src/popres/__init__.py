"""Population resemblance monitoring for multinomial data.

Implements the chi-square based resemblance statistic with sample-size
dependent critical values from the non-central chi-square distribution,
alongside the classical PSI decision rules and a discrete KS comparator,
plus a seeded Monte Carlo engine for the accompanying studies.
"""

from .divergences import (
    CategoryCounts,
    ProportionVector,
    ReferenceDistribution,
    j_divergence,
    ks_statistic,
    proportions,
    prs,
    psi,
    uniform_reference,
)
from .errors import (
    BoundaryOverlapError,
    ConstraintError,
    ConvergenceError,
    PopresError,
    ValidationError,
)
from .resemblance import (
    DecisionBoundaries,
    Region,
    ResemblanceConfig,
    classify_lewis,
    classify_prs,
    classify_yn,
    decision_boundaries,
    is_delta_resemblant,
    ks_p_value,
    lambda_sup,
    recommended_delta,
    yn_boundaries,
)
from .reporting import MonitoringReport, Snapshot, monitor

__all__ = [
    "BoundaryOverlapError",
    "CategoryCounts",
    "ConstraintError",
    "ConvergenceError",
    "DecisionBoundaries",
    "MonitoringReport",
    "PopresError",
    "ProportionVector",
    "ReferenceDistribution",
    "Region",
    "ResemblanceConfig",
    "Snapshot",
    "ValidationError",
    "classify_lewis",
    "classify_prs",
    "classify_yn",
    "decision_boundaries",
    "is_delta_resemblant",
    "j_divergence",
    "ks_p_value",
    "ks_statistic",
    "lambda_sup",
    "monitor",
    "proportions",
    "prs",
    "psi",
    "recommended_delta",
    "uniform_reference",
    "yn_boundaries",
]

__version__ = "0.1.0"
