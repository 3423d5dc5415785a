"""Independent oracles the tests compare popres against."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from popres.divergences import ReferenceDistribution, as_probs
from popres.errors import ValidationError

MAX_ENUM_B = 12


def enumerate_extreme_points(p0: ReferenceDistribution, delta: float) -> list[np.ndarray]:
    """All extreme points of the delta-tolerance region around p0.

    Coordinates move by +-delta with equal numbers of up and down moves;
    for odd B exactly one coordinate stays put, for even B none does.  The
    largest non-centrality over these points is the closed-form
    ``lambda_sup``.
    """
    q = as_probs(p0)
    B = q.size
    if B > MAX_ENUM_B:
        raise ValidationError(f"enumeration guard: B={B} exceeds {MAX_ENUM_B}")
    if delta <= 0 or delta > float(np.min(q)) + 1e-15:
        raise ValidationError(
            f"delta={delta} must lie in (0, min reference probability]"
        )
    points: list[np.ndarray] = []
    if B % 2 == 0:
        for plus in combinations(range(B), B // 2):
            p = q - delta
            p[list(plus)] = q[list(plus)] + delta
            points.append(p)
    else:
        for fixed in range(B):
            rest = [j for j in range(B) if j != fixed]
            for plus in combinations(rest, (B - 1) // 2):
                p = q - delta
                p[fixed] = q[fixed]
                p[list(plus)] = q[list(plus)] + delta
                points.append(p)
    return points
