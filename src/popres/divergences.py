"""Discrepancy statistics between observed proportions and a reference.

The four measures (``psi``, ``prs``, the symmetric KL divergence
``j_divergence`` and the discrete KS ``ks_statistic``) operate on
probability vectors over the same B ordered categories; given a matrix of
proportions, each scores every row against the reference.  Natural
logarithms throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ValidationError

_SUM_TOL = 1e-12
_INT64_MAX = int(np.iinfo(np.int64).max)

VectorLike = Union["ProportionVector", "ReferenceDistribution", Sequence[float], np.ndarray]


@dataclass(frozen=True)
class CategoryCounts:
    """Observed integer counts per category."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts)
        if arr.ndim != 1 or arr.size < 2:
            raise ValidationError(f"need a 1-d vector of B >= 2 counts, got shape {arr.shape}")
        if arr.dtype.kind not in "iuf":
            # numpy falls back to text or object arrays for non-numeric
            # entries and for integers past the uint64 range
            raise ValidationError(
                f"counts must be numbers within the int64 range, got {arr.tolist()!r:.80}"
            )
        if arr.dtype.kind == "f":
            if not np.all(np.isfinite(arr)):
                raise ValidationError("counts must be finite")
            if not np.array_equal(np.rint(arr), arr):
                raise ValidationError("counts must be integers")
        if np.any(arr < 0):
            raise ValidationError("counts must be non-negative")
        # summed as Python integers, which cannot overflow
        total = sum(int(v) for v in arr.tolist())
        if total < 1:
            raise ValidationError("sample is empty (n = 0)")
        if total > _INT64_MAX:
            raise ValidationError(f"total count {total} exceeds the int64 range")
        object.__setattr__(self, "counts", arr.astype(np.int64))

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def B(self) -> int:
        return self.counts.size


@dataclass(frozen=True)
class ProportionVector:
    """Probability vector with non-negative entries summing to one."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValidationError(f"need a 1-d vector of B >= 2 entries, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("probabilities must be finite")
        if np.any(arr < 0):
            raise ValidationError("probabilities must be non-negative")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValidationError(
                f"probabilities sum to {total!r}, not 1 (renormalization is refused; "
                "fix the input instead)"
            )
        object.__setattr__(self, "probs", arr)

    @property
    def B(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class ReferenceDistribution:
    """Fixed reference probability vector; every entry strictly positive."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValidationError(f"need a 1-d vector of B >= 2 entries, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("reference probabilities must be finite")
        if np.any(arr <= 0):
            raise ValidationError("reference probabilities must be strictly positive")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValidationError(
                f"reference probabilities sum to {total!r}, not 1 (renormalization is refused)"
            )
        object.__setattr__(self, "probs", arr)

    @property
    def B(self) -> int:
        return self.probs.size


def uniform_reference(B: int) -> ReferenceDistribution:
    """Equi-probable reference over B categories."""
    return ReferenceDistribution(np.full(B, 1.0 / B))


def as_probs(v: VectorLike) -> np.ndarray:
    """Extract the raw probability array from a vector-like argument."""
    return np.asarray(getattr(v, "probs", v), dtype=float)


def _paired(a: VectorLike, b: VectorLike) -> tuple[np.ndarray, np.ndarray]:
    x, y = as_probs(a), as_probs(b)
    if x.shape[-1:] != y.shape[-1:]:
        raise ValidationError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x, y


def _per_row(out: np.ndarray) -> Union[float, np.ndarray]:
    """A statistic reduced over the category (last) axis: a Python float for
    a single vector, one value per row for a matrix."""
    return float(out) if out.ndim == 0 else out


def proportions(counts: CategoryCounts) -> ProportionVector:
    """Observed category proportions n_i / n."""
    return ProportionVector(counts.counts / counts.n)


def psi(phat: VectorLike, p0: VectorLike) -> Union[float, np.ndarray]:
    """Population Stability Index of the observed proportions against p0.

    Zero-count categories contribute nothing (plug-in indicator convention).
    Rows of a matrix ``phat`` are scored separately.
    """
    ph, q = _paired(phat, p0)
    mask = ph > 0
    safe = np.where(mask, ph, 1.0)
    return _per_row(np.where(mask, (ph - q) * (np.log(safe) - np.log(q)), 0.0).sum(axis=-1))


def prs(phat: VectorLike, p0: VectorLike) -> Union[float, np.ndarray]:
    """Population Resemblance Statistic: chi-square divergence of phat from p0.

    Rows of a matrix ``phat`` are scored separately.
    """
    ph, q = _paired(phat, p0)
    return _per_row(((ph - q) ** 2 / q).sum(axis=-1))


def j_divergence(p: VectorLike, p0: VectorLike) -> Union[float, np.ndarray]:
    """Symmetric Kullback-Leibler divergence between two population vectors.

    This is the population quantity: zero entries make it infinite, so they
    are rejected rather than silently dropped.
    """
    x, q = _paired(p, p0)
    if np.any(x <= 0):
        raise ValidationError("j_divergence requires strictly positive entries")
    return _per_row(((x - q) * (np.log(x) - np.log(q))).sum(axis=-1))


def ks_statistic(phat: VectorLike, p0: VectorLike) -> Union[float, np.ndarray]:
    """Discrete KS statistic: max gap between the two cumulative distributions.

    Rows of a matrix ``phat`` are scored separately.
    """
    ph, q = _paired(phat, p0)
    return _per_row(np.abs(np.cumsum(ph, axis=-1) - np.cumsum(q, axis=-1)).max(axis=-1))
