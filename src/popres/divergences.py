"""Discrepancy statistics between observed proportions and a reference.

The four measures (``psi``, ``prs``, the symmetric KL divergence
``j_divergence`` and the discrete KS ``ks_statistic``) each score one
probability vector against a reference over the same B ordered categories
and return a float.  The J-divergence of a population is its PSI.  Natural
logarithms throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

from .errors import ValidationError

_SUM_TOL = 1e-12
_INT64_MAX = int(np.iinfo(np.int64).max)

VectorLike = Union["ReferenceDistribution", Sequence[float], np.ndarray]


def _check_sample_size(n: int) -> None:
    """Refuse a sample size that no vector of int64 counts can have."""
    if n < 1:
        raise ValidationError(f"sample size must be positive, got {n}")
    if n > _INT64_MAX:
        raise ValidationError(f"sample size {n} exceeds the int64 range")


def _equal_vectors(a, b):
    """``==`` of a class that holds one vector: the same shape and values.  A dataclass's
    would ask numpy for one truth value of a whole array; ``hash`` still raises ``TypeError``."""
    if type(b) is not type(a):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


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

    __eq__ = _equal_vectors

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def B(self) -> int:
        return self.counts.size


@dataclass(frozen=True)
class ReferenceDistribution:
    """Fixed reference probability vector; every entry strictly positive.  It is held
    read-only over bytes of its own, so no array can change it once validated."""

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
        object.__setattr__(self, "probs", np.frombuffer(arr.tobytes()))

    __eq__ = _equal_vectors

    @property
    def B(self) -> int:
        return self.probs.size


def uniform_reference(B: int) -> ReferenceDistribution:
    """Equi-probable reference over B categories."""
    return ReferenceDistribution(np.full(B, 1.0 / B))


def as_probs(v: VectorLike) -> np.ndarray:
    """Extract the raw probability array from a vector-like argument."""
    return np.asarray(getattr(v, "probs", v), dtype=float)


def _paired(phat: VectorLike, p0: VectorLike) -> tuple[np.ndarray, np.ndarray]:
    x, q = as_probs(phat), as_probs(p0)
    if x.ndim != 1 or x.shape != q.shape:
        raise ValidationError(
            f"need one vector of the reference's shape {q.shape}, got shape {x.shape}"
        )
    return x, q


def proportions(counts: CategoryCounts) -> np.ndarray:
    """Observed category proportions n_i / n."""
    return counts.counts / counts.n


def psi(phat: VectorLike, p0: VectorLike) -> float:
    """Population Stability Index of the observed proportions against p0.

    Zero-count categories contribute nothing (plug-in indicator convention).
    """
    ph, q = _paired(phat, p0)
    return float(_psi_terms(ph, q, np.log(q)).sum())


def _psi_terms(ph: np.ndarray, q, log_q) -> np.ndarray:
    """Per-cell PSI terms (ph - q) * (log ph - log q); a zero ph contributes 0."""
    mask = ph > 0
    safe = np.where(mask, ph, 1.0)
    return np.where(mask, (ph - q) * (np.log(safe) - log_q), 0.0)


def prs(phat: VectorLike, p0: VectorLike) -> float:
    """Population Resemblance Statistic: chi-square divergence of phat from p0."""
    ph, q = _paired(phat, p0)
    return float(_prs_terms(ph, q).sum())


def _prs_terms(ph: np.ndarray, q) -> np.ndarray:
    """Per-cell PRS terms (ph - q)^2 / q."""
    return (ph - q) ** 2 / q


def j_divergence(p: VectorLike, p0: VectorLike) -> float:
    """Symmetric Kullback-Leibler divergence between two population vectors.

    This is the population quantity: zero entries make it infinite, so they
    are rejected rather than silently dropped.
    """
    if np.any(as_probs(p) <= 0):
        raise ValidationError("j_divergence requires strictly positive entries")
    return psi(p, p0)


def ks_statistic(phat: VectorLike, p0: VectorLike) -> float:
    """Discrete KS statistic: max gap between the two cumulative distributions."""
    ph, q = _paired(phat, p0)
    return float(np.abs(np.cumsum(ph) - np.cumsum(q)).max())
