import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popres.divergences import (
    CategoryCounts,
    ReferenceDistribution,
    j_divergence,
    ks_statistic,
    proportions,
    prs,
    psi,
    uniform_reference,
)
from popres.errors import ValidationError

T1_COUNTS = (6, 9, 10, 11, 14)
T6_COUNTS = (2, 5, 13, 14, 16)
UNIFORM5 = uniform_reference(5)


def positive_simplex(B: int, floor: float = 1e-3):
    return (
        st.lists(st.floats(floor, 1.0), min_size=B, max_size=B)
        .map(lambda v: np.array(v) / np.sum(v))
        .filter(lambda p: np.min(p) > 1e-6)
    )


class TestTypes:
    def test_counts_invariants(self):
        c = CategoryCounts(np.array(T1_COUNTS))
        assert c.n == 50
        assert c.B == 5

    def test_counts_reject_negative(self):
        with pytest.raises(ValidationError):
            CategoryCounts(np.array([3, -1, 2]))

    def test_counts_reject_empty_sample(self):
        with pytest.raises(ValidationError):
            CategoryCounts(np.array([0, 0, 0]))

    def test_counts_reject_int64_overflow(self):
        for counts in ([2**62, 2**62], [2**63, 1], [1e19, 1.0]):
            with pytest.raises(ValidationError, match="int64"):
                CategoryCounts(np.array(counts))

    def test_counts_reject_non_finite(self, recwarn):
        for counts in ([1.0, np.inf], [1.0, np.nan]):
            with pytest.raises(ValidationError, match="finite"):
                CategoryCounts(np.array(counts))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_reference_keeps_a_read_only_copy_of_its_probabilities(self):
        p = np.full(5, 0.2)
        ref = ReferenceDistribution(p)
        p[0] = -1.0  # was seen through the reference, after validation
        assert ref.probs.tolist() == [0.2] * 5
        with pytest.raises(ValueError, match="read-only"):
            ref.probs[0] = 0.5
        with pytest.raises(ValueError):
            ref.probs.flags.writeable = True

    @pytest.mark.parametrize("make, values, others", [
        (ReferenceDistribution, [0.25, 0.75], ([0.75, 0.25], [0.25, 0.25, 0.5])),
        (CategoryCounts, [2, 3], ([3, 2], [2, 3, 0])),
    ], ids=["reference", "counts"])
    def test_equality_compares_shape_and_values(self, make, values, others):
        a = make(np.array(values))
        assert a == make(list(values)) and not a != make(list(values))
        for other in others:
            assert a != make(np.array(other)) and not a == make(np.array(other))
        assert a != list(values)
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)

    def test_reference_rejects_zero_entry(self):
        with pytest.raises(ValidationError):
            ReferenceDistribution(np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ValidationError):
            ReferenceDistribution(np.array([0.5, 0.5, np.nan]))


class TestProportions:
    def test_table_row_t1(self):
        p = proportions(CategoryCounts(np.array(T1_COUNTS)))
        assert np.allclose(p, [0.12, 0.18, 0.20, 0.22, 0.28])

    def test_uniform(self):
        p = proportions(CategoryCounts(np.array([10] * 5)))
        assert np.allclose(p, 0.2)

    def test_table_row_t6(self):
        p = proportions(CategoryCounts(np.array(T6_COUNTS)))
        assert np.allclose(p, [0.04, 0.10, 0.26, 0.28, 0.32])


class TestPsi:
    def test_table_values(self):
        t1 = proportions(CategoryCounts(np.array(T1_COUNTS)))
        t6 = proportions(CategoryCounts(np.array(T6_COUNTS)))
        assert psi(t1, UNIFORM5) == pytest.approx(0.072, abs=0.001)
        assert psi(t6, UNIFORM5) == pytest.approx(0.426, abs=0.001)

    def test_identity(self):
        assert psi(UNIFORM5.probs, UNIFORM5) == 0.0

    def test_zero_bin_rule(self):
        # a zero-proportion category contributes nothing, so removing it
        # (and its reference mass from the comparison) leaves the other
        # terms of the sum unchanged
        ph = np.array([0.0, 0.3, 0.3, 0.4])
        q = np.array([0.1, 0.2, 0.3, 0.4])
        full = psi(ph, q)
        kept = sum(
            (ph[j] - q[j]) * (np.log(ph[j]) - np.log(q[j])) for j in range(1, 4)
        )
        assert full == pytest.approx(kept, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            psi(np.array([0.5, 0.5]), UNIFORM5)


class TestPrs:
    def test_table_values_exact(self):
        t1 = proportions(CategoryCounts(np.array(T1_COUNTS)))
        t6 = proportions(CategoryCounts(np.array(T6_COUNTS)))
        assert prs(t1, UNIFORM5) == pytest.approx(0.068, abs=1e-12)
        assert prs(t6, UNIFORM5) == pytest.approx(0.300, abs=1e-12)

    def test_identity(self):
        assert prs(UNIFORM5.probs, UNIFORM5) == 0.0

    def test_pearson_statistic_relation(self):
        # n * PRS equals the classical Pearson statistic on raw counts
        rng = np.random.default_rng(5)
        for _ in range(25):
            B = rng.integers(2, 9)
            counts = rng.integers(0, 40, size=B)
            counts[0] += 1
            c = CategoryCounts(counts)
            q = rng.uniform(0.05, 1.0, size=B)
            q /= q.sum()
            p0 = ReferenceDistribution(q)
            pearson = np.sum((c.counts - c.n * q) ** 2 / (c.n * q))
            assert c.n * prs(proportions(c), p0) == pytest.approx(pearson, abs=1e-10)


class TestJDivergence:
    def test_identity(self):
        assert j_divergence(UNIFORM5.probs, UNIFORM5) == 0.0

    def test_rejects_zero_entries(self):
        with pytest.raises(ValidationError):
            j_divergence(np.array([0.0, 0.5, 0.5]), ReferenceDistribution(np.full(3, 1 / 3)))

    @settings(max_examples=50, deadline=None)
    @given(a=positive_simplex(4), b=positive_simplex(4))
    def test_symmetry(self, a, b):
        assert j_divergence(a, b) == pytest.approx(j_divergence(b, a), rel=1e-10, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(a=positive_simplex(5), b=positive_simplex(5))
    def test_non_negative(self, a, b):
        assert j_divergence(a, b) >= 0.0


class TestChi2Divergence:
    def test_identity(self):
        assert prs(UNIFORM5.probs, UNIFORM5) == 0.0

    def test_shifted_uniform(self):
        p = np.array([0.15, 0.15, 0.2, 0.25, 0.25])
        assert prs(p, UNIFORM5) == pytest.approx(4 * 0.0025 / 0.2, abs=1e-14)

    def test_agrees_with_prs(self):
        ph = proportions(CategoryCounts(np.array(T6_COUNTS)))
        assert prs(ph, UNIFORM5) == prs(ph, UNIFORM5)

    def test_local_approximation_to_j(self):
        # the relative gap between J and chi-square shrinks roughly one
        # order of magnitude per order of magnitude in the perturbation
        d = np.array([1.0, -0.5, -1.0, 0.5, 0.0])
        q = UNIFORM5.probs
        gaps = []
        for eps in (1e-2, 1e-3, 1e-4):
            p = q + eps * d
            gap = abs(j_divergence(p, UNIFORM5) - prs(p, UNIFORM5))
            gaps.append(gap / prs(p, UNIFORM5))
        assert gaps[1] < 0.2 * gaps[0]
        assert gaps[2] < 0.2 * gaps[1]


class TestKsStatistic:
    def test_table_rows(self):
        t1 = proportions(CategoryCounts(np.array(T1_COUNTS)))
        t6 = proportions(CategoryCounts(np.array(T6_COUNTS)))
        # cumulative gaps 0.08, 0.10, 0.10, 0.08, 0 and 0.16, 0.26, 0.20, 0.12, 0
        assert ks_statistic(t1, UNIFORM5) == pytest.approx(0.10, abs=1e-12)
        assert ks_statistic(t6, UNIFORM5) == pytest.approx(0.26, abs=1e-12)

    def test_identity(self):
        assert ks_statistic(UNIFORM5.probs, UNIFORM5) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(a=positive_simplex(6), b=positive_simplex(6))
    def test_bounded(self, a, b):
        assert 0.0 <= ks_statistic(a, b) <= 1.0


class TestRowwise:
    """Each statistic scores one vector; the rows of a matrix are scored only by the
    study chunk scorer (``simulation._scorer``)."""

    def test_single_vector_gives_python_float(self):
        ph = proportions(CategoryCounts(np.array(T1_COUNTS)))
        for stat in (psi, prs, ks_statistic, j_divergence):
            assert type(stat(ph, UNIFORM5)) is float

    def test_category_axis_mismatch(self):
        # a matrix is refused even when its rows have the reference's B categories
        for shape in ((3, 4), (3, 5), (1, 5)):
            message = re.escape(f"shape (5,), got shape {shape}")
            for stat in (psi, prs, ks_statistic, j_divergence):
                with pytest.raises(ValidationError, match=message):
                    stat(np.full(shape, 1 / shape[1]), UNIFORM5)
