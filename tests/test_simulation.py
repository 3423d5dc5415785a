import itertools
import math
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import FULL_MATRIX_KERNELS, multinomial_matrix_by_chunk
from scipy import stats

from popres import sampling, simulation
from popres.divergences import prs, psi, uniform_reference
from popres.errors import ValidationError
from popres.resemblance import ResemblanceConfig
from popres.sampling import BLOCK_ROWS, CHUNK_ROWS, multinomial_matrix
from popres.simulation import (
    MCEstimate,
    StudySpec,
    _scorer,
    calibration_probabilities,
    classification_sweep,
    reconstruction_probability,
    run_study,
    stability_ratios,
)


class TestMultinomialSampling:
    def test_single_category_takes_every_draw(self):
        m = multinomial_matrix(37, np.array([1.0]), 1000, seed=0)
        assert m.shape == (1000, 1)
        assert np.all(m == 37)

    def test_zero_probability_category_stays_empty(self):
        p = np.array([0.3, 0.0, 0.5, 0.0, 0.2])
        m = multinomial_matrix(50, p, 20_000, seed=4)
        assert np.all(m[:, [1, 3]] == 0)
        assert np.all(m.sum(axis=1) == 50)

    def test_outcome_frequencies_follow_the_multinomial_law(self):
        # all 28 outcomes of Multinomial(6, p) over 3 categories, against the pmf
        n, p, K = 6, np.array([0.5, 0.3, 0.2]), 200_000
        m = multinomial_matrix(n, p, K, seed=11)
        outcomes = [c for c in itertools.product(range(n + 1), repeat=3) if sum(c) == n]
        assert len(outcomes) == 28
        index = {c: i for i, c in enumerate(outcomes)}
        observed = np.bincount([index[tuple(row)] for row in m.tolist()], minlength=28)
        expected = K * stats.multinomial.pmf(outcomes, n, p)
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    def test_matrix_rows_sum_to_n(self):
        m = multinomial_matrix(50, np.full(5, 0.2), 2000, seed=1)
        assert m.shape == (2000, 5)
        assert np.all(m.sum(axis=1) == 50)
        assert np.all(m >= 0)

    def test_marginal_means(self):
        K = 100_000
        m = multinomial_matrix(50, np.full(5, 0.2), K, seed=2)
        means = m.mean(axis=0)
        # each count is Binomial(50, 0.2): mean 10, sd sqrt(8)
        se = math.sqrt(50 * 0.2 * 0.8 / K)
        assert np.all(np.abs(means - 10.0) <= 5 * se)

    def test_covariance_structure(self):
        K = 100_000
        p = np.array([0.1, 0.2, 0.3, 0.4])
        n = 40
        m = multinomial_matrix(n, p, K, seed=3)
        emp = np.cov(m.T)
        theo = n * (np.diag(p) - np.outer(p, p))
        # sampling error of a covariance entry scales like theo / sqrt(K)
        assert np.all(np.abs(emp - theo) <= 5 * (np.abs(theo) + 1.0) / math.sqrt(K) * 10)

    def test_skewed_probabilities(self):
        K = 50_000
        p = np.array([0.9, 0.05, 0.03, 0.02])
        m = multinomial_matrix(20, p, K, seed=9)
        assert np.all(m.sum(axis=1) == 20)
        assert np.abs(m[:, 0].mean() - 18.0) < 0.05

    def test_worker_count_does_not_change_output(self):
        p = np.full(5, 0.2)
        a = multinomial_matrix(50, p, 100_000, seed=7, workers=1)
        b = multinomial_matrix(50, p, 100_000, seed=7, workers=4)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        p = np.full(5, 0.2)
        a = multinomial_matrix(50, p, 1000, seed=7, stream=1)
        b = multinomial_matrix(50, p, 1000, seed=7, stream=2)
        assert not np.array_equal(a, b)

    def test_prefix_stability(self):
        # extending the replication count leaves the earlier rows unchanged
        p = np.full(5, 0.2)
        short = multinomial_matrix(50, p, 40_000, seed=5)
        long = multinomial_matrix(50, p, 70_000, seed=5)
        assert np.array_equal(short, long[:40_000])


    @pytest.mark.parametrize("K", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, CHUNK_ROWS,
                                   CHUNK_ROWS + 5, 2 * CHUNK_ROWS + 17, 3 * CHUNK_ROWS - 1])
    def test_unscored_matrix_is_the_chunks_stacked(self, K):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        want = multinomial_matrix_by_chunk(50, p, K, seed=12, stream=3)
        for workers in (1, 4):
            got = multinomial_matrix(50, p, K, seed=12, stream=3, workers=workers)
            assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_scored_chunks_join_in_chunk_order(self):
        # a scored chunk is drawn in blocks of BLOCK_ROWS rows: the last block of
        # each chunk is short, and the rows are those of one draw per chunk
        p = np.full(5, 0.2)
        for K in (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, CHUNK_ROWS + 5, 2 * CHUNK_ROWS + 17):
            counts = multinomial_matrix_by_chunk(50, p, K, seed=13)
            assert np.array_equal(multinomial_matrix(50, p, K, seed=13), counts)
            blocks = [min(BLOCK_ROWS, min(lo + CHUNK_ROWS, K) - b)
                      for lo in range(0, K, CHUNK_ROWS) for b in range(lo, min(lo + CHUNK_ROWS, K), BLOCK_ROWS)]
            for workers in (1, 4):
                seen = []
                got = multinomial_matrix(50, p, K, seed=13, workers=workers,
                                         score=lambda c: seen.append(len(c)) or c[:, [0, 2]] * 2)
                assert np.array_equal(got, counts[:, [0, 2]] * 2)
                assert sorted(seen) == sorted(blocks)
                first = multinomial_matrix(50, p, K, seed=13, workers=workers, score=lambda c: c[:, 0])
                assert np.array_equal(first, counts[:, 0])

    def test_scored_call_holds_one_block_of_counts(self):
        # one block of 4,096 x 60 counts is 2 MB; a 32,768-row chunk's counts
        # and one float64 gather of them are 31 MB
        scorer = _scorer(500, 60, "psi", "prs")
        tracemalloc.start()
        try:
            multinomial_matrix(500, uniform_reference(60).probs, 2 * CHUNK_ROWS, seed=14, workers=1,
                               score=scorer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_zero_replications_give_an_empty_matrix(self):
        assert multinomial_matrix(50, np.full(5, 0.2), 0, seed=1).shape == (0, 5)


class TestSamplerInputs:
    @pytest.mark.parametrize("n, p, message", [
        (50, [0.5, 0.6], "p must sum to 1, got 1.1"),
        (50, [0.5, 0.4], "p must sum to 1, got 0.9"),
        (50, [0.5, float("nan")], "p must be finite and non-negative"),
        (50, [0.5, float("inf")], "p must be finite and non-negative"),
        (50, [1.5, -0.5], "p must be finite and non-negative"),
        (50, [], r"p must be a non-empty 1-d vector, got shape \(0,\)"),
        (50, [[0.5, 0.5]], r"p must be a non-empty 1-d vector, got shape \(1, 2\)"),
        (50, ["a", "b"], "p must be a vector of probabilities"),
        (50.5, [0.5, 0.5], "n must be an integer, got 50.5"),
        (50.0, [0.5, 0.5], "n must be an integer, got 50.0"),
        ("50", [0.5, 0.5], "n must be an integer, got '50'"),
        (True, [0.5, 0.5], "n must be an integer, got True"),
        (-1, [0.5, 0.5], r"n must lie in \[0, 9223372036854775807\], got -1"),
        (2**63, [0.5, 0.5], r"n must lie in \[0, 9223372036854775807\], got 9223372036854775808"),
    ])
    def test_bad_input_is_rejected_by_name(self, n, p, message):
        with pytest.raises(ValidationError, match=message):
            multinomial_matrix(n, p, 10, seed=1)

    def test_negative_replications_are_rejected(self):
        with pytest.raises(ValidationError, match="replications must be non-negative, got -1"):
            multinomial_matrix(50, [0.5, 0.5], -1, seed=1)

    def test_numpy_integers_and_zero_draws_are_accepted(self):
        m = multinomial_matrix(np.int64(0), np.array([0.25, 0.75]), 3, seed=1)
        assert np.array_equal(m, np.zeros((3, 2), dtype=np.int64))


class TestWorkerThreads:
    """The sampler starts at most min(workers, chunks, CPUs) threads."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The ``max_workers`` of each pool the sampler makes; a pool maps on the calling thread."""
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(sampling, "ThreadPoolExecutor", Pool)
        return sizes

    def draw(self, workers):
        # three chunks, the last of one row
        return multinomial_matrix(5, [0.5, 0.5], 2 * CHUNK_ROWS + 1, seed=1, workers=workers)

    @pytest.mark.parametrize("workers, cpus, sizes", [
        (30_000, 64, [3]), (30_000, 2, [2]), (2, 64, [2]), (2, 2, [2]), (30_000, 1, []), (1, 64, []),
    ])
    def test_pool_is_capped_by_chunks_and_cpus(self, monkeypatch, pools, workers, cpus, sizes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert np.array_equal(self.draw(workers), self.draw(1))
        assert pools == sizes

    @pytest.mark.parametrize("count, sizes", [(2, [2]), (None, [])])
    def test_cpu_count_stands_in_without_affinity(self, monkeypatch, pools, count, sizes):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        self.draw(30_000)
        assert pools == sizes


def _scored(n, counts, *statistics):
    """The chunk scorer's values on a copy of ``counts``, one array per statistic."""
    out = _scorer(n, counts.shape[1], *statistics)(counts.copy())
    return [out] if len(statistics) == 1 else [out[:, i] for i in range(len(statistics))]


class TestChunkScoring:
    """The per-count table, the direct terms and ``divergences`` give the same floats."""

    @pytest.mark.parametrize("n, B, rows", [
        (1, 2, 40), (1, 5, 40), (2, 2, 30), (50, 5, 2000), (20, 10, 3000), (500, 10, 800),
        (10_000, 2, 5000), (10**5, 10, 50), (10**6, 3, 20),
    ])
    def test_table_and_direct_terms_equal_divergences(self, n, B, rows):
        rng = np.random.default_rng(n + B)
        p = rng.dirichlet(np.ones(B))  # a skewed population, so some counts are zero
        counts = rng.multinomial(n, p, size=rows)
        # the same rows tiled until the chunk has more cells than its count range
        tiled = np.tile(counts, (int(np.ptp(counts)) // counts.size + 1, 1))
        assert np.ptp(tiled) < tiled.size
        # a row alone is scored directly once its range is at least B wide
        wide = [i for i in range(rows) if np.ptp(counts[i]) >= B][:50]
        assert wide or n < 2 * B
        q = uniform_reference(B).probs
        wants = []
        for name, stat in (("psi", psi), ("prs", prs)):
            want = np.array([stat(row, q) for row in counts / n])  # one vector at a time
            wants.append(np.tile(want, tiled.shape[0] // rows))
            (table,) = _scored(n, tiled, name)
            assert np.array_equal(table, wants[-1])
            for i in wide:
                (direct,) = _scored(n, counts[i : i + 1], name)
                assert np.array_equal(direct, want[i : i + 1])
        assert np.array_equal(_scored(n, tiled, "psi", "prs"), wants)

    def test_wide_span_takes_the_direct_terms(self, monkeypatch):
        # rows [0, n] and [n, 0] span n + 1 counts over 4 cells: no table of n + 1 entries is built
        n = 10**9
        counts = np.array([[0, n], [n, 0]])
        monkeypatch.setattr(simulation.np, "arange", lambda *a, **k: pytest.fail("table built"))
        (values,) = _scored(n, counts, "prs")
        monkeypatch.undo()
        assert values.tolist() == [prs(row, [0.5, 0.5]) for row in counts / n]

    def test_zero_counts_contribute_nothing_to_psi(self):
        counts = np.array([[0, 0, 3], [1, 1, 1], [3, 0, 0]])
        (values,) = _scored(3, np.tile(counts, (4, 1)), "psi")
        assert values.tolist() == [psi(row, uniform_reference(3)) for row in counts / 3] * 4
        assert values[1] == 0.0


@pytest.mark.parametrize("spec", [
    StudySpec("table1", B=5, ns=(1, 50, 1000), replications=CHUNK_ROWS + 10, seed=3),
    StudySpec("table1", B=5, ns=(50, 10**5), replications=CHUNK_ROWS + 10, seed=3, target_j=0.1),
    StudySpec("table1", B=2, ns=(2, 300), replications=CHUNK_ROWS, seed=4),
    StudySpec("stability", B=10, ns=(1, 20, 10**5), replications=CHUNK_ROWS + 10, seed=4),
    StudySpec("stability", B=2, ns=(3, 10**6), replications=500, seed=5),
    StudySpec("sweep", B=5, ns=(50,), replications=CHUNK_ROWS + 10, seed=5, grid_points=3,
              cfg=ResemblanceConfig(c=0.7, M=2.0, alpha1=0.05, alpha2=0.10)),
    StudySpec("sweep", B=10, ns=(10**5,), replications=200, seed=6, grid_points=2),
], ids=lambda spec: f"{spec.study}-B{spec.B}-n{'-'.join(map(str, spec.ns))}")
def test_study_bytes_equal_the_full_matrix_oracle(spec, tmp_path, monkeypatch):
    """Scored chunks write the bytes the whole K x B matrix scored by the oracle row formulas
    writes."""
    got = [run_study(replace(spec, workers=w), tmp_path / f"w{w}.csv").read_bytes() for w in (1, 4)]
    for name, kernel in FULL_MATRIX_KERNELS.items():
        monkeypatch.setattr(simulation, name, kernel)
    want = run_study(spec, tmp_path / "oracle.csv").read_bytes()
    assert got == [want, want]


def test_stability_at_a_billion_allocates_nothing_of_size_n():
    # a table over [0, n] would take 8 GB; the chunk's span (about 10^5 counts at
    # 32,768 rows) and the direct terms (about 200 rows) each take well under 16 MB
    for K in (CHUNK_ROWS, 200):
        tracemalloc.start()
        try:
            r = stability_ratios(10**9, 10, K, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert abs(r.mean_ratio_prs - 1.0) < 10 * r.mean_se_prs


class TestSpecValidation:
    @pytest.mark.parametrize("workers", [0, -1])
    def test_sampler_rejects_bad_workers(self, workers):
        with pytest.raises(ValidationError, match=f"got {workers}"):
            multinomial_matrix(50, np.full(5, 0.2), 1000, seed=1, workers=workers)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seeds_outside_64_bits_are_rejected(self, seed):
        # the sampler keys by the seed's low 64 bits: -1 drew the rows of 2**64 - 1
        with pytest.raises(ValidationError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}$"):
            multinomial_matrix(50, np.full(5, 0.2), 10, seed=seed)
        with pytest.raises(ValidationError, match=r"\(--seed\)"):
            StudySpec(study="table1", B=5, ns=(50,), seed=seed)
        assert multinomial_matrix(50, np.full(5, 0.2), 10, seed=2**64 - 1).shape == (10, 5)

    # a float reached the sampler's key as a raw TypeError, and True ran as seed 1
    @pytest.mark.parametrize("seed", [3.5, 3.0, True, np.float64(2.0)], ids=repr)
    def test_seeds_that_are_not_integers_are_rejected(self, tmp_path, seed):
        with pytest.raises(ValidationError, match=rf"^seed must lie in \[0, 2\*\*64\), got {seed}$"):
            multinomial_matrix(50, np.full(5, 0.2), 10, seed=seed)
        with pytest.raises(ValidationError, match=re.escape(f"seed must lie in [0, 2**64) (--seed), got {seed}")):
            StudySpec(study="table1", B=5, ns=(50,), seed=seed)
        with pytest.raises(ValidationError, match=r"\(--seed\)"):
            run_study(StudySpec(study="table1", B=5, ns=(50,), seed=seed, replications=1000), tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    def test_numpy_integer_seeds_are_taken_as_ints(self, tmp_path):
        p = np.full(5, 0.2)
        assert np.array_equal(multinomial_matrix(50, p, 10, seed=np.uint64(5)), multinomial_matrix(50, p, 10, seed=5))
        spec = StudySpec(study="table1", B=5, ns=(50,), seed=np.uint64(5), replications=1000)
        assert type(spec.seed) is int and spec.seed == 5
        got = run_study(spec, tmp_path / "u.csv").read_bytes()
        assert got == run_study(replace(spec, seed=5), tmp_path / "i.csv").read_bytes()

    @pytest.mark.parametrize("name, whole", [("target_j", 0)])
    def test_whole_number_settings_write_the_bytes_of_their_floats(self, tmp_path, name, whole):
        paths = []
        for value in (whole, float(whole)):
            spec = StudySpec(study="table1", B=5, ns=(50,), replications=2000, seed=3, **{name: value})
            assert type(getattr(spec, name)) is float
            paths.append(run_study(spec, tmp_path / f"{value!r}.csv"))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("study, ns", [("table1", (50, 2**63)), ("sweep", (10**400,))],
                             ids=["2**63", "10**400"])
    def test_spec_rejects_sample_size_above_int64(self, study, ns):
        with pytest.raises(ValidationError, match=rf"sample size {ns[-1]} exceeds the int64 range"):
            StudySpec(study=study, B=5, ns=ns)

    @pytest.mark.parametrize("ns", [(50, 50), (20, 50, 20)])
    def test_spec_rejects_a_repeated_sample_size(self, ns):
        with pytest.raises(ValidationError, match=rf"^--n-grid repeats the sample size {ns[0]}; "):
            StudySpec(study="table1", B=5, ns=ns)

    def test_stability_rejects_bad_sizes(self):
        with pytest.raises(ValidationError, match="sample size"):
            stability_ratios(0, 5, 100, 0)

    def test_bad_n(self):
        with pytest.raises(ValidationError):
            reconstruction_probability(n=0, B=5, replications=100, seed=0)

    def test_bad_b(self):
        with pytest.raises(ValidationError):
            reconstruction_probability(n=50, B=1, replications=100, seed=0)

    def test_bad_replications(self):
        with pytest.raises(ValidationError):
            reconstruction_probability(n=50, B=5, replications=0, seed=0)

    # one replication has no sample variance: numpy warned and the study wrote nan
    def test_stability_needs_two_replications(self):
        message = r"^replications must be at least 2 \(--replications\), got 1$"
        with pytest.raises(ValidationError, match=message):
            stability_ratios(20, 5, replications=1, seed=0)
        with pytest.raises(ValidationError, match=message):
            StudySpec(study="stability", B=5, ns=(20,), replications=1)
        assert math.isfinite(stability_ratios(20, 5, replications=2, seed=0).var_ratio_prs)
        # an SE floored at one hit needs only one replication
        for study in ("table1", "sweep"):
            StudySpec(study=study, B=5, ns=(20,), replications=1)

    def test_sweep_rejects_zero_replications(self):
        with pytest.raises(ValidationError, match="replication"):
            classification_sweep(50, 5, ResemblanceConfig(), replications=0)

    def test_calibration_rejects_zero_replications(self):
        with pytest.raises(ValidationError, match="replication"):
            calibration_probabilities(50, 5, ResemblanceConfig(), replications=0)

    @pytest.mark.parametrize("grid_points", [0, -1])
    def test_sweep_rejects_bad_grid_points(self, grid_points):
        with pytest.raises(ValidationError, match="grid_points must be at least 1"):
            classification_sweep(50, 5, ResemblanceConfig(), grid_points=grid_points,
                                 replications=100)


class TestReconstruction:
    def test_null_probability_small_n(self):
        est = reconstruction_probability(n=20, B=5, replications=50_000, seed=1)
        assert isinstance(est, MCEstimate)
        # a fair fraction of null samples at n=20 clear the 0.25 action line
        assert 0.15 < est.value < 0.35

    def test_null_probability_vanishes_at_large_n(self):
        est = reconstruction_probability(n=1000, B=5, replications=50_000, seed=1)
        assert est.value < 0.001

    def test_shifted_population_raises_probability(self):
        null = reconstruction_probability(n=50, B=5, replications=50_000, seed=1)
        shifted = reconstruction_probability(n=50, B=5, replications=50_000, seed=1, target_j=0.1)
        assert shifted.value > null.value + 3 * (null.std_error + shifted.std_error)

    @pytest.mark.parametrize("K", [1, 40_000, 70_000, 100_000])
    def test_standard_error_floors_at_one_hit(self, K):
        # no hits (or all hits) still reports the error of a single hit
        assert MCEstimate.of_hits(0, K) == MCEstimate(0.0, 1 / K)
        assert MCEstimate.of_hits(K, K) == MCEstimate(1.0, 1 / K)
        assert MCEstimate.of_hits(K // 2, K).std_error >= 1 / K

    def test_deterministic(self):
        spec = dict(n=50, B=5, replications=20_000, seed=6)
        assert reconstruction_probability(**spec) == reconstruction_probability(**spec)


class TestStabilityRatios:
    def test_prs_mean_is_stable_at_small_n(self):
        r = stability_ratios(20, 5, replications=100_000, seed=2)
        assert abs(r.mean_ratio_prs - 1.0) <= 3 * r.mean_se_prs

    def test_psi_mean_inflated_at_small_n(self):
        r = stability_ratios(20, 5, replications=100_000, seed=2)
        assert r.mean_ratio_psi > 1.0 + 3 * r.mean_se_psi

    def test_both_settle_at_large_n(self):
        r = stability_ratios(1000, 5, replications=100_000, seed=2)
        assert abs(r.mean_ratio_psi - 1.0) <= 0.05
        assert abs(r.mean_ratio_prs - 1.0) <= 0.05
        assert abs(r.var_ratio_psi - 1.0) <= 0.10
        assert abs(r.var_ratio_prs - 1.0) <= 0.10


class TestClassificationSweep:
    CFG = ResemblanceConfig(c=0.7, M=2.0, alpha1=0.05, alpha2=0.10)

    def test_shape_and_partition(self):
        res = classification_sweep(50, 5, self.CFG, grid_points=10, replications=5000, seed=4)
        assert res.grid.shape == (10,)
        assert res.region_probs.shape == (10, 3)
        assert np.allclose(res.region_probs.sum(axis=1), 1.0)
        assert res.grid[0] == 0.0

    def test_null_point_is_mostly_green(self):
        res = classification_sweep(500, 10, self.CFG, grid_points=5, replications=20_000, seed=4)
        assert res.region_probs[0, 0] > 0.90
        assert res.region_probs[0, 2] < 0.01

    def test_red_probability_monotone_in_the_tail(self):
        res = classification_sweep(500, 10, self.CFG, grid_points=12, replications=20_000, seed=4)
        r3 = res.region_probs[:, 2]
        assert r3[-1] > 0.99
        # beyond M*delta the red probability climbs steadily
        tail = r3[4:]
        assert all(b >= a - 0.01 for a, b in zip(tail, tail[1:]))

    def test_grid_respects_the_simplex(self):
        res = classification_sweep(50, 5, self.CFG, grid_points=6, replications=2000, seed=4)
        assert res.grid[-1] < 1.0 / 5


class TestCalibration:
    def test_large_n_calibration(self):
        cfg = ResemblanceConfig(c=0.7, M=2.0, alpha1=0.05, alpha2=0.10)
        out = calibration_probabilities(2000, 10, cfg, replications=50_000, seed=5)
        r3 = out["r3_at_delta"]
        r1 = out["r1_at_m_delta"]
        assert abs(r3.value - cfg.alpha1) <= 4 * r3.std_error + 0.003
        assert abs(r1.value - cfg.alpha2) <= 4 * r1.std_error + 0.003

    def test_deterministic(self):
        cfg = ResemblanceConfig()
        a = calibration_probabilities(200, 5, cfg, replications=10_000, seed=8)
        b = calibration_probabilities(200, 5, cfg, replications=10_000, seed=8, workers=4)
        assert a == b
