"""End-to-end acceptance checks against the published monitoring results.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with pytest -s).  Failures list every violated check so a red run
is directly actionable.
"""

import math
import time
from dataclasses import replace
from itertools import combinations_with_replacement

import numpy as np
import pytest
from scipy import special, stats

from popres.divergences import (
    CategoryCounts,
    uniform_reference,
    j_divergence,
    ks_statistic,
    proportions,
    prs,
    psi,
)
from popres.errors import BoundaryOverlapError
from popres.reporting import format_p_value
from popres.resemblance import (
    DecisionBoundaries,
    ResemblanceConfig,
    classify_lewis,
    classify_prs,
    classify_yn,
    decision_boundaries,
    ks_p_value,
    yn_boundaries,
)
from popres.scenarios import solve_p_for_target_j
from popres.simulation import (
    StudySpec,
    calibration_probabilities,
    reconstruction_probability,
    run_study,
    stability_ratios,
)
from popres.resemblance import lambda_sup
from popres.special_functions import ncx2_cdf, ncx2_quantile

from oracles import enumerate_extreme_points

# published critical values (tau1, tau2) per (n, B) configuration
PUBLISHED_TAUS = {
    (50, 5): (0.07441, 0.25722),
    (500, 10): (0.03063, 0.04890),
    (2000, 10): (0.00766, 0.01222),
    (10000, 20): (0.00394, 0.00439),
}

# rows: label, counts, psi, lewis, yn, prs, prs region
TABLE_50_5 = [
    ("t1", (6, 9, 10, 11, 14), 0.072, "g", "g", 0.068, "g"),
    ("t2", (4, 10, 11, 11, 14), 0.141, "a", "g", 0.108, "a"),
    ("t3", (7, 8, 8, 10, 17), 0.114, "a", "g", 0.132, "a"),
    ("t4", (3, 8, 12, 13, 14), 0.227, "a", "g", 0.164, "a"),
    ("t5", (2, 9, 12, 13, 14), 0.310, "r", "g", 0.188, "a"),
    ("t6", (2, 5, 13, 14, 16), 0.426, "r", "a", 0.300, "r"),
]
TABLE_500_10 = [
    ("t1", (35, 40, 45, 45, 47, 50, 55, 58, 60, 65), 0.032, "g", "g", 0.032, "a"),
    ("t2", (40, 45, 45, 45, 47, 48, 55, 55, 60, 60), 0.017, "g", "g", 0.018, "g"),
    ("t3", (35, 36, 42, 43, 44, 44, 60, 60, 61, 75), 0.060, "g", "a", 0.062, "r"),
    ("t4", (20, 35, 35, 40, 40, 62, 65, 65, 65, 73), 0.131, "a", "r", 0.116, "r"),
]
TABLE_2000_10 = [
    ("t1", (160, 170, 180, 180, 190, 200, 210, 220, 240, 250), 0.020, "g", "a", 0.020, "r"),
    ("t2", (180, 180, 184, 190, 194, 200, 200, 210, 222, 240), 0.008, "g", "g", 0.008, "a"),
    ("t3", (180, 180, 190, 194, 200, 200, 204, 210, 220, 222), 0.005, "g", "g", 0.005, "g"),
    ("t4", (160, 170, 170, 178, 180, 210, 210, 220, 242, 260), 0.025, "g", "r", 0.026, "r"),
]
TABLE_10000_20 = [
    ("t1", (425, 455, 480, 480, 480, 480, 485, 491, 495, 495,
            500, 502, 502, 502, 502, 520, 540, 546, 550, 570),
     0.0042, "g", "g", 0.0042, "a"),
    ("t2", (150, 170, 400, 400, 450, 450, 460, 460, 525, 525,
            545, 545, 550, 550, 600, 620, 650, 650, 650, 650),
     0.1060, "a", "r", 0.0769, "r"),
    ("t3", (445, 455, 480, 480, 485, 485, 490, 495, 500, 500,
            501, 502, 502, 510, 510, 520, 520, 530, 540, 550),
     0.0025, "g", "g", 0.0025, "g"),
    ("t4", (425, 425, 440, 440, 445, 445, 460, 460, 475, 475,
            490, 490, 525, 525, 555, 555, 585, 585, 600, 600),
     0.0139, "g", "r", 0.0142, "r"),
    ("t5", (390, 390, 450, 450, 450, 450, 460, 460, 475, 475,
            525, 525, 545, 545, 550, 550, 555, 555, 600, 600),
     0.0153, "g", "r", 0.0150, "r"),
    ("t6", (440, 465, 465, 475, 475, 480, 480, 485, 485, 488,
            490, 490, 510, 510, 520, 520, 550, 550, 550, 575),
     0.0045, "g", "g", 0.0045, "r"),
]

RAG = {"g": "green", "a": "amber", "r": "red"}


def _bounds_from_published(n: int, B: int) -> DecisionBoundaries:
    tau1, tau2 = PUBLISHED_TAUS[(n, B)]
    return DecisionBoundaries(delta=0.0, lambda_sup=0.0, tau1=tau1, tau2=tau2, n=n, B=B)


def _check_table(rows, n, B, failures):
    p0 = uniform_reference(B)
    bounds = _bounds_from_published(n, B)
    tau_red, tau_green = yn_boundaries(n, B, 0.01, 0.10)
    for label, counts, psi_pub, lewis, yn, prs_pub, prs_reg in rows:
        phat = proportions(CategoryCounts(np.array(counts)))
        psi_val = psi(phat, p0)
        prs_val = prs(phat, p0)
        if abs(psi_val - psi_pub) > 0.001:
            failures.append(f"{n=},{B=},{label}: PSI {psi_val:.4f} vs {psi_pub}")
        if abs(prs_val - prs_pub) > 0.001:
            failures.append(f"{n=},{B=},{label}: PRS {prs_val:.4f} vs {prs_pub}")
        if classify_lewis(psi_val).value != RAG[lewis]:
            failures.append(f"{n=},{B=},{label}: Lewis rag mismatch")
        if classify_yn(psi_val, tau_red, tau_green).value != RAG[yn]:
            failures.append(f"{n=},{B=},{label}: YN rag mismatch")
        if classify_prs(prs_val, bounds).value != RAG[prs_reg]:
            failures.append(f"{n=},{B=},{label}: PRS rag mismatch")


def _finish(num, desc, failures, elapsed=None, budget=None):
    if budget is not None and elapsed is not None and elapsed > budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds {budget}s budget")
    status = "PASS" if not failures else "FAIL"
    timing = f"  ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"\n[criterion {num:02d}] {status}: {desc}{timing}")
    assert not failures, "\n".join(failures)


class TestAcceptance:
    def test_criterion_01_first_monitoring_table(self):
        start = time.perf_counter()
        failures = []
        _check_table(TABLE_50_5, 50, 5, failures)
        sequence = [
            classify_prs(
                prs(proportions(CategoryCounts(np.array(c))), uniform_reference(5)),
                _bounds_from_published(50, 5),
            ).value[0]
            for _, c, *_ in TABLE_50_5
        ]
        if sequence != ["g", "a", "a", "a", "a", "r"]:
            failures.append(f"PRS sequence {sequence} != g,a,a,a,a,r")
        _finish(1, "(n=50, B=5) monitoring table reproduced exactly", failures,
                time.perf_counter() - start, budget=1.0)

    def test_criterion_02_remaining_monitoring_tables(self):
        start = time.perf_counter()
        failures = []
        _check_table(TABLE_500_10, 500, 10, failures)
        _check_table(TABLE_2000_10, 2000, 10, failures)
        _check_table(TABLE_10000_20, 10000, 20, failures)

        def ks(counts, B):
            return ks_p_value(
                CategoryCounts(np.array(counts)), uniform_reference(B),
                replications=10_000, seed=3,
            )

        # KS p-values: two rows with published point values, the rest with
        # a published "<0.001" floor
        p_t2 = ks(TABLE_500_10[1][1], 10)
        if abs(p_t2 - 0.024) > 0.015:
            failures.append(f"(500,10) t2 KS p {p_t2:.4f} vs 0.024 +- 0.015")
        p_t3 = ks(TABLE_2000_10[2][1], 10)
        if abs(p_t3 - 0.035) > 0.02:
            failures.append(f"(2000,10) t3 KS p {p_t3:.4f} vs 0.035 +- 0.02")
        floored = (
            [(TABLE_500_10[i][1], 10) for i in (2, 3)]
            + [(TABLE_2000_10[i][1], 10) for i in (0, 3)]
            + [(row[1], 20) for row in TABLE_10000_20]
        )
        for counts, B in floored:
            p = ks(counts, B)
            # rows published as "<0.001" get the same MC tolerance as the
            # point values: three standard errors of the p-value estimate
            band = 3 * math.sqrt(max(p * (1 - p), 1e-4) / 10_000)
            if format_p_value(p) != "<0.001" and p > 0.001 + band:
                failures.append(f"B={B} row {counts[:3]}...: KS p {p:.4f} not <0.001")
        _finish(2, "remaining monitoring tables and KS p-values reproduced", failures,
                time.perf_counter() - start, budget=30.0)

    def test_criterion_03_critical_value_cross_validation(self):
        failures = []
        variants = [
            ("c=0.7, alphas as narrated", ResemblanceConfig(c=0.7, M=2.0, alpha1=0.1, alpha2=0.05)),
            ("c=1.0, alphas as narrated", ResemblanceConfig(c=1.0, M=2.0, alpha1=0.1, alpha2=0.05)),
            ("c=0.7, alpha roles exchanged", ResemblanceConfig(c=0.7, M=2.0, alpha1=0.05, alpha2=0.10)),
        ]
        print("\n  critical value comparison (published vs computed):")
        for (n, B), (tau1_pub, tau2_pub) in PUBLISHED_TAUS.items():
            matched = []
            for name, cfg in variants:
                try:
                    b = decision_boundaries(uniform_reference(B), n, cfg)
                except BoundaryOverlapError:
                    print(f"    (n={n}, B={B}) {name}: infeasible (boundaries overlap)")
                    continue
                ok = (
                    abs(b.tau1 - tau1_pub) <= 0.1 * tau1_pub
                    and abs(b.tau2 - tau2_pub) <= 0.1 * tau2_pub
                )
                print(
                    f"    (n={n}, B={B}) {name}: tau1={b.tau1:.5f} tau2={b.tau2:.5f}"
                    f"  published ({tau1_pub}, {tau2_pub})  {'match' if ok else 'off'}"
                )
                if ok:
                    matched.append(name)
                # internal verification: the quantiles invert the CDF
                lam = b.lambda_sup
                for tau, p, ncp in (
                    (b.tau1, cfg.alpha2, cfg.M**2 * lam),
                    (b.tau2, 1.0 - cfg.alpha1, lam),
                ):
                    if abs(ncx2_cdf(tau * n, B - 1, ncp) - p) > 1e-8:
                        failures.append(f"(n={n},B={B}) {name}: quantile round trip off")
            if not matched:
                failures.append(f"(n={n},B={B}): no variant within 10% of published taus")
        _finish(3, "published critical values matched by a documented variant", failures)

    def test_criterion_04_fixed_threshold_null_rates(self):
        start = time.perf_counter()
        failures = []
        K = 100_000
        checks = [
            (50, 5, 0.0226, 0.005),
            (50, 10, 0.2356, 0.01),
            (100, 5, 0.0001, 0.0005),
            (100, 10, 0.0086, 0.002),
            (200, 5, 0.0, 0.0005),
            (200, 10, 0.0, 0.0005),
            (500, 5, 0.0, 0.0005),
            (500, 10, 0.0, 0.0005),
        ]
        for i, (n, B, expected, tol) in enumerate(checks):
            est = reconstruction_probability(n=n, B=B, replications=K, seed=40 + i)
            if abs(est.value - expected) > tol:
                failures.append(
                    f"({n},{B}) null rate {est.value:.4f} vs {expected} +- {tol}"
                )
        _finish(4, "no-shift reconstruction rates under the fixed 0.25 rule", failures,
                time.perf_counter() - start, budget=120.0)

    def test_criterion_05_moderate_shift_rates(self):
        start = time.perf_counter()
        failures = []
        K = 100_000
        for B in (5, 10):
            p0 = uniform_reference(B)
            achieved_j = j_divergence(solve_p_for_target_j(p0, 0.1), p0)
            if abs(achieved_j - 0.1) > 1e-8:
                failures.append(f"B={B}: achieved J {achieved_j!r} not 0.1 +- 1e-8")
        expected = {
            (50, 5): 0.2542, (50, 10): 0.5459,
            (100, 5): 0.0872, (100, 10): 0.2508,
            (200, 5): 0.0131, (200, 10): 0.0434,
            (500, 5): 0.0001, (500, 10): 0.0003,
        }
        for i, ((n, B), value) in enumerate(expected.items()):
            est = reconstruction_probability(n=n, B=B, replications=K, seed=50 + i, target_j=0.1)
            if abs(est.value - value) > 0.02:
                p0 = uniform_reference(B)
                distance = float(np.linalg.norm(solve_p_for_target_j(p0, 0.1) - p0.probs))
                failures.append(
                    f"({n},{B}) shifted rate {est.value:.4f} vs {value} +- 0.02 "
                    f"(achieved ||p - p0|| = {distance:.4f})"
                )
        _finish(5, "moderate-shift reconstruction rates under the fixed 0.25 rule",
                failures, time.perf_counter() - start)

    @pytest.mark.parametrize("n, seed, published", [(50, 50, 0.2542), (100, 52, 0.0872)])
    def test_table1_odd_b_shifted_rates_within_3_se(self, n, seed, published):
        # Table 1 at B=5, J=0.1: the blockwise population meets the published
        # rates within Monte Carlo error, at criterion 05's seeds
        est = reconstruction_probability(n=n, B=5, replications=100_000, seed=seed, target_j=0.1)
        assert abs(est.value - published) <= 3 * est.std_error, (
            f"(n={n}, B=5) shifted rate {est.value:.4f} vs published {published} "
            f"+- 3 x {est.std_error:.4f}"
        )

    def test_criterion_06_exact_mean_identity(self):
        failures = []
        for n in (20, 50, 200, 1000):
            for B in (5, 10):
                r = stability_ratios(n, B, replications=100_000, seed=60)
                if abs(r.mean_ratio_prs - 1.0) > 3 * r.mean_se_prs:
                    failures.append(
                        f"({n},{B}) mean ratio {r.mean_ratio_prs:.4f} "
                        f"off by more than 3 x {r.mean_se_prs:.4f}"
                    )
        # brute-force expectation over every multinomial outcome at n=5, B=3
        n, B = 5, 3
        q = np.full(B, 1.0 / B)
        outcomes = [
            c for c in (
                np.bincount(list(draw), minlength=B)
                for draw in combinations_with_replacement(range(B), n)
            )
        ]
        if len(outcomes) != 21:
            failures.append(f"enumeration produced {len(outcomes)} outcomes, not 21")
        total = sum(
            stats.multinomial.pmf(c, n, q) * n * prs(c / n, q) for c in outcomes
        )
        if abs(total - (B - 1)) > 1e-12:
            failures.append(f"exact E[n*PRS] = {total!r}, expected {B - 1}")
        _finish(6, "mean identity E[n*PRS] = B-1, empirically and by enumeration", failures)

    @pytest.mark.parametrize("n,B", [(50, 5), (10000, 20)])
    def test_criterion_07_calibration_identities(self, n, B):
        start = time.perf_counter()
        failures = []
        cfg = ResemblanceConfig(c=0.7, M=2.0, alpha1=0.05, alpha2=0.10)
        out = calibration_probabilities(n, B, cfg, replications=100_000, seed=70)
        r3 = out["r3_at_delta"]
        if abs(r3.value - cfg.alpha1) > 3 * r3.std_error:
            failures.append(
                f"({n},{B}) P(R3) at delta = {r3.value:.4f}, "
                f"|diff from {cfg.alpha1}| = {abs(r3.value - cfg.alpha1):.4f} "
                f"> 3 x SE = {3 * r3.std_error:.4f}"
            )
        r1 = out["r1_at_m_delta"]
        if abs(r1.value - cfg.alpha2) > 3 * r1.std_error:
            failures.append(
                f"({n},{B}) P(R1) at M*delta = {r1.value:.4f}, "
                f"|diff from {cfg.alpha2}| = {abs(r1.value - cfg.alpha2):.4f} "
                f"> 3 x SE = {3 * r1.std_error:.4f}"
            )
        _finish(7, f"calibration identities at (n={n}, B={B})", failures,
                time.perf_counter() - start, budget=300.0)

    def test_criterion_08_worst_case_noncentrality_oracle(self):
        failures = []
        rng = np.random.default_rng(80)
        for B in (2, 3, 4, 5, 6, 7):
            for trial in range(50):
                q = rng.uniform(0.02, 1.0, size=B)
                q /= q.sum()
                if trial % 3 == 0 and B >= 3:
                    q[:2] = q[:2].mean()  # force tied maxima sometimes
                    q /= q.sum()
                from popres.divergences import ReferenceDistribution
                p0 = ReferenceDistribution(q)
                delta = rng.uniform(0.2, 0.9) * float(np.min(q))
                n = 100
                best = max(
                    n * float(np.sum((pt - q) ** 2 / q))
                    for pt in enumerate_extreme_points(p0, delta)
                )
                if abs(best - lambda_sup(p0, n, delta)) > 1e-10:
                    failures.append(f"B={B} trial {trial}: closed form off by "
                                    f"{abs(best - lambda_sup(p0, n, delta)):.2e}")
        _finish(8, "worst-case non-centrality equals extreme-point enumeration", failures)

    def test_criterion_09_distribution_functions(self):
        start = time.perf_counter()
        failures = []
        # central reduction
        for x in (0.5, 2.0, 7.7, 30.0):
            for df in (1.0, 4.0, 9.0, 19.0):
                if abs(ncx2_cdf(x, df, 0.0) - special.gammainc(df / 2, x / 2)) > 1e-12:
                    failures.append(f"central reduction off at x={x}, df={df}")
        # stochastic ordering in the non-centrality
        for x in (0.5, 3.0, 8.0, 25.0):
            for df in (1.0, 4.0, 19.0):
                vals = [ncx2_cdf(x, df, l) for l in (0.0, 0.5, 1.568, 3.2, 12.8, 100.0)]
                if any(hi > lo + 1e-10 for lo, hi in zip(vals, vals[1:])):
                    failures.append(f"ordering violated at x={x}, df={df}")
        # quantile round trips
        for p in np.linspace(0.01, 0.99, 15):
            for df in (1.0, 4.0, 19.0):
                for ncp in (0.0, 1.568, 3.2, 12.8):
                    q = ncx2_quantile(float(p), df, ncp)
                    if abs(ncx2_cdf(q, df, ncp) - p) > 1e-8:
                        failures.append(f"round trip off at p={p:.2f}, df={df}, ncp={ncp}")
        # Monte Carlo cross-check of the CDF
        size = 1_000_000
        rng = np.random.default_rng(90)
        for ncp in (1.568, 3.2, 12.8):
            z = rng.standard_normal((size, 4))
            z[:, 0] += math.sqrt(ncp)
            sample = (z**2).sum(axis=1)
            for x in (2.0, 5.0, 10.0, 20.0):
                emp = float(np.mean(sample <= x))
                se = math.sqrt(max(emp * (1 - emp), 1e-9) / size)
                if abs(ncx2_cdf(x, 4.0, ncp) - emp) > 3 * se:
                    failures.append(f"MC cross-check off at x={x}, ncp={ncp}")
        _finish(9, "non-central chi-square CDF and quantile verification", failures,
                time.perf_counter() - start, budget=120.0)

    def test_criterion_10_deterministic_artifacts(self, tmp_path):
        failures = []
        sweep_cfg = ResemblanceConfig(c=0.7, M=2.0, alpha1=0.05, alpha2=0.10)
        jobs = [
            StudySpec("table1", B=5, ns=(50, 100), replications=20_000, seed=11, target_j=0.1),
            StudySpec("stability", B=5, ns=(20, 100), replications=20_000, seed=11),
            StudySpec("sweep", B=5, ns=(50,), cfg=sweep_cfg, replications=20_000, seed=11,
                      grid_points=6),
        ]
        for spec in jobs:
            outputs = []
            for tag, workers in (("a", 1), ("b", 4), ("c", 1)):
                out = run_study(replace(spec, workers=workers), tmp_path / f"{spec.study}_{tag}.csv")
                outputs.append(out.read_bytes())
            if not (outputs[0] == outputs[1] == outputs[2]):
                failures.append(f"{spec.study}: artifacts differ across reruns or worker counts")
        _finish(10, "study artifacts byte-identical across reruns and parallelism", failures)
