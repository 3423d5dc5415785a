"""Seeded inputs, operation lists and checks of the three workloads.

A workload writes its own input files, turns them into ``popres`` argument
lists (one ``Op`` per ``cli.main`` call) and checks every result against the
oracles in ``checks``.  Pass ``i`` of a run draws its inputs from the stream
``(seed, workload, i)``, so the same seed gives the same inputs and no pass
repeats the inputs of another: a result cache inside popres cannot hit
across passes, only within one where the workload repeats work on purpose.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

# The configuration that reproduces the published monitoring tables
# (tau1, tau2) = (0.07441, 0.25722) at (50, 5) and (0.03063, 0.04890) at (500, 10).
MONITOR_CFG = {"c": 0.7, "M": 2.0, "alpha1": 0.05, "alpha2": 0.10}
PUBLISHED = {
    "n50_B5": [  # counts, psi, lewis, yn, prs, prs region
        ((6, 9, 10, 11, 14), 0.072, "green", "green", 0.068, "green"),
        ((4, 10, 11, 11, 14), 0.141, "amber", "green", 0.108, "amber"),
        ((7, 8, 8, 10, 17), 0.114, "amber", "green", 0.132, "amber"),
        ((3, 8, 12, 13, 14), 0.227, "amber", "green", 0.164, "amber"),
        ((2, 9, 12, 13, 14), 0.310, "red", "green", 0.188, "amber"),
        ((2, 5, 13, 14, 16), 0.426, "red", "amber", 0.300, "red"),
    ],
    "n500_B10": [
        ((35, 40, 45, 45, 47, 50, 55, 58, 60, 65), 0.032, "green", "green", 0.032, "amber"),
        ((40, 45, 45, 45, 47, 48, 55, 55, 60, 60), 0.017, "green", "green", 0.018, "green"),
        ((35, 36, 42, 43, 44, 44, 60, 60, 61, 75), 0.060, "green", "amber", 0.062, "red"),
        ((20, 35, 35, 40, 40, 62, 65, 65, 65, 73), 0.131, "amber", "red", 0.116, "red"),
    ],
}
# label, n, B, first submissions per pass, exact resubmissions per pass.
# 40 operations, 40/30/25/5 % by label: the p50 falls inside the n500 block
# and the p90 inside the n2000 block, away from the edges where the latency
# jumps from one label to the next.
MONITOR_LABELS = (("n50_B5", 50, 5, 14, 2), ("n500_B10", 500, 10, 11, 1),
                  ("n2000_B10", 2000, 10, 9, 1), ("n10000_B20", 10000, 20, 2, 0))
# The pre-grown history interleaves the four fed labels with twelve retired
# ones, as a history shared across segments would: every append parses all
# lines and re-hashes those of its own label.
HISTORY_LINES = 2000
HISTORY_LABELS = 16
STUDY_K = 2 * 32768  # two sampler chunks, so --workers 2 has work for both threads
NORMAL_NCP_CEILING = 1400.0  # ncx2_quantile fails or loses accuracy for ncp in (~1440, 2000]


@dataclass
class Op:
    argv: list[str]
    expect: dict = field(default_factory=dict)


def _write_csv(path: Path, column: str, values) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"category,{column}\n" + "".join(f"{j},{v!r}\n" for j, v in enumerate(values, 1)))


def _uniform_reference(directory: Path, B: int) -> tuple[np.ndarray, Path]:
    q = np.full(B, 1.0 / B)
    path = directory / f"uniform_B{B}.csv"
    if not path.exists():
        _write_csv(path, "prob", [float(v) for v in q])
    return q, path


def _config_flags(cfg: dict) -> list[str]:
    return ["--c", repr(cfg["c"]), "--M", repr(cfg["M"]),
            "--alpha1", repr(cfg["alpha1"]), "--alpha2", repr(cfg["alpha2"])]


class Workload:
    """What run.py needs of a workload; one pass is a fixed list of operations."""

    name = ""
    min_passes = 1
    pooled_latency = True  # latency percentiles over every call of the run
    # how strongly pass times follow the reference loop's (hostspeed.py); each
    # workload's value is its fitted slope, rounded
    host_sensitivity = 1.0
    warmup_ops: list[Op] = []

    def __init__(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed

    def setup_argv(self) -> list[str]:
        """The warm-up command a fresh set-up probe finishes."""
        return self.warmup_ops[0].argv

    def pass_dir(self, index: int) -> Path:
        directory = self.work / f"pass{index}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        return directory

    def check_pass(self, ops: list[Op], results) -> dict[int, list[str]]:
        """Checks that span the pass, as {operation index: failures}."""
        return {}

    def throughput(self, ops: list[Op], results, wall: float) -> float:
        return len(ops) / wall

    def legs(self, ops: list[Op], results) -> dict[str, float]:
        """Named parts of the pass wall time, reported on the info line."""
        return {}

    def finish_pass(self, index: int) -> None:
        shutil.rmtree(self.work / f"pass{index}", ignore_errors=True)


class MonitorFeed(Workload):
    """One ``popres monitor --history`` call per snapshot, closed loop, one client."""

    name = "monitor_feed"
    host_sensitivity = 0.6  # fitted 0.59: the numpy sampler drifts less than the loop

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        super().__init__(work, seed)
        # three passes give 120 latency samples, so the p90 has 12 beyond it
        self.min_passes = 1 if tiny else 3
        self.labels = MONITOR_LABELS[:2] if tiny else MONITOR_LABELS
        self.references = {}
        for label, n, B, _, _ in self.labels:
            q, path = _uniform_reference(work, B)
            bounds = checks.boundaries_oracle(q, n, **MONITOR_CFG)
            self.references[label] = (q, path, bounds, checks.yn_oracle(n, B))
        self.history_lines = 50 if tiny else HISTORY_LINES
        self.history_template = work / "history_template.jsonl"
        self._write_history_template(np.random.default_rng([seed, 0]))
        self.warmup_ops = self._warmup()

    def _write_history_template(self, rng) -> None:
        """Earlier reports of the fed labels and of retired ones, as ``append_history`` scans them."""
        lines = []
        for j in range(self.history_lines):
            series = j % HISTORY_LABELS
            fed, n, B, _, _ = self.labels[series % len(self.labels)]
            label = fed if series < len(self.labels) else f"retired{series:02d}_{fed}"
            q, _, bounds, (tau_red, tau_green) = self.references[fed]
            counts = rng.multinomial(n, q)
            ph = counts / n
            nz = ph > 0
            prs = float(np.sum((ph - q) ** 2 / q))
            psi = float(np.sum((ph[nz] - q[nz]) * np.log(ph[nz] / q[nz])))
            p_ks = float(rng.integers(1, 10_002)) / 10_001
            lines.append(json.dumps({
                "label": label, "n": n, "B": B, "delta": bounds["delta"],
                "lambda_sup": bounds["lambda_sup"], "tau1": bounds["tau1"], "tau2": bounds["tau2"],
                "prs_value": prs, "prs_region": checks.rag_three(prs, bounds["tau1"], bounds["tau2"]),
                "psi_value": psi, "lewis_region": checks.rag_three(psi, 0.1, 0.25),
                "yn_region": "red" if psi > tau_red else ("green" if psi < tau_green else "amber"),
                "ks_value": float(np.max(np.abs(np.cumsum(ph) - np.cumsum(q)))),
                "ks_p_value": p_ks, "ks_region": "red" if p_ks < 0.01 else ("green" if p_ks > 0.1 else "amber"),
                "config": dict(MONITOR_CFG, delta_override=None),
                "seed": 1_000_000 + j,  # never a seed the feed itself uses
                "timestamp": f"2025-{1 + j % 12:02d}-{1 + j % 28:02d}T00:00:{j % 60:02d}",
            }, sort_keys=True))
        self.history_template.write_text("\n".join(lines) + "\n")

    def _snapshot(self, directory: Path, k: int, label: str, counts, as_json: bool) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        if as_json:
            path = directory / f"s{k:03d}.json"
            path.write_text(json.dumps({"label": label, "counts": [int(c) for c in counts],
                                        "timestamp": f"2026-03-01T12:{k // 60:02d}:{k % 60:02d}"}))
        else:  # a CSV snapshot takes its label from the file name
            path = directory / f"s{k:03d}" / f"{label}.csv"
            _write_csv(path, "count", [int(c) for c in counts])
        return path

    def _op(self, directory: Path, history: Path, k: int, label: str, counts,
            published=None, ks_seed: int = 0) -> Op:
        q, ref, bounds, yn = self.references[label]
        path = self._snapshot(directory, k, label, counts, as_json=k % 2 == 1)
        argv = ["monitor", "--snapshot", str(path), "--reference", str(ref), *_config_flags(MONITOR_CFG),
                "--seed", str(ks_seed), "--format", "json"]
        if history is not None:
            argv += ["--history", str(history)]
        expect = {"label": label, "op": k, "counts": [int(c) for c in counts], "q": q,
                  "bounds": bounds, "yn": yn, "duplicate": False}
        if published:
            _, psi, lewis, yn_region, prs, prs_region = published
            expect["published"] = {"psi_value": psi, "prs_value": prs, "lewis_region": lewis,
                                   "yn_region": yn_region, "prs_region": prs_region}
        return Op(argv, expect)

    def _warmup(self) -> list[Op]:
        directory = self.work / "warmup"
        return [self._op(directory, None, k, label, PUBLISHED["n50_B5"][0][0] if B == 5 else
                         np.full(B, n // B), ks_seed=k)
                for k, (label, n, B, _, _) in enumerate(self.labels)]

    def make_pass(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 1, index])
        directory = self.pass_dir(index)
        history = directory / "history.jsonl"
        shutil.copyfile(self.history_template, history)
        firsts = []  # (label, counts, published row)
        for label, n, B, quota, _ in self.labels:
            rows = PUBLISHED.get(label, [])
            firsts += [(label, row[0], row) for row in rows]
            q, _, bounds, _ = self.references[label]
            for level in range(quota - len(rows)):
                firsts.append((label, self._drifted(rng, n, q, bounds["delta"], level % 3), None))
        order = rng.permutation(len(firsts))
        ops = [self._op(directory, history, k, *firsts[j], ks_seed=1000 * index + k)
               for k, j in enumerate(order)]
        # exact resubmissions, each placed somewhere after its original
        for label, _, _, _, resubmits in self.labels:
            candidates = [op for op in ops if op.expect["label"] == label and not op.expect["duplicate"]]
            for pick in rng.choice(len(candidates), size=resubmits, replace=False):
                source = candidates[int(pick)]
                after = next(i for i, op in enumerate(ops) if op is source) + 1
                ops.insert(int(rng.integers(after, len(ops) + 1)),
                           Op(source.argv, dict(source.expect, duplicate=True)))
        self._pass_history = (history, self.history_lines + sum(not op.expect["duplicate"] for op in ops))
        return ops

    @staticmethod
    def _drifted(rng, n: int, q: np.ndarray, delta: float, level: int) -> np.ndarray:
        """Counts from a population shifted by 0, ~1.5 or ~4 tolerances, so every region occurs."""
        B = q.size
        signs = np.zeros(B)
        signs[: B // 2], signs[B - B // 2:] = -1.0, 1.0
        shift = (0.0, rng.uniform(1.0, 2.0), rng.uniform(3.0, 5.0))[level] * delta
        p = q + min(shift, 0.9 * float(np.min(q))) * rng.permutation(signs)
        return rng.multinomial(n, p / p.sum())

    def check(self, op: Op, result) -> list[str]:
        return checks.check_monitor(result.rc, result.out, result.err, op.expect)

    def check_pass(self, ops: list[Op], results) -> dict[int, list[str]]:
        history, expected = self._pass_history
        failures = checks.check_history(history, expected)
        return {len(ops) - 1: failures} if failures else {}


class BoundariesGrid(Workload):
    """One ``popres boundaries --format json`` call per distinct configuration."""

    name = "boundaries_grid"
    host_sensitivity = 1.0  # fitted 1.04: interpreted float arithmetic, like the loop

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        super().__init__(work, seed)
        self.per_pass = 12 if tiny else 100
        self.warmup_ops = self._warmup()

    def _warmup(self) -> list[Op]:
        q, ref = _uniform_reference(self.work, 10)
        cfg = {"c": 0.7, "M": 2.0, "alpha1": 0.05, "alpha2": 0.10}
        return [Op(["boundaries", "--reference", str(ref), "--n", str(n), *_config_flags(cfg),
                    "--format", "json"], checks.boundaries_oracle(q, n, **cfg)) for n in (500, 20_000)]

    def _reference(self, rng, directory: Path, k: int, B: int, skewed: bool):
        if not skewed:
            return _uniform_reference(self.work, B)
        counts = rng.integers(20, 1000, size=B).astype(float)
        path = directory / f"ref{k:03d}.csv"
        _write_csv(path, "count", [int(c) for c in counts])
        return counts / counts.sum(), path

    def make_pass(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 2, index])
        directory = self.pass_dir(index)
        # two thirds recommended-delta configurations; one third --delta
        # overrides, of which one in six breaks the M*delta constraint
        n_delta = self.per_pass // 3
        n_overlap = n_delta - n_delta // 6
        kinds = ["normal"] * (self.per_pass - n_delta) + ["overlap"] * n_overlap \
            + ["infeasible"] * (n_delta // 6)
        # the overlap configurations do most of the work, and their cost rises
        # with the non-centrality: one per stratum of its range keeps the cost
        # of a pass nearly the same from pass to pass
        strata = iter((rng.permutation(n_overlap) + rng.uniform(size=n_overlap)) / n_overlap)
        ops = [self._config(rng, directory, k, kind, next(strata) if kind == "overlap" else None)
               for k, kind in enumerate(kinds)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def _config(self, rng, directory: Path, k: int, kind: str, stratum) -> Op:
        while True:
            B = int(rng.integers(2, 61))
            q, ref = self._reference(rng, directory, k, B, skewed=k % 2 == 1)
            # alpha pairs either way round, c and M over the practical range; with
            # M <= 3 and c <= 1.5 the largest recommended-delta ncp is
            # M^2 c^2 (B - 1) < 1400, below the ncx2 defect window
            c, alpha1, alpha2 = (float(v) for v in rng.uniform([0.3, 0.01, 0.01], [1.5, 0.2, 0.2]))
            delta = None
            if kind == "normal":
                M = float(rng.uniform(1.2, 3.0))
                n = int(round(10 ** rng.uniform(np.log10(20), 6)))
            elif kind == "infeasible":
                M = float(rng.uniform(1.3, 3.0))
                delta = float(np.min(q)) * float(rng.uniform(1.05, 1.6)) / M
                n = int(round(10 ** rng.uniform(2, 5)))
            else:  # both quantiles' ncp in the thousands: the modal-start branch
                M = float(rng.uniform(1.3, 3.0))
                delta = float(np.min(q)) * float(rng.uniform(0.1, 0.9)) / M
                lam = 2100.0 + 2900.0 * stratum
                n = max(20, int(round(lam / checks.lambda_sup(q, 1, delta))))
            expect = checks.boundaries_oracle(q, n, c, M, alpha1, alpha2, delta)
            if checks.ambiguous(expect):
                continue
            if kind == "normal" and (expect["exit"] == 2 or expect["ncp_max"] > NORMAL_NCP_CEILING):
                continue
            if kind == "overlap" and not (expect["exit"] == 4 and expect["lambda_sup"] > 2050.0):
                continue
            if kind == "infeasible" and expect["exit"] != 2:
                continue
            argv = ["boundaries", "--reference", str(ref), "--n", str(n),
                    *_config_flags({"c": c, "M": M, "alpha1": alpha1, "alpha2": alpha2})]
            if delta is not None:
                argv += ["--delta", repr(delta)]
            return Op(argv + ["--format", "json"], expect)

    def check(self, op: Op, result) -> list[str]:
        return checks.check_boundaries(result.rc, result.out, op.expect)


class StudySuite(Workload):
    """The three ``popres study`` commands at ``--workers 1``, then at ``--workers 2``."""

    name = "study_suite"
    pooled_latency = False  # six calls per pass: percentiles are taken per pass
    host_sensitivity = 0.5  # fitted 0.48: scipy's binomial quantiles, on two threads in one leg

    def __init__(self, work: Path, seed: int, tiny: bool) -> None:
        super().__init__(work, seed)
        self.K = 2048 if tiny else STUDY_K
        self.sweep_points = 2 if tiny else 4
        work.mkdir(parents=True, exist_ok=True)
        self.warmup_ops = [self._op(work / "warmup_sweep.csv", "sweep", 2, seed, 2048, 2)]

    def _op(self, out: Path, study: str, workers: int, seed: int, K: int, points: int) -> Op:
        common = ["--replications", str(K), "--seed", str(seed), "--workers", str(workers), "--out", str(out)]
        if study == "table1":
            grid = [50, 500]
            argv = ["study", "--study", "table1", "--B", "10", "--target-j", "0.1"]
        elif study == "stability":
            grid = [20, 10_000]
            argv = ["study", "--study", "stability", "--B", "10"]
        else:
            grid = list(range(points))
            argv = ["study", "--study", "sweep", "--n", "50", "--B", "5", "--grid-points", str(points),
                    "--alpha1", "0.05", "--alpha2", "0.10"]
        if study != "sweep":
            argv += ["--n-grid", ",".join(map(str, grid))]
        expect = {"study": study, "K": K, "rows": len(grid), "workers": workers,
                  "rows_sampled": K * len(grid), "out": out}
        return Op(argv + common, expect)

    def make_pass(self, index: int) -> list[Op]:
        directory = self.pass_dir(index)
        seed = self.seed * 1000 + index
        return [self._op(directory / f"{study}_w{workers}.csv", study, workers, seed, self.K, self.sweep_points)
                for workers in (1, 2) for study in ("table1", "stability", "sweep")]

    def check(self, op: Op, result) -> list[str]:
        out = op.expect["out"]
        artifact = out.read_bytes() if out.exists() else None
        return checks.check_study(result.rc, artifact, op.expect)

    def check_pass(self, ops: list[Op], results) -> dict[int, list[str]]:
        failures = {}
        for i, op in enumerate(ops):
            if op.expect["workers"] != 2:
                continue
            first = next(o for o in ops if o.expect["study"] == op.expect["study"] and o.expect["workers"] == 1)
            read = [o.expect["out"].read_bytes() if o.expect["out"].exists() else None for o in (first, op)]
            messages = checks.check_identical(op.expect["study"], *read)
            if messages:
                failures[i] = messages
        return failures

    def throughput(self, ops: list[Op], results, wall: float) -> float:
        """Multinomial rows sampled per second over both legs; the --workers 2 leg
        alone (about 3 s a pass) spreads twice as much from run to run."""
        return sum(op.expect["rows_sampled"] for op in ops) / wall

    def legs(self, ops: list[Op], results) -> dict[str, float]:
        return {f"study_w{w}_s": sum(r.latency for op, r in zip(ops, results) if op.expect["workers"] == w)
                for w in (1, 2)}


WORKLOADS = {w.name: w for w in (MonitorFeed, BoundariesGrid, StudySuite)}
