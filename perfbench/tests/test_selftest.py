"""Self-test of the benchmark: every output check can fail, and every run reports its metrics."""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import hostspeed
import workloads
from popres import cli

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def nudge(stdout: str, key: str, factor: float) -> str:
    payload = json.loads(stdout)
    payload[key] *= factor
    return json.dumps(payload)


@pytest.fixture
def monitor_op(tmp_path):
    feed = workloads.MonitorFeed(tmp_path, seed=7, tiny=True)
    history = tmp_path / "history.jsonl"
    row = workloads.PUBLISHED["n50_B5"][5]
    return feed._op(tmp_path / "snap", history, 1, "n50_B5", row[0], published=row, ks_seed=3)


def test_boundaries_check_catches_a_nudged_tau(tmp_path):
    feed = workloads.BoundariesGrid(tmp_path, seed=7, tiny=True)
    op = feed.warmup_ops[0]
    rc, out, _ = call(op.argv)
    assert checks.check_boundaries(rc, out, op.expect) == []
    for key in ("tau1", "tau2"):
        assert checks.check_boundaries(rc, nudge(out, key, 1 + 1e-6), op.expect)
        assert checks.check_boundaries(rc, nudge(out, key, 1 - 1e-6), op.expect)


def test_boundaries_check_demands_the_expected_exit_code(tmp_path):
    feed = workloads.BoundariesGrid(tmp_path, seed=7, tiny=True)
    ops = feed.make_pass(0)
    for op in ops:
        rc, out, _ = call(op.argv)
        assert checks.check_boundaries(rc, out, op.expect) == []
        wrong = 0 if rc != 0 else 4
        assert checks.check_boundaries(wrong, out, op.expect)
    assert {op.expect["exit"] for op in ops} >= {0, 4}


def test_monitor_check_catches_a_flipped_region(monitor_op):
    rc, out, err = call(monitor_op.argv)
    assert checks.check_monitor(rc, out, err, monitor_op.expect) == []
    flips = {"green": "red", "amber": "green", "red": "amber"}
    for key in ("prs_region", "lewis_region", "yn_region", "ks_region"):
        report = json.loads(out)
        report[key] = flips[report[key]]
        assert checks.check_monitor(rc, json.dumps(report), err, monitor_op.expect), key


def test_monitor_check_catches_a_wrong_statistic_or_tau(monitor_op):
    rc, out, err = call(monitor_op.argv)
    for key in ("prs_value", "psi_value", "ks_value"):
        assert checks.check_monitor(rc, nudge(out, key, 1 + 1e-6), err, monitor_op.expect), key
    assert checks.check_monitor(rc, nudge(out, "tau2", 1 + 1e-6), err, monitor_op.expect)


def test_monitor_check_holds_published_rows_to_the_paper(monitor_op):
    rc, out, err = call(monitor_op.argv)
    expect = dict(monitor_op.expect, published=dict(monitor_op.expect["published"], prs_region="amber"))
    assert any("published" in m for m in checks.check_monitor(rc, out, err, expect))


def test_monitor_check_catches_a_missed_or_spurious_duplicate(monitor_op):
    first = call(monitor_op.argv)
    again = call(monitor_op.argv)
    assert checks.check_monitor(*first, monitor_op.expect) == []
    assert checks.check_monitor(*again, monitor_op.expect)
    assert checks.check_monitor(*again, dict(monitor_op.expect, duplicate=True)) == []


def test_history_check_counts_appends_minus_duplicates(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text("{}\n{}\n\n{}\n")
    assert checks.check_history(path, 3) == []
    assert checks.check_history(path, 4)


@pytest.fixture
def study_artifacts(tmp_path):
    suite = workloads.StudySuite(tmp_path, seed=7, tiny=True)
    ops = suite.make_pass(0)
    for op in ops:
        rc, _, _ = call(op.argv)
        assert suite.check(op, SimpleNamespace(rc=rc)) == []
    assert suite.check_pass(ops, []) == {}
    return suite, ops


def test_study_check_catches_a_one_byte_artifact_change(study_artifacts):
    suite, ops = study_artifacts
    for study in ("table1", "stability", "sweep"):
        w1, w2 = (next(op for op in ops if op.expect["study"] == study and op.expect["workers"] == w)
                  for w in (1, 2))
        data = bytearray(w2.expect["out"].read_bytes())
        data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
        w2.expect["out"].write_bytes(bytes(data))
        assert checks.check_identical(study, w1.expect["out"].read_bytes(), bytes(data))
    assert suite.check_pass(ops, []).keys() == {3, 4, 5}


def test_study_check_applies_the_monte_carlo_bands(study_artifacts):
    _, ops = study_artifacts
    # mean_ratio_prs far outside 4 SE of 1; a sweep row that sums to 1.5
    for study, column in (("stability", 4), ("sweep", 1)):
        op = next(op for op in ops if op.expect["study"] == study)
        lines = op.expect["out"].read_text().splitlines()
        cells = lines[-1].split(",")
        cells[column] = repr(float(cells[column]) + 0.5)
        lines[-1] = ",".join(cells)
        assert checks.check_study(0, "\n".join(lines).encode(), op.expect), study


def test_host_speed_scales_by_the_reference_loop(monkeypatch):
    # a host twice as slow as the reference doubles the loop's time
    monkeypatch.setattr(hostspeed, "loop_s", lambda: 2 * hostspeed.REFERENCE_S)
    speed = hostspeed.HostSpeed()
    speed.begin_pass(3)
    assert speed.end_pass(1.0) == pytest.approx(0.5)
    speed.begin_pass()
    assert speed.end_pass(0.5, 2) == pytest.approx(0.5 ** 0.5)
    speed.begin_pass()
    assert speed.end_pass(0.0) == 1.0
    assert len(speed.samples) == 9


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_named_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "11", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in wanted}
    assert all(isinstance(v["value"], float) and np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        layers = result["metrics"]
        total = layers["cli.main.self_s"]["value"] + layers["trace.unattributed_s"]["value"] + sum(
            v["value"] for k, v in layers.items()
            if k.endswith(".self_s") and k.count(".") == 1)
        assert total == pytest.approx(layers["trace.wall_s"]["value"], abs=1e-6)


def test_without_popres_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "boundaries_grid", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
