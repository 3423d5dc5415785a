import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from popres import special_functions
from popres.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_OVERLAP,
    EXIT_VALIDATION,
    load_config_file,
    main,
)
from popres.errors import ValidationError

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def reference_file(tmp_path):
    f = tmp_path / "ref.csv"
    f.write_text("category,prob\n" + "\n".join(f"{i},0.2" for i in range(1, 6)) + "\n")
    return f


@pytest.fixture
def snapshot_file(tmp_path):
    f = tmp_path / "t1.csv"
    f.write_text("category,count\n1,6\n2,9\n3,10\n4,11\n5,14\n")
    return f


class TestConfigFile:
    def test_parses_values_and_comments(self, tmp_path):
        f = tmp_path / "cfg.ini"
        f.write_text("# monitoring config\nc = 0.7\nM = 2.0  # multiplier\nalpha1=0.05\n")
        assert load_config_file(f) == {"c": 0.7, "m": 2.0, "alpha1": 0.05}

    def test_rejects_unknown_key(self, tmp_path):
        f = tmp_path / "cfg.ini"
        f.write_text("gamma = 0.5\n")
        with pytest.raises(ValidationError):
            load_config_file(f)

    def test_rejects_non_numeric(self, tmp_path):
        f = tmp_path / "cfg.ini"
        f.write_text("c = high\n")
        with pytest.raises(ValidationError):
            load_config_file(f)



class TestMonitorCommand:
    def test_text_output(self, capsys, reference_file, snapshot_file):
        code = main([
            "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--c", "0.7", "--alpha1", "0.05", "--alpha2", "0.10", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "t1" in out and "[green]" in out

    def test_json_output(self, capsys, reference_file, snapshot_file):
        code = main([
            "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--c", "0.7", "--alpha1", "0.05", "--alpha2", "0.10",
            "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["prs_region"] == "green"
        assert payload["n"] == 50

    def test_config_file_with_flag_override(self, capsys, tmp_path, reference_file, snapshot_file):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("c = 0.7\nalpha1 = 0.4\nalpha2 = 0.10\nseed = 3\n")
        code = main([
            "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--config", str(cfg), "--alpha1", "0.05", "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["alpha1"] == 0.05
        assert payload["seed"] == 3

    @pytest.mark.parametrize("value", ["inf", "nan", "1.7"])
    def test_config_file_non_integer_seed_exits_validation(
        self, capsys, tmp_path, reference_file, snapshot_file, value
    ):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"seed = {value}\n")
        code = main([
            "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--config", str(cfg),
        ])
        assert code == EXIT_VALIDATION
        assert "cfg.ini:1: seed must be an integer" in capsys.readouterr().err

    def test_history_dedupe_note(self, capsys, tmp_path, reference_file, snapshot_file):
        hist = tmp_path / "history.jsonl"
        argv = [
            "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--c", "0.7", "--alpha1", "0.05", "--alpha2", "0.10",
            "--history", str(hist),
        ]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        assert "duplicate" in capsys.readouterr().err
        assert len(hist.read_text().splitlines()) == 1

    def test_history_directory_exits_validation(self, capsys, tmp_path, reference_file, snapshot_file):
        code = main([
            "monitor", "--snapshot", str(snapshot_file), "--reference", str(reference_file),
            "--history", str(tmp_path),
        ])
        assert code == EXIT_VALIDATION
        assert "Is a directory" in capsys.readouterr().err

    def test_missing_snapshot_file(self, capsys, reference_file, tmp_path):
        code = main([
            "monitor", "--snapshot", str(tmp_path / "nope.csv"),
            "--reference", str(reference_file),
        ])
        assert code == EXIT_VALIDATION

    def test_malformed_snapshot(self, capsys, reference_file, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("category,count\n1,-3\n2,53\n3,0\n4,0\n5,0\n")
        code = main([
            "monitor", "--snapshot", str(bad), "--reference", str(reference_file),
        ])
        assert code == EXIT_VALIDATION
        # numpy reads these as object and text arrays rather than numbers
        for counts in ("[1180591620717411303424, 1, 2, 3, 4]", '[1, "3", 2, 4, 5]'):
            bad_json = tmp_path / "bad.json"
            bad_json.write_text(f'{{"counts": {counts}}}')
            capsys.readouterr()
            code = main([
                "monitor", "--snapshot", str(bad_json), "--reference", str(reference_file),
            ])
            assert code == EXIT_VALIDATION
            assert "counts must be numbers" in capsys.readouterr().err

    def test_empty_snapshot_file(self, capsys, reference_file, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code = main([
            "monitor", "--snapshot", str(empty), "--reference", str(reference_file),
        ])
        assert code == EXIT_VALIDATION

    def test_snapshot_above_ks_limit_exits_validation(self, capsys, reference_file, tmp_path):
        big = tmp_path / "big.csv"
        big.write_text("category,count\n" + "".join(f"{i},200000001\n" for i in range(1, 6)))
        code = main(["monitor", "--snapshot", str(big), "--reference", str(reference_file)])
        assert code == EXIT_VALIDATION
        assert "at most 1,000,000,000 counts" in capsys.readouterr().err


def test_cli_import_loads_neither_scipy_signal_nor_stats():
    # either module adds a large share of the command's start-up time
    code = "import sys, popres.cli; print(sorted(m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")})
    assert out.stdout.strip() == "[]"


class TestBoundariesCommand:
    def test_json_values(self, capsys, reference_file):
        code = main([
            "boundaries", "--reference", str(reference_file), "--n", "50",
            "--c", "0.7", "--alpha1", "0.05", "--alpha2", "0.10", "--format", "json",
        ])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["tau1"] == pytest.approx(0.07441, abs=5e-5)
        assert payload["tau2"] == pytest.approx(0.25722, abs=5e-5)

    def test_overlap_exit_code(self, capsys, reference_file):
        code = main([
            "boundaries", "--reference", str(reference_file), "--n", "50",
            "--M", "1.000000001", "--alpha1", "0.5", "--alpha2", "0.5",
        ])
        assert code == EXIT_OVERLAP

    def test_infeasible_tolerance(self, capsys, reference_file):
        code = main([
            "boundaries", "--reference", str(reference_file), "--n", "50",
            "--c", "1.0", "--M", "4.0",
        ])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_non_positive_n_exits_validation(self, capsys, reference_file, n):
        code = main([
            "boundaries", "--reference", str(reference_file), "--n", n, "--delta", "0.01",
        ])
        assert code == EXIT_VALIDATION
        assert f"sample size must be positive, got {n}" in capsys.readouterr().err

    def test_failed_quantile_exits_numerical(self, capsys, monkeypatch, reference_file):
        monkeypatch.setattr(special_functions, "chndtrix", lambda *args: math.nan)
        code = main(["boundaries", "--reference", str(reference_file), "--n", "50"])
        assert code == EXIT_NUMERICAL
        assert "forward check" in capsys.readouterr().err


class TestStudyCommand:
    def test_sweep_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "study", "--study", "sweep", "--out", str(out), "--n", "50", "--B", "5",
            "--replications", "2000", "--grid-points", "4",
            "--c", "0.7", "--alpha1", "0.05", "--alpha2", "0.10", "--seed", "1",
        ])
        assert code == EXIT_OK
        assert out.exists()
        assert "delta_v" in out.read_text()

    def test_study_requires_n(self, capsys, tmp_path):
        code = main([
            "study", "--study", "stability", "--out", str(tmp_path / "s.csv"), "--B", "5",
        ])
        assert code == EXIT_VALIDATION

    def test_sweep_needs_exactly_one_n(self, capsys, tmp_path):
        code = main([
            "study", "--study", "sweep", "--out", str(tmp_path / "s.csv"), "--B", "5",
            "--n-grid", "50,100", "--replications", "2000",
        ])
        assert code == EXIT_VALIDATION
        assert "sweep takes exactly one sample size" in capsys.readouterr().err

    def test_sweep_delta_override_reaches_boundaries(self, capsys, tmp_path):
        argv = ["study", "--study", "sweep", "--n", "50", "--B", "5",
                "--replications", "2000", "--grid-points", "4", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "default.csv")]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "delta.csv"), "--delta", "0.001"]) == EXIT_OK
        default = (tmp_path / "default.csv").read_text()
        delta = (tmp_path / "delta.csv").read_text()
        assert "# delta=0.001\n" in delta
        assert "# delta=0.001\n" not in default
        assert delta.splitlines()[-1] != default.splitlines()[-1]

    def test_sweep_rejects_grid_points_below_one(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        for points in ("0", "-1"):
            code = main([
                "study", "--study", "sweep", "--out", str(out), "--n", "50", "--B", "5",
                "--replications", "1000", "--grid-points", points,
            ])
            assert code == EXIT_VALIDATION
            assert "grid_points must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_n_and_n_grid_are_exclusive(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code = main([
            "study", "--study", "table1", "--out", str(out), "--B", "5",
            "--n", "77", "--n-grid", "50", "--replications", "1000",
        ])
        assert code == EXIT_VALIDATION
        assert "either --n or --n-grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--workers", "0"), ("--workers", "-3"), ("--target-j", "-0.5"),
        ("--threshold", "nan"), ("--threshold", "-1"),
    ])
    def test_rejects_bad_workers_and_target_j(self, capsys, tmp_path, flag, value):
        out = tmp_path / "t.csv"
        code = main([
            "study", "--study", "table1", "--out", str(out), "--B", "5",
            "--n", "50", "--replications", "1000", flag, value,
        ])
        assert code == EXIT_VALIDATION
        assert f"({flag})" in capsys.readouterr().err
        assert not out.exists()

    def test_n_grid_rejects_empty_entry(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code = main([
            "study", "--study", "table1", "--out", str(out), "--B", "5",
            "--n-grid", "50,,100", "--replications", "1000",
        ])
        assert code == EXIT_VALIDATION
        assert "--n-grid" in capsys.readouterr().err
        assert not out.exists()
