import json
from dataclasses import asdict

import numpy as np
import pytest

from popres.divergences import CategoryCounts, uniform_reference
from popres.errors import ValidationError
from popres.reporting import (
    HistoryAck,
    MonitoringReport,
    Snapshot,
    append_history,
    format_p_value,
    load_reference,
    load_snapshot,
    monitor,
    read_history,
    render_csv,
    render_text,
)
from popres.resemblance import ResemblanceConfig
from popres.simulation import StudySpec, run_study

# the worked monitoring configuration matching the published tables
CFG = ResemblanceConfig(c=0.7, M=2.0, alpha1=0.05, alpha2=0.10)

TIMELINE_50_5 = {
    "t1": ((6, 9, 10, 11, 14), "green"),
    "t2": ((4, 10, 11, 11, 14), "amber"),
    "t3": ((7, 8, 8, 10, 17), "amber"),
    "t4": ((3, 8, 12, 13, 14), "amber"),
    "t5": ((2, 9, 12, 13, 14), "amber"),
    "t6": ((2, 5, 13, 14, 16), "red"),
}


def snap(label, counts):
    return Snapshot(label=label, counts=CategoryCounts(np.array(counts)))


class TestLoaders:
    def test_reference_from_probs(self, tmp_path):
        f = tmp_path / "ref.csv"
        f.write_text("category,prob\n1,0.2\n2,0.2\n3,0.2\n4,0.2\n5,0.2\n")
        ref = load_reference(f)
        assert np.allclose(ref.probs, 0.2)

    def test_reference_from_counts(self, tmp_path):
        f = tmp_path / "ref.csv"
        f.write_text("category,count\n1,10\n2,30\n3,60\n")
        ref = load_reference(f)
        assert np.allclose(ref.probs, [0.1, 0.3, 0.6])

    def test_reference_bad_sum(self, tmp_path):
        f = tmp_path / "ref.csv"
        f.write_text("category,prob\n1,0.5\n2,0.49\n")
        with pytest.raises(ValidationError):
            load_reference(f)
        f.write_text("category,prob\n1,0.5\n2,0.6\n")
        with pytest.raises(ValidationError, match=r"ref\.csv: reference probabilities sum to 1\.1"):
            load_reference(f)

    def test_reference_duplicate_category(self, tmp_path):
        f = tmp_path / "ref.csv"
        f.write_text("category,prob\n1,0.5\n1,0.5\n")
        with pytest.raises(ValidationError):
            load_reference(f)

    def test_reference_missing_category(self, tmp_path):
        f = tmp_path / "ref.csv"
        f.write_text("category,prob\n1,0.5\n3,0.5\n")
        with pytest.raises(ValidationError):
            load_reference(f)

    def test_snapshot_from_csv(self, tmp_path):
        f = tmp_path / "week12.csv"
        f.write_text("category,count\n1,6\n2,9\n3,10\n4,11\n5,14\n")
        s = load_snapshot(f)
        assert s.label == "week12"
        assert s.counts.n == 50

    def test_snapshot_from_json(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"label": "t1", "counts": [6, 9, 10, 11, 14]}))
        s = load_snapshot(f)
        assert s.label == "t1"
        assert s.counts.B == 5

    def test_snapshot_negative_count(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("category,count\n1,-1\n2,51\n")
        with pytest.raises(ValidationError):
            load_snapshot(f)

    def test_snapshot_fractional_count(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("category,count\n1,1.5\n2,2\n")
        with pytest.raises(ValidationError):
            load_snapshot(f)

    @pytest.mark.parametrize("count,message", [
        ("1e20", "exceeds the int64 range"), ("inf", "must be finite"),
    ])
    def test_snapshot_count_beyond_int64(self, tmp_path, count, message):
        f = tmp_path / "s.csv"
        f.write_text(f"category,count\n1,{count}\n2,2\n")
        with pytest.raises(ValidationError, match=rf"s\.csv: .*{message}"):
            load_snapshot(f)
        # JSON has no inf literal, but 1e400 parses to inf
        f = tmp_path / "s.json"
        f.write_text(f'{{"label": "x", "counts": [{count.replace("inf", "1e400")}, 1, 2, 3, 4]}}')
        with pytest.raises(ValidationError, match=rf"s\.json: .*{message}"):
            load_snapshot(f)

    def test_snapshot_bad_json(self, tmp_path):
        f = tmp_path / "s.json"
        f.write_text("{not json")
        with pytest.raises(ValidationError):
            load_snapshot(f)


class TestMonitor:
    def test_published_first_snapshot(self):
        counts, _ = TIMELINE_50_5["t1"]
        report = monitor(snap("t1", counts), uniform_reference(5), CFG, seed=3)
        assert report.prs_value == pytest.approx(0.068, abs=0.001)
        assert report.prs_region == "green"
        assert report.psi_value == pytest.approx(0.072, abs=0.001)
        assert report.lewis_region == "green"
        assert report.yn_region == "green"
        assert report.ks_region == "green"
        assert report.tau1 == pytest.approx(0.07441, abs=5e-5)
        assert report.tau2 == pytest.approx(0.25722, abs=5e-5)

    def test_full_published_timeline(self):
        for label, (counts, expected) in TIMELINE_50_5.items():
            report = monitor(snap(label, counts), uniform_reference(5), CFG, seed=3)
            assert report.prs_region == expected, label

    def test_published_large_configuration(self):
        counts = (160, 170, 170, 178, 180, 210, 210, 220, 242, 260)
        report = monitor(snap("t4", counts), uniform_reference(10), CFG, seed=3)
        assert report.prs_value == pytest.approx(0.026, abs=0.001)
        assert report.prs_region == "red"
        assert report.lewis_region == "green"

    def test_published_widest_configuration(self):
        counts = (445, 455, 480, 480, 485, 485, 490, 495, 500, 500,
                  501, 502, 502, 510, 510, 520, 520, 530, 540, 550)
        report = monitor(snap("t3", counts), uniform_reference(20), CFG, seed=3)
        assert report.prs_value == pytest.approx(0.0025, abs=0.0001)
        assert report.prs_region == "green"

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            monitor(snap("x", (10, 10, 10)), uniform_reference(5), CFG)

    def test_json_round_trip_is_equal(self):
        report = monitor(snap("t1", TIMELINE_50_5["t1"][0]), uniform_reference(5), CFG)
        clone = MonitoringReport(**json.loads(json.dumps(asdict(report))))
        assert clone == report


class TestRendering:
    def test_p_value_floor(self):
        assert format_p_value(0.0005) == "<0.001"
        assert format_p_value(0.024) == "0.024"

    def test_text_contains_key_fields(self):
        report = monitor(snap("t6", TIMELINE_50_5["t6"][0]), uniform_reference(5), CFG)
        text = render_text(report)
        assert "t6" in text and "[red]" in text and "<0.001" in text

    def test_csv_has_header_and_row(self):
        report = monitor(snap("t1", TIMELINE_50_5["t1"][0]), uniform_reference(5), CFG)
        lines = render_csv(report).strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("label,")


class TestHistory:
    def test_append_read_and_dedupe(self, tmp_path):
        hist = tmp_path / "history.jsonl"
        r1 = monitor(snap("t1", TIMELINE_50_5["t1"][0]), uniform_reference(5), CFG)
        r2 = monitor(snap("t2", TIMELINE_50_5["t2"][0]), uniform_reference(5), CFG)
        assert append_history(r1, hist) == HistoryAck(line_count=1)
        assert append_history(r2, hist) == HistoryAck(line_count=2)
        assert append_history(r1, hist) == HistoryAck(line_count=1, duplicate=True)
        assert [r.label for r in read_history(hist)] == ["t1", "t2"]

    def test_same_label_new_content_is_appended(self, tmp_path):
        hist = tmp_path / "history.jsonl"
        r1 = monitor(snap("t1", TIMELINE_50_5["t1"][0]), uniform_reference(5), CFG)
        r1b = monitor(snap("t1", TIMELINE_50_5["t2"][0]), uniform_reference(5), CFG)
        append_history(r1, hist)
        assert append_history(r1b, hist) == HistoryAck(line_count=2)

    def test_timeline_persists_classifications(self, tmp_path):
        hist = tmp_path / "history.jsonl"
        for label, (counts, _) in TIMELINE_50_5.items():
            append_history(monitor(snap(label, counts), uniform_reference(5), CFG), hist)
        regions = [r.prs_region for r in read_history(hist)]
        assert regions == ["green", "amber", "amber", "amber", "amber", "red"]

    def test_corrupt_history_rejected(self, tmp_path):
        hist = tmp_path / "history.jsonl"
        hist.write_text("{broken\n")
        with pytest.raises(ValidationError):
            read_history(hist)

    def test_append_rejects_line_that_is_not_an_object(self, tmp_path):
        hist = tmp_path / "history.jsonl"
        hist.write_text("[1]\n")
        report = monitor(snap("t1", TIMELINE_50_5["t1"][0]), uniform_reference(5), CFG)
        with pytest.raises(ValidationError, match=r"history.jsonl:1: corrupt history line"):
            append_history(report, hist)
        assert hist.read_text() == "[1]\n"

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("tau2"),
        lambda d: d.update(schema=2),
    ], ids=["missing-field", "unknown-field"])
    def test_append_rejects_same_label_line_with_bad_fields(self, tmp_path, edit):
        hist = tmp_path / "history.jsonl"
        report = monitor(snap("t1", TIMELINE_50_5["t1"][0]), uniform_reference(5), CFG)
        entry = asdict(report)
        edit(entry)
        hist.write_text(json.dumps(entry) + "\n")
        with pytest.raises(ValidationError, match=r"history.jsonl:1: corrupt history line"):
            append_history(report, hist)

    @pytest.mark.parametrize("entry", [
        {"label": "other", "junk": 1},
        {"label": "other"},
    ], ids=["unknown-field", "missing-fields"])
    def test_append_rejects_other_label_line_with_bad_fields(self, tmp_path, entry):
        # a line read_history rejects is rejected whatever its label
        hist = tmp_path / "history.jsonl"
        hist.write_text(json.dumps(entry) + "\n")
        report = monitor(snap("t1", TIMELINE_50_5["t1"][0]), uniform_reference(5), CFG)
        with pytest.raises(ValidationError, match=r"history.jsonl:1: corrupt history line"):
            append_history(report, hist)
        with pytest.raises(ValidationError, match=r"history.jsonl:1: corrupt history line"):
            read_history(hist)
        assert hist.read_text() == json.dumps(entry) + "\n"

    def test_append_accepts_line_without_timestamp(self, tmp_path):
        # timestamp has a default, so read_history accepts a line without it
        hist = tmp_path / "history.jsonl"
        entry = asdict(monitor(snap("t2", TIMELINE_50_5["t2"][0]), uniform_reference(5), CFG))
        del entry["timestamp"]
        hist.write_text(json.dumps(entry) + "\n")
        report = monitor(snap("t1", TIMELINE_50_5["t1"][0]), uniform_reference(5), CFG)
        assert append_history(report, hist) == HistoryAck(line_count=2)
        assert [r.label for r in read_history(hist)] == ["t2", "t1"]


    def test_same_label_line_without_timestamp_is_a_duplicate(self, tmp_path):
        # a missing timestamp reads as None, so it equals a report without one
        hist = tmp_path / "history.jsonl"
        report = monitor(snap("t1", TIMELINE_50_5["t1"][0]), uniform_reference(5), CFG)
        assert report.timestamp is None
        entry = asdict(report)
        del entry["timestamp"]
        hist.write_text(json.dumps(entry) + "\n")
        assert append_history(report, hist) == HistoryAck(line_count=1, duplicate=True)
        assert hist.read_text() == json.dumps(entry) + "\n"

    def test_append_after_last_line_without_newline(self, tmp_path):
        hist = tmp_path / "history.jsonl"
        r1 = monitor(snap("t1", TIMELINE_50_5["t1"][0]), uniform_reference(5), CFG)
        r2 = monitor(snap("t2", TIMELINE_50_5["t2"][0]), uniform_reference(5), CFG)
        append_history(r1, hist)
        hist.write_text(hist.read_text().rstrip("\n"))
        assert append_history(r2, hist) == HistoryAck(line_count=2)
        assert read_history(hist) == [r1, r2]


class TestRunStudy:
    def test_sweep_artifact(self, tmp_path):
        out = run_study(
            StudySpec("sweep", B=5, ns=(50,), cfg=CFG, replications=2000, seed=1, grid_points=6),
            tmp_path / "sweep.csv",
        )
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        assert any("study=sweep" in l for l in meta)
        assert body[0] == "delta_v,p_r1,p_r2,p_r3"
        assert len(body) == 7
        probs = [sum(float(v) for v in l.split(",")[1:]) for l in body[1:]]
        assert all(abs(s - 1.0) < 1e-12 for s in probs)

    def test_table1_artifact(self, tmp_path):
        out = run_study(
            StudySpec("table1", B=5, ns=(20, 50), replications=5000, seed=1),
            tmp_path / "t1.csv",
        )
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "n,B,target_j,estimate,std_error"
        assert len(body) == 3

    def test_stability_artifact(self, tmp_path):
        out = run_study(
            StudySpec("stability", B=5, ns=(100,), replications=5000, seed=1),
            tmp_path / "s.csv",
        )
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 2

    def test_reruns_are_byte_identical(self, tmp_path):
        spec = StudySpec("sweep", B=5, ns=(50,), cfg=CFG, replications=4000, seed=9,
                         grid_points=4)
        a = run_study(spec, tmp_path / "a.csv").read_bytes()
        b = run_study(spec, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_unknown_study(self, tmp_path):
        with pytest.raises(ValidationError):
            StudySpec("nope", B=5, ns=(50,))

    @pytest.mark.parametrize("study,ns", [("stability", ()), ("sweep", (50, 100)), ("table1", (0,))])
    def test_spec_rejects_bad_sample_sizes(self, study, ns):
        with pytest.raises(ValidationError):
            StudySpec(study, B=5, ns=ns)

    @pytest.mark.parametrize("field,value", [
        ("target_j", -0.5), ("target_j", float("nan")), ("workers", 0), ("workers", -3),
        ("threshold", float("nan")), ("threshold", -1.0), ("threshold", 0.0),
        ("threshold", float("inf")),
    ])
    def test_spec_rejects_bad_settings(self, field, value):
        with pytest.raises(ValidationError, match=field):
            StudySpec("table1", B=5, ns=(50,), **{field: value})
