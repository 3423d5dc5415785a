import functools
import hashlib
import json
import multiprocessing
import os
import shutil
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popres import reporting
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

from oracles import append_history_full_scan, ordered_values_dictreader, read_rows_dictreader

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


@functools.cache
def base_report():
    return monitor(snap("t1", TIMELINE_50_5["t1"][0]), uniform_reference(5), CFG)


def report_pool(size, labels=3):
    """Distinct reports: seed i under label L(i mod labels)."""
    return [replace(base_report(), label=f"L{i % labels}", seed=i) for i in range(size)]


def distinct_pool(size, labels=3):
    """``report_pool`` with a prs_value of its own for each report."""
    return [replace(report, prs_value=report.seed / 10) for report in report_pool(size, labels)]


def line(report, end="\n"):
    return json.dumps(asdict(report), sort_keys=True) + end


def outcome(append, report, path):
    """The ack, or the ``<history>:line`` of the corrupt line it rejected."""
    try:
        return append(report, path)
    except ValidationError as exc:
        where, _, _ = str(exc).partition(" (")
        return where.replace(str(path), "<history>")


def append_each(history, reports, barrier):
    barrier.wait(timeout=60)
    for report in reports:
        append_history(report, history)


def edit_index(idx, edit):
    index = json.loads(idx.read_text())
    edit(index["labels"])
    idx.write_text(json.dumps(index))


def shift_offsets(pairs, by):
    pairs[::2] = [offset + by for offset in pairs[::2]]


def shift_triples(triples, at, by):
    """Add ``by`` to item ``at`` of each (offset, ordinal, fingerprint) triple."""
    triples[at::3] = [value + by for value in triples[at::3]]


def edit_index_body(idx, edit):
    """Edit the sidecar's labels and write it as compactly as it was written, so its
    opening self-digest stays as it was while the bytes after it change."""
    raw = idx.read_bytes()
    index = json.loads(raw)
    edit(index["labels"])
    idx.write_bytes(json.dumps(index, separators=(",", ":")).encode())
    assert json.loads(idx.read_bytes())["self_sha256"] == index["self_sha256"]
    assert idx.read_bytes() != raw


def write_pair_sidecar(hist):
    """A sidecar as written before fingerprints and the self-digest: per label, offset and
    ordinal pairs, for a history of newline-ended report lines."""
    data = hist.read_bytes()
    labels, offset = {}, 0
    for ordinal, text in enumerate(data.splitlines(keepends=True), start=1):
        labels.setdefault(json.loads(text)["label"], []).extend((offset, ordinal))
        offset += len(text)
    index = {"length": len(data), "sha256": hashlib.sha256(data).hexdigest(),
             "lines": ordinal, "count": ordinal, "labels": labels}
    Path(f"{hist}.idx").write_text(json.dumps(index, separators=(",", ":")))


def count_loads(monkeypatch):
    """The texts ``json.loads`` is called on from now on."""
    parsed, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
    return parsed


# what a writer that does not know the sidecar may add to a history
EXTERNAL = st.one_of(
    st.tuples(st.integers(0, 5), st.sampled_from(["\n", "\r\n", "\r", ""])),
    st.sampled_from(["\n", "\r\n", "  \n", "{not json\n", "[1]\n", '{"label": "L0"}\n']),
)
HISTORY_OPS = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(0, 5)),
    st.tuples(st.just("external"), EXTERNAL),
    st.tuples(st.just("drop_sidecar")),
    st.tuples(st.just("truncate"), st.integers(1, 400)),
    st.tuples(st.just("edit_digit"), st.integers(0, 10**6)),
), max_size=20)


CATEGORY_NAMES = ["category", "Category", " CATEGORY "]
VALUE_NAMES = ["count", "COUNT ", "prob", " Prob"]
HEADER_NAMES = st.sampled_from(CATEGORY_NAMES + VALUE_NAMES + ["note", ""])
VALID = "valid"
CELLS = st.sampled_from([VALID] * 8 + ["1", "7", " 3 ", "0.25", "1e3", "0", "-1", "1.5", "nan", "inf", "x", ""])


@st.composite
def category_csv(draw):
    """Lines of a category CSV drawn near a valid table: a header of possibly
    repeated, reordered and extra names, rows that may be short or long, blank
    lines, and categories that may repeat or leave gaps."""
    core = [draw(st.sampled_from(CATEGORY_NAMES)), *draw(st.lists(st.sampled_from(VALUE_NAMES), min_size=1, max_size=2))]
    near = st.permutations(core + draw(st.lists(HEADER_NAMES, max_size=2)))
    header = draw(st.one_of(near, near, near, st.lists(HEADER_NAMES, max_size=4)))
    names = [h.strip().lower() for h in header]
    cats = draw(st.permutations(range(1, draw(st.sampled_from([3, 2, 4, 5, 3, 1])) + 1)))
    cats += draw(st.lists(st.integers(0, 6), max_size=1))

    def cell(name, cat):
        drawn = draw(CELLS)
        if name == "category":
            return str(cat)
        if drawn != VALID:
            return drawn
        return repr(1 / len(cats)) if name == "prob" else str(cat + 1)

    lines = [",".join(header)]
    for cat in cats:
        lines += [""] * draw(st.integers(0, 1))
        row = [cell(name, cat) for name in names]
        keep = draw(st.sampled_from([len(row)] * 6 + list(range(len(row) + 3))))
        lines.append(",".join(row[:keep] + [cell("", cat) for _ in range(keep - len(row))]))
    return [""] * draw(st.sampled_from([0] * 5 + [1])) + lines


def spelled_apart(lines):
    """The lines with each repeated raw header name padded by spaces until it is new."""
    if not lines or not lines[0]:
        return lines
    header = []
    for name in lines[0].split(","):
        while name in header:
            name += " "
        header.append(name)
    return [",".join(header)] + lines[1:]


def load_outcome(load, path):
    try:
        loaded = load(path)
    except ValidationError as exc:
        return "error", str(exc)
    if isinstance(loaded, Snapshot):
        return loaded.label, loaded.counts.counts.tolist()
    return "reference", loaded.probs.tolist()


def load_with_dictreader(load, path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reporting, "_read_rows", read_rows_dictreader)
        mp.setattr(reporting, "_ordered_values", ordered_values_dictreader)
        return load_outcome(load, path)


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

    @pytest.mark.parametrize("counts", [
        "1,2\n2,3\n3,inf",
        "1,2\n2,nan\n3,4",
        "1,1e308\n2,1e308",
    ], ids=["inf", "nan", "overflowing-sum"])
    def test_reference_counts_must_be_finite(self, tmp_path, counts):
        f = tmp_path / "ref.csv"
        f.write_text(f"category,count\n{counts}\n")
        with pytest.raises(ValidationError, match=r"ref\.csv: reference counts and their sum must be finite$"):
            load_reference(f)  # a numpy warning would fail under filterwarnings = error

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

    @settings(max_examples=400, deadline=None)
    @given(category_csv())
    def test_csv_loaders_agree_with_the_dictreader_oracle(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_text("\n".join(lines) + "\n")
            got = [load_outcome(load_reference, path), load_outcome(load_snapshot, path)]
            # the oracle is exact only for distinct raw header names
            path.write_text("\n".join(spelled_apart(lines)) + "\n")
            want = [load_with_dictreader(load_reference, path), load_with_dictreader(load_snapshot, path)]
        assert got == want

    @pytest.mark.parametrize("text", ["", "\n", "\ncategory,count\n1,2\n"])
    def test_csv_loaders_agree_on_empty_and_headless_files(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        for load in (load_reference, load_snapshot):
            got = load_outcome(load, path)
            assert got[0] == "error" and got == load_with_dictreader(load, path)

    def test_repeated_raw_header_name_reads_its_last_column(self, tmp_path):
        # DictReader kept one key per raw name, so the fields after a repeated
        # name took the next column's cells: count read 1, 2 and category 2, 1
        path = tmp_path / "s.csv"
        path.write_text("note,note,count,category,z\nx,y,5,1,2\nx,y,7,2,1\n")
        assert load_outcome(load_snapshot, path) == ("s", [5, 7])
        assert load_with_dictreader(load_snapshot, path) == ("s", [2, 1])


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

    def test_seed_is_recorded_and_changes_no_number(self):
        counts = TIMELINE_50_5["t4"][0]
        a, b = (monitor(snap("t4", counts), uniform_reference(5), CFG, seed=s) for s in (1, 2))
        assert (a.seed, b.seed) == (1, 2)
        assert replace(a, seed=0) == replace(b, seed=0)

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

    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no-sidecar"])
    def test_duplicate_is_not_acknowledged_before_a_later_corrupt_line(self, tmp_path, sidecar):
        hist = tmp_path / "history.jsonl"
        report = base_report()
        append_history(report, hist)
        if not sidecar:
            Path(f"{hist}.idx").unlink(missing_ok=True)
        with open(hist, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(ValidationError, match=r"history.jsonl:2: corrupt history line"):
            append_history(report, hist)

    def test_same_length_edit_of_another_label_is_rejected(self, tmp_path):
        hist = tmp_path / "history.jsonl"
        pool = report_pool(4, labels=2)
        for report in pool:
            append_history(report, hist)
        lines = hist.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"label"', b'"lab3l"')  # line 2, label L1
        hist.write_bytes(b"\n".join(lines))
        with pytest.raises(ValidationError, match=r"history.jsonl:2: corrupt history line"):
            append_history(pool[0], hist)  # label L0, equal to line 1

    def test_truncated_history_is_rescanned(self, tmp_path):
        hist = tmp_path / "history.jsonl"
        pool = report_pool(3)
        for report in pool:
            append_history(report, hist)
        hist.write_text(line(pool[0]))
        assert append_history(pool[2], hist) == HistoryAck(line_count=2)
        assert append_history(pool[0], hist) == HistoryAck(line_count=1, duplicate=True)
        assert read_history(hist) == [pool[0], pool[2]]

    @pytest.mark.parametrize("spoil", [
        lambda idx: idx.unlink(),
        lambda idx: idx.write_bytes(b"\x00garbage{"),
        lambda idx: idx.write_bytes(idx.read_bytes()[:40]),
        lambda idx: idx.write_text("[]"),
        lambda idx: edit_index(idx, lambda labels: shift_offsets(labels["L0"], 1)),
        lambda idx: edit_index(idx, lambda labels: labels.update(L0=labels["L1"], L1=labels["L0"])),
        lambda idx: edit_index(idx, lambda labels: shift_offsets(labels["L0"], 10**6)),
        lambda idx: edit_index(idx, lambda labels: labels.update(L0=["0", 1])),
    ], ids=["deleted", "garbage", "cut", "not-an-object", "offset-inside-a-line",
            "offsets-of-another-label", "offset-beyond-the-end", "offset-not-a-number"])
    def test_spoiled_sidecar_falls_back_to_a_full_scan(self, tmp_path, spoil):
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = report_pool(6, labels=2)
        for report in pool[:4]:
            append_history(report, hist)
        spoil(Path(f"{hist}.idx"))
        shutil.copyfile(hist, plain)
        for report in (pool[2], pool[4], pool[3], pool[5], pool[4]):
            assert append_history(report, hist) == append_history_full_scan(report, plain)
        assert hist.read_bytes() == plain.read_bytes()

    def test_append_by_a_writer_without_the_sidecar(self, tmp_path):
        hist = tmp_path / "history.jsonl"
        pool = report_pool(5, labels=2)
        append_history(pool[0], hist)
        append_history(pool[1], hist)
        with open(hist, "a") as fh:
            fh.write(line(pool[2]) + "\n")
        assert append_history(pool[2], hist) == HistoryAck(line_count=3, duplicate=True)
        assert append_history(pool[3], hist) == HistoryAck(line_count=4)
        with open(hist, "a") as fh:
            fh.write("{not json\n")
        # line 4 is blank, so the corrupt line is physical line 6
        with pytest.raises(ValidationError, match=r"history.jsonl:6: corrupt history line"):
            append_history(pool[4], hist)

    def test_external_last_line_without_newline(self, tmp_path):
        hist = tmp_path / "history.jsonl"
        pool = report_pool(3)
        append_history(pool[0], hist)
        with open(hist, "a") as fh:
            fh.write(line(pool[1], end=""))
        assert append_history(pool[1], hist) == HistoryAck(line_count=2, duplicate=True)
        assert append_history(pool[2], hist) == HistoryAck(line_count=3)
        assert hist.read_text() == "".join(line(r) for r in pool)
        assert read_history(hist) == pool

    @settings(max_examples=60, deadline=None)
    @given(HISTORY_OPS)
    def test_sidecar_agrees_with_a_full_scan(self, ops):
        pool = report_pool(6)
        with tempfile.TemporaryDirectory() as tmp:
            hist, plain = Path(tmp, "history.jsonl"), Path(tmp, "plain.jsonl")
            for op, *args in ops:
                if op == "append":
                    report = pool[args[0]]
                    ours = outcome(append_history, report, hist)
                    assert ours == outcome(append_history_full_scan, report, plain)
                elif op == "external":
                    text = args[0] if isinstance(args[0], str) else line(pool[args[0][0]], args[0][1])
                    for path in (hist, plain):
                        with open(path, "ab") as fh:
                            fh.write(text.encode())
                elif op == "drop_sidecar":
                    Path(f"{hist}.idx").unlink(missing_ok=True)
                elif hist.exists() and op == "truncate":
                    for path in (hist, plain):
                        os.truncate(path, max(0, path.stat().st_size - args[0]))
                elif hist.exists():  # same-length edit of one digit
                    data = bytearray(hist.read_bytes())
                    digits = [i for i, byte in enumerate(data) if chr(byte).isdigit()]
                    if digits:
                        at = digits[args[0] % len(digits)]
                        data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
                        hist.write_bytes(data)
                        plain.write_bytes(data)
                assert hist.exists() == plain.exists()
                if hist.exists():
                    assert hist.read_bytes() == plain.read_bytes()

    def test_append_parses_only_new_and_same_label_lines(self, tmp_path, monkeypatch):
        # 2,000 lines of 16 labels, 125 of each
        hist = tmp_path / "history.jsonl"
        base = base_report()
        hist.write_text("".join(line(replace(base, label=f"L{j % 16}", seed=j)) for j in range(2000)))
        parsed = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
        assert append_history(replace(base, label="L3", seed=-1), hist) == HistoryAck(line_count=2001)
        assert len(parsed) >= 2000  # no sidecar yet: every line
        with open(hist, "a") as fh:
            fh.write("".join(line(replace(base, label=f"L{j}", seed=-10 - j)) for j in range(3)))
        parsed.clear()
        assert append_history(replace(base, label="L5", seed=-2), hist) == HistoryAck(line_count=2005)
        assert len(parsed) <= 3 + 125 + 1  # new lines, label L5's lines, the sidecar
        parsed.clear()
        assert append_history(replace(base, label="L5", seed=5), hist) == HistoryAck(
            line_count=6, duplicate=True)
        assert len(parsed) <= 126 + 1

    def test_append_parses_only_new_lines_and_fingerprint_matches(self, tmp_path, monkeypatch):
        # 2,000 lines of 16 labels, each with its own prs_value
        hist = tmp_path / "history.jsonl"
        base = base_report()
        stored = [replace(base, label=f"L{j % 16}", seed=j, prs_value=j / 7) for j in range(2000)]
        hist.write_text("".join(line(report) for report in stored))
        parsed = count_loads(monkeypatch)
        assert append_history(replace(stored[3], seed=-1, prs_value=-1.0), hist) == HistoryAck(2001)
        assert len(parsed) == 2000  # no sidecar yet: every line
        with open(hist, "a") as fh:
            fh.write("".join(line(replace(base, label=f"L{j}", seed=-10 - j, prs_value=-10.0 - j))
                             for j in range(3)))
        parsed.clear()
        assert append_history(replace(stored[5], seed=-2, prs_value=-2.0), hist) == HistoryAck(2005)
        assert len(parsed) == 1 + 3  # the sidecar, the new lines
        parsed.clear()
        assert append_history(stored[5], hist) == HistoryAck(line_count=6, duplicate=True)
        assert len(parsed) == 1 + 1  # the sidecar, the one line of equal prs_value

    def test_sidecar_of_the_pair_format_is_stale_once(self, tmp_path, monkeypatch):
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = distinct_pool(6, labels=2)
        for report in pool[:4]:
            append_history(report, hist)
        write_pair_sidecar(hist)
        shutil.copyfile(hist, plain)
        # the old sidecar fails its self-digest unparsed, so the first append parses every
        # line; the rewritten one is parsed, with no line but one of equal prs_value
        for report, parses in ((pool[2], 4), (pool[4], 1), (pool[3], 1 + 1), (pool[5], 1)):
            parsed = count_loads(monkeypatch)
            ours = append_history(report, hist)
            assert len(parsed) == parses
            monkeypatch.undo()
            assert ours == append_history_full_scan(report, plain)
        assert hist.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("edit", [
        lambda labels: shift_triples(labels["L0"], 2, 1),
        lambda labels: labels.update(L0=labels["L1"], L1=labels["L0"]),
        lambda labels: shift_triples(labels["L0"], 0, 1),
    ], ids=["fingerprints", "offsets-of-another-label", "offset-inside-a-line"])
    def test_body_edited_under_its_digest_falls_back_to_a_full_scan(self, tmp_path, edit):
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = distinct_pool(6, labels=2)
        for report in pool[:4]:
            append_history(report, hist)
        edit_index_body(Path(f"{hist}.idx"), edit)
        shutil.copyfile(hist, plain)
        for report in (pool[2], pool[4], pool[3], pool[5], pool[4]):
            assert append_history(report, hist) == append_history_full_scan(report, plain)
        assert hist.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("stored, submitted, duplicate", [
        (0, 0.0, True),
        (-0.0, 0.0, True),
        (float("nan"), float("nan"), False),
        ("0.5", 0.5, False),
        ("x", "x", True),
    ], ids=["int-zero", "negative-zero", "nan", "string-and-float", "string"])
    def test_external_prs_value_matches_as_in_a_full_scan(self, tmp_path, stored, submitted,
                                                          duplicate):
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = report_pool(3, labels=1)
        append_history(pool[0], hist)
        shutil.copyfile(hist, plain)
        for path in (hist, plain):
            with open(path, "a") as fh:
                fh.write(line(replace(pool[1], prs_value=stored)))
        # the first append indexes the external line, the next two look it up by fingerprint
        acks = []
        for report in (pool[2], replace(pool[1], prs_value=submitted), replace(pool[1], prs_value=submitted)):
            acks.append(append_history(report, hist))
            assert acks[-1] == append_history_full_scan(report, plain)
        assert acks[1].duplicate == duplicate
        assert hist.read_bytes() == plain.read_bytes()

    def test_nan_read_back_equals_no_stored_line(self, tmp_path):
        # json parses every NaN to one float object, and a dataclass compares fields as a
        # tuple, which takes an identical object as equal: the prs_value test comes first
        hist = tmp_path / "history.jsonl"
        pool = report_pool(3, labels=1)
        append_history(pool[0], hist)
        with open(hist, "a") as fh:
            fh.write(line(replace(pool[1], prs_value=float("nan"))))
        # another process indexes the NaN line, so its fingerprint is not this process's
        proc = multiprocessing.get_context("spawn").Process(
            target=append_history, args=(pool[2], str(hist)))
        proc.start()
        proc.join(timeout=120)
        assert proc.exitcode == 0
        stored = read_history(hist)[1]
        assert append_history(stored, hist) == HistoryAck(4)
        assert append_history(stored, hist) == HistoryAck(5)

    def test_two_processes_append_overlapping_reports(self, tmp_path):
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = report_pool(30, labels=4)
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        procs = [ctx.Process(target=append_each, args=(str(hist), pool[:20], barrier)),
                 ctx.Process(target=append_each, args=(str(hist), pool[10:][::-1], barrier))]
        try:
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=120)
            assert [proc.exitcode for proc in procs] == [0, 0]
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.kill()
        assert sorted(report.seed for report in read_history(hist)) == list(range(30))
        shutil.copyfile(hist, plain)
        for report in (pool[12], replace(pool[0], seed=99)):
            assert append_history(report, hist) == append_history_full_scan(report, plain)


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

    def test_sweep_artifact_does_not_depend_on_the_config_number_type(self, tmp_path):
        digests = []
        for M in (2, 2.0):
            cfg = ResemblanceConfig(c=0.7, M=M, alpha1=0.05, alpha2=0.10)
            spec = StudySpec("sweep", B=5, ns=(50,), cfg=cfg, replications=70_000, seed=5, grid_points=4)
            digests.append(hashlib.sha256(run_study(spec, tmp_path / f"{M}.csv").read_bytes()).hexdigest())
        assert [d[:16] for d in digests] == ["505ec1b6a57eaca7"] * 2

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
