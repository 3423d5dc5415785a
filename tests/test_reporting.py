import base64
import functools
import hashlib
import json
import math
import multiprocessing
import os
import random
import re
import shutil
import sys
import tempfile
from array import array
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popres import history, reporting
from popres.divergences import CategoryCounts, uniform_reference
from popres.errors import ValidationError
from popres.history import HistoryAck, append_history, read_history
from popres.reporting import (
    MonitoringReport,
    Snapshot,
    format_p_value,
    load_reference,
    load_snapshot,
    monitor,
    render_csv,
    render_text,
)
from popres.resemblance import ResemblanceConfig
from popres.simulation import StudySpec, run_study

from oracles import (
    append_history_full_scan,
    history_lines_finditer,
    ordered_values_dictreader,
    read_rows_dictreader,
)

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


def sealed_object(index):
    """A sidecar as sealed before the one-line header: ``index`` written compactly as one
    JSON object, opened by a member holding the SHA-256 of the rest."""
    body = json.dumps(index, separators=(",", ":")).encode()[1:]
    return b'{"self_sha256":"%s",%s' % (hashlib.sha256(body).hexdigest().encode(), body)


def split_sidecar(raw):
    """A sidecar's ``length``, header and triples.  Its first line is the SHA-256 hex of the
    history's first ``length`` bytes followed by the body, a space and ``length``.  The body
    is a one-line JSON header whose ``labels`` lists the labels in the order they first
    occur, then one int64 (offset, position of the label in ``labels``, fingerprint) triple
    per report line in file order, 24 bytes each in this machine's byte order."""
    seal, _, body = raw.partition(b"\n")
    head, _, payload = body.partition(b"\n")
    items = array("q", payload).tolist()
    assert len(items) % 3 == 0
    triples = [items[i:i + 3] for i in range(0, len(items), 3)]
    return int(seal.split(b" ")[1]), json.loads(head), triples


def sidecar(data, index, triples):
    """``split_sidecar`` undone and sealed over the history bytes ``data``; a triple of
    fewer than three items is packed as it is, so the payload is short."""
    body = (json.dumps(index, separators=(",", ":")).encode() + b"\n"
            + array("q", [item for triple in triples for item in triple]).tobytes())
    return b"%s %d\n" % (hashlib.sha256(data + body).hexdigest().encode(), len(data)) + body


def history_bytes(idx):
    return Path(str(idx)[:-len(".idx")]).read_bytes()


def edited(idx, edit):
    """The sidecar ``idx`` sealed again after ``edit`` changed its labels' triples, given as
    a dict of each label's (offset, position, fingerprint) lists in file order."""
    length, index, triples = split_sidecar(idx.read_bytes())
    edit({name: [t for t in triples if t[1] == at] for at, name in enumerate(index["labels"])})
    return sidecar(history_bytes(idx)[:length], index, triples)


def edit_index(idx, edit):
    """Edit the sidecar's labels' triples and write its body without the digest's line."""
    idx.write_bytes(edited(idx, edit).partition(b"\n")[2])


def shift_triples(triples, at, by):
    """Add ``by`` to item ``at`` of each (offset, position, fingerprint) triple."""
    for triple in triples:
        triple[at] += by


def swap_offsets(mine, theirs):
    """Swap the offsets of the triples of two labels, pair by pair."""
    for a, b in zip(mine, theirs):
        a[0], b[0] = b[0], a[0]


def label_triples(index, triples, name):
    """The stored (offset, position, fingerprint) triples of the label ``name``."""
    return [triple for triple in triples if triple[1] == index["labels"].index(name)]


def offsets_as_text(triples):
    """Make the bytes of each triple's offset the JSON text ``["0", 1]``."""
    for triple in triples:
        triple[0] = int.from_bytes(b'["0", 1]', sys.byteorder)


def edit_index_body(idx, edit):
    """Edit the sidecar's labels' triples and keep its digest's line, so the digest stays
    as it was while the bytes after it change."""
    raw = idx.read_bytes()
    idx.write_bytes(raw.partition(b"\n")[0] + b"\n" + edited(idx, edit).partition(b"\n")[2])
    assert idx.read_bytes().partition(b"\n")[0] == raw.partition(b"\n")[0]
    assert idx.read_bytes() != raw


def reseal_index(idx, edit):
    """Apply ``edit`` to the sidecar's header and its triples, as they are stored, and seal
    it again, so only the edited values are wrong."""
    length, index, triples = split_sidecar(idx.read_bytes())
    edit(index, triples)
    idx.write_bytes(sidecar(history_bytes(idx)[:length], index, triples))


def add_line_counter(index, lines):
    """Edit a sidecar's header into the format that also stored the number of physical
    lines."""
    index.update(lines=lines, labels=index.pop("labels"))


def overwrite_in_place(idx, share):
    """Write over ``idx``, as an append that stopped part way would, the first ``share``
    of a newly sealed and shorter sidecar: the one of the history's first line alone."""
    first = idx.parent / "first.jsonl"
    first.write_bytes(Path(str(idx)[:-len(".idx")]).read_bytes().splitlines(keepends=True)[0])
    assert append_history(MonitoringReport(**json.loads(first.read_bytes())), first).duplicate
    new, old = Path(f"{first}.idx").read_bytes(), idx.read_bytes()
    assert len(new) < len(old)
    keep = int(len(new) * share)
    idx.write_bytes(new[:keep] + old[keep:])


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


def write_list_sidecar(hist):
    """A sealed sidecar as written before the packed label entries: per label, a flat list
    of offset, ordinal and fingerprint (``hash`` of a number, else ``null``) triples, for a
    history of newline-ended report lines."""
    data = hist.read_bytes()
    labels, offset = {}, 0
    for ordinal, text in enumerate(data.splitlines(keepends=True), start=1):
        entry = json.loads(text)
        value = entry["prs_value"]
        labels.setdefault(entry["label"], []).extend(
            (offset, ordinal, hash(value) if type(value) in (int, float) else None))
        offset += len(text)
    index = {"schema": f"offset,ordinal,fingerprint;hash-modulus={sys.hash_info.modulus}",
             "length": len(data), "sha256": hashlib.sha256(data).hexdigest(),
             "lines": ordinal, "count": ordinal, "labels": labels}
    Path(f"{hist}.idx").write_bytes(sealed_object(index))


def write_base64_sidecar(hist):
    """A sidecar as written before the one-line header: one sealed JSON object whose
    ``labels`` maps each label to the base64 of its packed int64 triples (fingerprint -1
    for a ``prs_value`` that is not a number), for a history of newline-ended report
    lines."""
    data = hist.read_bytes()
    labels, offset = {}, 0
    for ordinal, text in enumerate(data.splitlines(keepends=True), start=1):
        entry = json.loads(text)
        value = entry["prs_value"]
        labels.setdefault(entry["label"], []).extend(
            (offset, ordinal, hash(value) if type(value) in (int, float) else -1))
        offset += len(text)
    index = {"schema": f"offset,ordinal,fingerprint;base64 array-q {sys.byteorder}-endian;"
                       f"any=-1;hash-modulus={sys.hash_info.modulus}",
             "length": len(data), "sha256": hashlib.sha256(data).hexdigest(), "count": ordinal,
             "labels": {name: base64.b64encode(array("q", triples).tobytes()).decode()
                        for name, triples in labels.items()}}
    Path(f"{hist}.idx").write_bytes(sealed_object(index))


def write_per_label_sidecar(hist):
    """A sidecar as written before the flat layout: a line with the SHA-256 of the body,
    then a one-line JSON header with the history's length and SHA-256, the number of report
    lines and each label's number of triples, then each label's packed int64 (offset,
    ordinal, fingerprint) triples, one label after another, for a history of newline-ended
    report lines."""
    data = hist.read_bytes()
    labels, offset = {}, 0
    for ordinal, text in enumerate(data.splitlines(keepends=True), start=1):
        entry = json.loads(text)
        value = entry["prs_value"]
        labels.setdefault(entry["label"], []).extend(
            (offset, ordinal, hash(value) if type(value) in (int, float) else -1))
        offset += len(text)
    index = {"schema": f"offset,ordinal,fingerprint;raw array-q {sys.byteorder}-endian;"
                       f"any=-1;hash-modulus={sys.hash_info.modulus}",
             "length": len(data), "sha256": hashlib.sha256(data).hexdigest(), "count": ordinal,
             "labels": {name: len(triples) // 3 for name, triples in labels.items()}}
    body = b"".join([json.dumps(index, separators=(",", ":")).encode(), b"\n",
                     *(array("q", triples).tobytes() for triples in labels.values())])
    Path(f"{hist}.idx").write_bytes(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)


def count_loads(monkeypatch):
    """The texts ``json.loads`` is called on from now on."""
    parsed, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
    return parsed


def spy_on_sha256(monkeypatch):
    """The number of bytes each SHA-256 object, or a copy of one, hashes from now on."""
    hashed, sha256 = [], hashlib.sha256

    class Spy:
        def __init__(self, data=b""):
            self.digest = sha256()
            self.update(data)

        def update(self, data):
            hashed.append(memoryview(data).nbytes)
            self.digest.update(data)

        def hexdigest(self):
            return self.digest.hexdigest()

        def copy(self):
            twin = Spy()
            twin.digest = self.digest.copy()
            return twin

    monkeypatch.setattr(hashlib, "sha256", Spy)
    return hashed


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


# bytes of a history: its three line endings, what str.splitlines also ends a line at
# (\x0b, \x1c, NEL), invalid UTF-8, JSON that is no report, and a line with every field
HISTORY_BYTES = st.lists(st.sampled_from([
    b"\r", b"\n", b"\x0b", b"\x1c", b"\x85", "\x85".encode(), b"{", b"a", "\u00e9".encode(),
    b"\xc3", b"\xff", b" ", b"[1]", b"{}",
    json.dumps({f.name: 0 for f in fields(MonitoringReport) if f.default is MISSING}).encode(),
]), max_size=24).map(b"".join)


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


def test_snapshot_equality_compares_label_counts_and_timestamp():
    a = Snapshot("t1", CategoryCounts(np.array([2, 3])), "2024-01-01")
    assert a == Snapshot("t1", CategoryCounts([2, 3]), "2024-01-01")
    for other in (replace(a, label="t2"), replace(a, timestamp=None),
                  replace(a, counts=CategoryCounts([3, 2])), replace(a, counts=CategoryCounts([2, 3, 0]))):
        assert a != other
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


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

    @pytest.mark.parametrize("categories, stray", [((0, 1, 2, 3, 4), 0), ((1, 2, 3, 4, 9), 9)],
                             ids=["zero", "beyond-B"])
    def test_categories_outside_one_to_b_are_named(self, tmp_path, categories, stray):
        f = tmp_path / "s.csv"
        f.write_text("category,count\n" + "".join(f"{c},{c + 1}\n" for c in categories))
        for load in (load_reference, load_snapshot):
            with pytest.raises(ValidationError, match=rf"s\.csv: missing categories \[5\], "
                                                      rf"categories outside 1\.\.5: \[{stray}\]$"):
                load(f)

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

    @pytest.mark.parametrize("raw, message", [
        (b'{"label": "\xff", "counts": [1, 2, 3]}', r"s\.json:1: not UTF-8 text \(byte 0xff"),
        (b'{"label": 1' + b"0" * 5000 + b', "counts": [1, 2, 3]}', r"s\.json: invalid JSON"),
    ], ids=["not-utf8", "int-of-5001-digits"])
    def test_snapshot_json_that_python_cannot_read(self, tmp_path, raw, message):
        f = tmp_path / "s.json"
        f.write_bytes(raw)
        with pytest.raises(ValidationError, match=message):
            load_snapshot(f)

    @pytest.mark.parametrize("payload, label", [
        ({"label": "t1"}, "t1"),
        ({"label": "0"}, "0"),
        ({"label": 0}, "0"),
        ({"label": -12}, "-12"),
        ({}, "week12"),
        ({"label": None}, "week12"),
    ], ids=["string", "string-zero", "int-zero", "negative-int", "absent", "null"])
    def test_snapshot_json_label(self, tmp_path, payload, label):
        f = tmp_path / "week12.json"
        f.write_text(json.dumps({**payload, "counts": [6, 9, 10, 11, 14]}))
        assert load_snapshot(f).label == label

    @pytest.mark.parametrize("value", ["", False, True, 1.0, 0.5, [], ["t1"], {}, {"a": 1}],
                             ids=["empty", "false", "true", "float-one", "float", "empty-list",
                                  "list", "empty-object", "object"])
    def test_snapshot_json_label_of_another_type(self, tmp_path, value):
        f = tmp_path / "week12.json"
        f.write_text(json.dumps({"label": value, "counts": [6, 9, 10, 11, 14]}))
        with pytest.raises(ValidationError, match=r"week12\.json: field 'label' must be"):
            load_snapshot(f)

    @pytest.mark.parametrize("rows, message", [
        ("\n\n1,6\n2,x\n", r":5: unparsable row \{'category': '2', 'count': 'x'\}"),
        ("1,6\n\n\n1,7\n", ":5: duplicate category 1"),
        ("\n1,6\n\n2,7\n\n3\n", r":7: unparsable row \{'category': '3', 'count': None\}"),
        ("\r\n1,6\r\n\r\n2,x\r\n", ":5: unparsable row"),
    ], ids=["unparsable", "duplicate", "short-row", "crlf"])
    def test_csv_errors_name_the_line_in_the_file(self, tmp_path, rows, message):
        # blank lines are skipped, but still counted
        path = tmp_path / "s.csv"
        path.write_bytes(f"category,count\n{rows}".encode())
        for load in (load_reference, load_snapshot):
            with pytest.raises(ValidationError, match=rf"s\.csv{message}"):
                load(path)
            assert load_outcome(load, path) == load_with_dictreader(load, path)

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


def reference_text(weights):
    return "category,count\n" + "".join(f"{j},{w}\n" for j, w in enumerate(weights, start=1))


class TestReferenceCache:
    def test_file_rewritten_in_place_is_parsed_again(self, tmp_path):
        f = tmp_path / "ref.csv"
        f.write_text(reference_text([1, 1, 2]))
        assert load_reference(f).probs.tolist() == [0.25, 0.25, 0.5]
        f.write_text(reference_text([1, 3, 4]))
        assert load_reference(f).probs.tolist() == [0.125, 0.375, 0.5]

    def test_failing_file_fails_on_every_call_under_its_own_path(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(reference_text([2, 0, 5]))
        shutil.copy(a, b)
        for f in (a, b, a):
            with pytest.raises(ValidationError) as info:
                load_reference(f)
            assert str(info.value) == f"{f}: reference counts must be strictly positive"

    def test_replaced_parser_takes_effect(self, tmp_path, monkeypatch):
        # the dictreader oracle replaces the parser: each call must go through the parser in place
        f = tmp_path / "ref.csv"
        f.write_text(reference_text([1, 1, 2]))
        load_reference(f)
        read, read_rows = [], reporting._read_rows
        monkeypatch.setattr(reporting, "_read_rows",
                            lambda path, text: read.append(path) or read_rows(path, text))
        assert load_reference(f).probs.tolist() == [0.25, 0.25, 0.5]
        assert list(map(str, read)) == [str(f)]

    def test_returned_reference_cannot_alter_the_kept_one(self, tmp_path):
        f = tmp_path / "ref.csv"
        f.write_text(reference_text([1, 1, 2]))
        ref = load_reference(f)
        with pytest.raises(ValueError, match="read-only"):
            ref.probs[0] = 0.5
        with pytest.raises(ValueError):
            ref.probs.flags.writeable = True
        assert load_reference(f).probs.tolist() == [0.25, 0.25, 0.5]

    def test_file_changed_while_it_is_loaded_is_parsed_as_first_read(self, tmp_path, monkeypatch):
        f = tmp_path / "ref.csv"
        first, second = reference_text([1, 1, 2, 7]), reference_text([1, 1, 3, 6])
        f.write_text(first)
        read = reporting.read_text

        def read_then_rewrite(path, data):
            f.write_text(second)
            return read(path, data)

        monkeypatch.setattr(reporting, "read_text", read_then_rewrite)
        kept = load_reference(f)
        assert kept.probs.tolist() == [1 / 11, 1 / 11, 2 / 11, 7 / 11]
        monkeypatch.undo()
        assert load_reference(f).probs.tolist() == [1 / 11, 1 / 11, 3 / 11, 6 / 11]
        f.write_text(first)
        assert load_reference(f) == kept


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

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits_is_refused(self, seed):
        # a history should hold only seeds a study can take
        counts = TIMELINE_50_5["t1"][0]
        with pytest.raises(ValidationError, match=re.escape(f"seed must lie in [0, 2**64) (--seed), got {seed}")):
            monitor(snap("t1", counts), uniform_reference(5), CFG, seed=seed)
        assert monitor(snap("t1", counts), uniform_reference(5), CFG, seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("seed", [3.5, 3.0, True, np.float64(2.0)], ids=repr)
    def test_seed_that_is_not_an_integer_is_refused(self, seed):
        # 3.5 was recorded as given, and True as True
        counts = TIMELINE_50_5["t1"][0]
        with pytest.raises(ValidationError, match=re.escape(f"seed must lie in [0, 2**64) (--seed), got {seed}")):
            monitor(snap("t1", counts), uniform_reference(5), CFG, seed=seed)

    def test_numpy_integer_seed_is_recorded_as_an_int(self):
        counts = TIMELINE_50_5["t1"][0]
        report = monitor(snap("t1", counts), uniform_reference(5), CFG, seed=np.uint64(5))
        assert type(report.seed) is int
        assert report == monitor(snap("t1", counts), uniform_reference(5), CFG, seed=5)
        assert json.loads(json.dumps(vars(report)))["seed"] == 5

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
        # the sidecar, rewritten shorter in place, is its digest and nothing after it
        raw = Path(f"{hist}.idx").read_bytes()
        length, index, triples = split_sidecar(raw)
        assert raw == sidecar(hist.read_bytes()[:length], index, triples)
        # so the next append reads from it instead of scanning again
        (length, *_), _, _ = history._read_index(hist, hist.read_bytes(), "L0", history._ANY)
        assert length == hist.stat().st_size
        assert append_history(pool[0], hist) == HistoryAck(line_count=1, duplicate=True)
        assert read_history(hist) == [pool[0], pool[2]]

    @pytest.mark.parametrize("spoil", [
        lambda idx: idx.unlink(),
        lambda idx: idx.write_bytes(b"\x00garbage{"),
        lambda idx: idx.write_bytes(idx.read_bytes()[:40]),
        lambda idx: idx.write_text("[]"),
        lambda idx: edit_index(idx, lambda labels: shift_triples(labels["L0"], 0, 1)),
        lambda idx: edit_index(idx, lambda labels: swap_offsets(labels["L0"], labels["L1"])),
        lambda idx: edit_index(idx, lambda labels: shift_triples(labels["L0"], 0, 10**6)),
        lambda idx: edit_index(idx, lambda labels: offsets_as_text(labels["L0"])),
        lambda idx: overwrite_in_place(idx, 0.5),
        lambda idx: overwrite_in_place(idx, 1.0),
        # sealed again, so that only the checks after the digest can refuse them
        lambda idx: reseal_index(idx, lambda index, triples: swap_offsets(
            label_triples(index, triples, "L0"), label_triples(index, triples, "L1"))),
        lambda idx: reseal_index(idx, lambda index, triples: shift_triples(
            label_triples(index, triples, "L0"), 0, 1)),
        lambda idx: reseal_index(idx, lambda index, triples: index.update(schema="another layout")),
        lambda idx: reseal_index(idx, lambda index, triples: index["labels"].append("L0")),
    ], ids=["deleted", "garbage", "cut", "not-an-object", "offset-inside-a-line",
            "offsets-of-another-label", "offset-beyond-the-end", "offset-not-a-number",
            "torn-over-a-longer-one", "not-truncated-after-a-longer-one",
            "resealed-offsets-of-another-label", "resealed-offset-inside-a-line",
            "resealed-foreign-schema", "resealed-repeated-label"])
    def test_spoiled_sidecar_falls_back_to_a_full_scan(self, tmp_path, spoil):
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = report_pool(6, labels=2)
        for report in pool[:4]:
            append_history(report, hist)
        spoil(Path(f"{hist}.idx"))
        shutil.copyfile(hist, plain)
        key = history._fingerprint(pool[2].prs_value)
        (length, *_), _, same = history._read_index(hist, hist.read_bytes(), "L0", key)
        assert (length, same) == (0, [])  # the sidecar vouches for no byte
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

    def test_sidecar_of_the_list_format_is_stale_once(self, tmp_path, monkeypatch):
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = distinct_pool(6, labels=2)
        for report in pool[:4]:
            append_history(report, hist)
        write_list_sidecar(hist)
        shutil.copyfile(hist, plain)
        # the old sidecar fails the seal of the one-line header unparsed, so the first append
        # parses every line; the rewritten one is parsed, with no line but one of equal
        # prs_value
        for report, parses in ((pool[2], 4), (pool[4], 1), (pool[3], 1 + 1), (pool[5], 1)):
            parsed = count_loads(monkeypatch)
            ours = append_history(report, hist)
            assert len(parsed) == parses
            monkeypatch.undo()
            assert ours == append_history_full_scan(report, plain)
        assert hist.read_bytes() == plain.read_bytes()

    def test_sidecar_of_the_base64_format_is_stale_once(self, tmp_path, monkeypatch):
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = distinct_pool(6, labels=2)
        for report in pool[:4]:
            append_history(report, hist)
        write_base64_sidecar(hist)
        shutil.copyfile(hist, plain)
        # the old sidecar fails the seal of the one-line header unparsed, so the first append
        # parses each line once; the rewritten one is parsed, with no line but one of equal
        # prs_value
        lines = hist.read_text().splitlines(keepends=True)
        for report, parses in ((pool[2], 4), (pool[4], 1), (pool[3], 1 + 1), (pool[5], 1)):
            parsed = count_loads(monkeypatch)
            ours = append_history(report, hist)
            assert len(parsed) == parses and (report is not pool[2] or parsed == lines)
            monkeypatch.undo()
            assert ours == append_history_full_scan(report, plain)
            _, index, _ = split_sidecar(Path(f"{hist}.idx").read_bytes())
            assert index["schema"] == history._INDEX_SCHEMA
        assert hist.read_bytes() == plain.read_bytes()

    def test_sidecar_of_the_per_label_format_is_stale_once(self, tmp_path, monkeypatch):
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = distinct_pool(6, labels=2)
        for report in pool[:4]:
            append_history(report, hist)
        write_per_label_sidecar(hist)
        shutil.copyfile(hist, plain)
        # the old sidecar has no length after its digest and fails unparsed, so the first
        # append parses each line once; the rewritten one is parsed, with no line but one
        # of equal prs_value
        lines = hist.read_text().splitlines(keepends=True)
        for report, parses in ((pool[2], 4), (pool[4], 1), (pool[3], 1 + 1), (pool[5], 1)):
            parsed = count_loads(monkeypatch)
            ours = append_history(report, hist)
            assert len(parsed) == parses and (report is not pool[2] or parsed == lines)
            monkeypatch.undo()
            assert ours == append_history_full_scan(report, plain)
            _, index, _ = split_sidecar(Path(f"{hist}.idx").read_bytes())
            assert index["schema"] == history._INDEX_SCHEMA
        assert hist.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("spoiled, other", [("L0", "L1"), ("L1", "L0")],
                             ids=["appended-label", "other-label"])
    @pytest.mark.parametrize("spoil", [
        lambda labels, s, o: labels[s][-1].pop(),
    ], ids=["not-whole-triples"])
    def test_spoiled_label_entry_costs_its_label_one_full_scan(self, tmp_path, monkeypatch, spoil,
                                                               spoiled, other):
        # a sealed sidecar whose payload is not whole triples is stale, whichever label's
        # triple is cut short
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = distinct_pool(6, labels=2)
        for report in pool[:4]:
            append_history(report, hist)
        Path(f"{hist}.idx").write_bytes(edited(Path(f"{hist}.idx"),
                                               lambda labels: spoil(labels, spoiled, other)))
        shutil.copyfile(hist, plain)
        for report, count in zip((pool[2], pool[4], pool[3], pool[5]), (1 + 4, 1, 1 + 1, 1)):
            parsed = count_loads(monkeypatch)
            ours = append_history(report, hist)
            assert len(parsed) == count
            monkeypatch.undo()
            assert ours == append_history_full_scan(report, plain)
        assert hist.read_bytes() == plain.read_bytes()

    def test_sidecar_grown_by_appends_equals_one_rebuilt_by_a_full_scan(self, tmp_path):
        hist, rebuilt = tmp_path / "history.jsonl", tmp_path / "rebuilt.jsonl"
        pool = distinct_pool(12, labels=4)
        for i, report in enumerate(pool[:-1]):
            append_history(report, hist)
            if i % 4 == 2:  # a writer without the sidecar, once under a label of its own
                with open(hist, "ab") as fh:
                    fh.write(line(replace(report, label=f"E{i % 3}", seed=100 + i), "\r\n").encode())
                    fh.write(b"\n  \r")
        assert append_history(pool[3], hist).duplicate
        shutil.copyfile(hist, rebuilt)
        for path in (hist, rebuilt):
            append_history(pool[-1], path)
        assert hist.read_bytes() == rebuilt.read_bytes()
        assert Path(f"{hist}.idx").read_bytes() == Path(f"{rebuilt}.idx").read_bytes()

    def test_steady_append_copies_the_stored_triples_as_bytes(self, tmp_path, monkeypatch):
        hist = tmp_path / "history.jsonl"
        base = base_report()
        hist.write_text("".join(line(replace(base, label=f"L{j % 16}", seed=j, prs_value=j / 7))
                                for j in range(2000)))
        assert append_history(replace(base, label="L3", seed=-1, prs_value=-1.0), hist) == HistoryAck(2001)
        unpacked, array_q = [], history.array
        monkeypatch.setattr(history, "array",
                            lambda code, *init: unpacked.extend(init) or array_q(code, *init))
        for report, at in ((replace(base, label="L5", seed=-2, prs_value=-2.0), 5),
                           (replace(base, label="new", seed=-3), 16)):
            payload = Path(f"{hist}.idx").read_bytes().split(b"\n", 2)[2]
            end = hist.stat().st_size
            assert append_history(report, hist) == HistoryAck(len(payload) // 24 + 1)
            # the stored triples as they were, then the new line's
            raw = Path(f"{hist}.idx").read_bytes()
            triple = array_q("q", [end, at, history._fingerprint(report.prs_value)])
            assert raw.split(b"\n", 2)[2] == payload + triple.tobytes()
            assert split_sidecar(raw)[1]["labels"][at] == report.label
        assert unpacked == []  # no stored triple was unpacked

    def test_steady_append_hashes_and_parses_only_what_it_must(self, tmp_path, monkeypatch):
        # 2,000 lines of 16 labels, each with its own prs_value
        hist = tmp_path / "history.jsonl"
        base = base_report()
        stored = [replace(base, label=f"L{j % 16}", seed=j, prs_value=j / 7) for j in range(2000)]
        hist.write_text("".join(line(report) for report in stored))
        assert append_history(replace(stored[3], seed=-1, prs_value=-1.0), hist) == HistoryAck(2001)
        hashed, sha256 = [], hashlib.sha256

        class Spy:
            def __init__(self, data=b""):
                self.digest = sha256()
                self.update(data)

            def update(self, data):
                hashed.append(memoryview(data).nbytes)
                self.digest.update(data)

            def hexdigest(self):
                return self.digest.hexdigest()

            def copy(self):
                twin = Spy()
                twin.digest = self.digest.copy()
                return twin

        monkeypatch.setattr(hashlib, "sha256", Spy)
        for report, ack in ((replace(stored[5], seed=-2, prs_value=-2.0), HistoryAck(2002)),
                            (stored[5], HistoryAck(6, duplicate=True))):
            hashed.clear()
            head = Path(f"{hist}.idx").read_bytes().split(b"\n")[1]
            parsed = count_loads(monkeypatch)
            assert append_history(report, hist) == ack
            assert sum(hashed) <= hist.stat().st_size + 2 * Path(f"{hist}.idx").stat().st_size
            # the header, then the one line of equal prs_value, if any
            assert parsed[0] == head
            assert parsed[1:] == ([line(stored[5])] if ack.duplicate else [])

    def test_steady_append_in_one_process_hashes_only_the_new_line_and_sidecar(self, tmp_path,
                                                                               monkeypatch):
        hist = tmp_path / "history.jsonl"
        base = base_report()
        stored = [replace(base, label=f"L{j % 16}", seed=j, prs_value=j / 7) for j in range(2000)]
        hist.write_text("".join(line(report) for report in stored))
        # in place before the first append, so the digest state it keeps is a spy too
        hashed = spy_on_sha256(monkeypatch)
        assert append_history(replace(stored[3], seed=-1, prs_value=-1.0), hist) == HistoryAck(2001)
        for report, ack in ((replace(stored[5], seed=-2, prs_value=-2.0), HistoryAck(2002)),
                            (replace(stored[6], seed=-3, prs_value=-3.0), HistoryAck(2003)),
                            (stored[5], HistoryAck(6, duplicate=True))):
            hashed.clear()
            assert append_history(report, hist) == ack
            if ack.duplicate:
                assert sum(hashed) == 0
            else:
                assert sum(hashed) <= len(line(report)) + Path(f"{hist}.idx").stat().st_size

    def test_appends_alternating_between_two_histories_agree_with_a_full_scan(self, tmp_path,
                                                                              monkeypatch):
        pool = distinct_pool(8, labels=2)
        pool.append(replace(pool[2], prs_value=0.9))  # equal to A's line of pool[2] once edited
        # (history, pool index, acked as a duplicate or the line it rejects) appends, and
        # edits by another writer: a same-length edit of A's line of pool[2], a flipped bit
        # in the fingerprint of B's last line and a corrupt line added to B, each between
        # two appends of that history with no other sidecar written in between
        steps = [("A", 0, False), ("B", 1, False), ("A", 2, False), ("A", 0, True),
                 ("B", 3, False), ("B", 1, True), ("B", 5, False), ("A", 4, False),
                 ("A", 6, False), ("A", "edit", None), ("A", 8, True), ("B", 7, False),
                 ("B", "spoil", None), ("B", 7, True), ("B", "junk", None),
                 ("B", 3, "<history>:5: corrupt history line"), ("B", "cut", None),
                 ("B", 3, True), ("A", 6, True), ("A", 8, True), ("A", 2, False),
                 ("A", 0, True), ("B", 5, True)]
        edits = {"edit": lambda data: data.replace(b'"prs_value": 0.2,', b'"prs_value": 0.9,'),
                 "junk": lambda data: data + b"{not json\n",
                 "cut": lambda data: data.removesuffix(b"{not json\n")}

        def run(tmp, append):
            tmp.mkdir()
            seen = []
            for name, step, expected in steps:
                hist, plain = tmp / f"{name}.jsonl", tmp / f"{name}-plain.jsonl"
                idx = Path(f"{hist}.idx")
                if step == "spoil":
                    raw = bytearray(idx.read_bytes())
                    raw[-1] ^= 1
                    idx.write_bytes(raw)
                elif step in edits:
                    for path in (hist, plain):
                        path.write_bytes(edits[step](path.read_bytes()))
                else:
                    ours = outcome(append, pool[step], hist)
                    assert ours == outcome(append_history_full_scan, pool[step], plain), (name, step)
                    assert (ours if isinstance(ours, str) else ours.duplicate) == expected
                    assert hist.read_bytes() == plain.read_bytes()
                    seen.append((ours, idx.read_bytes()))
            return seen

        monkeypatch.setattr(history, "_last_seal", None)
        kept = run(tmp_path / "kept", append_history)

        def cleared(report, path):
            monkeypatch.setattr(history, "_last_seal", None)
            return append_history(report, path)

        assert run(tmp_path / "cleared", cleared) == kept

    @pytest.mark.parametrize("external", ["\n{not json\n", "\n", "\nx"], ids=["corrupt", "lf", "text"])
    def test_sidecar_ending_inside_a_crlf_agrees_with_a_full_scan(self, tmp_path, external):
        # a duplicate writes the sidecar while the history ends in a bare \r; another
        # writer then adds a \n, which ends the same line
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = report_pool(3)
        for path in (hist, plain):
            path.write_bytes(line(pool[0]).encode() + line(pool[1], "\r").encode())
        for report in (pool[1], pool[0]):
            assert append_history(report, hist) == append_history_full_scan(report, plain)
        for path in (hist, plain):
            with open(path, "ab") as fh:
                fh.write(external.encode())
        for report in (pool[2], pool[1]):
            assert outcome(append_history, report, hist) == outcome(append_history_full_scan, report, plain)
        assert hist.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("end, external, want", [
        ("\n", "X\n", HistoryAck(4)),
        ("\n", "\n\r\nX\r", HistoryAck(4)),
        ("\r", "\n{not json\n", "<history>:3: corrupt history line"),
        ("\r", "\nX\n", HistoryAck(4)),
    ], ids=["lf", "blank-lines", "bare-cr-then-corrupt", "bare-cr-then-lf"])
    def test_sidecar_with_a_line_counter_is_reused(self, tmp_path, monkeypatch, end, external, want):
        # the counter of physical lines is ignored: a corrupt line is numbered from the bytes
        # before it, also when the sidecar was written while the history ended in a bare \r
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = distinct_pool(6, labels=2)
        hist.write_bytes((line(pool[0]) + line(pool[1], end)).encode())
        # a duplicate writes the sidecar, which then ends where the history ends
        assert append_history(pool[1], hist) == HistoryAck(line_count=2, duplicate=True)
        reseal_index(Path(f"{hist}.idx"), lambda index, triples: add_line_counter(index, 2))
        shutil.copyfile(hist, plain)
        for path in (hist, plain):
            with open(path, "ab") as fh:
                fh.write(external.replace("X", line(pool[3], "")).encode())
        parsed = count_loads(monkeypatch)
        ours = outcome(append_history, pool[4], hist)
        assert len(parsed) == 1 + 1  # the sidecar, the one line with a report
        monkeypatch.undo()
        assert ours == want == outcome(append_history_full_scan, pool[4], plain)
        assert hist.read_bytes() == plain.read_bytes()
        if isinstance(ours, HistoryAck):  # written again, without the counter
            assert "lines" not in split_sidecar(Path(f"{hist}.idx").read_bytes())[1]

    @pytest.mark.parametrize("external, where", [
        ("\n{not json\n", "<history>:3: corrupt history line"),
        ("X\n", "<history>:2: corrupt history line"),
    ], ids=["ended-then-corrupt", "continued"])
    def test_last_line_without_its_ending_is_validated_again(self, tmp_path, external, where):
        # a duplicate finds the last line without its line ending; another writer then ends
        # it and adds a corrupt line, or continues it into one corrupt line
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = report_pool(3)
        append_history(pool[0], hist)  # the sidecar ends after line 1
        with open(hist, "ab") as fh:
            fh.write(line(pool[1], "").encode())
        shutil.copyfile(hist, plain)
        assert append_history(pool[1], hist) == append_history_full_scan(pool[1], plain)
        for path in (hist, plain):
            with open(path, "ab") as fh:
                fh.write(external.replace("X", line(pool[2], "")).encode())
        assert outcome(append_history, pool[2], hist) == where
        assert outcome(append_history_full_scan, pool[2], plain) == where

    def test_duplicate_of_a_line_ended_by_a_bare_cr_parses_only_that_line(self, tmp_path,
                                                                          monkeypatch):
        # the candidate line ends at its \r, not at the next \n
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
        pool = distinct_pool(6, labels=2)
        append_history(pool[0], hist)
        with open(hist, "ab") as fh:
            fh.write((line(pool[1], "\r") + line(pool[2], "\r") + line(pool[3])).encode())
        append_history(pool[4], hist)
        shutil.copyfile(hist, plain)
        for report in (pool[1], pool[2], pool[3]):
            parsed = count_loads(monkeypatch)
            ours = append_history(report, hist)
            assert len(parsed) == 1 + 1  # the sidecar, the one line of equal prs_value
            monkeypatch.undo()
            assert ours.duplicate
            assert ours == append_history_full_scan(report, plain)
        assert hist.read_bytes() == plain.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(HISTORY_BYTES, st.integers(0, 10**6))
    def test_line_walker_agrees_with_the_regex_oracle(self, data, pick):
        def walk(history, *start):
            items = []
            try:
                items.extend(history(Path("h.jsonl"), data, *start))
            except ValidationError as exc:
                return items, str(exc)
            return items, None

        def unnumbered(walked):
            """The oracle's (offset, fields) items, and its message with the line number."""
            items, error = walked
            return [(offset, entry) for _, offset, entry in items], error

        numbered = walk(history_lines_finditer)
        assert walk(history._history) == unnumbered(numbered)
        if numbered[0]:  # from the start of a later line, numbered from the bytes before it
            number, offset, _ = numbered[0][pick % len(numbered[0])]
            assert walk(history._history, offset) == unnumbered(
                walk(history_lines_finditer, offset, number - 1))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "history.jsonl")
            path.write_bytes(data)
            try:
                got = read_history(path)
            except ValidationError as exc:
                got = str(exc)
            try:
                want = [MonitoringReport(**entry) for _, _, entry in history_lines_finditer(path, data)
                        if entry is not None]
            except ValidationError as exc:
                want = str(exc)
            assert got == want

    @pytest.mark.parametrize("edit", [
        lambda labels: shift_triples(labels["L0"], 2, 1),
        lambda labels: swap_offsets(labels["L0"], labels["L1"]),
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
        hist, plain = tmp_path / "history.jsonl", tmp_path / "plain.jsonl"
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
        shutil.copyfile(hist, plain)
        stored = read_history(hist)[1]
        assert append_history(stored, hist) == HistoryAck(4)
        assert append_history(stored, hist) == HistoryAck(5)
        # the oracle compares prs_value first too
        for ack in (HistoryAck(4), HistoryAck(5)):
            assert append_history_full_scan(stored, plain) == ack
        assert hist.read_bytes() == plain.read_bytes()

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


# a prs_value of each type a history line can hold; 0, 0.0 and -0.0 give equal reports
TWIN_PRS_VALUES = [0, 0.0, -0.0, 1.5, math.nan, math.inf, "0.07", None]
# what a writer that does not know the sidecar may add: line endings, blank and corrupt text
TWIN_ENDS = ["\n", "\r\n", "\r", ""]
TWIN_TEXT = ["\n", "\r\n", "\r", "  \n", "{not json\n", "{not json\r", "[1]\n",
             '{"label": "L0"}\r\n', "{not json"]
# how often each step is drawn
TWIN_STEPS = {"append": 4, "append_stored": 4, "external_report": 4, "external_text": 2,
              "continue_last_line": 3, "change_history": 1, "spoil_sidecar": 1}


class HistoryTwins:
    """``append_history`` and ``append_history_full_scan`` on twin files, driven by
    steps drawn from a seeded generator.  After every step the histories hold the same
    bytes, and after an append the two give the same ack or reject the same line.  The
    reason after the line number is not compared: the oracle reads in text mode, which
    turns a bare ``\\r`` into ``\\n`` and so moves the line and column ``json`` names.  A
    sidecar that ``append_history`` wrote, over bytes still at the start of the history,
    is used rather than rescanned."""

    def __init__(self, tmp: Path, seed: int):
        self.rng = random.Random(seed)
        self.hist, self.plain = tmp / "history.jsonl", tmp / "plain.jsonl"
        self.idx = Path(f"{self.hist}.idx")
        self.pool = [replace(base_report(), label=f"L{i % 2}", prs_value=value)
                     for i, value in enumerate(TWIN_PRS_VALUES)]
        self.stored = []  # pool indices written to the history, by either writer
        self.written = None  # the last sidecar append_history wrote, and the bytes it covers

    def data(self):
        return self.hist.read_bytes() if self.hist.exists() else b""

    def sidecar(self):
        return self.idx.read_bytes() if self.idx.exists() else None

    def write(self, text):
        for path in (self.hist, self.plain):
            with open(path, "ab") as fh:
                fh.write(text.encode())

    def replace_history(self, data):
        self.hist.write_bytes(data)
        self.plain.write_bytes(data)

    def draw(self):
        """The name and arguments of a step that can run now."""
        rng = self.rng
        while True:
            name = rng.choices(list(TWIN_STEPS), weights=list(TWIN_STEPS.values()))[0]
            if name == "append":
                return name, (rng.randrange(len(self.pool)),)
            if name == "append_stored" and self.stored:
                return "append", (rng.choice(self.stored),)
            if name == "external_report":
                return name, (rng.randrange(len(self.pool)), rng.choice(TWIN_ENDS))
            if name == "external_text":
                return name, (rng.choice(TWIN_TEXT),)
            if name == "continue_last_line" and self.data()[-1:] not in (b"", b"\r", b"\n"):
                return name, (rng.choice([' "x"\n', " \r", "\n", None]), rng.randrange(len(self.pool)))
            if name == "change_history" and self.data():
                return name, (rng.choice(["truncate", "edit_digit"]), rng.randrange(400))
            if name == "spoil_sidecar" and self.sidecar() is not None:
                return name, (rng.choice(["delete", "truncate", "flip_bit"]), rng.randrange(10**6))

    def append(self, i):
        report, before = self.pool[i], self.sidecar()
        ack = outcome(append_history, report, self.hist)
        assert ack == outcome(append_history_full_scan, report, self.plain)
        if isinstance(ack, HistoryAck):
            self.stored.append(i)
        else:  # cut the rejected line and all after it, so later appends can succeed
            number = int(ack.split(":")[1])
            self.replace_history(b"".join(self.data().splitlines(keepends=True)[:number - 1]))
        after = self.sidecar()
        if after is not None and after != before:
            self.written = after, self.data()[:split_sidecar(after)[0]]

    def external_report(self, i, end):
        self.write(line(self.pool[i], end))
        self.stored.append(i)

    def external_text(self, text):
        self.write(text)

    def continue_last_line(self, text, i):
        self.write(text or line(self.pool[i]))

    def change_history(self, how, at):
        data = bytearray(self.data())
        digits = [i for i, byte in enumerate(data) if chr(byte).isdigit()]
        if how == "truncate":
            del data[max(0, len(data) - at):]
        elif digits:  # a same-length edit of one digit
            at = digits[at % len(digits)]
            data[at] = ord("0") + (data[at] - ord("0") + 1) % 10
        self.replace_history(bytes(data))

    def spoil_sidecar(self, how, at):
        data = bytearray(self.sidecar())
        if how == "delete" or not data:
            self.idx.unlink()
            return
        if how == "truncate":
            del data[at % len(data):]
        else:
            data[at % len(data)] ^= 1
        self.idx.write_bytes(data)

    def check(self):
        data = self.data()
        assert data == (self.plain.read_bytes() if self.plain.exists() else b"")
        assert not Path(f"{self.hist}.idx.tmp").exists()  # the sidecar is written in place
        if self.written and self.sidecar() == self.written[0] and data.startswith(self.written[1]):
            for label in ("L0", "L1"):  # a fingerprint that may equal any: every line is read
                (length, *_), _, _ = history._read_index(self.hist, data, label, history._ANY)
                assert length == len(self.written[1]), f"the sidecar was not used for {label}"


@pytest.mark.parametrize("seed", range(4))
def test_history_twins_agree_after_every_step(tmp_path, seed):
    twins, steps = HistoryTwins(tmp_path, seed), []
    for _ in range(250):
        name, args = twins.draw()
        steps.append(f"{name}{args}")
        try:
            getattr(twins, name)(*args)
            twins.check()
        except AssertionError as exc:
            last = "\n  ".join(steps[-12:])
            pytest.fail(f"seed {seed}, step {len(steps)}: {exc}\nlast steps:\n  {last}")


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
        assert body[0] == "delta_v,p_r1,p_r2,p_r3,se_r1,se_r2,se_r3"
        assert len(body) == 7
        rows = [[float(v) for v in l.split(",")] for l in body[1:]]
        assert all(abs(sum(row[1:4]) - 1.0) < 1e-12 for row in rows)
        # the binomial SE of each probability, floored at one hit in 2,000
        for row in rows:
            for p, se in zip(row[1:4], row[4:]):
                assert se == pytest.approx(max(p * (1 - p), 1 / 2000) ** 0.5 / 2000 ** 0.5, rel=1e-12)

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
        assert body[0] == ("n,B,mean_ratio_psi,var_ratio_psi,mean_ratio_prs,var_ratio_prs,"
                           "mean_se_psi,mean_se_prs")
        assert len(body) == 2
        mean_se_psi, mean_se_prs = (float(v) for v in body[1].split(",")[6:])
        assert 0 < mean_se_psi < 0.1 and 0 < mean_se_prs < 0.1

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
        assert [d[:16] for d in digests] == ["48934c92c4cb6f39"] * 2

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
