"""Snapshot ingestion, monitoring reports, rendering and history persistence.

A monitoring report is self-contained: every statistic, boundary and
classification can be re-derived from its own fields.  History is an
append-only JSON-lines file guarded by an exclusive lock; duplicate
submissions (same label and content) are acknowledged as no-ops.  Each append
overwrites the sidecar ``<history>.idx`` in place.  Its first line holds the SHA-256 of
the validated bytes followed by the rest of the sidecar, and the number of validated
bytes; then come a one-line JSON header listing the labels and one packed int64
``(offset, label position, fingerprint)`` triple per report line, in file order.  The
fingerprint is ``hash`` of a ``prs_value`` that is a number, which equal numbers share,
and -1 for anything else.  The next append validates only what follows the recorded
bytes and, of the lines before, parses only the report's label's lines whose fingerprint
could equal the report's.  Deleting the sidecar is safe and costs one full scan.  So
does a stale one: a torn or partial write, an edit not sealed again, one written by
another format, build or byte order, and an edited history.  The digest is a checksum,
not a signature: a sidecar edited and sealed again is trusted, and only its triples that
could equal the report are checked against the history.  An append skips both SHA-256
passes when the sidecar is byte for byte the one this process last sealed and the history
still starts with the bytes it sealed; for that the process holds one copy of that history.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import fcntl
import hashlib
import io
import json
import math
import os
import sys
from array import array
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .divergences import (
    CategoryCounts,
    ReferenceDistribution,
    _check_seed,
    ks_statistic,
    proportions,
    psi,
    prs,
)
from .errors import ValidationError
from .resemblance import (
    P_GREEN,
    P_RED,
    ResemblanceConfig,
    classify_lewis,
    classify_p_value,
    classify_prs,
    classify_yn,
    decision_boundaries,
    ks_p_value,
    yn_boundaries,
)


@dataclass(frozen=True)
class Snapshot:
    label: str
    counts: CategoryCounts
    timestamp: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.label:
            raise ValidationError("snapshot label must be non-empty")


@dataclass(frozen=True)
class MonitoringReport:
    label: str
    n: int
    B: int
    delta: float
    lambda_sup: float
    tau1: float
    tau2: float
    prs_value: float
    prs_region: str
    psi_value: float
    lewis_region: str
    yn_region: str
    ks_value: float
    ks_p_value: float
    ks_region: str
    config: dict
    seed: int
    timestamp: Optional[str] = None


_REPORT_FIELDS = frozenset(f.name for f in fields(MonitoringReport))
_REQUIRED_FIELDS = frozenset(f.name for f in fields(MonitoringReport) if f.default is MISSING)


def _line_after(text: str) -> int:
    """The number of the line on which a character after ``text`` stands: lines end
    only at CR, LF or CRLF, as csv's universal newlines end them."""
    return len(io.StringIO(text + "x", newline="").readlines())


def read_text(path: str | os.PathLike, data: bytes) -> str:
    """``data``, read from ``path``, as UTF-8 text whatever the locale, less one leading
    byte order mark; an error names the file and the line of the first byte that is not UTF-8."""
    # not utf-8-sig: its exc.start counts from after the mark, so data[exc.start] is another byte
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}:{_line_after(data[:exc.start].decode())}: not UTF-8 text "
                              f"(byte 0x{data[exc.start]:02x}: {exc.reason})") from exc


def _read_rows(path: Path, text: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Lower-cased header fields and the non-blank rows under them, each with
    the number of the line it ends on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise ValidationError(f"{path}: empty file")
    return [f.strip().lower() for f in header], [(reader.line_num, row) for row in reader if row]


def _ordered_values(
    path: Path, fields: list[str], rows: list[tuple[int, list[str]]], value_field: str
) -> list[float]:
    """Values of a category,value table; categories must be 1..B in order, no gaps."""
    if "category" not in fields or value_field not in fields:
        raise ValidationError(
            f"{path}: expected header 'category,{value_field}', got {fields}"
        )
    column = {name: j for j, name in enumerate(fields)}  # a repeated name: its last column
    cat_at, value_at = column["category"], column[value_field]
    seen: dict[int, float] = {}
    for i, row in rows:
        try:
            cat = int(row[cat_at])
            val = float(row[value_at])
        except (IndexError, ValueError) as exc:
            cells = dict(zip(fields, row + [None] * (len(fields) - len(row))))
            raise ValidationError(f"{path}:{i}: unparsable row {cells}") from exc
        if cat in seen:
            raise ValidationError(f"{path}:{i}: duplicate category {cat}")
        seen[cat] = val
    B = len(seen)
    missing = [c for c in range(1, B + 1) if c not in seen]
    if missing:  # then as many categories lie outside 1..B
        stray = sorted(c for c in seen if not 1 <= c <= B)
        raise ValidationError(f"{path}: missing categories {missing}, "
                              f"categories outside 1..{B}: {stray}")
    return [seen[c] for c in range(1, B + 1)]


def load_reference(path: str | Path) -> ReferenceDistribution:
    """Reference from a CSV of explicit probabilities or of reference counts."""
    path = Path(path)
    fields, rows = _read_rows(path, read_text(path, path.read_bytes()))
    if "prob" in fields:
        probs = np.asarray(_ordered_values(path, fields, rows, "prob"))
    elif "count" in fields:
        counts = np.asarray(_ordered_values(path, fields, rows, "count"))
        if np.any(counts <= 0):
            raise ValidationError(f"{path}: reference counts must be strictly positive")
        with np.errstate(over="ignore"):  # an overflowing sum is refused just below
            total = counts.sum()
        if not math.isfinite(total):  # also a NaN or inf count
            raise ValidationError(f"{path}: reference counts and their sum must be finite")
        probs = counts / total
    else:
        raise ValidationError(f"{path}: expected a 'prob' or 'count' column, got {fields}")
    try:
        return ReferenceDistribution(probs)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_snapshot(path: str | Path) -> Snapshot:
    """Snapshot from CSV (category,count) or JSON ({label, counts[], timestamp?})."""
    path = Path(path)
    text = read_text(path, path.read_bytes())
    if path.suffix.lower() == ".json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{_line_after(text[:exc.pos])}: invalid JSON ({exc.msg})") from exc
        except ValueError as exc:  # an int of too many digits
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict) or "counts" not in payload:
            raise ValidationError(f"{path}: expected an object with a 'counts' array")
    else:
        payload = {"counts": _ordered_values(path, *_read_rows(path, text), "count")}
    try:
        counts = CategoryCounts(np.asarray(payload["counts"]))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    label = payload.get("label")
    if label == "" or type(label) not in (str, int, type(None)):
        raise ValidationError(f"{path}: field 'label' must be a non-empty string or an integer, "
                              f"got {label!r}")
    label = path.stem if label is None else str(label)
    timestamp = payload.get("timestamp")
    if not isinstance(timestamp, (str, type(None))):
        raise ValidationError(f"{path}: field 'timestamp' must be a string or null, "
                              f"got {timestamp!r}")
    return Snapshot(label=label, counts=counts, timestamp=timestamp)


def monitor(
    snapshot: Snapshot,
    reference: ReferenceDistribution,
    cfg: ResemblanceConfig,
    seed: int = 0,
) -> MonitoringReport:
    """Every statistic and classification for one snapshot; ``seed`` is only recorded."""
    seed = _check_seed(seed, " (--seed)")  # the seeds a study takes
    counts = snapshot.counts
    if counts.B != reference.B:
        raise ValidationError(
            f"snapshot has {counts.B} categories but reference has {reference.B}; "
            "check that both files cover the same category grid"
        )
    bounds = decision_boundaries(reference, counts.n, cfg)
    phat = proportions(counts)
    prs_value = prs(phat, reference)
    psi_value = psi(phat, reference)
    tau_red, tau_green = yn_boundaries(counts.n, counts.B, P_RED, P_GREEN)
    ks_value = ks_statistic(phat, reference)
    p_ks = ks_p_value(counts, reference)
    return MonitoringReport(
        label=snapshot.label,
        n=counts.n,
        B=counts.B,
        delta=bounds.delta,
        lambda_sup=bounds.lambda_sup,
        tau1=bounds.tau1,
        tau2=bounds.tau2,
        prs_value=prs_value,
        prs_region=classify_prs(prs_value, bounds).value,
        psi_value=psi_value,
        lewis_region=classify_lewis(psi_value).value,
        yn_region=classify_yn(psi_value, tau_red, tau_green).value,
        ks_value=ks_value,
        ks_p_value=p_ks,
        ks_region=classify_p_value(p_ks).value,
        config={f.name: getattr(cfg, f.name) for f in fields(cfg)},  # its values are immutable
        seed=seed,
        timestamp=snapshot.timestamp,
    )


def format_p_value(p: float) -> str:
    return "<0.001" if p < 0.001 else f"{p:.3f}"


def render_text(report: MonitoringReport) -> str:
    lines = [
        f"snapshot {report.label}  (n={report.n}, B={report.B})",
        f"  delta={report.delta:.6f}  lambda_sup={report.lambda_sup:.4f}  "
        f"tau1={report.tau1:.5f}  tau2={report.tau2:.5f}",
        f"  PRS  {report.prs_value:.4f}  [{report.prs_region}]",
        f"  PSI  {report.psi_value:.4f}  [lewis: {report.lewis_region}, yn: {report.yn_region}]",
        f"  KS   {report.ks_value:.4f}  p={format_p_value(report.ks_p_value)}  [{report.ks_region}]",
    ]
    return "\n".join(lines)


def render_csv(report: MonitoringReport) -> str:
    buf = io.StringIO()
    d = {**vars(report), "config": json.dumps(report.config, sort_keys=True)}
    writer = csv.DictWriter(buf, fieldnames=list(d))
    writer.writeheader()
    writer.writerow(d)
    return buf.getvalue()


@dataclass(frozen=True)
class HistoryAck:
    """``line_count`` is the ordinal among non-blank lines of the appended line or,
    for a duplicate, of the stored line that equals the report."""

    line_count: int
    duplicate: bool = False


def _entry(text: bytes) -> Optional[dict]:
    """The fields of one history line, or ``None`` if it is blank; ``ValueError`` or
    ``TypeError`` if it is not a report."""
    text = text.decode()
    if not text.strip():
        return None
    entry = json.loads(text)
    if not isinstance(entry, dict):
        raise TypeError(f"expected a JSON object, got {type(entry).__name__}")
    keys = entry.keys()
    if not _REQUIRED_FIELDS <= keys <= _REPORT_FIELDS:
        raise TypeError(
            f"unknown fields {sorted(keys - _REPORT_FIELDS)}, "
            f"missing fields {sorted(_REQUIRED_FIELDS - keys)}"
        )
    return entry


def _history(path: Path, data: bytes, start: int = 0) -> Iterator[tuple]:
    """(byte offset, fields or None if blank) of each line from byte ``start``; a line
    that is not a report is corrupt, and numbered from the bytes before it.  Bytes split
    lines only at ``\\r\\n``, ``\\r`` and ``\\n``, as universal newlines do."""
    offset = start
    for text in data[start:].splitlines(keepends=True):
        try:
            entry = _entry(text)
        except (ValueError, TypeError) as exc:
            number = len(data[:offset].splitlines()) + 1
            raise ValidationError(f"{path}:{number}: corrupt history line ({exc})") from exc
        yield offset, entry
        offset += len(text)


# The first line holds the SHA-256 hex of the history's first ``length`` bytes followed by
# the body, a space and ``length``.  The body is a one-line JSON header, whose ``labels``
# lists the labels in the order they first occur, and after it one (offset, position of the
# label in ``labels``, fingerprint) triple per report line in file order, packed as
# array("q") in this machine's byte order: a line's ordinal is its triple's position + 1.
# A sidecar of another layout, packing or byte order, or whose fingerprints another hash
# function made, is stale.
_ANY = -1  # the fingerprint that may equal anything; CPython's hash never returns -1
_INDEX_SCHEMA = (f"offset,label,fingerprint;raw array-q {sys.byteorder}-endian;"
                 f"any={_ANY};hash-modulus={sys.hash_info.modulus}")
_TRIPLE = 3 * array("q").itemsize
# The last sidecar this process wrote: its bytes, the history bytes the append read, the
# bytes it appended and the SHA-256 state of those two.  One slot, so one history is held.
_last_seal = None


def _fingerprint(value) -> int:
    """An integer equal ``prs_value``s share, or ``_ANY``: the hash of other types, such
    as ``str``, may differ from one process to the next.  So may a NaN's, but a NaN
    ``prs_value`` equals nothing."""
    return hash(value) if type(value) in (int, float) else _ANY


def _read_index(path: Path, data: bytes, label: str, key: int) -> tuple:
    """The sidecar's ``(length, labels, payload)``, with ``labels`` mapping each label to
    its position, the SHA-256 of the first ``length`` bytes and ``(ordinal, fields)`` of
    their lines of ``label`` whose fingerprint may equal ``key``.  Nothing is parsed before
    the digest holds.  A missing or stale sidecar, or one wrong about such a line, vouches
    for no bytes."""
    try:
        raw = Path(f"{path}.idx").read_bytes()
        seal, _, body = raw.partition(b"\n")
        written, old, new, state = _last_seal or (None, b"", b"", None)
        if raw == written and data.startswith(old) and data.startswith(new, len(old)):
            # the very bytes this process hashed when it wrote the sidecar: the digest holds
            length, digest = len(old) + len(new), state.copy()
        else:
            hexdigest, length = seal.split(b" ")
            length = int(length)
            if not 0 <= length <= len(data):
                raise ValueError("the history changed since the sidecar was written")
            digest = hashlib.sha256(memoryview(data)[:length])
            sealed = digest.copy()
            sealed.update(body)
            if sealed.hexdigest().encode() != hexdigest:
                raise ValueError("the history or the sidecar changed since it was written")
        head, _, payload = body.partition(b"\n")
        index = json.loads(head)
        labels = {name: at for at, name in enumerate(index["labels"])}
        if index["schema"] != _INDEX_SCHEMA or list(labels) != index["labels"]:
            raise ValueError("a sidecar of another format")
        triples = np.frombuffer(payload, np.int64).reshape(-1, 3)
        fps, same = triples[:, 2], []
        may_equal = (fps == key) | (fps == _ANY) | (key == _ANY)
        for i in np.flatnonzero((triples[:, 1] == labels.get(label, -1)) & may_equal).tolist():
            offset = int(triples[i, 0])
            starts = 0 <= offset < length and (not offset or data[offset - 1] in b"\r\n")
            # the line at offset, ended where _history ends it
            text = data[offset:data.find(b"\n", offset) + 1 or len(data)].splitlines(True)[0]
            entry = _entry(text) if starts else None
            if entry is None or str(entry["label"]) != label:
                raise ValueError(f"offset {offset} does not start a line of {label!r}")
            same.append((i + 1, entry))
        return (length, labels, payload), digest, same
    except (OSError, ValueError, TypeError, KeyError):
        return (0, {}, b""), hashlib.sha256(), []


def append_history(report: MonitoringReport, history_path: str | Path) -> HistoryAck:
    """Append one JSON line; a report equal to one already stored is a no-op.

    Every line is validated first, but of the lines the sidecar vouches for
    only those of the report's label whose ``prs_value`` fingerprint matches
    the report's are parsed again."""
    global _last_seal
    path = Path(history_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    label, key = str(report.label), _fingerprint(report.prs_value)
    with open(path, "ab+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            fh.seek(0)
            data = fh.read()
            (start, labels, payload), digest, same = _read_index(path, data, label, key)
            count, added = len(payload) // _TRIPLE, array("q")  # the triples after ``start``
            for offset, entry in _history(path, data, start):
                if entry is not None:
                    count += 1
                    name, fp = str(entry["label"]), _fingerprint(entry["prs_value"])
                    added.extend((offset, labels.setdefault(name, len(labels)), fp))
                    if name == label and (fp == key or _ANY in (fp, key)):
                        same.append((count, entry))
            # prs_value first: it is cheap, and a NaN equals nothing, not even the one NaN
            # object that json parses every NaN to
            ordinal = next((o for o, entry in same if entry["prs_value"] == report.prs_value
                            and MonitoringReport(**entry) == report), None)
            new = b""
            if ordinal is None:
                # a last line without its newline would run into the new one
                new = b"" if data[-1:] in (b"", b"\n") else b"\n"
                count += 1
                added.extend((len(data) + len(new), labels.setdefault(label, len(labels)), key))
                new += json.dumps(vars(report), sort_keys=True).encode() + b"\n"
                fh.write(new)
                fh.flush()
            # a sidecar ends where a line ends: another writer may continue an unended last line
            if start < len(data) + len(new) and (new or data.endswith((b"\r", b"\n"))):
                index = {"schema": _INDEX_SCHEMA, "labels": list(labels)}
                head = json.dumps(index, separators=(",", ":")).encode()  # json escapes "\n"
                body = b"".join([head, b"\n", payload, added.tobytes()])
                digest.update(data[start:] + new)
                state = digest.copy()
                digest.update(body)
                sealed = b"%s %d\n%s" % (digest.hexdigest().encode(), len(data) + len(new), body)
                # written in place: a torn or untruncated write fails the digest, and costs
                # the next append one full scan
                with contextlib.suppress(OSError):  # the next append then scans further back
                    fd = os.open(f"{path}.idx", os.O_WRONLY | os.O_CREAT, 0o666)
                    try:
                        os.pwrite(fd, sealed, 0)
                        os.ftruncate(fd, len(sealed))
                    finally:
                        os.close(fd)
                    _last_seal = sealed, data, new, state
            return HistoryAck(count) if ordinal is None else HistoryAck(ordinal, duplicate=True)
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def read_history(history_path: str | Path) -> list[MonitoringReport]:
    path = Path(history_path)
    entries = _history(path, path.read_bytes())
    return [MonitoringReport(**entry) for _, entry in entries if entry is not None]
