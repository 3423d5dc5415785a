"""Snapshot ingestion, monitoring reports, rendering and history persistence.

A monitoring report is self-contained: every statistic, boundary and
classification can be re-derived from its own fields.  History is an
append-only JSON-lines file guarded by an exclusive lock; duplicate
submissions (same label and content) are acknowledged as no-ops.  Each append
rewrites the sidecar ``<history>.idx``: the validated byte length, its SHA-256,
the physical and non-blank line counts, and by label a flat list of each line's
byte offset, ordinal and ``prs_value`` fingerprint (``hash`` of a number, which
equal numbers share; ``null`` for anything else).  The sidecar opens with the
SHA-256 of the rest of its own bytes, and its schema names the build's hash
modulus.  The next append validates only what follows the recorded bytes; of
the lines before, it parses only the report's label's lines whose fingerprint
could equal the report's.  Deleting the sidecar is safe; an edited history or
sidecar, or one written by another format or build, costs one full scan.
"""

from __future__ import annotations

import contextlib
import csv
import fcntl
import hashlib
import io
import json
import math
import os
import re
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .divergences import (
    CategoryCounts,
    ReferenceDistribution,
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


def _read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Lower-cased header fields and the non-blank rows under them."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        return [f.strip().lower() for f in header], [row for row in reader if row]


def _ordered_values(
    path: Path, fields: list[str], rows: list[list[str]], value_field: str
) -> list[float]:
    """Values of a category,value table; categories must be 1..B in order, no gaps."""
    if "category" not in fields or value_field not in fields:
        raise ValidationError(
            f"{path}: expected header 'category,{value_field}', got {fields}"
        )
    column = {name: j for j, name in enumerate(fields)}  # a repeated name: its last column
    cat_at, value_at = column["category"], column[value_field]
    seen: dict[int, float] = {}
    for i, row in enumerate(rows, start=2):
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
    if missing:
        raise ValidationError(f"{path}: missing categories {missing}")
    return [seen[c] for c in range(1, B + 1)]


def load_reference(path: str | Path) -> ReferenceDistribution:
    """Reference from a CSV of explicit probabilities or of reference counts."""
    path = Path(path)
    fields, rows = _read_rows(path)
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
    if path.suffix.lower() == ".json":
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict) or "counts" not in payload:
            raise ValidationError(f"{path}: expected an object with a 'counts' array")
    else:
        payload = {"counts": _ordered_values(path, *_read_rows(path), "count")}
    try:
        counts = CategoryCounts(np.asarray(payload["counts"]))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    label = str(payload.get("label") or path.stem)
    return Snapshot(label=label, counts=counts, timestamp=payload.get("timestamp"))


def monitor(
    snapshot: Snapshot,
    reference: ReferenceDistribution,
    cfg: ResemblanceConfig,
    seed: int = 0,
) -> MonitoringReport:
    """Every statistic and classification for one snapshot; ``seed`` is only recorded."""
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
        config=asdict(cfg),
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
    d = asdict(report)
    d["config"] = json.dumps(d["config"], sort_keys=True)
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


_LINE = re.compile(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")  # ended as universal newlines end it


def _history(path: Path, data: bytes, start: int = 0, line: int = 0) -> Iterator[tuple]:
    """(line number, byte offset, fields or None if blank) of each line from byte
    ``start``, the start of line ``line + 1``; a line that is not a report is corrupt."""
    for number, match in enumerate(_LINE.finditer(data, start), start=line + 1):
        entry = None
        try:
            text = match[0].decode()
            if text.strip():
                entry = json.loads(text)
                if not isinstance(entry, dict):
                    raise TypeError(f"expected a JSON object, got {type(entry).__name__}")
                keys = entry.keys()
                if not _REQUIRED_FIELDS <= keys <= _REPORT_FIELDS:
                    raise TypeError(
                        f"unknown fields {sorted(keys - _REPORT_FIELDS)}, "
                        f"missing fields {sorted(_REQUIRED_FIELDS - keys)}"
                    )
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"{path}:{number}: corrupt history line ({exc})") from exc
        yield number, match.start(), entry


# a sidecar of another layout, or whose fingerprints another hash function made, is stale
_INDEX_SCHEMA = f"offset,ordinal,fingerprint;hash-modulus={sys.hash_info.modulus}"


def _seal(body: bytes) -> bytes:
    """A sidecar: ``body``, the members of a JSON object after its ``{``, opened by a
    member holding the SHA-256 of ``body``."""
    return b'{"self_sha256":"%s",%s' % (hashlib.sha256(body).hexdigest().encode(), body)


_SEAL_HEAD = len(_seal(b""))


def _fingerprint(value) -> Optional[int]:
    """An integer equal ``prs_value``s share, or ``None`` (may equal anything): the hash
    of other types, such as ``str``, may differ from one process to the next.  So may a
    NaN's, but a NaN ``prs_value`` equals nothing."""
    return hash(value) if type(value) in (int, float) else None


def _may_equal(fingerprint: Optional[int], key: Optional[int]) -> bool:
    return fingerprint is None or key is None or fingerprint == key


def _read_index(path: Path, data: bytes, label: str, key: Optional[int]) -> tuple:
    """The sidecar's ``(length, lines, count, labels)``, the SHA-256 of the first ``length``
    bytes and ``(ordinal, fields)`` of their lines of ``label`` whose fingerprint may equal
    ``key``.  A sidecar that is missing, stale, not sealed by its own digest, or wrong about
    such a line vouches for no bytes."""
    try:
        raw = Path(f"{path}.idx").read_bytes()
        if _seal(raw[_SEAL_HEAD:]) != raw:
            raise ValueError("the sidecar changed since it was written")
        index = json.loads(raw)
        length = index["length"]
        digest = hashlib.sha256(memoryview(data)[:length])
        if index["schema"] != _INDEX_SCHEMA or not 0 <= length <= len(data) \
                or digest.hexdigest() != index["sha256"]:
            raise ValueError("the history changed since the sidecar was written")
        labels = index["labels"]
        same, triples = [], labels.get(label, [])
        for offset, ordinal, fp in zip(triples[::3], triples[1::3], triples[2::3]):
            if _may_equal(fp, key):
                starts = 0 <= offset < length and (not offset or data[offset - 1] in b"\r\n")
                entry = next(_history(path, data, offset))[2] if starts else None
                if entry is None or str(entry["label"]) != label:
                    raise ValueError(f"offset {offset} does not start a line of {label!r}")
                same.append((ordinal, entry))
        return (length, index["lines"], index["count"], labels), digest, same
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return (0, 0, 0, {}), hashlib.sha256(), []


def append_history(report: MonitoringReport, history_path: str | Path) -> HistoryAck:
    """Append one JSON line; a report equal to one already stored is a no-op.

    Every line is validated first, but of the lines the sidecar vouches for
    only those of the report's label whose ``prs_value`` fingerprint matches
    the report's are parsed again."""
    path = Path(history_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    label, key = str(report.label), _fingerprint(report.prs_value)
    with open(path, "ab+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            fh.seek(0)
            data = fh.read()
            (start, lines, count, labels), digest, same = _read_index(path, data, label, key)
            for lines, offset, entry in _history(path, data, start, lines):
                if entry is not None:
                    count += 1
                    fp = _fingerprint(entry["prs_value"])
                    labels.setdefault(str(entry["label"]), []).extend((offset, count, fp))
                    if str(entry["label"]) == label and _may_equal(fp, key):
                        same.append((count, entry))
            # prs_value first: it is cheap, and a NaN equals nothing, not even the one NaN
            # object that json parses every NaN to
            ordinal = next((o for o, entry in same if entry["prs_value"] == report.prs_value
                            and MonitoringReport(**entry) == report), None)
            new = b""
            if ordinal is None:
                # a last line without its newline would run into the new one
                new = b"" if data[-1:] in (b"", b"\n") else b"\n"
                lines, count = lines + 1, count + 1
                labels.setdefault(label, []).extend((len(data) + len(new), count, key))
                new += json.dumps(asdict(report), sort_keys=True).encode() + b"\n"
                fh.write(new)
                fh.flush()
            if start < len(data) + len(new):
                digest.update(data[start:] + new)
                index = {"schema": _INDEX_SCHEMA, "length": len(data) + len(new),
                         "sha256": digest.hexdigest(), "lines": lines, "count": count,
                         "labels": labels}
                body = json.dumps(index, separators=(",", ":")).encode()[1:]
                with contextlib.suppress(OSError):  # the next append then scans further back
                    Path(f"{path}.idx.tmp").write_bytes(_seal(body))
                    os.replace(f"{path}.idx.tmp", f"{path}.idx")
            return HistoryAck(count) if ordinal is None else HistoryAck(ordinal, duplicate=True)
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def read_history(history_path: str | Path) -> list[MonitoringReport]:
    path = Path(history_path)
    entries = _history(path, path.read_bytes())
    return [MonitoringReport(**entry) for _, _, entry in entries if entry is not None]
