"""Snapshot ingestion, monitoring reports, rendering and history persistence.

A monitoring report is self-contained: every statistic, boundary and
classification can be re-derived from its own fields.  History is an
append-only JSON-lines file guarded by an exclusive lock; duplicate
submissions (same label and content) are acknowledged as no-ops.  Each append
rewrites the sidecar ``<history>.idx``: the validated byte length, its SHA-256,
the physical and non-blank line counts, and by label a flat list of each line's
byte offset and ordinal.  The next append validates only what follows those
bytes.  Deleting the sidecar is safe; an edited history is re-scanned in full.
"""

from __future__ import annotations

import contextlib
import csv
import fcntl
import hashlib
import io
import json
import os
import re
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
    ResemblanceConfig,
    classify_lewis,
    classify_p_value,
    classify_prs,
    classify_yn,
    decision_boundaries,
    ks_p_value,
    yn_boundaries,
)

YN_ALPHA_UPPER = 0.01
YN_ALPHA_LOWER = 0.10


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


def _read_rows(path: Path) -> tuple[list[str], list[dict]]:
    """Lower-cased header fields and the rows keyed by them."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValidationError(f"{path}: empty file")
        fields = [f.strip().lower() for f in reader.fieldnames]
        return fields, [dict(zip(fields, row.values())) for row in reader]


def _ordered_values(
    path: Path, fields: list[str], rows: list[dict], value_field: str
) -> list[float]:
    """Values of a category,value table; categories must be 1..B in order, no gaps."""
    if "category" not in fields or value_field not in fields:
        raise ValidationError(
            f"{path}: expected header 'category,{value_field}', got {fields}"
        )
    seen: dict[int, float] = {}
    for i, row in enumerate(rows, start=2):
        try:
            cat = int(row["category"])
            val = float(row[value_field])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{i}: unparsable row {row}") from exc
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
        probs = counts / counts.sum()
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
    tau_red, tau_green = yn_boundaries(counts.n, counts.B, YN_ALPHA_UPPER, YN_ALPHA_LOWER)
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


def _read_index(path: Path, data: bytes, label: str) -> tuple:
    """The sidecar's ``(length, lines, count, labels)``, the SHA-256 of the first ``length``
    bytes and ``(ordinal, fields)`` of their lines of ``label``.  A sidecar that is missing,
    stale, or inconsistent for ``label`` vouches for no bytes."""
    try:
        index = json.loads(Path(f"{path}.idx").read_bytes())
        length = index["length"]
        digest = hashlib.sha256(memoryview(data)[:length])
        if not 0 <= length <= len(data) or digest.hexdigest() != index["sha256"]:
            raise ValueError("the history changed since the sidecar was written")
        labels = {str(key): list(value) for key, value in index["labels"].items()}
        same, pairs = [], labels.get(label, [])
        for offset, ordinal in zip(pairs[::2], pairs[1::2]):
            starts = 0 <= offset < length and (not offset or data[offset - 1] in b"\r\n")
            entry = next(_history(path, data, offset))[2] if starts else None
            if entry is None or str(entry["label"]) != label:
                raise ValueError(f"offset {offset} does not start a line of {label!r}")
            same.append((ordinal, entry))
        return (length, int(index["lines"]), int(index["count"]), labels), digest, same
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return (0, 0, 0, {}), hashlib.sha256(), []


def append_history(report: MonitoringReport, history_path: str | Path) -> HistoryAck:
    """Append one JSON line; a report equal to one already stored is a no-op.

    Every line is validated first, but of the lines the sidecar vouches for
    only those of the report's label are parsed again."""
    path = Path(history_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    label = str(report.label)
    with open(path, "ab+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            fh.seek(0)
            data = fh.read()
            (start, lines, count, labels), digest, same = _read_index(path, data, label)
            for lines, offset, entry in _history(path, data, start, lines):
                if entry is not None:
                    count += 1
                    labels.setdefault(str(entry["label"]), []).extend((offset, count))
                    if str(entry["label"]) == label:
                        same.append((count, entry))
            # a report that differs in one field is unequal: test a cheap one first
            ordinal = next((o for o, entry in same if entry["prs_value"] == report.prs_value
                            and MonitoringReport(**entry) == report), None)
            new = b""
            if ordinal is None:
                # a last line without its newline would run into the new one
                new = b"" if data[-1:] in (b"", b"\n") else b"\n"
                lines, count = lines + 1, count + 1
                labels.setdefault(label, []).extend((len(data) + len(new), count))
                new += json.dumps(asdict(report), sort_keys=True).encode() + b"\n"
                fh.write(new)
                fh.flush()
            if start < len(data) + len(new):
                digest.update(data[start:] + new)
                index = {"length": len(data) + len(new), "sha256": digest.hexdigest(),
                         "lines": lines, "count": count, "labels": labels}
                with contextlib.suppress(OSError):  # the next append then scans further back
                    Path(f"{path}.idx.tmp").write_text(json.dumps(index, separators=(",", ":")))
                    os.replace(f"{path}.idx.tmp", f"{path}.idx")
            return HistoryAck(count) if ordinal is None else HistoryAck(ordinal, duplicate=True)
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def read_history(history_path: str | Path) -> list[MonitoringReport]:
    path = Path(history_path)
    entries = _history(path, path.read_bytes())
    return [MonitoringReport(**entry) for _, _, entry in entries if entry is not None]
