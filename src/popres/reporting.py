"""Snapshot ingestion, monitoring reports, rendering and history persistence.

A monitoring report is self-contained: every statistic, boundary and
classification can be re-derived from its own fields.  History is an
append-only JSON-lines file guarded by an exclusive lock; duplicate
submissions (same label and content) are acknowledged as no-ops.
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import json
import io
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

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

KS_REPLICATIONS = 10_000
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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MonitoringReport":
        return cls(**d)

    def content_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


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
        vals = _ordered_values(path, fields, rows, "prob")
        return ReferenceDistribution(np.asarray(vals))
    if "count" in fields:
        vals = np.asarray(_ordered_values(path, fields, rows, "count"))
        if np.any(vals <= 0):
            raise ValidationError(f"{path}: reference counts must be strictly positive")
        return ReferenceDistribution(vals / vals.sum())
    raise ValidationError(f"{path}: expected a 'prob' or 'count' column, got {fields}")


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
        counts = CategoryCounts(np.asarray(payload["counts"]))
        return Snapshot(
            label=str(payload.get("label") or path.stem),
            counts=counts,
            timestamp=payload.get("timestamp"),
        )
    vals = _ordered_values(path, *_read_rows(path), "count")
    arr = np.asarray(vals)
    if np.any(arr != np.rint(arr)):
        raise ValidationError(f"{path}: counts must be integers")
    return Snapshot(label=path.stem, counts=CategoryCounts(arr.astype(np.int64)))


def monitor(
    snapshot: Snapshot,
    reference: ReferenceDistribution,
    cfg: ResemblanceConfig,
    seed: int = 0,
) -> MonitoringReport:
    """Compute every statistic and classification for one snapshot."""
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
    p_ks = ks_p_value(counts, reference, replications=KS_REPLICATIONS, seed=seed)
    return MonitoringReport(
        label=snapshot.label,
        n=counts.n,
        B=counts.B,
        delta=bounds.delta,
        lambda_sup=bounds.lambda_sup,
        tau1=bounds.tau1,
        tau2=bounds.tau2,
        prs_value=prs_value,
        prs_region=classify_prs(prs_value, bounds).rag,
        psi_value=psi_value,
        lewis_region=classify_lewis(psi_value).rag,
        yn_region=classify_yn(psi_value, tau_red, tau_green).rag,
        ks_value=ks_value,
        ks_p_value=p_ks,
        ks_region=classify_p_value(p_ks).rag,
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
    d = report.to_dict()
    d["config"] = json.dumps(d["config"], sort_keys=True)
    writer = csv.DictWriter(buf, fieldnames=list(d))
    writer.writeheader()
    writer.writerow(d)
    return buf.getvalue()


@dataclass(frozen=True)
class HistoryAck:
    appended: bool
    line_count: int
    duplicate: bool = False


def append_history(report: MonitoringReport, history_path: str | Path) -> HistoryAck:
    """Append one JSON line; duplicate (label, content) submissions are no-ops."""
    path = Path(history_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = report.content_hash()
    with open(path, "a+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            fh.seek(0)
            existing = 0
            for i, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    if not isinstance(entry, dict):
                        raise TypeError(f"expected a JSON object, got {type(entry).__name__}")
                    duplicate = (
                        entry.get("label") == report.label
                        and MonitoringReport.from_dict(entry).content_hash() == digest
                    )
                except (json.JSONDecodeError, TypeError) as exc:
                    raise ValidationError(f"{path}:{i}: corrupt history line ({exc})") from exc
                existing += 1
                if duplicate:
                    return HistoryAck(appended=False, line_count=existing, duplicate=True)
            fh.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
            return HistoryAck(appended=True, line_count=existing + 1)
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def read_history(history_path: str | Path) -> list[MonitoringReport]:
    path = Path(history_path)
    reports = []
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                reports.append(MonitoringReport.from_dict(json.loads(line)))
            except (json.JSONDecodeError, TypeError) as exc:
                raise ValidationError(f"{path}:{i}: corrupt history line ({exc})") from exc
    return reports
