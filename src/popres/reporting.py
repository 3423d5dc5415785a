"""Snapshot and reference ingestion, monitoring reports and their rendering.

Every input file is read by ``read_text``.  A report is self-contained: every statistic,
boundary and classification can be re-derived from its fields; ``popres.history`` stores it.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

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
    if label is None:
        # the name's bytes as UTF-8, as a label in a file is read, whatever the locale
        # decoded the name as
        name = os.fsencode(path.stem)
        try:
            label = name.decode()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: the file name is not UTF-8 (byte 0x{name[exc.start]:02x}), "
                                  "so it cannot label the snapshot") from exc
    else:
        label = str(label)
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
