"""Independent oracles the tests compare popres against."""

from __future__ import annotations

import fcntl
import json
import math
import os
from dataclasses import MISSING, asdict, fields
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from popres.divergences import CategoryCounts, ReferenceDistribution, as_probs
from popres.errors import ValidationError
from popres.reporting import HistoryAck, MonitoringReport

MAX_ENUM_B = 12
# at most C(n + B - 1, B - 1) count vectors: about 3.2e5 at n = 30, B = 6
MAX_ENUM_VECTORS = 400_000


def enumerate_extreme_points(p0: ReferenceDistribution, delta: float) -> list[np.ndarray]:
    """All extreme points of the delta-tolerance region around p0.

    Coordinates move by +-delta with equal numbers of up and down moves;
    for odd B exactly one coordinate stays put, for even B none does.  The
    largest non-centrality over these points is the closed-form
    ``lambda_sup``.
    """
    q = as_probs(p0)
    B = q.size
    if B > MAX_ENUM_B:
        raise ValidationError(f"enumeration guard: B={B} exceeds {MAX_ENUM_B}")
    if delta <= 0 or delta > float(np.min(q)) + 1e-15:
        raise ValidationError(
            f"delta={delta} must lie in (0, min reference probability]"
        )
    points: list[np.ndarray] = []
    if B % 2 == 0:
        for plus in combinations(range(B), B // 2):
            p = q - delta
            p[list(plus)] = q[list(plus)] + delta
            points.append(p)
    else:
        for fixed in range(B):
            rest = [j for j in range(B) if j != fixed]
            for plus in combinations(rest, (B - 1) // 2):
                p = q - delta
                p[fixed] = q[fixed]
                p[list(plus)] = q[list(plus)] + delta
                points.append(p)
    return points


def ks_p_value_enumerated(counts: CategoryCounts, p0: ReferenceDistribution) -> float:
    """P(D* >= D - 1e-12) under Multinomial(n, p0), summed over every count vector.

    Each vector comes from a choice of B - 1 bar positions among n + B - 1
    slots; its probability is the multinomial pmf from log-gamma.
    """
    q = as_probs(p0)
    n, B = counts.n, q.size
    if math.comb(n + B - 1, B - 1) > MAX_ENUM_VECTORS:
        raise ValidationError(f"enumeration guard: {math.comb(n + B - 1, B - 1)} count vectors")
    bars = np.array(list(combinations(range(n + B - 1), B - 1)), dtype=np.int64).reshape(-1, B - 1)
    edges = np.hstack([np.full((bars.shape[0], 1), -1), bars, np.full((bars.shape[0], 1), n + B - 1)])
    every = np.diff(edges, axis=1) - 1
    cdf = np.cumsum(q)
    observed = np.abs(np.cumsum(counts.counts) / n - cdf).max()
    d_star = np.abs(np.cumsum(every, axis=1) / n - cdf).max(axis=1)
    log_pmf = gammaln(n + 1) - gammaln(every + 1).sum(axis=1) + (every * np.log(q)).sum(axis=1)
    return float(np.exp(log_pmf[d_star >= observed - 1e-12]).sum())


def append_history_full_scan(report: MonitoringReport, history_path) -> HistoryAck:
    """``append_history`` with no sidecar: every append parses every line.

    The file is read in text mode, so lines end as universal newlines end
    them.  Every line is validated before a duplicate is acknowledged.
    """
    known = {f.name for f in fields(MonitoringReport)}
    required = {f.name for f in fields(MonitoringReport) if f.default is MISSING}
    path = Path(history_path)
    with open(path, "a+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            fh.seek(0)
            entries = []
            for i, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    if not isinstance(entry, dict) or not required <= entry.keys() <= known:
                        raise TypeError("not a report")
                except (json.JSONDecodeError, TypeError) as exc:
                    raise ValidationError(f"{path}:{i}: corrupt history line ({exc})") from exc
                entries.append(entry)
            for ordinal, entry in enumerate(entries, start=1):
                if entry["label"] == report.label and MonitoringReport(**entry) == report:
                    return HistoryAck(line_count=ordinal, duplicate=True)
            size = os.fstat(fh.fileno()).st_size
            if size and os.pread(fh.fileno(), 1, size - 1) != b"\n":
                fh.write("\n")
            fh.write(json.dumps(asdict(report), sort_keys=True) + "\n")
            fh.flush()
            return HistoryAck(line_count=len(entries) + 1)
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)
