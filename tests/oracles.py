"""Independent oracles the tests compare popres against."""

from __future__ import annotations

import csv
import fcntl
import io
import json
import math
import os
import re
from dataclasses import MISSING, asdict, fields
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from popres.divergences import (
    CategoryCounts,
    ReferenceDistribution,
    as_probs,
    ks_statistic,
    proportions,
    uniform_reference,
)
from popres import special_functions
from popres.errors import BoundaryOverlapError, ConstraintError, ValidationError
from popres.history import HistoryAck
from popres.reporting import MonitoringReport
from popres.resemblance import (
    KS_MAX_N,
    LEWIS_ACTION,
    DecisionBoundaries,
    ResemblanceConfig,
    lambda_sup,
    recommended_delta,
)
from popres.sampling import CHUNK_ROWS, _chunk_key
from popres.scenarios import perturbed_pv, solve_p_for_target_j
from popres.simulation import MCEstimate, StabilityRatios

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


def _window_halfwidth(var: float) -> int:
    """Lattice half-width, about 12 standard deviations, that a binomial count
    of variance <= var leaves with probability <= 2 exp(-72) < 1.1e-31:
    Bernstein's 2 exp(-t^2 / (2 (var + t/3))) at t = 24 + sqrt(576 + 144 var)."""
    return int(24.0 + math.sqrt(576.0 + 144.0 * var)) + 1


def _poisson_window(mu: float) -> tuple[int, np.ndarray]:
    """Poisson(mu) pmf on lo, lo + 1, ... around the mean, normalised over the window."""
    m, w = int(mu), _window_halfwidth(mu)
    lo = max(m - w, 0)
    # log pmf(k) - log pmf(k - 1) = log(mu / k): no two large terms cancel
    log_pmf = np.concatenate(([0.0], np.cumsum(np.log(mu / np.arange(lo + 1, m + w + 1)))))
    pmf = np.exp(log_pmf - log_pmf.max())
    return lo, pmf / pmf.sum()


def ks_p_value_uncached(counts: CategoryCounts, p0: ReferenceDistribution) -> float:
    """``resemblance.ks_p_value`` as it was before its window schedule was kept:
    every call builds each window as the loop reaches it.  The loop, the
    windows and the order of every sum are unchanged, so its p-value has the
    same bits as the kept-schedule one."""
    n = counts.n
    if n > KS_MAX_N:
        raise ValidationError(f"the exact KS p-value takes at most {KS_MAX_N:,} counts, got n = {n:,}")
    q = as_probs(p0)
    # D* >= D - 1e-12 counts as a tie: the tolerance absorbs floating roundoff
    reach = n * (ks_statistic(proportions(counts), q) - 1e-12)
    if reach <= 0:
        return 1.0
    dropped = 4 * (q.size - 1) * math.exp(-72)
    # Massart's DKW bound P(D* >= reach / n) <= 2 exp(-2 reach^2 / n) holds for
    # any reference; below the allowance it already certifies the answer
    if 2.0 * math.exp(-2.0 * reach * reach / n) <= dropped:
        return dropped
    cdf = np.cumsum(q)
    rest = np.cumsum(q[::-1])[::-1][1:]  # q_{j+1} + ... + q_B; 1 - F_j can round below 0
    lo, states, escaped, stayed = 0, np.ones(1), 0.0, 0.0
    for j in range(q.size - 1):
        # equal neighbouring means share a window: a uniform reference builds one, not B - 1
        if j == 0 or q[j] != q[j - 1]:
            x_lo, pmf = _poisson_window(n * q[j])
        mass = np.convolve(states, pmf)
        first = lo + x_lo  # the state of mass[0]
        # the band |s - n F_j| < reach, cut by the state window, as indices [a, b) of mass
        centre, cut = n * cdf[j], _window_halfwidth(n * cdf[j] * rest[j])
        low = max(math.floor(centre - reach) + 1, math.ceil(centre - cut)) - first
        high = min(math.ceil(centre + reach), math.floor(centre + cut) + 1) - first
        a = min(max(low, 0), mass.size)
        b = min(max(high, a), mass.size)
        # mass[i] ends at n if the rest bring n - first - i, finish[top - i] in their window
        r_lo, finish = _poisson_window(n * rest[j])
        top = n - first - r_lo
        i0 = max(top - finish.size + 1, 0)
        i1 = max(min(top + 1, mass.size), i0)
        weighted = np.zeros(mass.size)
        weighted[i0:i1] = mass[i0:i1] * finish[top - i1 + 1:top - i0 + 1][::-1]
        # both sides in one sum, so that p keeps its bits across releases and a
        # snapshot sent again after an upgrade still equals its stored report
        escaped += np.concatenate((weighted[:a], weighted[b:])).sum()
        stayed = weighted[a:b].sum()
        if a == b:
            break
        lo, states = first + a, mass[a:b]
    return min(1.0, escaped / (escaped + stayed) + dropped)


def boundaries_step_by_step(q: np.ndarray, n: int, cfg: ResemblanceConfig) -> DecisionBoundaries:
    """``resemblance.decision_boundaries`` written out from its parts, with the
    same checks in the same order, so that results and errors are equal."""
    delta = cfg.delta_override if cfg.delta_override is not None else recommended_delta(q, n, cfg.c)
    if cfg.M * delta > float(np.min(q)) + 1e-15:
        raise ConstraintError(
            f"M*delta = {cfg.M * delta:.6g} exceeds min reference probability "
            f"{float(np.min(q)):.6g}; reduce c, M or delta_override"
        )
    lam = lambda_sup(q, n, delta)
    tau1 = special_functions.ncx2_quantile(cfg.alpha2, q.size - 1, cfg.M**2 * lam) / n
    tau2 = special_functions.ncx2_quantile(1.0 - cfg.alpha1, q.size - 1, lam) / n
    if tau1 >= tau2:
        raise BoundaryOverlapError(
            f"critical values overlap (tau1={tau1:.6g} >= tau2={tau2:.6g}); "
            "reduce alpha1/alpha2 or increase M so the monitoring region is non-empty"
        )
    return DecisionBoundaries(delta=delta, lambda_sup=lam, tau1=tau1, tau2=tau2, n=n, B=q.size)


def yn_step_by_step(n: int, B: int, alpha_upper: float, alpha_lower: float) -> tuple[float, float]:
    """``resemblance.yn_boundaries`` written out: 2/n times central chi-square quantiles."""
    if n < 1:
        raise ValidationError(f"sample size must be positive, got {n}")
    if n > np.iinfo(np.int64).max:
        raise ValidationError(f"sample size {n} exceeds the int64 range")
    if B < 2:
        raise ValidationError(f"need B >= 2 categories, got {B}")
    for name, a in (("alpha_upper", alpha_upper), ("alpha_lower", alpha_lower)):
        if not 0.0 < a < 1.0:
            raise ValidationError(f"{name} must lie in (0, 1), got {a}")
    if alpha_upper >= alpha_lower:
        raise ValidationError(f"alpha_upper={alpha_upper} must be below alpha_lower={alpha_lower}")
    return tuple(2.0 / n * special_functions.ncx2_quantile(1.0 - a, B - 1, 0.0)
                 for a in (alpha_upper, alpha_lower))


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
                # prs_value first, as append_history compares: a NaN read back from
                # the history is the one NaN object json parses, but equals nothing
                if (entry["label"] == report.label and entry["prs_value"] == report.prs_value
                        and MonitoringReport(**entry) == report):
                    return HistoryAck(line_count=ordinal, duplicate=True)
            size = os.fstat(fh.fileno()).st_size
            if size and os.pread(fh.fileno(), 1, size - 1) != b"\n":
                fh.write("\n")
            fh.write(json.dumps(asdict(report), sort_keys=True) + "\n")
            fh.flush()
            return HistoryAck(line_count=len(entries) + 1)
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


_LINE = re.compile(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")  # ended as universal newlines end it


def history_lines_finditer(path, data: bytes, start: int = 0, line: int = 0):
    """``history._history`` as it was through a regular expression: (line number, byte
    offset, fields or None if blank) of each line from byte ``start``, the start of line
    ``line + 1``; a line that is not a report is corrupt."""
    known = {f.name for f in fields(MonitoringReport)}
    required = {f.name for f in fields(MonitoringReport) if f.default is MISSING}
    for number, match in enumerate(_LINE.finditer(data, start), start=line + 1):
        entry = None
        try:
            text = match[0].decode()
            if text.strip():
                entry = json.loads(text)
                if not isinstance(entry, dict):
                    raise TypeError(f"expected a JSON object, got {type(entry).__name__}")
                keys = entry.keys()
                if not required <= keys <= known:
                    raise TypeError(
                        f"unknown fields {sorted(keys - known)}, "
                        f"missing fields {sorted(required - keys)}"
                    )
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"{path}:{number}: corrupt history line ({exc})") from exc
        yield number, match.start(), entry


def read_rows_dictreader(path: Path, text: str) -> tuple[list[str], list[tuple[int, dict]]]:
    """``reporting._read_rows`` as it was through ``csv.DictReader``: each row a
    dict, with the number of the line it ends on.

    DictReader keys a row by the raw header names, so it is exact only for a
    header whose raw names differ (``count`` and ``Count`` do).
    """
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is None:
        raise ValidationError(f"{path}: empty file")
    fields = [f.strip().lower() for f in reader.fieldnames]
    return fields, [(reader.line_num, dict(zip(fields, row.values()))) for row in reader]


def ordered_values_dictreader(
    path: Path, fields: list[str], rows: list[tuple[int, dict]], value_field: str
) -> list[float]:
    """``reporting._ordered_values`` over the dict rows of ``read_rows_dictreader``."""
    if "category" not in fields or value_field not in fields:
        raise ValidationError(
            f"{path}: expected header 'category,{value_field}', got {fields}"
        )
    seen: dict[int, float] = {}
    for i, row in rows:
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
    if missing:  # then as many categories lie outside 1..B
        stray = sorted(c for c in seen if not 1 <= c <= B)
        raise ValidationError(f"{path}: missing categories {missing}, "
                              f"categories outside 1..{B}: {stray}")
    return [seen[c] for c in range(1, B + 1)]


def multinomial_matrix_by_chunk(n: int, p: np.ndarray, replications: int, seed: int,
                                stream: int = 0) -> np.ndarray:
    """``sampling.multinomial_matrix`` as its docstring states it: chunks of
    ``CHUNK_ROWS`` rows, each drawn by its own Philox generator, stacked in order."""
    chunks = []
    for c, lo in enumerate(range(0, replications, CHUNK_ROWS)):
        gen = np.random.Generator(np.random.Philox(key=_chunk_key(seed, stream, c)))
        chunks.append(gen.multinomial(n, p, size=min(CHUNK_ROWS, replications - lo)))
    return np.vstack(chunks)


# ``divergences.psi``, ``prs`` and ``ks_statistic`` of every row of a K x B
# matrix of proportions against one reference vector q, in the arithmetic of
# ``divergences``, so each row gives the float the statistic gives on it.


def psi_rows(ph: np.ndarray, q: np.ndarray) -> np.ndarray:
    seen = ph > 0
    return np.where(seen, (ph - q) * (np.log(np.where(seen, ph, 1.0)) - np.log(q)), 0.0).sum(axis=1)


def prs_rows(ph: np.ndarray, q: np.ndarray) -> np.ndarray:
    return ((ph - q) ** 2 / q).sum(axis=1)


def ks_rows(ph: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.abs(np.cumsum(ph, axis=1) - np.cumsum(q)).max(axis=1)


# ``simulation``'s sampling kernels the direct way: the whole K x B matrix,
# then the row formulas above on ``counts / n``.  Each takes the keywords its
# ``simulation`` namesake takes; the study specs are validated by the caller.


def reconstruction_probability_full_matrix(n, B, replications, seed, target_j=0.0,
                                           psi_threshold=LEWIS_ACTION, workers=1) -> MCEstimate:
    q = uniform_reference(B)
    p = solve_p_for_target_j(q, target_j)
    counts = multinomial_matrix_by_chunk(n, p, replications, seed, stream=1)
    return MCEstimate.of_hits(int(np.sum(psi_rows(counts / n, q.probs) >= psi_threshold)),
                              replications)


def stability_ratios_full_matrix(n, B, replications, seed, workers=1) -> StabilityRatios:
    q = uniform_reference(B).probs
    ph = multinomial_matrix_by_chunk(n, q, replications, seed, stream=2) / n
    t, s, dof = n * psi_rows(ph, q), n * prs_rows(ph, q), B - 1
    return StabilityRatios(
        mean_ratio_psi=float(t.mean() / dof),
        var_ratio_psi=float(t.var(ddof=1) / (2 * dof)),
        mean_ratio_prs=float(s.mean() / dof),
        var_ratio_prs=float(s.var(ddof=1) / (2 * dof)),
        mean_se_psi=float(t.std(ddof=1) / math.sqrt(replications) / dof),
        mean_se_prs=float(s.std(ddof=1) / math.sqrt(replications) / dof),
    )


def region_counts_full_matrix(bounds, delta_v, replications, seed, stream, workers) -> tuple[int, int]:
    counts = multinomial_matrix_by_chunk(bounds.n, perturbed_pv(bounds.B, delta_v), replications,
                                         seed, stream)
    prs_vals = prs_rows(counts / bounds.n, np.full(bounds.B, 1.0 / bounds.B))
    return int(np.sum(prs_vals <= bounds.tau1)), int(np.sum(prs_vals > bounds.tau2))


FULL_MATRIX_KERNELS = {
    "reconstruction_probability": reconstruction_probability_full_matrix,
    "stability_ratios": stability_ratios_full_matrix,
    "_region_counts": region_counts_full_matrix,
}
