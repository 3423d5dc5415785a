"""Seeded Monte Carlo engine for the reconstruction, stability and sweep studies.

Replications use the counter-based substreams from :mod:`popres.sampling`,
so every study is bit-reproducible from (seed, spec) alone at any
parallelism degree.  :class:`StudySpec` and :func:`run_study` turn one
``popres study`` invocation into its CSV artifact.
"""

from __future__ import annotations

import csv
import errno
import math
import os
import stat
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import sampling
from .divergences import _check_sample_size, _check_seed, _prs_terms, _psi_terms, uniform_reference
from .errors import ValidationError
from .resemblance import (
    LEWIS_ACTION,
    DecisionBoundaries,
    ResemblanceConfig,
    decision_boundaries,
)
from .scenarios import perturbed_pv, solve_p_for_target_j

REPLICATIONS = 100_000
GRID_POINTS = 30


def _check_study_args(
    ns: tuple[int, ...],
    B: int,
    replications: int,
    workers: int,
    grid_points: int = GRID_POINTS,
    target_j: float = 0.0,
    threshold: float = LEWIS_ACTION,
) -> None:
    """Reject study arguments no study can run; each message names its flag."""
    for n in ns:
        _check_sample_size(n)
    if B < 2:
        raise ValidationError(f"need B >= 2 categories, got {B}")
    if replications < 1:
        raise ValidationError("need at least one replication")
    if grid_points < 1:
        raise ValidationError(f"grid_points must be at least 1 (--grid-points), got {grid_points}")
    if not target_j >= 0:
        raise ValidationError(
            f"target_j must be a non-negative J-divergence (--target-j), got {target_j}"
        )
    if workers < 1:
        raise ValidationError(f"workers must be at least 1 (--workers), got {workers}")
    if not 0 < threshold < math.inf:
        raise ValidationError(
            f"threshold must be a finite positive PSI (--threshold), got {threshold}"
        )


def _scorer(n: int, B: int, *statistics: str):
    """Block scorer for ``sampling.multinomial_matrix``: each named statistic
    ("psi" or "prs") of every row of counts against the uniform reference,
    the float ``divergences.psi``/``prs`` gives on that row of ``counts / n``.
    This is the one batch path; the statistics themselves take one vector.

    Every statistic is a sum over categories of a term of one count, so the
    terms are evaluated once per count in the block's range [lo, hi] and
    gathered.  The table is used only while that range is no longer than the
    block has cells; otherwise the terms are evaluated on the block itself.
    Either way a row's value depends on its own counts alone, so it is the
    same whichever block the sampler hands it in.
    """
    q = uniform_reference(B).probs
    log_q = np.log(q)  # the vector psi takes the log of, as divergences.psi does
    terms = {"psi": lambda ph: _psi_terms(ph, q[0], log_q[0]),
             "prs": lambda ph: _prs_terms(ph, q[0])}
    chosen = [terms[name] for name in statistics]

    def score(counts: np.ndarray) -> np.ndarray:
        lo, hi = int(counts.min()), int(counts.max())
        if hi - lo < counts.size:
            counts -= lo  # the block's own array, now the table index
            values = [term(np.arange(lo, hi + 1) / n)[counts].sum(axis=-1) for term in chosen]
        else:
            values = [term(counts / n).sum(axis=-1) for term in chosen]
        return values[0] if len(values) == 1 else np.stack(values, axis=-1)

    return score


@dataclass(frozen=True)
class MCEstimate:
    value: float
    std_error: float

    @classmethod
    def of_hits(cls, hits: int, replications: int) -> MCEstimate:
        """Fraction of hits with its binomial standard error, floored at one hit."""
        frac = hits / replications
        return cls(frac, math.sqrt(max(frac * (1.0 - frac), 1.0 / replications) / replications))


@dataclass(frozen=True)
class StabilityRatios:
    """Empirical moments of the scaled statistics against their asymptotic values."""

    mean_ratio_psi: float
    var_ratio_psi: float
    mean_ratio_prs: float
    var_ratio_prs: float
    mean_se_psi: float
    mean_se_prs: float


@dataclass(frozen=True)
class SweepResult:
    grid: np.ndarray
    region_probs: np.ndarray  # shape (grid, 3), rows sum to 1
    region_se: np.ndarray  # shape (grid, 3), the binomial SE of each, floored at one hit
    boundaries: DecisionBoundaries


def reconstruction_probability(
    n: int,
    B: int,
    replications: int,
    seed: int,
    target_j: float = 0.0,
    psi_threshold: float = LEWIS_ACTION,
    workers: int = 1,
) -> MCEstimate:
    """Fraction of replications whose PSI reaches the reconstruction threshold,
    sampling from the reference shifted to J-divergence ``target_j`` (0: unshifted)."""
    _check_study_args((n,), B, replications, workers, target_j=target_j, threshold=psi_threshold)
    p0 = uniform_reference(B)
    p = solve_p_for_target_j(p0, target_j)
    psi_vals = sampling.multinomial_matrix(n, p, replications, seed=seed, stream=1, workers=workers,
                                           score=_scorer(n, B, "psi"))
    return MCEstimate.of_hits(int(np.sum(psi_vals >= psi_threshold)), replications)


def stability_ratios(n: int, B: int, replications: int, seed: int, workers: int = 1) -> StabilityRatios:
    """Mean and variance stability of n*PSI and n*PRS under no shift."""
    _check_study_args((n,), B, replications, workers)
    q = uniform_reference(B).probs
    both = sampling.multinomial_matrix(n, q, replications, seed=seed, stream=2, workers=workers,
                                       score=_scorer(n, B, "psi", "prs"))
    t = n * both[:, 0]
    s = n * both[:, 1]
    dof = B - 1
    return StabilityRatios(
        mean_ratio_psi=float(t.mean() / dof),
        var_ratio_psi=float(t.var(ddof=1) / (2 * dof)),
        mean_ratio_prs=float(s.mean() / dof),
        var_ratio_prs=float(s.var(ddof=1) / (2 * dof)),
        mean_se_psi=float(t.std(ddof=1) / math.sqrt(replications) / dof),
        mean_se_prs=float(s.std(ddof=1) / math.sqrt(replications) / dof),
    )


def classification_sweep(
    n: int,
    B: int,
    cfg: ResemblanceConfig,
    grid_points: int = GRID_POINTS,
    replications: int = REPLICATIONS,
    seed: int = 0,
    workers: int = 1,
) -> SweepResult:
    """Region probabilities across deviations from zero to (3M+2) * delta."""
    _check_study_args((n,), B, replications, workers, grid_points=grid_points)
    p0 = uniform_reference(B)
    bounds = decision_boundaries(p0, n, cfg)
    # the nominal sweep extends to (3M+2)*delta, but a perturbation cannot
    # push any entry of the equi-probable reference below zero
    grid_max = min((3.0 * cfg.M + 2.0) * bounds.delta, (1.0 - 1e-9) / B)
    grid = np.linspace(0.0, grid_max, grid_points)
    probs, se = np.empty((grid_points, 3)), np.empty((grid_points, 3))
    for i, dv in enumerate(grid):
        r1, r3 = _region_counts(bounds, float(dv), replications, seed, 10 + i, workers)
        estimates = [MCEstimate.of_hits(hits, replications) for hits in (r1, replications - r1 - r3, r3)]
        probs[i] = [est.value for est in estimates]
        se[i] = [est.std_error for est in estimates]
    return SweepResult(grid=grid, region_probs=probs, region_se=se, boundaries=bounds)


def calibration_probabilities(
    n: int,
    B: int,
    cfg: ResemblanceConfig,
    replications: int = REPLICATIONS,
    seed: int = 0,
    workers: int = 1,
) -> dict[str, MCEstimate]:
    """Region probabilities at the two calibration deviations.

    At delta_v = delta the perturbation attains the least favorable
    non-centrality exactly, so P(R3) should approach alpha1; at
    delta_v = M * delta, P(R1) should approach alpha2.
    """
    _check_study_args((n,), B, replications, workers)
    p0 = uniform_reference(B)
    bounds = decision_boundaries(p0, n, cfg)
    _, r3 = _region_counts(bounds, bounds.delta, replications, seed, 100, workers)
    r1, _ = _region_counts(bounds, cfg.M * bounds.delta, replications, seed, 101, workers)
    return {"r3_at_delta": MCEstimate.of_hits(r3, replications),
            "r1_at_m_delta": MCEstimate.of_hits(r1, replications)}


def _region_counts(
    bounds: DecisionBoundaries,
    delta_v: float,
    replications: int,
    seed: int,
    stream: int,
    workers: int,
) -> tuple[int, int]:
    """Replications of the blockwise population at ``delta_v`` whose PRS
    against the equi-probable reference falls in R1 and in R3."""
    p = perturbed_pv(bounds.B, delta_v)
    prs_vals = sampling.multinomial_matrix(
        bounds.n, p, replications, seed=seed, stream=stream, workers=workers,
        score=_scorer(bounds.n, bounds.B, "prs"),
    )
    return int(np.sum(prs_vals <= bounds.tau1)), int(np.sum(prs_vals > bounds.tau2))


@dataclass(frozen=True)
class StudySpec:
    """One run of a named study over the sample sizes ``ns`` (sweep takes one)."""

    study: str
    B: int
    ns: tuple[int, ...]
    cfg: ResemblanceConfig = field(default_factory=ResemblanceConfig)
    replications: int = REPLICATIONS
    seed: int = 0
    grid_points: int = GRID_POINTS
    target_j: float = 0.0
    threshold: float = LEWIS_ACTION
    workers: int = 1

    def __post_init__(self) -> None:
        if self.study not in STUDIES:
            raise ValidationError(
                f"unknown study {self.study!r}; expected {', '.join(STUDIES)}"
            )
        if not self.ns:
            raise ValidationError("study needs a sample size (--n or --n-grid)")
        if self.study == "sweep" and len(self.ns) != 1:
            raise ValidationError(
                f"sweep takes exactly one sample size (--n), got {list(self.ns)}"
            )
        _check_study_args(self.ns, self.B, self.replications, self.workers,
                          self.grid_points, self.target_j, self.threshold)
        object.__setattr__(self, "seed", _check_seed(self.seed, " (--seed)"))
        # as floats, so that 0 and 0.0 write the same artifact
        object.__setattr__(self, "target_j", float(self.target_j))
        object.__setattr__(self, "threshold", float(self.threshold))


def _table1(spec: StudySpec) -> tuple[dict, list[str], list[list]]:
    rows = []
    for n in spec.ns:
        est = reconstruction_probability(n, spec.B, spec.replications, spec.seed, spec.target_j,
                                         spec.threshold, workers=spec.workers)
        rows.append([n, spec.B, spec.target_j, repr(est.value), repr(est.std_error)])
    meta = {"study": "table1", "B": spec.B, "replications": spec.replications,
            "seed": spec.seed, "threshold": spec.threshold, "target_j": spec.target_j}
    return meta, ["n", "B", "target_j", "estimate", "std_error"], rows


def _stability(spec: StudySpec) -> tuple[dict, list[str], list[list]]:
    rows = []
    for n in spec.ns:
        r = stability_ratios(n, spec.B, spec.replications, spec.seed, workers=spec.workers)
        rows.append([n, spec.B, repr(r.mean_ratio_psi), repr(r.var_ratio_psi),
                     repr(r.mean_ratio_prs), repr(r.var_ratio_prs),
                     repr(r.mean_se_psi), repr(r.mean_se_prs)])
    meta = {"study": "stability", "B": spec.B, "replications": spec.replications,
            "seed": spec.seed}
    header = ["n", "B", "mean_ratio_psi", "var_ratio_psi", "mean_ratio_prs", "var_ratio_prs",
              "mean_se_psi", "mean_se_prs"]
    return meta, header, rows


def _sweep(spec: StudySpec) -> tuple[dict, list[str], list[list]]:
    (n,) = spec.ns
    cfg = spec.cfg
    result = classification_sweep(
        n, spec.B, cfg, grid_points=spec.grid_points,
        replications=spec.replications, seed=spec.seed, workers=spec.workers,
    )
    bounds = result.boundaries
    meta = {"study": "sweep", "n": n, "B": spec.B, "replications": spec.replications,
            "seed": spec.seed, "c": cfg.c, "M": cfg.M, "alpha1": cfg.alpha1,
            "alpha2": cfg.alpha2, "delta": repr(bounds.delta),
            "tau1": repr(bounds.tau1), "tau2": repr(bounds.tau2)}
    rows = [[repr(float(dv)), *(repr(float(v)) for v in (*probs, *se))]
            for dv, probs, se in zip(result.grid, result.region_probs, result.region_se)]
    return meta, ["delta_v", "p_r1", "p_r2", "p_r3", "se_r1", "se_r2", "se_r3"], rows


_RUNNERS = {"table1": _table1, "stability": _stability, "sweep": _sweep}
STUDIES = tuple(_RUNNERS)


def run_study(spec: StudySpec, output_path: str | Path) -> Path:
    """Run the study ``spec`` names and write its CSV artifact: one
    ``# key=value`` line per setting, then a header and one row per result.

    A new artifact, or one that replaces a regular file with one link, is
    written to a file made beside it before the study runs and then renamed
    over it with the old file's mode, so a study that fails leaves an
    existing artifact as it was.  Any other ``output_path`` (a device such as
    ``os.devnull``, a FIFO, a symbolic link, a hard-linked file, or a file in
    a directory that takes no new file) is opened and written in place once
    the study has run."""
    path = Path(output_path)
    # all before any replication is drawn
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = _partial_artifact(path)
    try:
        meta, header, rows = _RUNNERS[spec.study](spec)
        with open(partial or path, "w", encoding="utf-8", newline="") as fh:
            for k, v in meta.items():
                fh.write(f"# {k}={v}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        if partial:
            os.replace(partial, path)
    except BaseException:
        if partial:
            partial.unlink(missing_ok=True)
        raise
    return path


def _partial_artifact(path: Path) -> Path | None:
    """An empty file beside ``path`` to write its new bytes to, or None to
    write ``path`` in place.  An existing ``path`` must be writable."""
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if path.exists() and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
    if st is None or (stat.S_ISREG(st.st_mode) and st.st_nlink == 1):
        partial = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
        try:
            open(partial, "x").close()
        except PermissionError:
            if st is None:
                raise
        else:
            if st is not None:
                os.chmod(partial, stat.S_IMODE(st.st_mode))
            return partial
    return None
