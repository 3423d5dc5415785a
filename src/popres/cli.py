"""Command-line surface: monitor, boundaries and study subcommands.

Exit codes: 0 success, 2 validation error, 3 numerical/convergence error,
4 boundary-overlap configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import BoundaryOverlapError, ConvergenceError, ValidationError
from .reporting import (
    append_history,
    load_reference,
    load_snapshot,
    monitor,
    render_csv,
    render_text,
)
from .resemblance import ResemblanceConfig, decision_boundaries
from .simulation import STUDIES, StudySpec, run_study

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_OVERLAP = 4

# configuration-file key -> ResemblanceConfig field; "seed" is read separately
_CONFIG_FIELDS = {"c": "c", "m": "M", "alpha1": "alpha1", "alpha2": "alpha2",
                  "delta_override": "delta_override"}
_CONFIG_KEYS = {*_CONFIG_FIELDS, "seed"}


def load_config_file(path: str | Path) -> dict:
    """Flat key=value configuration file; '#' starts a comment."""
    values: dict[str, float] = {}
    for i, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{i}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"{path}:{i}: unknown configuration key {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError as exc:
            raise ValidationError(f"{path}:{i}: non-numeric value {value!r}") from exc
        if key == "seed" and not values[key].is_integer():
            raise ValidationError(f"{path}:{i}: seed must be an integer, got {value.strip()!r}")
    return values


def _build_config(args: argparse.Namespace) -> tuple[ResemblanceConfig, int]:
    values: dict = {}
    if getattr(args, "config", None):
        values = load_config_file(args.config)
    # CLI flags override file values
    for flag, key in (("c", "c"), ("M", "m"), ("alpha1", "alpha1"),
                      ("alpha2", "alpha2"), ("delta", "delta_override")):
        v = getattr(args, flag, None)
        if v is not None:
            values[key] = v
    seed = int(values.pop("seed", 0))
    if getattr(args, "seed", None) is not None:
        seed = args.seed
    cfg = ResemblanceConfig(**{_CONFIG_FIELDS[key]: v for key, v in values.items()})
    return cfg, seed


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--c", type=float, help="tolerance scaling factor")
    parser.add_argument("--M", type=float, help="discrepancy multiplier (> 1)")
    parser.add_argument("--alpha1", type=float, help="reconstruction sensitivity")
    parser.add_argument("--alpha2", type=float, help="continued-use sensitivity")
    parser.add_argument("--delta", type=float, help="explicit tolerance override")
    parser.add_argument("--seed", type=int, help="study random seed; a monitor report records it, but no monitor number uses it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popres",
        description="Population resemblance monitoring for multinomial snapshots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mon = sub.add_parser("monitor", help="classify one snapshot against a reference")
    p_mon.add_argument("--snapshot", required=True)
    p_mon.add_argument("--reference", required=True)
    _add_config_flags(p_mon)
    p_mon.add_argument("--history", help="append the report to this JSON-lines file")
    p_mon.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_bnd = sub.add_parser("boundaries", help="print delta, lambda_sup, tau1, tau2")
    p_bnd.add_argument("--reference", required=True)
    p_bnd.add_argument("--n", type=int, required=True)
    _add_config_flags(p_bnd)
    p_bnd.add_argument("--format", choices=("text", "json"), default="text")

    p_st = sub.add_parser("study", help="run a simulation study and write CSV")
    p_st.add_argument("--study", required=True, choices=STUDIES)
    p_st.add_argument("--out", required=True)
    p_st.add_argument("--n", type=int)
    p_st.add_argument("--n-grid", help="comma-separated sample sizes")
    p_st.add_argument("--B", type=int, required=True)
    p_st.add_argument("--replications", type=int, default=StudySpec.replications)
    p_st.add_argument("--grid-points", type=int, default=StudySpec.grid_points)
    p_st.add_argument("--target-j", type=float, default=StudySpec.target_j)
    p_st.add_argument("--threshold", type=float, default=StudySpec.threshold)
    p_st.add_argument("--workers", type=int, default=StudySpec.workers)
    _add_config_flags(p_st)
    return parser


def _cmd_monitor(args: argparse.Namespace) -> int:
    cfg, seed = _build_config(args)
    snapshot = load_snapshot(args.snapshot)
    reference = load_reference(args.reference)
    report = monitor(snapshot, reference, cfg, seed=seed)
    if args.history:
        ack = append_history(report, args.history)
        if ack.duplicate:
            print(f"note: duplicate report for {report.label!r}; history unchanged", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(asdict(report), sort_keys=True, indent=2))
    elif args.format == "csv":
        sys.stdout.write(render_csv(report))
    else:
        print(render_text(report))
    return EXIT_OK


def _cmd_boundaries(args: argparse.Namespace) -> int:
    cfg, _ = _build_config(args)
    reference = load_reference(args.reference)
    bounds = decision_boundaries(reference, args.n, cfg)
    if args.format == "json":
        print(json.dumps(asdict(bounds), sort_keys=True, indent=2))
    else:
        print(f"(n={bounds.n}, B={bounds.B})  delta={bounds.delta:.6f}  "
              f"lambda_sup={bounds.lambda_sup:.4f}  tau1={bounds.tau1:.5f}  "
              f"tau2={bounds.tau2:.5f}")
    return EXIT_OK


def _cmd_study(args: argparse.Namespace) -> int:
    cfg, seed = _build_config(args)
    if args.n_grid and args.n is not None:
        raise ValidationError("give either --n or --n-grid, not both")
    if args.n_grid:
        try:
            ns = tuple(int(v) for v in args.n_grid.split(","))
        except ValueError as exc:
            raise ValidationError(
                f"--n-grid takes comma-separated integers, got {args.n_grid!r}"
            ) from exc
    else:
        ns = () if args.n is None else (args.n,)
    spec = StudySpec(
        study=args.study, B=args.B, ns=ns, cfg=cfg, replications=args.replications,
        seed=seed, grid_points=args.grid_points, target_j=args.target_j,
        threshold=args.threshold, workers=args.workers,
    )
    out = run_study(spec, args.out)
    print(f"wrote {out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "monitor": _cmd_monitor,
        "boundaries": _cmd_boundaries,
        "study": _cmd_study,
    }
    try:
        return handlers[args.command](args)
    except BoundaryOverlapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERLAP
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
