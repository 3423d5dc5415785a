"""Command-line surface: monitor, boundaries and study subcommands.

Exit codes: 0 success, 2 validation error, 3 numerical/convergence error,
4 boundary-overlap configuration error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .errors import BoundaryOverlapError, ConvergenceError, ValidationError
from .history import append_history
from .reporting import (
    load_reference,
    load_snapshot,
    monitor,
    read_text,
    render_csv,
    render_text,
)
from .resemblance import ResemblanceConfig, decision_boundaries
from .simulation import STUDIES, StudySpec, run_study

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_OVERLAP = 4

# configuration-file key (a field name, case-insensitive) -> ResemblanceConfig field
_FIELDS = {f.name.lower(): f.name for f in fields(ResemblanceConfig)}


def load_config_file(path: str | Path, takes_seed: bool = True) -> dict:
    """Flat key=value configuration file of UTF-8 text; '#' starts a comment, and
    lines end only at CR, LF or CRLF.

    Keys are case-insensitive and each may appear once.  A ``seed`` key is
    refused unless ``takes_seed``: a command without a seed would ignore it.
    """
    values: dict[str, float | int] = {}
    lines: dict[str, int] = {}  # key -> the line that set it
    text = read_text(path, Path(path).read_bytes())
    for i, raw in enumerate(io.StringIO(text, newline=""), start=1):
        raw = raw.rstrip("\r\n")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{i}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in _FIELDS and key != "seed":
            raise ValidationError(f"{path}:{i}: unknown configuration key {key!r}")
        if key == "seed" and not takes_seed:
            raise ValidationError(
                f"{path}:{i}: configuration key 'seed' does not apply here; only monitor and study take a seed"
            )
        if key in lines:
            raise ValidationError(f"{path}:{i}: configuration key {key!r} repeats line {lines[key]}")
        lines[key] = i
        try:
            # a seed is parsed as --seed is, so that it keeps every digit
            values[key] = int(value) if key == "seed" else float(value)
        except ValueError as exc:
            if key == "seed":
                raise ValidationError(f"{path}:{i}: seed must be an integer, got {value.strip()!r}") from exc
            raise ValidationError(f"{path}:{i}: non-numeric value {value!r}") from exc
    return values


def _build_config(args: argparse.Namespace) -> tuple[ResemblanceConfig, int]:
    # a command takes a seed from its file if it has a --seed flag
    values = load_config_file(args.config, takes_seed=hasattr(args, "seed")) if args.config else {}
    settings = {_FIELDS.get(key, key): v for key, v in values.items()}
    # CLI flags override file values
    for name in (*_FIELDS.values(), "seed"):
        if getattr(args, name, None) is not None:
            settings[name] = getattr(args, name)
    seed = settings.pop("seed", 0)
    return ResemblanceConfig(**settings), seed


# StudySpec fields that `popres study` takes as flags of the same name
_STUDY_SETTINGS = ("replications", "grid_points", "target_j", "threshold", "workers")


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key=value configuration file")
    shared.add_argument("--c", type=float, help="tolerance scaling factor")
    shared.add_argument("--M", type=float, help="discrepancy multiplier (> 1)")
    shared.add_argument("--alpha1", type=float, help="reconstruction sensitivity")
    shared.add_argument("--alpha2", type=float, help="continued-use sensitivity")
    shared.add_argument("--delta", dest="delta_override", type=float, help="explicit tolerance override")

    parser = argparse.ArgumentParser(
        prog="popres",
        description="Population resemblance monitoring for multinomial snapshots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mon = sub.add_parser("monitor", parents=[shared], help="classify one snapshot against a reference")
    p_mon.set_defaults(run=_cmd_monitor)
    p_mon.add_argument("--snapshot", required=True)
    p_mon.add_argument("--reference", required=True)
    p_mon.add_argument("--seed", type=int, help="recorded in the report; no monitor number uses it")
    p_mon.add_argument("--history", help="append the report to this JSON-lines file")
    p_mon.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_bnd = sub.add_parser("boundaries", parents=[shared], help="print delta, lambda_sup, tau1, tau2")
    p_bnd.set_defaults(run=_cmd_boundaries)
    p_bnd.add_argument("--reference", required=True)
    p_bnd.add_argument("--n", type=int, required=True)
    p_bnd.add_argument("--format", choices=("text", "json"), default="text")

    p_st = sub.add_parser("study", parents=[shared], help="run a simulation study and write CSV")
    p_st.set_defaults(run=_cmd_study)
    p_st.add_argument("--study", required=True, choices=STUDIES)
    p_st.add_argument("--out", required=True)
    p_st.add_argument("--n", type=int)
    p_st.add_argument("--n-grid", help="comma-separated sample sizes")
    p_st.add_argument("--B", type=int, required=True)
    for name in _STUDY_SETTINGS:
        default = getattr(StudySpec, name)
        p_st.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p_st.add_argument("--seed", type=int, help="study random seed")
    return parser


# built on the first main call, not at import; parse_args leaves it unchanged
_parser = functools.cache(build_parser)


def _cmd_monitor(args: argparse.Namespace) -> bytes:
    cfg, seed = _build_config(args)
    snapshot = load_snapshot(args.snapshot)
    reference = load_reference(args.reference)
    report = monitor(snapshot, reference, cfg, seed=seed)
    if args.format == "json":
        text = json.dumps(vars(report), sort_keys=True, indent=2) + "\n"
    elif args.format == "csv":
        text = render_csv(report)
    else:
        text = render_text(report) + "\n"
    # encoded before the history changes: after it, only writing the output can fail
    out = _encode(text)
    if args.history:
        ack = append_history(report, args.history)
        if ack.duplicate:
            _write(sys.stderr, _encode(f"note: duplicate report for {report.label!r}; history unchanged\n"))
    return out


def _cmd_boundaries(args: argparse.Namespace) -> bytes:
    cfg, _ = _build_config(args)
    reference = load_reference(args.reference)
    bounds = decision_boundaries(reference, args.n, cfg)
    if args.format == "json":
        return _encode(json.dumps(vars(bounds), sort_keys=True, indent=2) + "\n")
    return _encode(f"(n={bounds.n}, B={bounds.B})  delta={bounds.delta:.6f}  "
                   f"lambda_sup={bounds.lambda_sup:.4f}  tau1={bounds.tau1:.5f}  "
                   f"tau2={bounds.tau2:.5f}\n")


def _cmd_study(args: argparse.Namespace) -> bytes:
    cfg, seed = _build_config(args)
    if args.n_grid is not None and args.n is not None:
        raise ValidationError("give either --n or --n-grid, not both")
    ns = () if args.n is None else (args.n,)
    if args.n_grid is not None:
        try:
            ns = tuple(int(v) for v in args.n_grid.split(","))
        except ValueError as exc:
            raise ValidationError(
                f"--n-grid takes comma-separated integers, got {args.n_grid!r}"
            ) from exc
    spec = StudySpec(study=args.study, B=args.B, ns=ns, cfg=cfg, seed=seed,
                     **{name: getattr(args, name) for name in _STUDY_SETTINGS})
    out = run_study(spec, args.out)
    return _encode(f"wrote {out}\n")


def _encode(text: str) -> bytes:
    """UTF-8, whatever the locale; a file name's undecodable bytes are given back as they were."""
    return text.encode(errors="surrogateescape")


def _write(stream, data: bytes) -> None:
    """``data`` to ``stream``, standard output or error, as bytes below a text stream that
    has them, such as the console's, else as text (``io.StringIO``)."""
    if hasattr(stream, "buffer"):
        stream.flush()  # whatever was printed before goes first
        stream.buffer.write(data)
        stream.buffer.flush()  # now, as print to a console would
    else:
        stream.write(data.decode(errors="surrogateescape"))


def _message(exc: Exception) -> str:
    """``str(exc)``, but an OSError's file names read as UTF-8, as a UTF-8 locale reads them,
    not as the escapes of the locale's undecodable bytes."""
    if not isinstance(exc, OSError) or exc.filename is None:
        return str(exc)
    names = [os.fsencode(f).decode(errors="surrogateescape") if isinstance(f, str) else f
             for f in (exc.filename, exc.filename2)]
    return str(OSError(exc.errno, exc.strerror, names[0], None, names[1]))


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The whole parser's Namespace for argv, with a named command's flags parsed once.

    That command's parser takes the rest of argv, as the whole parser's subcommand
    step would.  No command, an unknown one, or a flag the command does not know
    goes through the whole parser, so help, usage lines and errors stay its own.
    """
    parser = _parser()
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        _write(sys.stdout, args.run(args))
        return EXIT_OK
    except (BoundaryOverlapError, ConvergenceError, ValueError, OSError) as exc:
        _write(sys.stderr, _encode(f"error: {_message(exc)}\n"))
        return (EXIT_OVERLAP if isinstance(exc, BoundaryOverlapError)
                else EXIT_NUMERICAL if isinstance(exc, ConvergenceError) else EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
