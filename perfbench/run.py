"""Outside-in benchmark of popres: the monitor, boundaries and study paths.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload monitor_feed --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, in this process):
  monitor_feed     one ``popres monitor --history`` call per snapshot
  boundaries_grid  one ``popres boundaries`` call per distinct configuration
  study_suite      the three ``popres study`` commands at --workers 1, then 2

Every command goes through ``popres.cli.main`` with files the benchmark
writes itself, and every output is checked against an independent oracle.
The run repeats passes over the workload's fixed operation list for about
``--seconds``.  With ``--trace 0`` the last line of standard
output carries the end-to-end metrics, with every time scaled to a
reference host speed (``hostspeed.py``); with ``--trace 1`` passes alternate
between untraced and traced, and it carries the per-layer metrics instead.
Spans of a traced run are written to ``.perfbench_out/``.
"""

import os

# Pin the BLAS pools before numpy loads, here and in the set-up probes this
# process starts: the load then stays within nproc (2) threads, the two
# sampler threads of --workers 2.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
# reference-loop samples on each side of a set-up probe, and how strongly a
# probe's time follows the loop's (hostspeed.py; fitted 0.51)
SETUP_LOOPS = 3
SETUP_SENSITIVITY = 0.5
PROBE_TIMEOUT_S = 60


@dataclass
class Result:
    rc: object
    out: str
    err: str
    latency: float


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small passes for the benchmark's self-test; not for measurement")
    return parser.parse_args(argv)


def execute(main, op) -> Result:
    """One closed-loop call of ``popres.cli.main``; an unexpected exception is a result too."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(op.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
    return Result(rc, out.getvalue(), err.getvalue(), perf_counter() - start)


def measure_setup(workload, speed) -> tuple[list[float], list[float], list[str]]:
    """Wall time of fresh processes that import popres.cli and finish one warm-up command,
    raw and scaled to the reference host speed."""
    times, scaled, failures = [], [], []
    for _ in range(SETUP_PROBES):
        speed.begin_pass(SETUP_LOOPS)
        start = perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(SRC), *workload.setup_argv()],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        times.append(perf_counter() - start)
        scaled.append(times[-1] * speed.end_pass(SETUP_SENSITIVITY, SETUP_LOOPS))
        if proc.returncode != 0:
            failures.append(f"set-up probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return times, scaled, failures


def quantiles_ms(latencies: list[float]) -> tuple[float, float]:
    """(p50, p90) in milliseconds, linear interpolation between order statistics."""
    if len(latencies) < 2:
        return latencies[0] * 1e3, latencies[0] * 1e3
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return cuts[4] * 1e3, cuts[8] * 1e3


def metadata(args, popres_module) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "popres": getattr(popres_module, "__version__", "unknown"),
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def run(args) -> int:
    if not (SRC / "popres" / "__init__.py").is_file():
        print(f"error: no popres sources under {SRC}; run from the root of a popres checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import popres
    from popres import cli

    if Path(popres.__file__).resolve().parent != SRC / "popres":
        print(f"error: imported popres from {popres.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import tracer as tracing
    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, cli, popres, tracing, HostSpeed(),
                       WORKLOADS[args.workload](work, args.seed, args.tiny))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's inputs are still there
            pass


def measure(args, cli, popres, tracing, speed, workload) -> int:
    failures: list[str] = []
    attempted = failed = 0

    def record(ops, results, pass_failures=None):
        nonlocal attempted, failed
        for i, (op, result) in enumerate(zip(ops, results)):
            messages = workload.check(op, result) + (pass_failures or {}).get(i, [])
            attempted += 1
            if messages:
                failed += 1
                failures.extend(messages)

    setup_times, setup_scaled, probe_failures = measure_setup(workload, speed)
    attempted += len(setup_times)
    failed += len(probe_failures)
    failures += probe_failures

    # lazy imports and first-call costs land here, not in the timed passes
    warmup = workload.warmup_ops
    record(warmup, [execute(cli.main, op) for op in warmup])

    tracer = tracing.Tracer() if args.trace else None
    traced_main = tracer.wrap(cli.main, "cli.main", "cli") if tracer else None
    walls = {False: [], True: []}
    scaled_walls, latencies, pass_latencies, throughputs, legs = [], [], [], [], []
    min_passes = max(workload.min_passes, 2) if args.trace else workload.min_passes
    start = perf_counter()
    index = 0
    # a pass starts while it is expected to end less than half a pass late
    while index < min_passes or (
            perf_counter() - start + 0.5 * statistics.median(walls[False] + walls[True]) < args.seconds):
        traced = bool(args.trace) and index % 2 == 1
        ops = workload.make_pass(index)
        main = cli.main
        if traced:
            tracer.install()
            main = traced_main
        results = []
        # the reference loop runs around and between untraced operations only, and
        # its time is not part of the pass
        if not traced:
            speed.begin_pass()
        sampling = 0.0
        pass_start = perf_counter()
        for op in ops:
            if traced:
                tracer.op += 1
            results.append(execute(main, op))
            if not traced:
                sampling += speed.between_ops()
        wall = perf_counter() - pass_start - sampling
        if traced:
            tracer.uninstall()
        walls[traced].append(wall)
        record(ops, results, workload.check_pass(ops, results))
        if not traced:
            factor = speed.end_pass(workload.host_sensitivity)
            scaled = [replace(r, latency=r.latency * factor) for r in results]
            scaled_walls.append(wall * factor)
            latencies += [r.latency for r in scaled]
            pass_latencies.append(quantiles_ms([r.latency for r in scaled]))
            throughputs.append(workload.throughput(ops, scaled, wall * factor))
            legs.append(workload.legs(ops, scaled))
        workload.finish_pass(index)
        index += 1

    if workload.pooled_latency:
        p50, p90 = quantiles_ms(latencies)
    else:
        p50 = statistics.median(p for p, _ in pass_latencies)
        p90 = statistics.median(p for _, p in pass_latencies)

    info = {"passes_untraced": len(walls[False]), "passes_traced": len(walls[True]),
            "pass_walls_s": walls[False],
            "latency_samples": len(latencies) if workload.pooled_latency else len(pass_latencies),
            "latency_pooling": "all calls" if workload.pooled_latency else "median over passes",
            "scaled_pass_walls_s": scaled_walls, "setup_probe_s": setup_times,
            "scaled_setup_probe_s": setup_scaled, "host_loop_s": statistics.median(speed.samples),
            "failed_frac": failed / attempted}
    for key in legs[0]:
        info[key] = statistics.median(leg[key] for leg in legs)
    if tracer:
        per_layer = tracing.summarize(tracer, walls[True], walls[False])
        layer_sum = per_layer["cli.main.self_s"][0] + per_layer["trace.unattributed_s"][0] + sum(
            per_layer[f"{layer}.self_s"][0] for layer in tracing.LAYERS if layer != "cli")
        if abs(layer_sum - per_layer["trace.wall_s"][0]) > 1e-6:
            failures.append(f"layer self times plus unattributed ({layer_sum!r} s) differ from "
                            f"traced wall ({per_layer['trace.wall_s'][0]!r} s)")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = per_layer
    else:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "wall_s": (statistics.median(scaled_walls), "s"),
            "ops_per_s": (statistics.median(throughputs), "op/s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_p90_ms": (p90, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for message in failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"meta": metadata(args, popres)}))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
