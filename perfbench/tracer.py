"""Outside-in tracing of popres: spans and counters around its public functions.

Each function is replaced, for the duration of a traced pass, at the module
attribute its caller looks it up by (``popres.reporting.ks_p_value``,
``popres.sampling.multinomial_matrix``, ...).  A wrapper records a span
(name, layer, start, end, parent span, operation id) in memory and updates
the counters the per-layer metrics need.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import Counter, defaultdict
from statistics import median
from time import perf_counter

import numpy as np

LAYERS = ("cli", "reporting", "resemblance", "special_functions",
          "sampling", "simulation", "scenarios", "divergences")
# ncx2_cdf sums its Poisson mixture outward from the mode above this
# non-centrality (popres.special_functions._NCX2_MODAL_START)
MODAL_START_NCP = 2000.0


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_sampler(counts, args, kwargs, result, duration, chunk_rows):
    rows = int(_arg(args, kwargs, 2, "replications"))
    B = np.asarray(_arg(args, kwargs, 1, "p")).size
    counts["sampling.multinomial_matrix.rows"] += rows
    counts["sampling.multinomial_matrix.cells"] += rows * B
    counts["sampling.multinomial_matrix.chunks"] += -(-rows // chunk_rows)
    workers = int(kwargs.get("workers", args[5] if len(args) > 5 else 1))
    counts[f"sampling.busy_w{min(workers, 2)}"] += duration


def _boundaries_key(args, kwargs) -> tuple:
    """What decision_boundaries depends on: (reference, n, config)."""
    p0 = _arg(args, kwargs, 0, "p0")
    probs = np.asarray(getattr(p0, "probs", p0), dtype=float).tobytes()
    return probs, int(_arg(args, kwargs, 1, "n")), _arg(args, kwargs, 2, "cfg")


def _count_history(counts, args, kwargs, ack, duration):
    if ack is None:
        return
    # the scan stops at a duplicate; an append has read every earlier line
    counts["reporting.append_history.lines_scanned"] += ack.line_count - (0 if ack.duplicate else 1)
    counts["reporting.append_history.duplicates"] += int(ack.duplicate)


def _count_ncx2_cdf(counts, args, kwargs):
    counts["special_functions.ncx2_cdf.calls"] += 1
    if float(_arg(args, kwargs, 2, "ncp")) > MODAL_START_NCP:
        counts["special_functions.ncx2_cdf.modal"] += 1


class Tracer:
    """Span recorder; ``install`` patches popres, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.distinct_boundaries: set = set()
        self.op = -1
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer: str, count=None):
        """Wrap ``fn`` so that every call records a span and runs ``count``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (name, layer, start, end, parent, tracer.op)
                tracer.counts[name + ".calls"] += 1
                if count is not None:
                    count(tracer.counts, args, kwargs, result, end - start)

        return traced

    def _patch(self, module, attr: str, make) -> None:
        # a name a later refactor removed is skipped; its metrics then read 0
        original = getattr(module, attr, None)
        if original is not None:
            self._patched.append((module, attr, original))
            setattr(module, attr, make(original))

    def install(self) -> None:
        from popres import cli, reporting, resemblance, sampling, simulation, special_functions

        distinct = self.distinct_boundaries
        chunk_rows = getattr(sampling, "CHUNK_ROWS", 1 << 15)

        def boundaries_count(counts, args, kwargs, result, duration):
            distinct.add(_boundaries_key(args, kwargs))

        def sampler_count(counts, args, kwargs, result, duration):
            _count_sampler(counts, args, kwargs, result, duration, chunk_rows)

        spans = [
            (cli, "load_snapshot", "reporting.load", "reporting", None),
            (cli, "load_reference", "reporting.load", "reporting", None),
            (cli, "monitor", "reporting.monitor", "reporting", None),
            (cli, "append_history", "reporting.append_history", "reporting", _count_history),
            (cli, "run_study", "reporting.run_study", "reporting", None),
            (cli, "decision_boundaries", "resemblance.decision_boundaries", "resemblance", boundaries_count),
            (reporting, "decision_boundaries", "resemblance.decision_boundaries", "resemblance", boundaries_count),
            (simulation, "decision_boundaries", "resemblance.decision_boundaries", "resemblance", boundaries_count),
            (reporting, "yn_boundaries", "resemblance.yn_boundaries", "resemblance", None),
            (reporting, "ks_p_value", "resemblance.ks_p_value", "resemblance", None),
            (reporting, "classify_prs", "resemblance.classify", "resemblance", None),
            (reporting, "classify_lewis", "resemblance.classify", "resemblance", None),
            (reporting, "classify_yn", "resemblance.classify", "resemblance", None),
            (reporting, "classify_p_value", "resemblance.classify", "resemblance", None),
            (reporting, "proportions", "divergences.proportions", "divergences", None),
            (reporting, "prs", "divergences.prs", "divergences", None),
            (reporting, "psi", "divergences.psi", "divergences", None),
            (reporting, "ks_statistic", "divergences.ks_statistic", "divergences", None),
            (resemblance, "proportions", "divergences.proportions", "divergences", None),
            (resemblance, "ks_statistic", "divergences.ks_statistic", "divergences", None),
            (simulation, "uniform_reference", "divergences.uniform_reference", "divergences", None),
            (special_functions, "ncx2_quantile", "special_functions.ncx2_quantile", "special_functions", None),
            (special_functions, "chi2_quantile", "special_functions.chi2_quantile", "special_functions", None),
            (sampling, "multinomial_matrix", "sampling.multinomial_matrix", "sampling", sampler_count),
            (simulation, "classification_sweep", "simulation.classification_sweep", "simulation", None),
            (simulation, "reconstruction_probability", "simulation.reconstruction_probability", "simulation", None),
            (simulation, "stability_ratios", "simulation.stability_ratios", "simulation", None),
            (simulation, "solve_p_for_target_j", "scenarios.solve_p_for_target_j", "scenarios", None),
            (simulation, "perturbed_pv", "scenarios.perturbed_pv", "scenarios", None),
        ]
        for module, attr, name, layer, count in spans:
            self._patch(module, attr, lambda fn, name=name, layer=layer, count=count:
                        self.wrap(fn, name, layer, count))

        # ncx2_cdf runs tens of times per quantile inside the ncx2_quantile
        # span of the same layer: count it, but record no span
        counts = self.counts

        def count_only(cdf):
            @functools.wraps(cdf)
            def counted_cdf(*args, **kwargs):
                _count_ncx2_cdf(counts, args, kwargs)
                return cdf(*args, **kwargs)
            return counted_cdf

        self._patch(special_functions, "ncx2_cdf", count_only)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w") as fh:
            for index, (name, layer, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "layer": layer, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")


def summarize(tracer: Tracer, pass_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-layer metrics, each a mean per traced pass."""
    passes = max(len(pass_walls), 1)
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent, op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    busy_by_layer: dict[str, float] = defaultdict(float)
    rooted = 0.0
    for i, (name, layer, start, end, parent, op) in enumerate(spans):
        duration = end - start
        own = duration - child_time[i]
        busy[name] += duration
        self_by_name[name] += own
        self_by_layer[layer] += own
        if parent < 0:
            rooted += duration
        elif spans[parent][1] != layer:
            busy_by_layer[layer] += duration
    c = tracer.counts
    wall = sum(pass_walls)
    quantiles = c["special_functions.ncx2_quantile.calls"]
    cdf_calls = c["special_functions.ncx2_cdf.calls"]
    sampler_busy = busy["sampling.multinomial_matrix"]

    def per_pass(value):
        return value / passes

    metrics = {
        "sampling.multinomial_matrix.calls": (per_pass(c["sampling.multinomial_matrix.calls"]), "count"),
        "sampling.multinomial_matrix.busy_s": (per_pass(sampler_busy), "s"),
        "sampling.multinomial_matrix.rows": (per_pass(c["sampling.multinomial_matrix.rows"]), "count"),
        "sampling.multinomial_matrix.cells": (per_pass(c["sampling.multinomial_matrix.cells"]), "count"),
        "sampling.multinomial_matrix.chunks": (per_pass(c["sampling.multinomial_matrix.chunks"]), "count"),
        "sampling.multinomial_matrix.rows_per_s": (
            c["sampling.multinomial_matrix.rows"] / sampler_busy if sampler_busy else 0.0, "1/s"),
        "sampling.speedup_2w": (
            c["sampling.busy_w1"] / c["sampling.busy_w2"] if c["sampling.busy_w2"] else 0.0, "ratio"),
        "resemblance.ks_p_value.self_s": (per_pass(self_by_name["resemblance.ks_p_value"]), "s"),
        "resemblance.decision_boundaries.calls": (
            per_pass(c["resemblance.decision_boundaries.calls"]), "count"),
        "resemblance.decision_boundaries.distinct": (per_pass(len(tracer.distinct_boundaries)), "count"),
        "resemblance.decision_boundaries.self_s": (
            per_pass(self_by_name["resemblance.decision_boundaries"]), "s"),
        "reporting.append_history.calls": (per_pass(c["reporting.append_history.calls"]), "count"),
        "reporting.append_history.busy_s": (per_pass(busy["reporting.append_history"]), "s"),
        "reporting.append_history.lines_scanned": (
            per_pass(c["reporting.append_history.lines_scanned"]), "count"),
        "reporting.append_history.duplicates": (per_pass(c["reporting.append_history.duplicates"]), "count"),
        "reporting.load.self_s": (per_pass(self_by_name["reporting.load"]), "s"),
        "cli.main.self_s": (per_pass(self_by_name["cli.main"]), "s"),
        "special_functions.ncx2_quantile.calls": (per_pass(quantiles), "count"),
        "special_functions.ncx2_quantile.busy_s": (per_pass(busy["special_functions.ncx2_quantile"]), "s"),
        "special_functions.chi2_quantile.calls": (
            per_pass(c["special_functions.chi2_quantile.calls"]), "count"),
        "special_functions.chi2_quantile.busy_s": (per_pass(busy["special_functions.chi2_quantile"]), "s"),
        "special_functions.ncx2_cdf.calls": (per_pass(cdf_calls), "count"),
        "special_functions.cdf_evals_per_quantile": (cdf_calls / quantiles if quantiles else 0.0, "ratio"),
        "special_functions.ncx2_cdf.modal_share": (
            c["special_functions.ncx2_cdf.modal"] / cdf_calls if cdf_calls else 0.0, "ratio"),
        "scenarios.solve_p_for_target_j.calls": (
            per_pass(c["scenarios.solve_p_for_target_j.calls"]), "count"),
        "scenarios.solve_p_for_target_j.busy_s": (per_pass(busy["scenarios.solve_p_for_target_j"]), "s"),
        "scenarios.perturbed_pv.calls": (per_pass(c["scenarios.perturbed_pv.calls"]), "count"),
        "scenarios.perturbed_pv.busy_s": (per_pass(busy["scenarios.perturbed_pv"]), "s"),
        "divergences.busy_s": (per_pass(busy_by_layer["divergences"]), "s"),
    }
    for layer in LAYERS:
        if layer != "cli":  # the cli layer's only span is cli.main
            metrics[f"{layer}.self_s"] = (per_pass(self_by_layer[layer]), "s")
    metrics["trace.wall_s"] = (per_pass(wall), "s")
    metrics["trace.unattributed_s"] = (per_pass(wall - rooted), "s")
    # each traced pass against the untraced pass just before it, so that the
    # host's drift between the two is small
    metrics["trace.overhead_frac"] = (
        median(t / u for t, u in zip(pass_walls, untraced_walls)) - 1.0 if untraced_walls and pass_walls
        else 0.0, "ratio")
    metrics["trace.spans"] = (per_pass(len(spans)), "count")
    return metrics

