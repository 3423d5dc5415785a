"""Independent oracles and output checks for the benchmark workloads.

Each check takes what one ``popres`` command returned, printed or wrote,
together with the expectation the benchmark fixed when it generated the
input, and returns a list of failure messages (empty when the output is
right).  The oracles use numpy and scipy.stats only, never popres, so a
popres defect cannot agree with itself.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy import stats

# popres's from-scratch ncx2 quantile agrees with scipy to about 1e-13
# relative away from its defect window; 1e-8 still catches a 1e-6 nudge.
TAU_RTOL = 1e-8
# delta and lambda_sup are closed forms evaluated the same way on both sides
CLOSED_FORM_RTOL = 1e-10
STAT_ATOL = 1e-12
# published table values are printed to three decimals
PUBLISHED_ATOL = 0.001
LEWIS_WATCH, LEWIS_ACTION = 0.10, 0.25
YN_ALPHA_UPPER, YN_ALPHA_LOWER = 0.01, 0.10
KS_RED, KS_GREEN = 0.01, 0.10
STABILITY_SE_BAND = 4.0


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + 1e-300


def _num(value) -> float:
    """A reported number, or NaN (which fails every comparison) when it is not one."""
    return float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan


def _load_object(stdout: str, what: str):
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"unparsable {what} output ({exc})"]
    if not isinstance(payload, dict):
        return None, [f"{what} output is not a JSON object"]
    return payload, []


def lambda_sup(q: np.ndarray, n: int, delta: float) -> float:
    """Largest non-centrality over the delta-tolerance region (extreme-point closed form)."""
    s = float(np.sum(1.0 / q))
    if q.size % 2:
        s -= 1.0 / float(np.max(q))
    return n * delta**2 * s


def boundaries_oracle(q: np.ndarray, n: int, c: float, M: float,
                      alpha1: float, alpha2: float, delta: float | None = None) -> dict:
    """Expected outcome of ``popres boundaries``: its exit code and, past the
    constraint check, delta, lambda_sup, tau1 and tau2 from scipy's ncx2.ppf."""
    if delta is None:
        delta = c * float(np.min(np.sqrt(q * (1.0 - q) / n)))
    expect = {"n": n, "B": int(q.size), "delta": delta, "M": M, "min_q": float(np.min(q))}
    if M * delta > float(np.min(q)) + 1e-15:
        return dict(expect, exit=2)
    lam = lambda_sup(q, n, delta)
    tau1 = float(stats.ncx2.ppf(alpha2, q.size - 1, M**2 * lam)) / n
    tau2 = float(stats.ncx2.ppf(1.0 - alpha1, q.size - 1, lam)) / n
    return dict(expect, exit=4 if tau1 >= tau2 else 0,
                lambda_sup=lam, ncp_max=M**2 * lam, tau1=tau1, tau2=tau2)


def ambiguous(expect: dict) -> bool:
    """True when the expected exit code hangs on a near-tie that rounding could flip."""
    if abs(expect["M"] * expect["delta"] - expect["min_q"]) <= 1e-9 * expect["min_q"]:
        return True
    if "tau1" in expect:
        return abs(expect["tau1"] - expect["tau2"]) <= 1e-6 * expect["tau2"]
    return False


def yn_oracle(n: int, B: int) -> tuple[float, float]:
    """(tau_red, tau_green) PSI thresholds 2/n times chi-square quantiles."""
    return (2.0 / n * float(stats.chi2.ppf(1.0 - YN_ALPHA_UPPER, B - 1)),
            2.0 / n * float(stats.chi2.ppf(1.0 - YN_ALPHA_LOWER, B - 1)))


def rag_three(value: float, low: float, high: float) -> str:
    """Region of a statistic against two thresholds; ties go to the milder region."""
    if value <= low:
        return "green"
    return "amber" if value <= high else "red"


def check_boundaries(rc: int, stdout: str, expect: dict) -> list[str]:
    if rc != expect["exit"]:
        return [f"exit {rc}, expected {expect['exit']} (n={expect['n']}, B={expect['B']}, "
                f"delta={expect['delta']!r})"]
    if rc != 0:
        return []
    out, failures = _load_object(stdout, "boundaries")
    if out is None:
        return failures
    for key in ("n", "B"):
        if out.get(key) != expect[key]:
            failures.append(f"{key}={out.get(key)!r}, expected {expect[key]!r}")
    for key, rtol in (("delta", CLOSED_FORM_RTOL), ("lambda_sup", CLOSED_FORM_RTOL),
                      ("tau1", TAU_RTOL), ("tau2", TAU_RTOL)):
        got = out.get(key)
        if not _close(_num(got), expect[key], rtol):
            failures.append(f"{key}={got!r}, oracle {expect[key]!r} (n={expect['n']}, B={expect['B']})")
    return failures


def check_monitor(rc: int, stdout: str, stderr: str, expect: dict) -> list[str]:
    """One ``popres monitor --format json`` call against its numpy/scipy recomputation."""
    if rc != 0:
        return [f"exit {rc}: {stderr.strip()[:200]}"]
    rep, failures = _load_object(stdout, "monitor")
    if rep is None:
        return failures
    counts = np.asarray(expect["counts"], dtype=np.int64)
    q = np.asarray(expect["q"], dtype=float)
    bounds = expect["bounds"]
    n = int(counts.sum())
    where = f"{expect['label']} op {expect['op']}"
    if rep.get("label") != expect["label"]:
        failures.append(f"{where}: label {rep.get('label')!r}")
    if rep.get("n") != n or rep.get("B") != q.size:
        failures.append(f"{where}: (n, B) = ({rep.get('n')}, {rep.get('B')})")
    for key, rtol in (("delta", CLOSED_FORM_RTOL), ("lambda_sup", CLOSED_FORM_RTOL),
                      ("tau1", TAU_RTOL), ("tau2", TAU_RTOL)):
        if not _close(_num(rep.get(key)), bounds[key], rtol):
            failures.append(f"{where}: {key}={rep.get(key)!r}, oracle {bounds[key]!r}")
    ph = counts / n
    nz = ph > 0
    oracle = {
        "prs_value": float(np.sum((ph - q) ** 2 / q)),
        # empty categories contribute nothing (plug-in convention)
        "psi_value": float(np.sum((ph[nz] - q[nz]) * np.log(ph[nz] / q[nz]))),
        "ks_value": float(np.max(np.abs(np.cumsum(ph) - np.cumsum(q)))),
    }
    for key, value in oracle.items():
        got = _num(rep.get(key))
        if not abs(got - value) <= STAT_ATOL + 1e-9 * abs(value):
            failures.append(f"{where}: {key}={got!r}, numpy {value!r}")
    prs_v, psi_v, p_ks = (_num(rep.get(k)) for k in ("prs_value", "psi_value", "ks_p_value"))
    tau_red, tau_green = expect["yn"]
    regions = {
        "prs_region": rag_three(prs_v, _num(rep.get("tau1")), _num(rep.get("tau2"))),
        "lewis_region": "green" if psi_v < LEWIS_WATCH else ("amber" if psi_v < LEWIS_ACTION else "red"),
        "yn_region": "red" if psi_v > tau_red else ("green" if psi_v < tau_green else "amber"),
        "ks_region": "red" if p_ks < KS_RED else ("green" if p_ks > KS_GREEN else "amber"),
    }
    for key, value in regions.items():
        if rep.get(key) != value:
            failures.append(f"{where}: {key}={rep.get(key)!r}, consistent value {value!r}")
    if not 0.0 < p_ks <= 1.0:
        failures.append(f"{where}: ks_p_value {p_ks!r} outside (0, 1]")
    published = expect.get("published")
    if published:
        for key in ("psi_value", "prs_value"):
            if not abs(_num(rep.get(key)) - published[key]) <= PUBLISHED_ATOL:
                failures.append(f"{where}: {key}={rep.get(key)!r}, published {published[key]}")
        for key in ("lewis_region", "yn_region", "prs_region"):
            if rep.get(key) != published[key]:
                failures.append(f"{where}: {key}={rep.get(key)!r}, published {published[key]!r}")
    duplicate = "duplicate" in stderr
    if duplicate != expect["duplicate"]:
        failures.append(f"{where}: duplicate ack {duplicate}, expected {expect['duplicate']}")
    return failures


def check_history(path, expected_lines: int) -> list[str]:
    with open(path) as fh:
        lines = sum(1 for line in fh if line.strip())
    if lines != expected_lines:
        return [f"history holds {lines} lines, expected {expected_lines} (appends minus duplicates)"]
    return []


def _parse_artifact(text: str) -> tuple[dict, list[dict]]:
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            body.append(line)
    return meta, list(csv.DictReader(io.StringIO("\n".join(body))))


def check_study(rc: int, artifact: bytes | None, expect: dict) -> list[str]:
    """One study artifact: its shape and the Monte Carlo bands its values must meet."""
    study = expect["study"]
    if rc != 0:
        return [f"{study}: exit {rc}"]
    if artifact is None:
        return [f"{study}: no artifact written"]
    try:
        meta, rows = _parse_artifact(artifact.decode())
    except (UnicodeDecodeError, csv.Error) as exc:
        return [f"{study}: unparsable artifact ({exc})"]
    if meta.get("study") != study or meta.get("replications") != str(expect["K"]):
        return [f"{study}: artifact metadata {meta}"]
    if len(rows) != expect["rows"]:
        return [f"{study}: {len(rows)} rows, expected {expect['rows']}"]
    failures = []
    K = expect["K"]
    try:
        for row in rows:
            if study == "table1":
                est, se = float(row["estimate"]), float(row["std_error"])
                if not (0.0 <= est <= 1.0 and se > 0.0):
                    failures.append(f"table1 n={row['n']}: estimate {est!r}, SE {se!r}")
            elif study == "stability":
                dof = int(row["B"]) - 1
                mean, var = float(row["mean_ratio_prs"]), float(row["var_ratio_prs"])
                se = math.sqrt(2.0 * var / (dof * K))
                if not abs(mean - 1.0) <= STABILITY_SE_BAND * se:
                    failures.append(f"stability n={row['n']}: mean_ratio_prs {mean!r} "
                                    f"beyond {STABILITY_SE_BAND} x SE {se:.3g} of 1")
            else:
                probs = [float(row[k]) for k in ("p_r1", "p_r2", "p_r3")]
                if any(not 0.0 <= p <= 1.0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
                    failures.append(f"sweep delta_v={row['delta_v']}: probabilities {probs}")
    except (KeyError, ValueError, TypeError) as exc:
        failures.append(f"{study}: malformed artifact row ({exc!r})")
    return failures


def check_identical(study: str, first: bytes | None, second: bytes | None) -> list[str]:
    if first is None or second is None or first != second:
        return [f"{study}: artifacts differ between --workers 1 and --workers 2"]
    return []
