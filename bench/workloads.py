"""Benchmark workloads and the correctness gate.

Each workload is one batch refinement study, run through
``dlsfem.studies.run_study(StudyConfig(**config))`` exactly as ``dls <study>``
runs it.  The inputs are the library's deterministic manufactured cases, so
the seed changes nothing in them; it is recorded with every result.

This module imports nothing outside the standard library: the worker loads
it before it starts the set-up clock.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

WORKLOADS = {
    # sliding-window block QR (LAPACK geqrf) does most of the work; NE never runs
    "qr-p2": dict(
        study="converge", formulation="ultraweak-dpg", p=2, dp=1,
        precision="double", solvers=("qr",), start_n=8, refinements=3,
    ),
    # per-element loops, NE assembly and banded Cholesky; QR never runs
    "ne-p1": dict(
        study="converge", formulation="ultraweak-dpg", p=1, dp=1,
        precision="single", solvers=("ne",), start_n=48, refinements=2,
    ),
    # complex arithmetic in every layer near resonance, both solvers
    "acoustics": dict(
        study="acoustics", p=2, dp=1,
        precision="double", solvers=("ne", "qr"), start_n=3, refinements=3,
    ),
    # the square (conforming-test) pipeline; QR on one dense block
    "bubnov": dict(
        study="converge", formulation="bubnov-galerkin", p=2, dp=1,
        precision="double", solvers=("ne", "qr"), start_n=6, refinements=3,
    ),
}

# Relative tolerances of the gate.  Discretization error dominates every
# reported error, so a change that only reorders floating-point sums moves
# the double-precision columns by far less than RTOL["double"]; in single
# precision the normal equation's round-off is about 1% of err_ne at the
# finest ne-p1 level, hence the wider single tolerance.  Condition numbers
# are always double-precision dense diagnostics (sigma_min of a matrix with
# cond <= 1e9 carries about 1e-7 relative round-off).  rho and eta_total
# can sit at round-off level (square systems), so they also get an absolute
# floor of 1000 machine epsilons of the working precision.
RTOL = {"double": 1e-8, "single": 1e-2}
COND_RTOL = 1e-6
ATOL = {"double": 1000 * 2.2e-16, "single": 1000 * 1.2e-7}

EXACT_FIELDS = ("n", "N", "M")
FLOAT_FIELDS = ("err_qr", "err_ne", "rho", "eta_total", "cond_A", "cond_Btilde")


def warmup_config(config: dict) -> dict:
    """The workload's configuration at n = 2, one level (set-up warm-up)."""
    return dict(config, start_n=2, refinements=1)


def levels(config: dict) -> list:
    return [config["start_n"] * 2**k for k in range(config["refinements"])]


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def _close(value, ref, rtol, atol) -> bool:
    if ref is None or value is None:
        return value is None and ref is None
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= rtol * abs(ref) + atol


def check_rows(name: str, rows: list, reference: dict) -> list:
    """Compare study rows with the recorded reference.

    Returns one entry per failed (level, solver) solve: a solve fails when
    the library reports it failed, when its level is missing, or when any
    value of its level (or its own error column) is outside tolerance.
    """
    config = WORKLOADS[name]
    if reference[name]["config"] != json.loads(json.dumps(config)):
        return [f"reference recorded for another {name} configuration"]
    ref_rows = reference[name]["rows"]
    rtol, atol = RTOL[config["precision"]], ATOL[config["precision"]]
    by_n = {row["n"]: row for row in rows}
    failures = []
    for ref in ref_rows:
        row = by_n.get(ref["n"])
        for solver in config["solvers"]:
            if row is None:
                failures.append(f"n={ref['n']} {solver}: level missing")
                continue
            if solver in row["failed"]:
                failures.append(f"n={ref['n']} {solver}: {row['failed'][solver]}")
                continue
            bad = [f for f in EXACT_FIELDS if row[f] != ref[f]]
            for f in FLOAT_FIELDS:
                if f.startswith("err_") and f != "err_" + solver:
                    continue
                tol = (COND_RTOL, 0.0) if f.startswith("cond_") else (rtol, atol)
                if not _close(row[f], ref[f], *tol):
                    bad.append(f)
            if bad:
                detail = ", ".join(f"{f}={row[f]!r} (ref {ref[f]!r})" for f in bad)
                failures.append(f"n={ref['n']} {solver}: {detail}")
    return failures
