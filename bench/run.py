"""Study-level benchmark of dlsfem: one refinement study per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  Every study runs in a fresh worker process (``bench/worker.py``)
with the BLAS thread count pinned to nproc, one study at a time.

``--trace 0`` measures the end-to-end metrics: set-up time (median of five
fresh processes), then the study back to back for S seconds (at least three
times), reporting medians.  ``--trace 1`` makes one untraced and one traced
study with nproc BLAS threads, plus one traced study with a single BLAS
thread as the baseline, and reports per-layer metrics (``st.*`` for the
single-thread pass); the per-level breakdown is printed above the result
and every span is kept under ``.bench_out/``.

Every study's rows are checked against ``bench/reference.json``; a solve
that fails or drifts outside tolerance counts as failed.  The last line of
standard output is the JSON result.  ``--workload all`` runs every workload
in turn and ends with one combined result, its metrics keyed by workload.  The seed is recorded only: the
workloads are the library's deterministic manufactured cases.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check_rows, levels, load_reference  # noqa: E402

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
# per-level table of the traced pass
LEVEL_TABLE = (
    "assembly.build_context_s", "assembly.assemble_ls_s", "assembly.assemble_ne_s",
    "blockqr.solve_s", "blockqr.geqrf_s", "solve.cholesky_s", "solve.recover_s",
    "solve.indicators_s", "solve.error_norms_s", "assembly.matvec_s", "solve.rho_s",
    "studies.cond_diagnostics_total_s", "blockqr.geqrf_calls", "blockqr.window_width_max",
    "blockqr.geqrf_gflop", "blockqr.geqrf_gflops", "solve.cholesky_bandwidth",
    "solve.cholesky_gflop", "solve.cholesky_gflops",
)


class WorkerError(Exception):
    pass


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflops"):
        return "Gflop/s"
    if name.endswith("_gflop"):
        return "Gflop"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("width_max") or name.endswith("bandwidth"):
        return "columns"
    return "count"


def spawn(mode, name, out_dir, threads, deadline, seconds=0.0):
    """Run one worker process to completion and return its result."""
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"{mode}.json"
    if result_path.exists():
        result_path.unlink()
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    cmd = [sys.executable, str(HERE / "worker.py"), mode, name, str(out_dir),
           str(result_path), repr(seconds)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"{mode} worker exceeded the time limit") from err
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    with open(result_path) as fh:
        return json.load(fh)


def finest_rate(rows, n_solvers) -> float:
    """Free trial DOFs of the finest level times solvers, per wall second."""
    fin = rows[-1]
    return fin["N"] * n_solvers / (fin["wall_ms"] / 1000.0)


def finest_error(rows) -> float:
    fin = rows[-1]
    return max(e for e in (fin["err_qr"], fin["err_ne"]) if e is not None)


def gate(name, passes, reference):
    """(attempted, failure messages) over the studies in ``passes``."""
    config = WORKLOADS[name]
    attempted, failures = 0, []
    for rows in passes:
        attempted += len(levels(config)) * len(config["solvers"])
        failures += check_rows(name, rows, reference)
    return attempted, failures


def csv_without_wall(text: str) -> list:
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


def measure_end_to_end(name, out_dir, nproc, seconds, deadline):
    setups = [spawn("setup", name, out_dir / f"setup{k}", nproc, deadline)["setup_s"]
              for k in range(SETUP_SAMPLES - 1)]
    timed = spawn("timed", name, out_dir, nproc, deadline, seconds)
    reps = timed["reps"]
    n_solvers = len(WORKLOADS[name]["solvers"])
    metrics = {
        "setup_s": (statistics.median(setups + [timed["setup_s"]]), "s"),
        "run_s": (statistics.median(r["run_s"] for r in reps), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in reps), "s"),
        "finest_dofs_per_s": (statistics.median(finest_rate(r["rows"], n_solvers) for r in reps), "1/s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "err_finest": (finest_error(reps[-1]["rows"]), "1"),
    }
    print(f"{name}: {len(reps)} studies timed, run_s " +
          " ".join(f"{r['run_s']:.3f}" for r in reps))
    return metrics, [r["rows"] for r in reps], [], timed["env"]


def measure_layers(name, out_dir, nproc, deadline):
    main = spawn("traced", name, out_dir / "nproc", nproc, deadline)
    single = spawn("traced-only", name, out_dir / "single", 1, deadline)
    traced, untraced, st = main["traced"], main["untraced"], single["traced"]
    problems = []
    if csv_without_wall(traced["csv"]) != csv_without_wall(untraced["csv"]):
        problems.append("traced study.csv differs from the untraced one")
    for rep in (traced, st):
        if rep["unrestored"]:
            problems.append("names left wrapped: " + ", ".join(rep["unrestored"]))
    metrics = {k: (v, unit_of(k)) for k, v in traced["layers"].items()}
    metrics["trace.run_s"] = (traced["run_s"], "s")
    metrics["trace.untraced_run_s"] = (untraced["run_s"], "s")
    metrics["trace.overhead_s"] = (traced["run_s"] - untraced["run_s"], "s")
    metrics["st.run_s"] = (st["run_s"], "s")
    for k, v in st["layers"].items():
        if unit_of(k) in ("s", "Gflop/s"):
            metrics["st." + k] = (v, unit_of(k))

    print(f"{name}: per level, {nproc} BLAS threads (single-thread in brackets);"
          " flop counts are computed from array shapes, not measured")
    lv = [str(n) for n in levels(WORKLOADS[name])]
    print("  " + f"{'metric':34s}" + "".join(f"{'n=' + n:>22s}" for n in lv))
    for k in LEVEL_TABLE:
        cells = []
        for n in lv:
            a = traced["per_level"][n][k]
            b = st["per_level"][n][k]
            cells.append(f"{a:>11.4g} [{b:.4g}]" if unit_of(k) in ("s", "Gflop/s") else f"{a:>22.6g}")
        print("  " + f"{k:34s}" + "".join(f"{c:>22s}" for c in cells))
    passes = [untraced["rows"], traced["rows"], st["rows"]]
    return metrics, passes, problems, main["env"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name, args, reference, nproc) -> dict:
    """Measure one workload, print its report and return its result."""
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = ROOT / ".bench_out" / f"{name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, passes, problems, env = measure_layers(name, out_dir, nproc, deadline)
    else:
        metrics, passes, problems, env = measure_end_to_end(
            name, out_dir, nproc, args.seconds, deadline)
    attempted, failures = gate(name, passes, reference)
    for msg in problems + failures:
        print(f"CHECK FAILED {name}: {msg}")
    env.update(workload=name, seed=args.seed, levels=levels(WORKLOADS[name]),
               config=WORKLOADS[name])
    print("environment " + json.dumps(env))
    for k, (v, unit) in metrics.items():
        print(f"  {k} = {v:.6g} {unit}")
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    with open(out_dir / "result.json", "w") as fh:
        json.dump({"environment": env, **result}, fh, indent=1)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dlsfem" / "__init__.py").is_file():
        print(f"dlsfem sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = load_reference()
    nproc = len(os.sched_getaffinity(0))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, reference, nproc)
    except WorkerError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
