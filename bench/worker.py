"""One fresh benchmark process: set-up, then timed or traced studies.

Run by ``bench/run.py``, which pins the BLAS thread count through the
environment before this interpreter loads numpy::

    python3 bench/worker.py MODE WORKLOAD OUT_DIR RESULT_JSON [SECONDS]

MODE is one of

* ``setup``  - import dlsfem and run the warm-up study only;
* ``timed``  - set-up, then run the study back to back (a closed loop, one
  study at a time) until SECONDS have passed and at least ``MIN_REPS``
  studies are done;
* ``traced`` - set-up, one untraced study, then one traced study;
* ``traced-only`` - set-up, then one traced study.

Set-up is ``import dlsfem`` plus one run of the workload's own configuration
at n = 2, which fills the basis tables and loads LAPACK.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, levels, warmup_config  # noqa: E402  (stdlib only)

MIN_REPS = 3


def setup(config: dict, out_dir: Path) -> float:
    t0 = time.perf_counter()
    from dlsfem.studies import StudyConfig, run_study

    run_study(StudyConfig(out_dir=str(out_dir / "warmup"), **warmup_config(config)))
    return time.perf_counter() - t0


def row_dict(row) -> dict:
    return {
        "n": row.n, "N": row.n_trial, "M": row.m_rows,
        "cond_A": row.cond_a, "cond_Btilde": row.cond_btilde,
        "err_ne": row.err_ne, "err_qr": row.err_qr, "rho": row.rho,
        "eta_total": row.eta_total, "wall_ms": row.wall_ms,
        "failed": dict(row.failed),
    }


def run_once(config: dict, out_dir: Path, tracer=None) -> dict:
    """One study; wall and process CPU time (all threads) around run_study."""
    from dlsfem.studies import StudyConfig, run_study

    cfg = StudyConfig(out_dir=str(out_dir), **config)
    c0, t0 = time.process_time(), time.perf_counter()
    if tracer is None:
        rows, csv_path = run_study(cfg)
    else:
        span = tracer.open("studies.run_study")
        try:
            rows, csv_path = run_study(cfg)
        finally:
            tracer.close(span)
    run_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    return {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "rows": [row_dict(r) for r in rows],
        "csv": Path(csv_path).read_text(),
    }


def traced_once(config: dict, out_dir: Path) -> dict:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    try:
        tracer.install()
        rep = run_once(config, out_dir, tracer)
    finally:
        unrestored = tracer.restore()
    rep["unrestored"] = unrestored
    rep["layers"] = layer_metrics(tracer.spans)
    rep["per_level"] = {str(n): layer_metrics(tracer.spans, level=n) for n in levels(config)}
    with open(out_dir / "spans.json", "w") as fh:
        json.dump(tracer.spans, fh)
    return rep


def main(argv) -> int:
    mode, name, out_dir, result_path = argv[:4]
    seconds = float(argv[4]) if len(argv) > 4 else 0.0
    config = WORKLOADS[name]
    out_dir = Path(out_dir)
    result = {"mode": mode, "workload": name, "setup_s": setup(config, out_dir)}
    if mode == "timed":
        reps = []
        t_start = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - t_start + reps[-1]["run_s"] <= seconds:
            reps.append(run_once(config, out_dir / "timed"))
        result["reps"] = reps
    elif mode == "traced":
        result["untraced"] = run_once(config, out_dir / "untraced")
        result["traced"] = traced_once(config, out_dir / "traced")
    elif mode == "traced-only":
        result["traced"] = traced_once(config, out_dir / "traced")
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
