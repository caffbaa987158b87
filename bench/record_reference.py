"""Record ``bench/reference.json`` from the current sources.

    python3 bench/record_reference.py

Runs every workload's study once and stores its rows (without wall times)
as the values the benchmark's correctness gate compares against.  Re-record
only for a change that is meant to alter the numerical results, and say so.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_FILE, WORKLOADS  # noqa: E402


def main() -> int:
    from worker import ROOT, run_once

    print(f"BLAS threads: {os.environ.get('OPENBLAS_NUM_THREADS', 'default')}")
    reference = {}
    for name, config in WORKLOADS.items():
        rep = run_once(config, ROOT / ".bench_out" / "reference" / name)
        rows = [{k: v for k, v in row.items() if k != "wall_ms"} for row in rep["rows"]]
        reference[name] = {"config": config, "rows": rows}
        print(f"{name}: {len(rows)} levels in {rep['run_s']:.2f} s")
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
