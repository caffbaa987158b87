"""Importing dlsfem runs every loaded OpenBLAS at one thread.

numpy and scipy each bundle an OpenBLAS with its own thread pool, and
``OPENBLAS_NUM_THREADS`` sizes both when they load.  Both tests start a
fresh interpreter with that variable set, because a pool's size is fixed
by the first import in a process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

STUDY = """
import json, sys
from dlsfem.studies import StudyConfig, run_study
rows, _ = run_study(StudyConfig(
    study="converge", formulation="ultraweak-dpg", p=1, dp=1,
    precision="single", solvers=("ne",), start_n=96, refinements=1,
    out_dir=sys.argv[1]))
print(json.dumps({"err_ne": rows[0].err_ne, "eta_total": rows[0].eta_total}))
"""

# Finds the OpenBLAS libraries itself, from the process's memory map, and
# asks each for its thread count through its own getter.
THREADS = """
import ctypes, json
import dlsfem
with open("/proc/self/maps") as maps:
    paths = sorted({line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line})
counts = {}
for path in paths:
    lib = ctypes.CDLL(path)
    for getter in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads"):
        if hasattr(lib, getter):
            counts[path] = getattr(lib, getter)()
            break
    else:
        counts[path] = None
print(json.dumps(counts))
"""


def _run(code: str, threads: int, *args: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_study_outputs_do_not_depend_on_blas_threads(tmp_path):
    # JSON writes floats with repr, which reads back bit for bit
    one = _run(STUDY, 1, str(tmp_path / "one"))
    two = _run(STUDY, 2, str(tmp_path / "two"))
    assert one == two


def test_import_sets_every_openblas_to_one_thread():
    counts = _run(THREADS, 2)
    assert counts, "no OpenBLAS found in /proc/self/maps"
    assert counts == {path: 1 for path in counts}
