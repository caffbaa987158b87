"""The benchmark's span tracer still fits the library.

``bench/tracing.py`` wraps layer boundaries of ``dlsfem`` by name; a
simplification that deletes or renames one of them breaks ``bench/run.py
--trace 1`` only when that is run.  Each workload's warm-up study (n = 2)
is run here under the tracer, unmodified.  The wrapped banded Cholesky
(``solve.cholesky``) runs for the square bubnov-galerkin system only.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from dlsfem.studies import StudyConfig, run_study

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, warmup_config  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracer_installs_records_and_restores(name, tmp_path):
    config = warmup_config(WORKLOADS[name])
    tracer = Tracer()
    try:
        tracer.install()
        rows, _ = run_study(StudyConfig(out_dir=str(tmp_path), **config))
    finally:
        unrestored = tracer.restore()
    assert unrestored == []
    assert all(not row.failed for row in rows)
    names = {span["name"] for span in tracer.spans}
    expected = {"mesh.uniform_mesh", "assembly.build_context", "solve.error_norms"}
    if "qr" in config["solvers"]:
        expected |= {"assembly.assemble_ls", "solve.solve_ls", "blockqr.solve"}
    if "ne" in config["solvers"]:
        expected |= {"assembly.assemble_ne", "solve.solve_ne"}
    # only the square product S* S of bubnov-galerkin is factored banded;
    # every other normal equation runs on the elimination tree
    banded = config.get("formulation") == "bubnov-galerkin"
    if banded:
        expected.add("solve.cholesky")
    assert expected <= names
    assert ("solve.cholesky" in names) == banded
