"""The tree plan: the analysis once, the numeric pass per system.

``TreePlan.build`` analyses the elimination tree once; ``_factor_round``
fills and factors one round of it.  The plan is checked round by round
against the per-round analysis it replaced (``tests/tree_reference.py``),
on the parts the numeric pass hands on; the Hermitian fronts, filled from
the upper triangles of the blocks passed up, against the fronts of the
symmetrized blocks, bit for bit; and a level that runs both solvers
against one plan per level.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dlsfem import blockqr
from dlsfem.assembly import Options, assemble_ne, assemble_overdetermined, build_context, precondition_global_rect
from dlsfem.blockqr import TreePlan, _back_substitute, _factor_round, _tree, solve_blocked_ls, solve_blocked_ne
from dlsfem.formulation import make_case, make_formulation
from dlsfem.mesh import uniform_mesh
from dlsfem.solve import solve_ls, solve_ne
from dlsfem.studies import StudyConfig, run_study
from test_blockqr import DTYPES, PROPERTY, patch_problems
from test_ne_solver import block_problems
from tree_reference import reference_round, reference_tree


def spread(data, stacks):
    """The stacks on cells spread apart and moved off the origin: cells with
    gaps, whose least cell is not 0."""
    stride = data.draw(st.integers(1, 3))
    offset = np.array(data.draw(st.tuples(st.integers(0, 5), st.integers(0, 5))))
    return [dataclasses.replace(s, cells=stride * s.cells + offset) for s in stacks]


def check_plan_matches_reference(parts, ncols, dtype, hermitian):
    """Round by round, the plan's signatures against the reference analysis
    of the parts that the numeric pass hands on: the same grouping (each
    group by the part and instance of its first panel), the same partition
    into signatures with the groups in the same order, and per signature
    the same panels, count of private columns, layout, front columns and
    passed-up cells."""
    plan = TreePlan.build(parts, ncols)
    parts = [pt for pt in parts if pt.panel.size]
    for r, signatures in enumerate(plan.rounds):
        ref = reference_round(parts, ncols)
        group_of = {(s, i): g for s, i, g in zip(ref["src"], ref["idx"], ref["group"])}
        first, count, layout = ref["first_panel"], ref["n_panels"], ref["layout"]
        covered = []
        for sig in signatures:
            groups = np.array([group_of[sig.src[0], i] for i in sig.inst[0]])
            covered.append(groups)
            assert np.array_equal(np.flatnonzero(ref["sig_id"] == ref["sig_id"][groups[0]]), groups)
            assert np.all(ref["n_private"][groups] == sig.p)
            at = layout[groups[0]][layout[groups[0]] >= 0]
            assert np.array_equal(np.concatenate(sig.at), at)
            for g, inst, cols in zip(groups, sig.inst.T, sig.cols):
                panels = slice(first[g], first[g] + count[g])
                assert tuple(ref["src"][panels]) == sig.src and np.array_equal(ref["idx"][panels], inst)
                placed = np.empty(at.max() + 1, dtype=np.int64)
                placed[at] = np.concatenate([parts[s].cols[i] for s, i in zip(sig.src, inst)])
                assert np.array_equal(placed, cols)
            assert np.array_equal(ref["cells"][first[groups]] // 2, sig.cells)
        assert np.array_equal(np.sort(np.concatenate(covered)), np.arange(first.size))
        parts, _ = _factor_round(parts, signatures, dtype, hermitian, upper=hermitian and r > 0)
    assert not parts


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_plan_matches_reference_on_row_panels(dtype, data):
    stacks, ncols, _ = data.draw(patch_problems(dtype))
    check_plan_matches_reference(spread(data, stacks), ncols, dtype, hermitian=False)


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_plan_matches_reference_on_blocks(dtype, data):
    stacks, ncols = data.draw(block_problems(dtype))
    check_plan_matches_reference(spread(data, stacks), ncols, dtype, hermitian=True)


def check_fronts_match_symmetrized(stacks, ncols, dtype):
    """The fronts of the plan's Cholesky, which reads the upper triangle of
    every block passed up, against those of the reference tree, which
    symmetrized them: R11, R12 and the projected loads bit for bit, and so
    the solution."""
    parts = [st for st in stacks if st.panel.size]
    want = reference_tree(parts, ncols, dtype, hermitian=True)
    got = _tree(parts, TreePlan.build(parts, ncols), dtype, hermitian=True)[0]
    by_cols = {f.cols.tobytes(): f for f in want}
    assert len(got) == len(want)
    for f in got:
        g = by_cols[f.cols.tobytes()]
        for name in ("r11", "r12", "rhs", "rest"):
            a, b = getattr(f, name), getattr(g, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(_back_substitute(got, ncols, dtype), _back_substitute(want, ncols, dtype))


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@PROPERTY
@given(data=st.data())
def test_property_upper_triangle_fronts_match_symmetrized_fronts(dtype, data):
    check_fronts_match_symmetrized(*data.draw(block_problems(dtype)), dtype)


@pytest.mark.parametrize("precision,dtype", [("single", np.complex64), ("double", np.complex128)])
def test_upper_triangle_fronts_match_symmetrized_fronts_near_resonance(precision, dtype):
    """The condensed acoustics blocks are Hermitian to round-off only: the
    first round reads each of them whole, as the reference did."""
    case = make_case("acoustics-resonance")
    ctx = build_context(uniform_mesh(6), make_formulation("acoustics-ultraweak", 2, 1), case, Options(precision=precision))
    a = assemble_ne(ctx)[0]
    assert any(np.any(b.panel != b.panel.conj().swapaxes(-1, -2)) for b in a.blocks)
    check_fronts_match_symmetrized(a.blocks, a.n, dtype)


def _count_plans(monkeypatch):
    built, build = [], TreePlan.build.__func__

    def counting(cls, stacks, n_cols):
        built.append(n_cols)
        return build(cls, stacks, n_cols)

    monkeypatch.setattr(TreePlan, "build", classmethod(counting))
    return built


LEVELS = [
    dict(study="acoustics", p=2, dp=1, precision="double", start_n=4),
    dict(study="converge", formulation="ultraweak-dpg", p=1, dp=1, precision="single", start_n=8),
]


@pytest.mark.parametrize("config", LEVELS, ids=["acoustics", "ultraweak-p1"])
def test_a_level_with_both_solvers_builds_one_plan(config, monkeypatch, tmp_path):
    built = _count_plans(monkeypatch)
    rows, _ = run_study(StudyConfig(out_dir=str(tmp_path), solvers=("ne", "qr"), refinements=1, **config))
    assert not rows[0].failed and len(built) == 1


@pytest.mark.parametrize("config", LEVELS, ids=["acoustics", "ultraweak-p1"])
def test_solutions_on_the_kept_plan_match_a_fresh_plan(config, monkeypatch):
    """Both solvers of a context on its one plan, against each system on a
    plan built for it alone: the same solutions, bit for bit."""
    case = make_case("acoustics-resonance" if config["study"] == "acoustics" else "poisson-sine")
    form = make_formulation(config.get("formulation", "acoustics-ultraweak"), config["p"], config["dp"])
    ctx = build_context(uniform_mesh(config["start_n"]), form, case, Options(precision=config["precision"]))
    a, bt = assemble_ne(ctx)[0], assemble_overdetermined(ctx)[0]
    built = _count_plans(monkeypatch)
    ne, qr = solve_ne(a, ctx), solve_ls(bt, ctx)
    assert len(built) == 1 and ctx.tree is not None
    s = precondition_global_rect(bt)
    assert np.array_equal(ne.system_vector, solve_blocked_ne(a.blocks, a.n)[0])
    assert np.array_equal(qr.system_vector, solve_blocked_ls(bt.stacks, bt.n_cols, s)[0] * s)
    assert len(built) == 3


def test_a_system_the_plan_does_not_fit_gets_its_own(monkeypatch):
    """Stacks over other columns than the kept plan's are not solved on it."""
    ctx = build_context(uniform_mesh(4), make_formulation("ultraweak-dpg", 1, 1), make_case("poisson-sine"))
    a = assemble_ne(ctx)[0]
    kept = ctx.tree_plan(a.blocks)
    moved = [dataclasses.replace(b, cols=b.cols[:, ::-1].copy()) for b in a.blocks]
    assert ctx.tree_plan(a.blocks) is kept
    assert not kept.fits(moved, a.n) and ctx.tree_plan(moved) is not kept
    assert blockqr.TreePlan.build(a.blocks, a.n).fits(a.blocks, a.n)
