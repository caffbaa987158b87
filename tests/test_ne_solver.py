"""Tests of the normal-equation solvers against a dense solve.

Two entry points factor a Hermitian positive-definite sum of element
blocks: ``solve_blocked_ne``, the Cholesky on the elimination tree that
``solve_ne`` runs on every system that carries its blocks, and
``_banded_cholesky_solve``, which ``solve_ne`` keeps for the square
product S* S and which serves here as the oracle of the tree on assembled
systems.  The random matrices are block-sparse sums of element Gram
matrices, the shape of an assembled normal equation, with random
(x, y, component) sort keys on a coarse grid, so that the banded ordering
sees ties, and random mesh cells, so that the tree sees every grouping.
Every block carries its own load, which the tree sums in its fronts.
All four working dtypes.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, strategies as st

from dlsfem.assembly import Options, _scale_columns, assemble_ne, build_context, precondition_global
from dlsfem.blockqr import BlockStack, TreePlan, _factor_round, solve_blocked_ne
from dlsfem.formulation import make_case, make_formulation
from dlsfem.linalg import NotPositiveDefinite
from dlsfem.mesh import uniform_mesh
from dlsfem.solve import _banded_cholesky_solve, solve_ne
from dlsfem.studies import assemble_fosls_monolithic
from test_blockqr import DTYPES, PROPERTY, _random, draw_cells


def _hermitian(x):
    return 0.5 * (x + x.conj().swapaxes(-1, -2))


def _dense(stacks, ncols, wide):
    """The sum of the stacks' blocks, summed in ``wide``."""
    a = np.zeros((ncols, ncols), dtype=wide)
    for st in stacks:
        blocks = np.broadcast_to(st.panel, st.cols.shape[:1] + st.panel.shape[-2:])
        for cols, block in zip(st.cols, blocks):
            a[np.ix_(cols, cols)] += block
    return a


def _load(stacks, ncols, wide):
    """The sum of the stacks' loads, summed in ``wide``."""
    f = np.zeros(ncols, dtype=wide)
    for st in stacks:
        np.add.at(f, st.cols, st.loads)
    return f


@st.composite
def hpd_problems(draw, dtype):
    """(A, f, keys, stacks): A = positive diagonal + sum of P* P over random
    column sets, each term a block in ``dtype`` (the diagonal a stack of
    1 x 1 blocks, one per column) with a random load on random cells, and
    A and f their sums in double, rounded to ``dtype``."""
    n = draw(st.integers(1, 40))
    nblocks = draw(st.integers(0, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = np.result_type(dtype, np.float64)
    cells = draw_cells(draw, rng, n + nblocks)
    diag = rng.uniform(0.1, 1.0, (n, 1, 1)).astype(dtype)
    stacks = [BlockStack(diag, np.arange(n)[:, None], _random(rng, (n, 1), dtype), cells[:n])]
    for i in range(nblocks):
        k = int(rng.integers(1, min(n, 8) + 1))
        cols = rng.choice(n, size=k, replace=False)
        p = _random(rng, (k + 2, k), wide)
        block = _hermitian(p.conj().T @ p).astype(dtype)
        stacks.append(BlockStack(block, cols[None], _random(rng, (1, k), dtype), cells[n + i : n + i + 1]))
    keys = np.column_stack(
        [rng.integers(0, 5, n), rng.integers(0, 5, n), rng.integers(0, 2, n)]
    ).astype(float)
    return _dense(stacks, n, wide).astype(dtype), _load(stacks, n, wide).astype(dtype), keys, stacks


def _tree(a, f, keys, stacks):
    return solve_blocked_ne(stacks, a.shape[0])[0]


def _banded(a, f, keys, stacks):
    return _banded_cholesky_solve(scipy.sparse.csr_matrix(a), f, keys)


def check_matches_dense_solve(solve, dtype, problem):
    a, f, keys, stacks = problem
    x = solve(a, f, keys, stacks)
    assert x.dtype == dtype
    wide = np.result_type(dtype, np.float64)
    ref = np.linalg.solve(a.astype(wide), f.astype(wide))
    # Cholesky forward error: a multiple of n u kappa(A)
    kappa = np.linalg.cond(a.astype(wide))
    bound = 10.0 * a.shape[0] * np.finfo(dtype).eps * kappa
    assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_banded_cholesky_matches_dense_solve(dtype, data):
    check_matches_dense_solve(_banded, dtype, data.draw(hpd_problems(dtype)))


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_tree_cholesky_matches_dense_solve(dtype, data):
    check_matches_dense_solve(_tree, dtype, data.draw(hpd_problems(dtype)))


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data(), kind=st.sampled_from(["indefinite", "zero column"]))
def test_property_nonpositive_pivot_raises(dtype, data, kind):
    """Both entries, the banded one on A and the tree on its blocks."""
    a, f, keys, stacks = data.draw(hpd_problems(dtype))
    wide = np.result_type(dtype, np.float64)
    if kind == "indefinite":
        # lowest eigenvalue -lambda_max / 2, far beyond the round-off of a factorization
        lam = np.linalg.eigvalsh(a.astype(wide))
        shift = lam[0] + 0.5 * lam[-1]
        a = (a.astype(wide) - shift * np.eye(a.shape[0])).astype(dtype)
        diag = (stacks[0].panel.astype(wide) - shift).astype(dtype)
        stacks = [dataclasses.replace(stacks[0], panel=diag)] + stacks[1:]
    else:
        # a zero row and column: the pivot there is exactly zero
        j = data.draw(st.integers(0, a.shape[0] - 1))
        a[j, :] = 0.0
        a[:, j] = 0.0
        out = []
        for s in stacks:
            block = np.broadcast_to(s.panel, s.cols.shape[:1] + s.panel.shape[-2:]).copy()
            e, i = np.nonzero(s.cols == j)
            block[e, i, :] = 0.0
            block[e, :, i] = 0.0
            out.append(dataclasses.replace(s, panel=block))
        stacks = out
    for solve in (_banded, _tree):
        with pytest.raises(NotPositiveDefinite):
            solve(a, f, keys, stacks)


# ---------------------------------------------------------------------------
# The tree: shared and per-element blocks on three cell patterns
# ---------------------------------------------------------------------------


@st.composite
def block_problems(draw, dtype):
    """Stacks of E > 1 Hermitian positive-definite blocks P* P of k columns
    (P of k..4k rows) that share one block, now and then an (E, k, k) stack
    (as under a variable coefficient), each over its own columns, plus a
    positive diagonal of 1 x 1 blocks, so that every column another block
    holds is shared; a random load per block and random cells (random ones
    on an 8 x 8 grid, all in one cell, or one cell per block):
    (stacks, ncols)."""
    ncols = draw(st.integers(1, 40))
    nstacks = draw(st.integers(1, 5))
    kmax = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = np.result_type(dtype, np.float64)
    blocks = [(rng.uniform(0.1, 1.0, (ncols, 1, 1)), np.arange(ncols)[:, None])]
    for _ in range(nstacks):
        k = int(rng.integers(1, min(ncols, kmax) + 1))
        m = int(rng.integers(k, 4 * k + 1))
        e = int(rng.integers(2, 7))
        cols = np.stack([rng.choice(ncols, size=k, replace=False) for _ in range(e)])
        p = _random(rng, (e, m, k) if rng.random() < 0.25 else (m, k), wide)
        blocks.append((_hermitian(p.conj().swapaxes(-1, -2) @ p), cols))
    cells = draw_cells(draw, rng, sum(cols.shape[0] for _, cols in blocks))
    stacks, first = [], 0
    for block, cols in blocks:
        e, k = cols.shape
        stacks.append(BlockStack(block.astype(dtype), cols, _random(rng, (e, k), dtype), cells[first : first + e]))
        first += e
    return stacks, ncols


def check_tree_matches_dense_solve(dtype, stacks, ncols):
    """x of the tree against a dense solve of (sum of blocks) x = sum of loads."""
    x, r_diag = solve_blocked_ne(stacks, ncols)
    assert x.dtype == dtype and r_diag.shape == (ncols,)
    wide = np.result_type(dtype, np.float64)
    a = _dense(stacks, ncols, wide)
    ref = np.linalg.solve(a, _load(stacks, ncols, wide))
    lam = np.linalg.eigvalsh(a)
    kappa = lam[-1] / lam[0]
    bound = 100.0 * np.finfo(dtype).eps * kappa
    assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)
    # the Cholesky diagonal of A in any column order: the product of its
    # squares is det(A), and each factor is off by at most u kappa relative
    assert abs(2.0 * np.log(r_diag).sum() - np.log(lam).sum()) <= 100.0 * np.finfo(dtype).eps * kappa * ncols


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_tree_blocks_match_dense_solve(dtype, data):
    """The whole load on the diagonal blocks: one block per column holds it."""
    stacks, ncols = data.draw(block_problems(dtype))
    f = _load(stacks, ncols, np.result_type(dtype, np.float64)).astype(dtype)
    stacks = [dataclasses.replace(stacks[0], loads=f[:, None])] + [
        dataclasses.replace(st, loads=np.zeros_like(st.loads)) for st in stacks[1:]
    ]
    check_tree_matches_dense_solve(dtype, stacks, ncols)


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_tree_sums_the_block_loads_in_its_fronts(dtype, data):
    """Every block carries a load, and several blocks share a column (the
    diagonal block and each block over it, shared or per-element): the
    fronts sum the loads of their blocks as they sum the blocks."""
    stacks, ncols = data.draw(block_problems(dtype))
    holders = np.bincount(np.concatenate([st.cols.ravel() for st in stacks]), minlength=ncols)
    assert holders.max() >= 2
    check_tree_matches_dense_solve(dtype, stacks, ncols)


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_tree_indefinite_sum_raises(dtype, data):
    """The diagonal stack shifted so that the lowest eigenvalue of the sum is
    -lambda_max / 2."""
    stacks, ncols = data.draw(block_problems(dtype))
    lam = np.linalg.eigvalsh(_dense(stacks, ncols, np.result_type(dtype, np.float64)))
    diag = stacks[0].panel - (lam[0] + 0.5 * lam[-1])
    stacks = [dataclasses.replace(stacks[0], panel=diag.astype(dtype))] + stacks[1:]
    with pytest.raises(NotPositiveDefinite):
        solve_blocked_ne(stacks, ncols)


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_ne_fronts_keep_no_factored_front_alive(dtype, data):
    """As in the QR: every round keeps copies, never views of a front."""
    parts, ncols = data.draw(block_problems(dtype))
    for r, signatures in enumerate(TreePlan.build(parts, ncols).rounds):
        parts, fronts = _factor_round(parts, signatures, dtype, hermitian=True, upper=r > 0)
        assert all(f.r11.base is None and f.r12.base is None and f.rhs.base is None for f in fronts)
        assert all(pt.panel.base is None for pt in parts)
    assert not parts


def test_column_in_no_block_raises():
    block = np.array([[2.0, 1.0], [1.0, 2.0]])
    stacks = [BlockStack(block, np.array([[0, 1]]), np.ones((1, 2)), np.zeros((1, 2), dtype=np.int64))]
    with pytest.raises(NotPositiveDefinite):
        solve_blocked_ne(stacks, 3)


def test_empty_system():
    x, r_diag = solve_blocked_ne([], 0)
    assert x.size == 0 and r_diag.size == 0


TYPECODES = {np.float32: "s", np.float64: "d", np.complex64: "c", np.complex128: "z"}


@pytest.mark.parametrize("dtype", DTYPES)
def test_ne_fronts_run_in_working_dtype(dtype, monkeypatch):
    """The Hermitian fronts request ?potrf, ?trtrs, ?syrk (?herk for complex
    data) and ?gemm through scipy's ``get_lapack_funcs``/``get_blas_funcs``,
    and nothing else, in the blocks' own dtype, on fronts spread over the
    tree, and ?potrf and ?trtrs on one root front (all blocks in one cell)."""
    requested = []

    def recording(original):
        def get(names, *args, **kwargs):
            funcs = original(names, *args, **kwargs)
            requested.extend(zip(*([[names], [funcs]] if isinstance(names, str) else [names, funcs])))
            return funcs

        return get

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", recording(scipy.linalg.get_lapack_funcs))
    monkeypatch.setattr(scipy.linalg, "get_blas_funcs", recording(scipy.linalg.get_blas_funcs))
    rng = np.random.default_rng(6)
    k, ncols = 4, 13
    # neighbours share a column: the groups finish the others, the parents the shared ones
    cols = np.stack([np.arange(first, first + k) for first in range(0, ncols - 1, k - 1)])
    p = _random(rng, (cols.shape[0], k + 2, k), dtype)
    block = _hermitian(p.conj().swapaxes(-1, -2) @ p)
    loads = _random(rng, cols.shape, dtype)
    spread = np.column_stack([2 * np.arange(cols.shape[0]), np.zeros(cols.shape[0], dtype=np.int64)])
    rk = "herk" if np.issubdtype(dtype, np.complexfloating) else "syrk"
    # spread fronts pass Schur complements up; the root front finishes all
    for cells, kernels in ((spread, {"potrf", "trtrs", rk, "gemm"}), (np.zeros_like(spread), {"potrf", "trtrs"})):
        requested.clear()
        stacks = [BlockStack(block, cols, loads, cells)]
        x = solve_blocked_ne(stacks, ncols)[0]
        wide = np.result_type(dtype, np.float64)
        ref = np.linalg.solve(_dense(stacks, ncols, wide), _load(stacks, ncols, wide))
        assert np.linalg.norm(x - ref) <= 1e3 * np.finfo(dtype).eps * np.linalg.norm(ref)
        assert {name for name, _ in requested} == kernels
        assert {fn.typecode for _, fn in requested} == {TYPECODES[dtype]}


# ---------------------------------------------------------------------------
# Assembled systems: the tree against the banded oracle, in double
# ---------------------------------------------------------------------------

# (formulation, p, dp, n, case, condense): per-element blocks under the
# variable alpha of fosls-strong; complex blocks near resonance
ASSEMBLED = [
    ("ultraweak-dpg", 2, 1, 16, "poisson-sine", True),
    ("fosls-strong", 2, 1, 8, "poisson-alpha-sine", True),
    ("acoustics-ultraweak", 1, 1, 6, "acoustics-resonance", True),
    ("primal-dpg", 2, 1, 8, "poisson-sine", True),
]


@pytest.mark.parametrize("fname,p,dp,n,cname,condense", ASSEMBLED)
def test_tree_matches_banded_on_assembled_systems(fname, p, dp, n, cname, condense):
    case = make_case(cname)
    form = make_formulation(fname, p, dp, **({"alpha": case.alpha} if fname == "fosls-strong" else {}))
    ctx = build_context(uniform_mesh(n), form, case, Options(condense=condense))
    a = assemble_ne(ctx)[0]
    s = precondition_global(a)
    # both in u = x / D, the solution of D A D u = s * f
    got = solve_blocked_ne(a.blocks, a.n)[0] / s
    want = _banded_cholesky_solve(_scale_columns(a.matrix, s), a.rhs * s, ctx.sort_keys())
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_solve_ne_solves_the_monolithic_fosls_system_it_is_given():
    """The classical FOSLS system shares the columns of a fosls-strong
    context but not its matrix: ``solve_ne`` factors the blocks of the
    system it is handed, not those of the context."""
    case = make_case("poisson-alpha-sine")
    form = make_formulation("fosls-strong", 2, 1, alpha=case.alpha)
    ctx = build_context(uniform_mesh(8), form, case, Options(condense=False))
    a = assemble_fosls_monolithic(ctx, case)
    assert a.blocks is not None
    got = solve_ne(a, ctx).system_vector
    want = _banded_cholesky_solve(a.matrix, a.rhs, ctx.sort_keys())
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # the Riesz-map system of the context is about 1e-6 away at dp = 1
    other = solve_ne(assemble_ne(ctx)[0], ctx).system_vector
    assert np.linalg.norm(other - want) > 1e-9 * np.linalg.norm(want)
