import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from dlsfem.blockqr import RowStack, TreePlan, _factor_round, _qr, solve_blocked_ls
from dlsfem.linalg import RankDeficient, eps
from tree_reference import cell_groups


def random_blocked(rng, ncols, nblocks, dtype=np.float64, kmax=8, max_rows=lambda k: k + 4):
    blocks, rhs = [], []
    for _ in range(nblocks):
        k = int(rng.integers(1, min(ncols, kmax) + 1))
        cols = rng.choice(ncols, size=k, replace=False)
        m = int(rng.integers(k, max_rows(k) + 1))
        rows = rng.standard_normal((m, k))
        r = rng.standard_normal(m)
        if np.issubdtype(dtype, np.complexfloating):
            rows = rows + 1j * rng.standard_normal((m, k))
            r = r + 1j * rng.standard_normal(m)
        blocks.append((rows.astype(dtype), cols))
        rhs.append(r.astype(dtype))
    touched = sorted({c for _, cols in blocks for c in cols})
    missing = sorted(set(range(ncols)) - set(touched))
    if missing:
        m = len(missing) + 3
        rows = rng.standard_normal((m, len(missing))).astype(dtype)
        blocks.append((rows, np.array(missing)))
        rhs.append(rng.standard_normal(m).astype(dtype))
    return blocks, rhs


def as_stacks(blocks, rhs, cells=None):
    """Every block as a stack of one panel with its rows' loads, on
    consecutive rows, in the given (nblocks, 2) cells (block i in cell
    (i, 0) when omitted)."""
    offsets = np.cumsum([0] + [rows.shape[0] for rows, _ in blocks])
    if cells is None:
        cells = np.column_stack([np.arange(len(blocks)), np.zeros(len(blocks), dtype=np.int64)])
    return [
        RowStack(rows, np.asarray(cols)[None], r[None], cells[i : i + 1], offsets[i : i + 1])
        for i, ((rows, cols), r) in enumerate(zip(blocks, rhs))
    ]


def draw_cells(draw, rng, n):
    """(n, 2) cells of n panels: random ones on an 8 x 8 grid, all the same
    cell (one dense root front), or one cell for each panel."""
    kind = draw(st.sampled_from(["random", "zeros", "own"]))
    if kind == "random":
        return rng.integers(0, 8, (n, 2))
    if kind == "zeros":
        return np.zeros((n, 2), dtype=np.int64)
    return np.column_stack(np.divmod(np.arange(n), 8))


def dense_of(stacks, ncols, dtype, scale=None):
    """Dense B D and l of a stacked system on consecutive rows."""
    scale = np.ones(ncols) if scale is None else scale
    n_rows = sum(st.loads.size for st in stacks)
    m, v = np.zeros((n_rows, ncols), dtype=dtype), np.zeros(n_rows, dtype=dtype)
    for st in stacks:
        panels = np.broadcast_to(st.panel, st.cols.shape[:1] + st.panel.shape[-2:])
        for rows, cols, panel in zip(st.rows, st.cols, panels):
            m[np.ix_(rows, cols)] = panel * scale[cols]
        v[st.rows] = st.loads
    return m, v


@pytest.mark.parametrize("seed", range(8))
def test_matches_dense_lstsq(seed):
    rng = np.random.default_rng(seed)
    ncols = int(rng.integers(4, 80))
    blocks, rhs = random_blocked(rng, ncols, int(rng.integers(2, 30)))
    x, rdiag = solve_blocked_ls(as_stacks(blocks, rhs, rng.integers(0, 8, (len(blocks), 2))), ncols)
    m, v = dense_of(as_stacks(blocks, rhs), ncols, np.float64)
    ref = np.linalg.lstsq(m, v, rcond=None)[0]
    np.testing.assert_allclose(x, ref, atol=1e-11 * max(np.linalg.norm(ref), 1.0))
    assert rdiag.shape == (ncols,)


def test_complex_matches_dense(seed=3):
    rng = np.random.default_rng(seed)
    ncols = 40
    blocks, rhs = random_blocked(rng, ncols, 25, dtype=np.complex128)
    x, _ = solve_blocked_ls(as_stacks(blocks, rhs), ncols)
    m, v = dense_of(as_stacks(blocks, rhs), ncols, np.complex128)
    ref = np.linalg.lstsq(m, v, rcond=None)[0]
    np.testing.assert_allclose(x, ref, atol=1e-11 * np.linalg.norm(ref))


def test_single_precision_dtype_preserved():
    rng = np.random.default_rng(5)
    blocks, rhs = random_blocked(rng, 20, 10, dtype=np.float64)
    blocks32 = [(b.astype(np.float32), c) for b, c in blocks]
    rhs32 = [r.astype(np.float32) for r in rhs]
    x, _ = solve_blocked_ls(as_stacks(blocks32, rhs32), 20)
    assert x.dtype == np.float32
    m, v = dense_of(as_stacks(blocks, rhs), 20, np.float64)
    ref = np.linalg.lstsq(m, v, rcond=None)[0]
    np.testing.assert_allclose(x, ref, atol=1e-4 * np.linalg.norm(ref))


@pytest.mark.parametrize("dtype", [np.float32, np.complex64])
def test_compression_runs_in_working_dtype(dtype, monkeypatch):
    """Every LAPACK routine the block QR requests through
    ``scipy.linalg.get_lapack_funcs`` comes in the panels' own dtype, on
    tall panels through the tree fronts, where each element's own QR is
    part of its front, and through one root front (all panels in one
    cell)."""
    original = scipy.linalg.get_lapack_funcs
    requested = []

    def recording(names, *args, **kwargs):
        funcs = original(names, *args, **kwargs)
        requested.extend(zip(*([[names], [funcs]] if isinstance(names, str) else [names, funcs])))
        return funcs

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", recording)
    rng = np.random.default_rng(6)
    k, ncols = 4, 13
    # neighbours share a column: the groups finish the others, the parents the shared ones
    blocks = [
        (_random(rng, (int(rng.integers(k + 2, 4 * k + 1)), k), dtype), np.arange(first, first + k))
        for first in range(0, ncols - 1, k - 1)
    ]
    rhs = [_random(rng, rows.shape[0], dtype) for rows, _ in blocks]
    spread = np.column_stack([2 * np.arange(len(blocks)), np.zeros(len(blocks), dtype=np.int64)])
    for cells in (spread, np.zeros_like(spread)):
        requested.clear()
        check_matches_dense_lstsq(dtype, (as_stacks(blocks, rhs, cells), ncols, {}))
        assert {name for name, _ in requested} == {"geqrt", "gemqrt"}
        assert {f.typecode for _, f in requested} == {"s" if dtype == np.float32 else "c"}


def test_untouched_column_raises():
    rng = np.random.default_rng(2)
    blocks = [(rng.standard_normal((4, 2)), np.array([0, 1]))]
    with pytest.raises(RankDeficient):
        solve_blocked_ls(as_stacks(blocks, [np.zeros(4)]), 3)


def test_dependent_columns_raise():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((6, 1))
    blocks = [(np.hstack([rows, rows]), np.array([0, 1]))]
    with pytest.raises(RankDeficient):
        solve_blocked_ls(as_stacks(blocks, [np.zeros(6)]), 2)


def test_wide_root_front_raises():
    """Two one-row panels over four columns, in one cell: the root front has
    fewer rows than columns, which is lost rank, not a shape error."""
    rng = np.random.default_rng(8)
    blocks = [(rng.standard_normal((1, 3)), np.array([0, 1, 2])), (rng.standard_normal((1, 2)), np.array([2, 3]))]
    with pytest.raises(RankDeficient):
        solve_blocked_ls(as_stacks(blocks, [np.zeros(1), np.zeros(1)], np.zeros((2, 2), dtype=np.int64)), 4)


def test_empty_system():
    x, rd = solve_blocked_ls([], 0)
    assert x.size == 0


def test_consistent_system_exact():
    rng = np.random.default_rng(11)
    ncols = 25
    blocks, rhs = random_blocked(rng, ncols, 12)
    m, _ = dense_of(as_stacks(blocks, rhs), ncols, np.float64)
    x_true = rng.standard_normal(ncols)
    full = m @ x_true
    off = 0
    rhs_cons = []
    for rows, cols in blocks:
        rhs_cons.append(full[off : off + rows.shape[0]])
        off += rows.shape[0]
    x, _ = solve_blocked_ls(as_stacks(blocks, rhs_cons), ncols)
    np.testing.assert_allclose(x, x_true, atol=1e-10)


# ---------------------------------------------------------------------------
# Property tests against dense lstsq: tall blocks, all four dtypes
# ---------------------------------------------------------------------------

DTYPES = [np.float32, np.float64, np.complex64, np.complex128]
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def tall_problems(draw, dtype):
    """Random row-blocked problem whose blocks of k columns have k..4k rows."""
    ncols = draw(st.integers(2, 40))
    nblocks = draw(st.integers(1, 12))
    kmax = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks, rhs = random_blocked(rng, ncols, nblocks, dtype, kmax, max_rows=lambda k: 4 * k)
    return as_stacks(blocks, rhs, draw_cells(draw, rng, len(blocks))), ncols, {}


@st.composite
def row_problems(draw, dtype):
    """Random one-row panels of varying width, the shape of a square sparse
    system's rows: row i always holds column i, so every column is reached."""
    ncols = draw(st.integers(2, 40))
    nrows = ncols + draw(st.integers(0, 10))
    kmax = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks, rhs = [], []
    for i in range(nrows):
        k = int(rng.integers(1, min(ncols, kmax) + 1))
        others = rng.permutation(np.delete(np.arange(ncols), i % ncols))[: k - 1]
        cols = np.concatenate([[i % ncols], others])
        row, r = rng.standard_normal((1, k)), rng.standard_normal(1)
        if np.issubdtype(dtype, np.complexfloating):
            row, r = row + 1j * rng.standard_normal((1, k)), r + 1j * rng.standard_normal(1)
        blocks.append((row.astype(dtype), cols))
        rhs.append(r.astype(dtype))
    return as_stacks(blocks, rhs, draw_cells(draw, rng, nrows)), ncols, {}


def _random(rng, shape, dtype):
    x = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        x = x + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


@st.composite
def shared_problems(draw, dtype):
    """Stacks of E > 1 panels that share one panel of k columns and k..4k
    rows (now and then an (E, m, k) stack, as under a variable coefficient),
    each panel over its own columns, with random loads and a random
    positive column scale: the shape of the element classes of the
    overdetermined assembly."""
    ncols = draw(st.integers(2, 40))
    nstacks = draw(st.integers(1, 5))
    kmax = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    panels = []
    for _ in range(nstacks):
        k = int(rng.integers(1, min(ncols, kmax) + 1))
        m = int(rng.integers(k, 4 * k + 1))
        e = int(rng.integers(2, 7))
        cols = np.stack([rng.choice(ncols, size=k, replace=False) for _ in range(e)])
        shape = (e, m, k) if rng.random() < 0.25 else (m, k)
        panels.append((_random(rng, shape, dtype), cols))
    missing = np.setdiff1d(np.arange(ncols), np.concatenate([c.ravel() for _, c in panels]))
    if missing.size:
        panels.append((_random(rng, (missing.size + 3, missing.size), dtype), np.stack([missing, missing[::-1]])))
    cells = draw_cells(draw, rng, sum(cols.shape[0] for _, cols in panels))
    stacks, offset, first = [], 0, 0
    for panel, cols in panels:
        m, e = panel.shape[-2], cols.shape[0]
        loads = _random(rng, (e, m), dtype)
        stacks.append(RowStack(panel, cols, loads, cells[first : first + e], offset + m * np.arange(e)))
        offset, first = offset + m * e, first + e
    return stacks, ncols, dict(scale=np.exp(rng.uniform(-2.0, 2.0, ncols)).astype(dtype))


def check_matches_dense_lstsq(dtype, problem):
    stacks, ncols, how = problem
    x, rdiag = solve_blocked_ls(stacks, ncols, **how)
    assert x.dtype == dtype and rdiag.shape == (ncols,)
    wide = np.complex128 if np.issubdtype(dtype, np.complexfloating) else np.float64
    m, v = dense_of(stacks, ncols, wide, how.get("scale"))
    ref = np.linalg.lstsq(m, v, rcond=None)[0]
    # least-squares forward error bound: u kappa (1 + kappa ||r|| / (||B|| ||x||))
    sv = np.linalg.svd(m, compute_uv=False)
    kappa = sv[0] / sv[-1]
    eta = np.linalg.norm(v - m @ ref) / (sv[0] * np.linalg.norm(ref))
    bound = 100.0 * np.finfo(dtype).eps * kappa * (1.0 + kappa * eta)
    assert np.linalg.norm(x - ref) <= bound * np.linalg.norm(ref)
    # the R diagonal of B D in any column order: its product is that of the
    # singular values, and each factor is off by at most u kappa relative
    assert abs(np.log(rdiag).sum() - np.log(sv).sum()) <= 100.0 * np.finfo(dtype).eps * kappa * ncols


def check_rank_deficient_raises(problem, kind, i, j):
    stacks, ncols, how = problem
    out = []
    for st in stacks:    # one panel per stack
        rows, cols = st.panel.copy(), list(st.cols[0])
        if kind == "untouched" and i in cols:
            keep = [t for t, c in enumerate(cols) if c != i]
            rows, cols = rows[:, keep], [cols[t] for t in keep]
        elif kind == "zero" and i in cols:
            rows[:, cols.index(i)] = 0.0
        elif kind == "scaled copy":
            # column j = 2 * column i in every row: zero where only one occurs
            if i in cols and j in cols:
                rows[:, cols.index(j)] = 2.0 * rows[:, cols.index(i)]
            elif i in cols or j in cols:
                rows[:, cols.index(i if i in cols else j)] = 0.0
        out.append(dataclasses.replace(st, panel=rows, cols=np.array(cols, dtype=np.int64)[None]))
    with pytest.raises(RankDeficient):
        solve_blocked_ls(out, ncols, **how)


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_matches_dense_lstsq(dtype, data):
    check_matches_dense_lstsq(dtype, data.draw(tall_problems(dtype)))


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data(), kind=st.sampled_from(["zero", "untouched", "scaled copy"]))
def test_property_rank_deficient_raises(dtype, data, kind):
    problem = data.draw(tall_problems(dtype))
    i, j = data.draw(st.permutations(range(problem[1])))[:2]
    check_rank_deficient_raises(problem, kind, i, j)


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_one_row_panels_match_dense_lstsq(dtype, data):
    check_matches_dense_lstsq(dtype, data.draw(row_problems(dtype)))


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data(), kind=st.sampled_from(["zero", "untouched", "scaled copy"]))
def test_property_one_row_panels_rank_deficient_raises(dtype, data, kind):
    problem = data.draw(row_problems(dtype))
    i, j = data.draw(st.permutations(range(problem[1])))[:2]
    check_rank_deficient_raises(problem, kind, i, j)


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_shared_panels_match_dense_lstsq(dtype, data):
    check_matches_dense_lstsq(dtype, data.draw(shared_problems(dtype)))


# ---------------------------------------------------------------------------
# Patches: panels that carry mesh cells, in groups that repeat
# ---------------------------------------------------------------------------


@st.composite
def patch_problems(draw, dtype):
    """Panels on the cells of an 8 x 8 grid, in groups that repeat.  A
    template of up to four panels over a local column layout sits at one
    2 x 2 group position in several 4 x 4 patches; panel j of every copy
    comes from one stack j (shared, or now and then an (E, m, k) stack,
    never shared).  Each copy has inner columns of its own and outer ones
    from a pool that all groups draw on, the same for all copies
    or drawn for each.  Now and then a panel is wide, with fewer rows than
    columns but as many as its inner columns; one tall panel over the outer
    columns of the wide ones keeps B of full column rank.  Loose panels on
    random cells and random columns break the repetition.  Random positive
    column scale and random loads."""
    pool = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    patches = rng.permutation(4)[: int(rng.integers(1, 5))]
    panels, ncols = [], pool              # (panel, cols (E, k), cells (E, 2))
    short = []                            # outer columns of the wide panels
    for spot in rng.permutation(4)[: int(rng.integers(1, 4))]:
        here = patches[rng.random(patches.size) < 0.8]
        here = here if here.size else patches[:1]
        inner = int(rng.integers(0, 6))
        outer = int(rng.integers(0 if inner else 1, min(pool, 6) + 1))
        # outer columns: the same ones for every copy, or drawn for each
        draws = [rng.choice(pool, size=outer, replace=False) for _ in here]
        where = np.column_stack([
            ncols + np.arange(here.size * inner).reshape(here.size, inner),
            np.stack(draws if rng.random() < 0.5 else draws[:1] * here.size),
        ])
        ncols += here.size * inner
        group = np.column_stack([2 * (here % 2) + spot % 2, 2 * (here // 2) + spot // 2])
        for cell in rng.permutation(4)[: int(rng.integers(1, 5))]:
            k = int(rng.integers(1, inner + outer + 1))
            pick = rng.choice(inner + outer, size=k, replace=False)
            # now and then wide: rows enough for its inner columns only
            least = max(int((pick < inner).sum()), 1)
            if least < k and rng.random() < 0.25:
                m = int(rng.integers(least, k))
                short.append(where[:, pick[pick >= inner]].ravel())
            else:
                m = int(rng.integers(k, 4 * k + 1))
            shape = (here.size, m, k) if rng.random() < 0.25 else (m, k)
            panels.append((_random(rng, shape, dtype), where[:, pick], 2 * group + [cell % 2, cell // 2]))
    for _ in range(int(rng.integers(0, 3))):
        k = int(rng.integers(1, min(ncols, 6) + 1))
        m = int(rng.integers(k, 4 * k + 1))
        panels.append((_random(rng, (m, k), dtype), rng.choice(ncols, size=(1, k), replace=False), rng.integers(0, 8, (1, 2))))
    if short:
        # a tall panel over the outer columns of the wide ones keeps B of full rank
        cover = np.unique(np.concatenate(short))
        panels.append((_random(rng, (cover.size + 2, cover.size), dtype), cover[None], rng.integers(0, 8, (1, 2))))
    missing = np.setdiff1d(np.arange(ncols), np.concatenate([c.ravel() for _, c, _ in panels]))
    if missing.size:
        panels.append((_random(rng, (missing.size + 3, missing.size), dtype), missing[None], rng.integers(0, 8, (1, 2))))
    stacks, offset = [], 0
    for panel, cols, cells in panels:
        m, e = panel.shape[-2], cols.shape[0]
        stacks.append(RowStack(panel, cols, _random(rng, (e, m), dtype), cells, offset + m * np.arange(e)))
        offset += m * e
    how = dict(scale=np.exp(rng.uniform(-2.0, 2.0, ncols)).astype(dtype))
    return stacks, ncols, how


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_patches_match_dense_lstsq(dtype, data):
    check_matches_dense_lstsq(dtype, data.draw(patch_problems(dtype)))


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data(), kind=st.sampled_from(["zero", "scaled copy"]))
def test_property_rank_deficient_private_column_raises(dtype, data, kind):
    """One more panel, on the cell of the first panel, over an old column and
    two new ones that no other panel touches, so that they are private to
    its group: one of them zero, or one twice the other."""
    stacks, ncols, how = data.draw(patch_problems(dtype))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    panel = _random(rng, (5, 3), dtype)
    if kind == "zero":
        panel[:, 1] = 0.0
    else:
        panel[:, 2] = 2.0 * panel[:, 1]
    n_rows = sum(st.loads.size for st in stacks)
    cols = np.array([[0, ncols, ncols + 1]])
    stacks = stacks + [RowStack(panel, cols, _random(rng, (1, 5), dtype), stacks[0].cells[:1], np.array([n_rows]))]
    with pytest.raises(RankDeficient):
        solve_blocked_ls(stacks, ncols + 2, scale=np.concatenate([how["scale"], np.ones(2, dtype=dtype)]))


# ---------------------------------------------------------------------------
# The front kernel and what the fronts keep
# ---------------------------------------------------------------------------

# 1 x k, m x 1, wide, r < 32 and r > 32 (across ?geqrt's block of 32 columns)
FRONT_SHAPES = [(1, 1), (1, 6), (9, 1), (5, 9), (20, 12), (12, 12), (80, 33), (70, 64), (100, 70), (40, 75)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", FRONT_SHAPES)
def test_front_kernel_matches_dense_qr(dtype, shape):
    """_qr factors an F-ordered front in place: its R has R* R = A* A, and
    the projected loads Q* l have the column norms that a dense QR gives,
    both to a backward error of C u max(m, n) times the size of the data."""
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    a, loads = _random(rng, shape, dtype), _random(rng, (shape[0], 3), dtype)
    front, proj_in = np.array(a, order="F"), np.array(loads, order="F")
    r, proj = _qr(front, proj_in, dtype)
    k = min(shape)
    assert r.shape == (k, shape[1]) and proj.shape == (k, 3)
    assert r.dtype == dtype and proj.dtype == dtype
    assert np.shares_memory(r, front)
    wide = np.complex128 if np.issubdtype(dtype, np.complexfloating) else np.float64
    a, loads, r = a.astype(wide), loads.astype(wide), np.triu(r).astype(wide)
    tol = 10.0 * eps(dtype) * max(shape)
    gram = a.conj().T @ a
    assert np.linalg.norm(r.conj().T @ r - gram) <= tol * np.linalg.norm(a) ** 2
    q = scipy.linalg.qr(a, mode="economic")[0]
    ref = np.linalg.norm(q.conj().T @ loads, axis=0)
    np.testing.assert_allclose(np.linalg.norm(proj.astype(wide), axis=0), ref, atol=tol * np.linalg.norm(loads))


@pytest.mark.parametrize("dtype", DTYPES)
@PROPERTY
@given(data=st.data())
def test_property_fronts_keep_no_factored_front_alive(dtype, data):
    """Every round of the tree keeps copies, never views: the R11/R12 and
    projected loads of each finished front and the panel each group passes
    up own their data, so a factored front is freed once its round is over."""
    parts, ncols, _ = data.draw(patch_problems(dtype))
    for signatures in TreePlan.build(parts, ncols).rounds:
        parts, fronts = _factor_round(parts, signatures, dtype, hermitian=False, upper=False)
        assert all(f.r11.base is None and f.r12.base is None and f.rhs.base is None for f in fronts)
        assert all(pt.panel.base is None for pt in parts)
    assert not parts


@pytest.mark.parametrize("seed", range(20))
def test_cell_groups_match_unique_rows(seed):
    """The integer key numbers the 2 x 2 groups as np.unique over the rows
    of cells // 2 does: lexicographic in (x, y), repeats and gaps included."""
    rng = np.random.default_rng(seed)
    n, hi = rng.integers(1, 300), rng.integers(1, 70, 2)
    cells = np.column_stack([rng.integers(0, hi[0], n), rng.integers(0, hi[1], n)])
    ref = np.unique(cells // 2, axis=0, return_inverse=True)[1].ravel()
    assert np.array_equal(cell_groups(cells), ref)
