"""Block solvers on one elimination tree: least squares and normal equations.

``solve_blocked_ls`` solves min ||B D u - l||_2 for a column scale D > 0
and B with its load l given as stacks of dense row panels
(:class:`RowStack`): the elements of a class share one panel over their
own columns, and every panel carries its rows' loads and a mesh cell.
``solve_blocked_ne`` solves A x = f for A the sum of Hermitian
positive-definite element blocks and f the sum of their loads
(:class:`BlockStack`), such as the element normal equations (A_K, f_K) of
B* B.  Both run one algorithm in two steps, each made of LAPACK calls on
small dense arrays, and differ only in the kernel that factors a front.

1. Tree fronts to the root.  The panels (blocks) are merged in rounds of
   2 x 2 groups of cells, the elimination tree of a multifrontal
   factorization (George, 1973; George & Heath, 1980; Liu, 1992; Davis,
   SuiteSparseQR, 2011), until one group holds all that is left.  A
   column that only the panels of one group touch is private to it.  The
   group's front holds its panels over its columns, private ones first,
   with their loads, and one kernel finishes the private columns:

   * a row front stacks the panels' rows and their loads; one ``?geqrt``
     factors it in place, in compact-WY form (Schreiber & Van Loan, 1989)
     with recursive level-3 panels (Elmroth & Gustavson, 2000), and
     ``?gemqrt`` projects the loads.  The triangle over the other columns
     goes on with its projected loads.  Since B D = Q (R D), the rows
     [R11 | R12] solve for z = D u.
   * a Hermitian front sums the blocks and their loads over their columns
     (the summed element contributions of a multifrontal Cholesky).
     ``?potrf`` factors A11 = R11* R11, one ``?trtrs`` gives
     R12 = R11^-* A12 and the projected loads R11^-* f1, and the Schur
     complement A22 - R12* R12 (``?syrk``/``?herk``) goes on with the
     loads f2 - R12* R11^-* f1 (``?gemm``).  The rows [R11 | R12] solve
     for x.

   At the root every column left is private.  Groups whose panels are the
   same arrays (never those of a per-element stack) at the same relative
   column layout share a front, factored once per signature (once per
   element class in round 1); their loads are projected in the same calls.
   Signatures come from the data (panel identities, column incidence),
   never from the cells: a poor grouping costs speed, not accuracy.
2. Back-substitution.  One triangular solve per front, last front first,
   for all its groups; in least squares u = z / D.

The work stays proportional to (front rows) x (front width)^2 summed over
the fronts instead of rows x columns^2, and no global matrix or band is
formed.  Every LAPACK/BLAS call of a front goes through scipy's wrappers
in the dtype of the panels (single/double, real or complex), so
single-precision systems are factored in single precision.  None goes
through numpy's ``@``: numpy and scipy bundle separate OpenBLAS libraries
with separate thread pools, and alternating between them in the front loop
made the NE tree at ne-p1 n = 96 about twice as slow at 2 threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import NotPositiveDefinite, RankDeficient, eps


@dataclass(frozen=True, eq=False)
class BlockStack:
    """E panels with their loads: panel i is ``panel`` (m, k) (shared) or
    ``panel[i]`` of an (E, m, k) stack, over the columns cols[i]; cells[i]
    is its mesh cell, which places it in the tree.  As the blocks of a sum
    A (m = k, Hermitian), loads[i] (k,) is the block's load per column; as
    row panels (:class:`RowStack`), loads[i] (m,) is the load of each row.
    A round of the tree passes its unfinished parts up as such stacks."""

    panel: np.ndarray
    cols: np.ndarray           # (E, k)
    loads: np.ndarray          # (E, m)
    cells: np.ndarray          # (E, 2) integer


@dataclass(frozen=True, eq=False)
class RowStack(BlockStack):
    """E row panels of B with their loads, panel i on the rows
    offsets[i]..offsets[i]+m-1."""

    offsets: np.ndarray        # (E,)

    @property
    def rows(self) -> np.ndarray:
        """(E, m) global row ids."""
        return self.offsets[:, None] + np.arange(self.panel.shape[-2])


@dataclass(frozen=True, eq=False)
class _Front:
    """Final unscaled rows [R11 | R12 | rhs] of the columns ``cols`` of the
    G groups that share one front."""

    r11: np.ndarray            # (p, p)
    r12: np.ndarray            # (p, b)
    cols: np.ndarray           # (G, p) the columns it finishes
    rest: np.ndarray           # (G, b) the front's other columns
    rhs: np.ndarray            # (G, p)


def _qr(a, loads, dtype):
    """?geqrt of an F-ordered a (m, n) in place, and Q* loads: the first min(m, n) rows of each."""
    geqrt, gemqrt = scipy.linalg.get_lapack_funcs(("geqrt", "gemqrt"), dtype=dtype)
    trans = "C" if np.issubdtype(dtype, np.complexfloating) else "T"
    r = min(a.shape)
    # not np.linalg.qr, which factors float32/complex64 in double
    a, t = geqrt(min(32, r), a, overwrite_a=1)[:2]
    # a wide front (m < n) has m reflectors only: hand ?gemqrt those columns
    return a[:r], gemqrt(a[:, :r], t, loads, "L", trans, overwrite_c=1)[0][:r]


def _qr_front(a, loads, p, dtype):
    """Row front a (m, u), first p columns private: (R11, R12, rhs (G, p),
    the triangle over the other columns and its loads (G, .), passed up)."""
    r, proj = _qr(a, loads, dtype)
    # copies: no view keeps a factored front alive
    return np.triu(r[:p, :p]), r[:p, p:].copy(), proj[:p].T.copy(), np.triu(r[p:, p:]), proj[p:].T


def _cholesky_front(a, loads, p, dtype):
    """Hermitian front a (u, u), first p columns private: (R11, R12, rhs
    (G, p), the Schur complement A22 - R12* R12 and its loads (G, .),
    passed up).  Raises NotPositiveDefinite at a nonpositive pivot."""
    if not p:
        return a[:0, :0], a[:0], loads[:0].T, a.copy(), loads.T.copy()
    b = a.shape[0] - p
    potrf, trtrs = scipy.linalg.get_lapack_funcs(("potrf", "trtrs"), dtype=dtype)
    r11, info = potrf(a[:p, :p], clean=1)
    if info:
        raise NotPositiveDefinite(f"pivot {info} of a front with {p} private columns is not positive")
    # one solve R11* [R12 | rhs] = [A12 | f1]
    x = trtrs(r11, np.concatenate([a[:p, p:], loads[:p]], axis=1), trans=2)[0]
    r12, schur, proj = x[:, :b], a[p:, p:], loads[p:]
    if b:
        rk = "herk" if np.issubdtype(dtype, np.complexfloating) else "syrk"
        syrk, gemm = scipy.linalg.get_blas_funcs((rk, "gemm"), dtype=dtype)
        # ?syrk/?herk updates the upper triangle only; the next round places
        # the block in another column order, so it goes on whole
        schur = np.triu(syrk(-1.0, r12, beta=1.0, c=schur, trans=2))
        schur += np.triu(schur, 1).conj().T
        proj = gemm(-1.0, r12, x[:, b:], beta=1.0, c=proj, trans_a=2)
    # copies: no view keeps a front alive
    return r11, r12.copy(), x[:, b:].T.copy(), schur, proj.T


def _cell_groups(cells):
    """The 2 x 2 group of every nonnegative cell (x, y), numbered in
    lexicographic order of (x // 2, y // 2).  The groups are found by one
    integer key: np.unique(..., axis=0) compares rows field by field, about
    20x slower."""
    gx, gy = (cells // 2).T
    return np.unique(gx * (gy.max() + 1) + gy, return_inverse=True)[1].ravel()


def _group_round(parts, n_cols, dtype, hermitian=False):
    """One round of the tree: the parts' panels in 2 x 2 groups of cells,
    row fronts (``_qr_front``), or Hermitian ones (``_cholesky_front``).
    Returns (parts that go on, fronts)."""
    sizes = [len(pt.cols) for pt in parts]
    src = np.repeat(np.arange(len(parts)), sizes)
    idx = np.concatenate([np.arange(e) for e in sizes])
    cells = np.concatenate([pt.cells for pt in parts])
    cells = cells - cells.min(0)    # from 0, so that halving reaches one group
    cols = np.full((src.size, max(pt.cols.shape[1] for pt in parts)), -1)
    for pt, start in zip(parts, np.cumsum(sizes) - sizes):
        cols[start : start + len(pt.cols), : pt.cols.shape[1]] = pt.cols
    group = _cell_groups(cells)
    # the panels in canonical order: by group, cell within the group, part, index
    order = np.lexsort((idx, src, (cells % 2) @ [1, 2], group))
    src, idx, cells, cols, group = src[order], idx[order], cells[order], cols[order], group[order]
    n_groups = int(group[-1]) + 1
    first_panel = np.searchsorted(group, np.arange(n_groups))
    n_panels = np.diff(np.append(first_panel, group.size))

    # every panel column of every group, then one entry per (group, column):
    # a column is private to a group when no panel of another group touches it
    touched = cols >= 0
    occ_group = np.broadcast_to(group[:, None], cols.shape)[touched]
    pairs, first, inv = np.unique(occ_group * n_cols + cols[touched], return_index=True, return_inverse=True)
    pair_group, pair_col = np.divmod(pairs, n_cols)
    private = np.bincount(pair_col, minlength=n_cols)[pair_col] == 1
    n_private = np.bincount(pair_group, weights=private, minlength=n_groups).astype(np.int64)
    # local column ids in a group: private ones first, each in order of first appearance
    rank = np.lexsort((first, ~private, pair_group))
    local = np.empty(pairs.size, dtype=np.int64)
    local[rank] = np.arange(pairs.size) - np.searchsorted(pair_group, pair_group[rank])
    first_occ = np.searchsorted(occ_group, np.arange(n_groups))
    layout = np.full((n_groups, int(np.diff(np.append(first_occ, occ_group.size)).max())), -1)
    layout[occ_group, np.arange(occ_group.size) - first_occ[occ_group]] = local[inv.ravel()]

    # the signature of a group: its panels, its count of private columns and
    # the local ids of its panels' columns.  The groups of one signature are
    # filled together; they share one front unless a panel is per-element.
    who = np.full((n_groups, int(n_panels.max())), -1)
    who[group, np.arange(group.size) - first_panel[group]] = src
    sig = np.ascontiguousarray(np.column_stack([n_private, who, layout]))
    sig_id = np.unique(sig.view(f"V{sig.shape[1] * sig.itemsize}").ravel(), return_inverse=True)[1].ravel()

    factor = _cholesky_front if hermitian else _qr_front
    out, fronts = [], []
    for groups in np.split(np.argsort(sig_id, kind="stable"), np.cumsum(np.bincount(sig_id))[:-1]):
        g, p = groups[0], int(n_private[groups[0]])
        members = first_panel[groups][:, None] + np.arange(n_panels[g])   # (G, t)
        at = layout[g][layout[g] >= 0]
        u = int(at.max()) + 1
        panels = [parts[s] for s in src[members[0]]]
        # a row front stacks its panels' rows, a Hermitian one sums its blocks
        n_rows = u if hermitian else max(sum(pt.panel.shape[-2] for pt in panels), p)
        own = any(pt.panel.ndim == 3 for pt in panels)
        front = np.zeros((groups.size if own else 1, u, n_rows), dtype=dtype).transpose(0, 2, 1)  # F-ordered
        loads = np.zeros((n_rows, groups.size), dtype=dtype, order="F")
        ucols = np.empty((groups.size, u), dtype=np.int64)
        row = col = 0
        for pt, inst in zip(panels, idx[members].T):
            m, k = pt.panel.shape[-2:]
            c = at[col : col + k]
            panel = pt.panel if pt.panel.ndim == 2 else pt.panel[inst]
            if hermitian:
                front[:, c[:, None], c] += panel
                loads[c] += pt.loads[inst].T
            else:
                front[:, row : row + m, c] = panel
                loads[row : row + m] = pt.loads[inst].T
            ucols[:, c] = pt.cols[inst]
            row, col = row + m, col + k
        for i, a in enumerate(front):
            of = slice(i, i + 1) if own else slice(None)     # the groups of this front
            r11, r12, rhs, up, up_loads = factor(a, loads[:, of], p, dtype)
            if p:
                fronts.append(_Front(r11, r12, ucols[of, :p], ucols[of, p:], rhs))
            if up.shape[0]:
                out.append(BlockStack(up, ucols[of, p:], up_loads, cells[members[of, 0]] // 2))
    return out, fronts


def _tree(parts, n_cols, dtype, hermitian):
    """The fronts of every round to the root, and the magnitudes of their
    R diagonal on the n_cols columns (0 where no front finishes one)."""
    fronts = []
    while parts:
        parts, done = _group_round(parts, n_cols, dtype, hermitian)
        fronts += done
    r_diag = np.zeros(n_cols)
    for f in fronts:
        r_diag[f.cols] = np.abs(np.diagonal(f.r11))
    return fronts, r_diag


def _back_substitute(fronts, n_cols, dtype):
    """z from R z = rhs, one triangular solve per front, last first."""
    z = np.zeros(n_cols, dtype=dtype)
    for f in reversed(fronts):
        z[f.cols] = scipy.linalg.solve_triangular(f.r11, (f.rhs - z[f.rest] @ f.r12.T).T, check_finite=False).T
    return z


def solve_blocked_ls(stacks, n_cols, scale=None):
    """Minimize ||B D u - l||_2 for B and its load l given as a list of
    :class:`RowStack`.

    ``scale`` is the positive column scale D (the identity when omitted).
    Returns (u, r_diag): the solution and the magnitudes of the R diagonal
    of B D (rank diagnostics), both of length n_cols.
    """
    if n_cols == 0:
        return np.zeros(0), np.zeros(0)
    dtype = stacks[0].panel.dtype if stacks else np.float64
    scale = np.ones(n_cols, dtype=dtype) if scale is None else np.asarray(scale, dtype=dtype)
    fronts, r_diag = _tree([st for st in stacks if st.panel.size], n_cols, dtype, hermitian=False)
    r_diag *= np.abs(scale)
    # structural rank guard: legitimate ill-conditioning may push diagonal
    # entries to eps-level of the scale, but a lost column falls far below
    floor = 100.0 * eps(dtype) * r_diag.max()
    low = np.flatnonzero((r_diag < floor) | (r_diag == 0.0))
    if low.size:
        raise RankDeficient(f"{low.size} R diagonal entries below {floor:g} (first: column {low[0]})")
    return _back_substitute(fronts, n_cols, dtype) / scale, r_diag


def solve_blocked_ne(stacks, n_cols):
    """Solve A x = f for A and f the sums of the Hermitian blocks of a list
    of :class:`BlockStack` and of their loads, by Cholesky on the
    elimination tree.

    Returns (x, r_diag): the solution and the magnitudes of the diagonal of
    the Cholesky factor R of A, both of length n_cols.  Raises
    NotPositiveDefinite at a nonpositive pivot, or when no block holds a
    column.
    """
    if n_cols == 0:
        return np.zeros(0), np.zeros(0)
    dtype = stacks[0].panel.dtype if stacks else np.float64
    fronts, r_diag = _tree([st for st in stacks if st.panel.size], n_cols, dtype, hermitian=True)
    missing = np.flatnonzero(r_diag == 0.0)
    if missing.size:
        raise NotPositiveDefinite(f"{missing.size} columns in no block (first: column {missing[0]})")
    return _back_substitute(fronts, n_cols, dtype), r_diag
