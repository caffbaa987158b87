"""Least-squares solver for row-blocked rectangular systems.

Solves min ||B D u - l||_2 for a column scale D > 0 and B given as stacks
of dense row panels (:class:`RowStack`): the elements of a class share one
panel over their own columns.  The algorithm is a sequential Householder
QR of the unscaled B, in three steps, each made of LAPACK calls on small
dense arrays.  As B D = Q (R D), it finds z = D u from R z = Q* l.

1. Patch fronts.  Panels that carry the mesh cell of their element are
   merged in rounds of 2 x 2 groups of cells into PATCH x PATCH patches,
   the first levels of a multifrontal QR (George & Heath, 1980; Davis,
   SuiteSparseQR, 2011).  A column that only the panels of one group touch
   is private to it.  One ``?geqrf`` of the group's stacked rows (its
   front, private columns first) gives the final R rows of the private
   columns, and the round-1 front is also each element's own QR; only the
   rows over the group's other columns go on, to the next round and then
   to the window.  Groups whose panels are the same arrays at the same
   relative column layout have the same front, so each front is factored
   once per signature (once per element class in round 1) and the loads
   of all its groups are projected in one ``?ormqr``/``?unmqr`` call.  The
   signature is taken from the data (panel identities and column
   incidence), never from the cells: a poor grouping costs speed, not
   accuracy.  Panels of a per-element stack are never shared.
2. Triangular window.  The remaining rows (all of them when no cells are
   given), in the order of the first column of their panel under a
   geometric (left-to-right) column order, are merged batch by batch into
   an upper-triangular active window R over a contiguous range of the
   columns that are private to no group.  LAPACK ``?tpqrt``
   (triangular-pentagonal QR with l = 0, so the new rows may come in any
   column order and number) folds the new rows into the carried triangle
   without factoring it again.  Before each batch, the window rows of the
   columns that no later panel touches are final: they leave the window
   as one more front.
3. Back-substitution.  One triangular solve per front, last front first,
   for all its groups, in z = D u; then u = z / D.

The work stays proportional to rows x (front or window width)^2 instead of
rows x columns^2.  Every LAPACK call runs in the dtype of the panels
(single/double, real or complex), so single-precision systems are factored
in single precision; no normal equations are formed anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import RankDeficient, eps

# ?tpqrt panel width: of 8-128, 32 was fastest on windows of 250-1800
# columns (OpenBLAS, 2 cores)
TPQRT_BLOCK = 32

# patch width in mesh cells, reached by rounds of 2 x 2 groups: of 1-16, 4
# was fastest on the ultraweak p=2 solve at n=32 (0.051 s; 0.092 s at 2,
# 0.057 s at 8; OpenBLAS, 2 cores); at n=64, 8 is faster (0.28 s vs 0.43 s)
PATCH = 4


@dataclass(frozen=True, eq=False)
class RowStack:
    """E row panels: panel i is ``panel`` (m, k) (shared) or ``panel[i]`` of
    an (E, m, k) stack, on the rows offsets[i]..offsets[i]+m-1 and columns cols[i]."""

    panel: np.ndarray
    cols: np.ndarray           # (E, k)
    offsets: np.ndarray        # (E,)

    @property
    def rows(self) -> np.ndarray:
        """(E, m) global row ids."""
        return self.offsets[:, None] + np.arange(self.panel.shape[-2])


@dataclass(frozen=True, eq=False)
class _Part:
    """E unscaled panels with their loads: ``panel`` is (m, k) (shared) or
    (E, m, k)."""

    panel: np.ndarray
    cols: np.ndarray           # (E, k)
    loads: np.ndarray          # (E, m)
    cells: np.ndarray | None   # (E, 2) cell of each panel in this round


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
    """R (min(m, n) rows) of one ?geqrf of a (m, n), and Q* loads for loads (m, I)."""
    geqrf, ormqr = scipy.linalg.get_lapack_funcs(("geqrf", "ormqr"), dtype=dtype)
    trans = "C" if np.issubdtype(dtype, np.complexfloating) else "T"
    # not np.linalg.qr, which factors float32/complex64 in double
    qr, tau = geqrf(a)[:2]
    r = min(a.shape)
    # a wide front (m < n) has m reflectors only: hand ?ormqr those columns
    lwork = int(ormqr("L", trans, qr[:, :r], tau, loads, -1)[1][0].real)
    return np.triu(qr[:r]), ormqr("L", trans, qr[:, :r], tau, loads, lwork)[0][:r]


def _group_round(parts, n_cols, dtype):
    """One round of the patch step: the parts' panels in 2 x 2 groups of
    cells.  Returns (parts that go on, fronts)."""
    sizes = [len(pt.cols) for pt in parts]
    src = np.repeat(np.arange(len(parts)), sizes)
    idx = np.concatenate([np.arange(e) for e in sizes])
    cells = np.concatenate([pt.cells for pt in parts])
    cols = np.full((src.size, max(pt.cols.shape[1] for pt in parts)), -1)
    for pt, start in zip(parts, np.cumsum(sizes) - sizes):
        cols[start : start + len(pt.cols), : pt.cols.shape[1]] = pt.cols
    group = np.unique(cells // 2, axis=0, return_inverse=True)[1].ravel()
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

    # the signature of a group: its panels (a per-element panel by its index
    # too), its count of private columns and the local ids of its panels' columns
    stacked = np.array([pt.panel.ndim == 3 for pt in parts])
    who = np.full((n_groups, int(n_panels.max()), 2), -1)
    who[group, np.arange(group.size) - first_panel[group]] = np.column_stack([src, np.where(stacked[src], idx, -1)])
    sig = np.ascontiguousarray(np.column_stack([n_private, who.reshape(n_groups, -1), layout]))
    sig_id = np.unique(sig.view(f"V{sig.shape[1] * sig.itemsize}").ravel(), return_inverse=True)[1].ravel()

    out, fronts = [], []
    for groups in np.split(np.argsort(sig_id, kind="stable"), np.cumsum(np.bincount(sig_id))[:-1]):
        g, p = groups[0], int(n_private[groups[0]])
        members = first_panel[groups][:, None] + np.arange(n_panels[g])   # (G, t)
        at = layout[g][layout[g] >= 0]
        u = int(at.max()) + 1
        panels = [parts[s] for s in src[members[0]]]
        n_rows = max(sum(pt.panel.shape[-2] for pt in panels), p)
        front = np.zeros((n_rows, u), dtype=dtype)
        loads = np.zeros((n_rows, groups.size), dtype=dtype, order="F")
        ucols = np.empty((groups.size, u), dtype=np.int64)
        row = col = 0
        for pt, inst in zip(panels, idx[members].T):
            m, k = pt.panel.shape[-2:]
            front[row : row + m, at[col : col + k]] = pt.panel if pt.panel.ndim == 2 else pt.panel[inst[0]]
            loads[row : row + m] = pt.loads[inst].T
            ucols[:, at[col : col + k]] = pt.cols[inst]
            row, col = row + m, col + k
        r, proj = _qr(front, loads, dtype)
        if p:
            fronts.append(_Front(r[:p, :p], r[:p, p:], ucols[:, :p], ucols[:, p:], proj[:p].T))
        if r.shape[0] > p:
            out.append(_Part(r[p:, p:], ucols[:, p:], proj[p:].T, cells[members[:, 0]] // 2))
    return out, fronts


def _gather(batch, lo, width, dtype):
    """The rows [panel | load] of the batch's (part, index, window columns)
    panels over the window columns lo..lo+width-1, load last."""
    new = np.zeros((sum(pt.panel.shape[-2] for pt, _, _ in batch), width + 1), dtype=dtype, order="F")
    pos = 0
    for pt, i, wcols in batch:
        m = pt.panel.shape[-2]
        new[pos : pos + m, wcols - lo] = pt.panel if pt.panel.ndim == 2 else pt.panel[i]
        new[pos : pos + m, width] = pt.loads[i]
        pos += m
    return new


def _merge(tri, new):
    """R of [tri; new], the window triangle tri widened to the columns of new."""
    width = new.shape[1] - 1
    old = tri.shape[0] - 1
    win = np.zeros((width + 1, width + 1), dtype=new.dtype, order="F")
    win[:old, :old] = tri[:old, :old]
    win[:old, width] = tri[:old, old]
    tpqrt = scipy.linalg.get_lapack_funcs("tpqrt", dtype=new.dtype)
    return tpqrt(0, min(TPQRT_BLOCK, width + 1), win, new, overwrite_a=1, overwrite_b=1)[0]


def _window(parts, order, dtype, row_cap):
    """Step 2: the fronts of the window over the columns ``order``, in the
    order they are finished."""
    rank_of = np.full(order.max(initial=-1) + 1, -1, dtype=np.int64)
    rank_of[order] = np.arange(order.size)
    wcols = [rank_of[pt.cols] for pt in parts]
    # (first column, last column, part, position) of every panel, by first column
    table = np.concatenate([np.zeros((0, 4), dtype=np.int64)] + [
        np.column_stack([wc.min(1), wc.max(1), np.full(len(wc), s), np.arange(len(wc))])
        for s, wc in enumerate(wcols)
    ])
    first_col, last_col, which, pos = table[np.argsort(table[:, 0], kind="stable")].T.tolist()
    part_rows = [pt.panel.shape[-2] for pt in parts]
    fronts = []
    tri = np.zeros((1, 1), dtype=dtype)  # window R; the last column is the rhs
    lo = 0                               # window column id of tri[:, 0]

    def freeze_below(new_lo):
        """Cut the rows of the window columns below new_lo off the window."""
        nonlocal tri, lo
        w = tri.shape[0] - 1
        f = min(new_lo - lo, w)
        if f:
            # a partial freeze copies, so that the old window can be released
            rows = tri[:f] if f == w else tri[:f].copy()
            fronts.append(_Front(
                rows[:, :f], rows[:, f:w], order[None, lo : lo + f], order[None, lo + f : lo + w], rows[None, :, w]
            ))
        tri = tri[f:, f:]
        lo = new_lo

    idx = 0
    while idx < len(first_col):
        freeze_below(first_col[idx])
        hi = max(lo + tri.shape[0] - 1, last_col[idx] + 1)
        # growing the window is what costs; adding rows at fixed width is cheap
        width_cap = max(256, int(1.25 * (hi - lo)) + 64)
        # always consume at least one panel so the loop advances
        stop, nrows = idx + 1, part_rows[which[idx]]
        while stop < len(first_col) and nrows < row_cap:
            new_hi = max(hi, last_col[stop] + 1)
            if new_hi - lo > width_cap:
                break
            hi = new_hi
            nrows += part_rows[which[stop]]
            stop += 1
        batch = [(parts[s], i, wcols[s][i]) for s, i in zip(which[idx:stop], pos[idx:stop])]
        tri = _merge(tri, _gather(batch, lo, hi - lo, dtype))
        idx = stop
    freeze_below(order.size)
    return fronts


def solve_blocked_ls(stacks, rhs, n_cols, scale=None, sort_keys=None, row_cap=256, cells=None):
    """Minimize ||B D u - l||_2 for B given as a list of :class:`RowStack`.

    ``rhs`` is the load l over the rows of B and ``scale`` the positive
    column scale D (the identity when omitted).  ``sort_keys`` (n_cols, k)
    are lexicographic keys (primary first) that order the columns;
    geometric keys keep the active window small (identity order when
    omitted).  ``cells`` holds, for each stack, the (E, 2) integer mesh
    cells of its panels' elements, by which panels are grouped into
    patches (no patches when omitted).
    At most ``row_cap`` incoming rows are merged in one window update.
    Returns (x, r_diag): the solution and the magnitudes of the R diagonal
    of B D (rank diagnostics), both of length n_cols.
    """
    if n_cols == 0:
        return np.zeros(0), np.zeros(0)
    dtype = stacks[0].panel.dtype if stacks else np.float64
    scale = np.ones(n_cols, dtype=dtype) if scale is None else np.asarray(scale, dtype=dtype)
    if sort_keys is None:
        order = np.arange(n_cols)
    else:
        keys = np.asarray(sort_keys)
        order = np.lexsort(tuple(keys[:, k] for k in range(keys.shape[1] - 1, -1, -1)))

    parts = [
        _Part(st.panel, st.cols, rhs[st.rows], None if cells is None else cells[s])
        for s, st in enumerate(stacks)
        if st.panel.size
    ]
    fronts, width = [], 1
    while cells is not None and parts and width < PATCH:
        parts, done = _group_round(parts, n_cols, dtype)
        fronts += done
        width *= 2
    private = np.zeros(n_cols, dtype=bool)
    for f in fronts:
        private[f.cols] = True
    fronts += _window(parts, order[~private[order]], dtype, row_cap)

    r_diag = np.zeros(n_cols)
    for f in fronts:
        r_diag[f.cols] = np.abs(np.diagonal(f.r11)) * np.abs(scale[f.cols])
    # structural rank guard: legitimate ill-conditioning may push diagonal
    # entries to eps-level of the scale, but a lost column falls far below
    floor = 100.0 * eps(dtype) * r_diag.max()
    low = np.flatnonzero((r_diag < floor) | (r_diag == 0.0))
    if low.size:
        raise RankDeficient(f"{low.size} R diagonal entries below {floor:g} (first: column {low[0]})")

    z = np.zeros(n_cols, dtype=dtype)
    for f in reversed(fronts):
        z[f.cols] = scipy.linalg.solve_triangular(f.r11, (f.rhs - z[f.rest] @ f.r12.T).T, check_finite=False).T
    return z / scale, r_diag
