"""Least-squares solver for row-blocked rectangular systems.

Solves min ||B D u - l||_2 for a column scale D > 0 and B given as stacks
of dense row panels (:class:`RowStack`): the elements of a class share one
panel over their own columns, and every panel carries a mesh cell.  The
algorithm is a sequential Householder QR of the unscaled B, in two steps,
each made of LAPACK calls on small dense arrays.  As B D = Q (R D), it
finds z = D u from R z = Q* l.

1. Tree fronts to the root.  The panels are merged in rounds of 2 x 2
   groups of cells, the elimination tree of a multifrontal QR (George &
   Heath, 1980; Davis, SuiteSparseQR, 2011), until one group holds all
   that is left.  A column that only the panels of one group touch is
   private to it.  One ``?geqrt`` factors the group's stacked rows (its
   front, private columns first) in place, in compact-WY form (Schreiber &
   Van Loan, 1989) with recursive level-3 panels (Elmroth & Gustavson,
   2000).  Copies of its private rows [R11 | R12] are final (the round-1
   front is also each element's own QR); a copy of the triangle over the
   other columns goes on, as one panel of the next round; at the root
   every column left is private.  Groups whose panels are the same arrays
   (never those of a per-element stack) at the same relative column
   layout share a front, factored once per signature (once per element
   class in round 1); their loads are projected in one ``?gemqrt`` call.
   Signatures come from the data (panel identities, column incidence),
   never from the cells: a poor grouping costs speed, not accuracy.
2. Back-substitution.  One triangular solve per front, last front first,
   for all its groups, in z = D u; then u = z / D.

The work stays proportional to rows x (front width)^2 instead of
rows x columns^2.  Every LAPACK call runs in the dtype of the panels
(single/double, real or complex), so single-precision systems are factored
in single precision; no normal equations are formed anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import RankDeficient, eps


@dataclass(frozen=True, eq=False)
class RowStack:
    """E row panels: panel i is ``panel`` (m, k) (shared) or ``panel[i]`` of
    an (E, m, k) stack, on the rows offsets[i]..offsets[i]+m-1 and columns
    cols[i]; cells[i] is its mesh cell, which places it in the tree."""

    panel: np.ndarray
    cols: np.ndarray           # (E, k)
    offsets: np.ndarray        # (E,)
    cells: np.ndarray          # (E, 2) integer

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
    cells: np.ndarray          # (E, 2) cell of each panel in this round


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


def _group_round(parts, n_cols, dtype):
    """One round of the tree: the parts' panels in 2 x 2 groups of cells.
    Returns (parts that go on, fronts)."""
    sizes = [len(pt.cols) for pt in parts]
    src = np.repeat(np.arange(len(parts)), sizes)
    idx = np.concatenate([np.arange(e) for e in sizes])
    cells = np.concatenate([pt.cells for pt in parts])
    cells = cells - cells.min(0)    # from 0, so that halving reaches one group
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

    # the signature of a group: its panels, its count of private columns and
    # the local ids of its panels' columns.  The groups of one signature are
    # filled together; they share one front unless a panel is per-element.
    who = np.full((n_groups, int(n_panels.max())), -1)
    who[group, np.arange(group.size) - first_panel[group]] = src
    sig = np.ascontiguousarray(np.column_stack([n_private, who, layout]))
    sig_id = np.unique(sig.view(f"V{sig.shape[1] * sig.itemsize}").ravel(), return_inverse=True)[1].ravel()

    out, fronts = [], []
    for groups in np.split(np.argsort(sig_id, kind="stable"), np.cumsum(np.bincount(sig_id))[:-1]):
        g, p = groups[0], int(n_private[groups[0]])
        members = first_panel[groups][:, None] + np.arange(n_panels[g])   # (G, t)
        at = layout[g][layout[g] >= 0]
        u = int(at.max()) + 1
        panels = [parts[s] for s in src[members[0]]]
        n_rows = max(sum(pt.panel.shape[-2] for pt in panels), p)
        own = any(pt.panel.ndim == 3 for pt in panels)
        front = np.zeros((groups.size if own else 1, u, n_rows), dtype=dtype).transpose(0, 2, 1)  # F-ordered
        loads = np.zeros((n_rows, groups.size), dtype=dtype, order="F")
        ucols = np.empty((groups.size, u), dtype=np.int64)
        row = col = 0
        for pt, inst in zip(panels, idx[members].T):
            m, k = pt.panel.shape[-2:]
            front[:, row : row + m, at[col : col + k]] = pt.panel if pt.panel.ndim == 2 else pt.panel[inst]
            loads[row : row + m] = pt.loads[inst].T
            ucols[:, at[col : col + k]] = pt.cols[inst]
            row, col = row + m, col + k
        for i, a in enumerate(front):
            of = slice(i, i + 1) if own else slice(None)     # the groups of this front
            r, proj = _qr(a, loads[:, of], dtype)  # copies below: no view keeps a front alive
            if p:
                r11, r12, rhs = np.triu(r[:p, :p]), r[:p, p:].copy(), proj[:p].T.copy()
                fronts.append(_Front(r11, r12, ucols[of, :p], ucols[of, p:], rhs))
            if r.shape[0] > p:
                out.append(_Part(np.triu(r[p:, p:]), ucols[of, p:], proj[p:].T, cells[members[of, 0]] // 2))
    return out, fronts


def solve_blocked_ls(stacks, rhs, n_cols, scale=None):
    """Minimize ||B D u - l||_2 for B given as a list of :class:`RowStack`.

    ``rhs`` is the load l over the rows of B and ``scale`` the positive
    column scale D (the identity when omitted).  Returns (x, r_diag): the
    solution and the magnitudes of the R diagonal of B D (rank
    diagnostics), both of length n_cols.
    """
    if n_cols == 0:
        return np.zeros(0), np.zeros(0)
    dtype = stacks[0].panel.dtype if stacks else np.float64
    scale = np.ones(n_cols, dtype=dtype) if scale is None else np.asarray(scale, dtype=dtype)
    parts = [_Part(st.panel, st.cols, rhs[st.rows], st.cells) for st in stacks if st.panel.size]
    fronts = []
    while parts:
        parts, done = _group_round(parts, n_cols, dtype)
        fronts += done

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
