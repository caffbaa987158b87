"""The elimination tree as it was analysed and filled round by round.

``reference_round`` is the per-round symbolic analysis that
``dlsfem.blockqr.TreePlan`` replaced: on every round it groups the parts'
panels in 2 x 2 groups of cells, finds each group's private columns, its
local column layout and its signature, from the parts passed up by the
round before.  ``reference_group_round`` is the whole round as it ran
then, that analysis followed by the fill by 2-D fancy indexing and the
Hermitian kernel that symmetrized every Schur complement it passed up;
``reference_tree`` runs it to the root.  They are kept as the oracle of
the plan and of the fill of the upper triangle
(``tests/test_tree_plan.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from dlsfem.blockqr import BlockStack, _Front, _qr_front
from dlsfem.linalg import NotPositiveDefinite


def cell_groups(cells):
    """The 2 x 2 group of every nonnegative cell (x, y), numbered in
    lexicographic order of (x // 2, y // 2).  The groups are found by one
    integer key: np.unique(..., axis=0) compares rows field by field, about
    20x slower."""
    gx, gy = (cells // 2).T
    return np.unique(gx * (gy.max() + 1) + gy, return_inverse=True)[1].ravel()


def reference_round(parts, n_cols):
    """The symbolic analysis of one round of the parts (``BlockStack`` s):
    a dict of the panels in canonical order (``src`` part, ``idx``
    instance, shifted ``cells``, ``group``), the groups' ``first_panel``,
    ``n_panels``, ``n_private`` and ``layout`` (the local ids of their
    panels' columns, -1 padded), and ``sig_id``, the signature of each
    group."""
    sizes = [len(pt.cols) for pt in parts]
    src = np.repeat(np.arange(len(parts)), sizes)
    idx = np.concatenate([np.arange(e) for e in sizes])
    cells = np.concatenate([pt.cells for pt in parts])
    cells = cells - cells.min(0)    # from 0, so that halving reaches one group
    cols = np.full((src.size, max(pt.cols.shape[1] for pt in parts)), -1)
    for pt, start in zip(parts, np.cumsum(sizes) - sizes):
        cols[start : start + len(pt.cols), : pt.cols.shape[1]] = pt.cols
    group = cell_groups(cells)
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
    return dict(src=src, idx=idx, cells=cells, group=group, first_panel=first_panel, n_panels=n_panels,
                n_private=n_private, layout=layout, sig_id=sig_id)


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


def reference_group_round(parts, n_cols, dtype, hermitian=False):
    """One round of the tree: the parts' panels in 2 x 2 groups of cells,
    row fronts (``_qr_front``), or Hermitian ones (``_cholesky_front``).
    Returns (parts that go on, fronts)."""
    ref = reference_round(parts, n_cols)
    src, idx, cells, layout = ref["src"], ref["idx"], ref["cells"], ref["layout"]
    first_panel, n_panels, n_private, sig_id = ref["first_panel"], ref["n_panels"], ref["n_private"], ref["sig_id"]
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


def reference_tree(parts, n_cols, dtype, hermitian):
    """The fronts of every round to the root."""
    fronts = []
    while parts:
        parts, done = reference_group_round(parts, n_cols, dtype, hermitian)
        fronts += done
    return fronts
