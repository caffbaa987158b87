"""Least-squares solver for row-blocked rectangular systems.

Solves min ||B D u - l||_2 for a column scale D > 0 and B given as stacks
of dense row panels (:class:`RowStack`): the elements of a class share one
panel over their own columns.  The algorithm is a sequential Householder
QR in three steps, each made of LAPACK calls on small dense arrays:

1. Compression.  Columns are permuted into a geometric (left-to-right)
   order.  Panels with more rows than their k + 1 columns are replaced by
   the k rows [R D_e | (Q* l_e)_k] of their local QR B_K = Q R: as
   B_K D_e = Q (R D_e), one LAPACK ``?geqrf`` per distinct unscaled panel
   (once per class for a shared one) and one ``?ormqr``/``?unmqr`` for all
   its loads suffice, in the panels' own dtype.  The dropped rows only
   carry the local residual, so the minimizer is unchanged and the step
   is backward stable.
2. Triangular window update.  The compressed panels, in the order of their
   first column, are merged batch by batch into an upper-triangular active
   window R over a contiguous column range.  LAPACK ``?tpqrt``
   (triangular-pentagonal QR with l = 0, so the new rows may come in any
   column order) folds the new rows into the carried triangle without
   factoring it again; a window that carries nothing yet is an all-zero
   triangle.
3. Freezing and back-substitution.  Before each batch, the window rows of
   the columns that no later panel touches are final.  They leave the
   window as one block of R rows, and the solution is recovered by one
   triangular solve per frozen block, last block first.

The work stays proportional to (compressed rows) x (window width)^2 instead
of rows x columns^2.  Every LAPACK call runs in the dtype of the panels
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


def _compress(stacks, rhs, scale, rank_of, dtype):
    """Augmented stacks (pcols (E, k), rows (E, r, k + 1)) of the nonempty stacks.

    ``pcols`` are the permuted column ids of the panels and ``rows`` their
    rows [B_e D_e | l_e], compressed to r = k rows when m > k + 1.
    """
    geqrf, ormqr = scipy.linalg.get_lapack_funcs(("geqrf", "ormqr"), dtype=dtype)
    trans = "C" if np.issubdtype(dtype, np.complexfloating) else "T"
    out = []
    for st in stacks:
        (e, k), m = st.cols.shape, st.panel.shape[-2]
        if not st.panel.size:
            continue
        col_scale, loads = scale[st.cols][:, None, :], rhs[st.rows]
        if m <= k + 1:
            rows = np.concatenate([st.panel * col_scale, loads[:, :, None]], axis=2)
        else:
            # one factorization per distinct panel; its loads share the projection
            distinct = st.panel.reshape(-1, m, k)
            rows = np.empty((e, k, k + 1), dtype=dtype)
            f, lwork = len(distinct), None
            for a, ell, r in zip(distinct, loads.reshape(f, -1, m), rows.reshape(f, -1, k, k + 1)):
                # not np.linalg.qr, which factors float32/complex64 in double
                qr, tau = geqrf(a)[:2]
                lwork = lwork or int(ormqr("L", trans, qr, tau, ell.T, -1)[1][0].real)
                r[:, :, :k] = np.triu(qr[:k])
                r[:, :, k] = ormqr("L", trans, qr, tau, ell.T, lwork)[0][:k].T
            rows[:, :, :k] *= col_scale
        out.append((rank_of[st.cols], rows))
    return out


def _gather(panels, lo, width, dtype):
    """The panels' rows over the window columns lo..lo+width-1, rhs last."""
    new = np.zeros((sum(rows.shape[0] for _, rows in panels), width + 1), dtype=dtype, order="F")
    pos = 0
    for pcols, rows in panels:
        m = rows.shape[0]
        new[pos : pos + m, pcols - lo] = rows[:, :-1]
        new[pos : pos + m, width] = rows[:, -1]
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


def solve_blocked_ls(stacks, rhs, n_cols, scale=None, sort_keys=None, row_cap=256):
    """Minimize ||B D u - l||_2 for B given as a list of :class:`RowStack`.

    ``rhs`` is the load l over the rows of B and ``scale`` the positive
    column scale D (the identity when omitted).  ``sort_keys`` (n_cols, k)
    are lexicographic keys (primary first) that order the columns;
    geometric keys keep the active window small (identity order when
    omitted).  At most ``row_cap`` incoming (compressed) rows are merged in
    one LAPACK call.  Returns (x, r_diag): the solution and the magnitudes
    of the R diagonal (rank diagnostics), both of length n_cols.
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
    rank_of = np.empty(n_cols, dtype=np.int64)
    rank_of[order] = np.arange(n_cols)

    comp = _compress(stacks, rhs, scale, rank_of, dtype)
    # (first column, last column, stack, position) of every panel, by first column
    table = np.concatenate([np.zeros((0, 4), dtype=np.int64)] + [
        np.column_stack([pc.min(1), pc.max(1), np.full(len(pc), s), np.arange(len(pc))])
        for s, (pc, _) in enumerate(comp)
    ])
    first_col, last_col, which, pos = table[np.argsort(table[:, 0], kind="stable")].T.tolist()
    stack_rows = [rows.shape[1] for _, rows in comp]
    frozen = []                          # (first column, final R rows, rhs last)
    tri = np.zeros((1, 1), dtype=dtype)  # window R; the last column is the rhs
    lo = 0                               # permuted column id of tri[:, 0]

    def freeze_below(new_lo):
        """Cut the rows of the window columns below new_lo off the window."""
        nonlocal tri, lo
        f = min(new_lo - lo, tri.shape[0] - 1)
        if f:
            # a partial freeze copies, so that the old window can be released
            frozen.append((lo, tri[:f] if f == tri.shape[0] - 1 else tri[:f].copy()))
        tri = tri[f:, f:]
        lo = new_lo

    idx = 0
    while idx < len(first_col):
        freeze_below(first_col[idx])
        hi = max(lo + tri.shape[0] - 1, last_col[idx] + 1)
        # growing the window is what costs; adding rows at fixed width is cheap
        width_cap = max(256, int(1.25 * (hi - lo)) + 64)
        # always consume at least one panel so the loop advances
        stop, nrows = idx + 1, stack_rows[which[idx]]
        while stop < len(first_col) and nrows < row_cap:
            new_hi = max(hi, last_col[stop] + 1)
            if new_hi - lo > width_cap:
                break
            hi = new_hi
            nrows += stack_rows[which[stop]]
            stop += 1
        batch = [(comp[s][0][i], comp[s][1][i]) for s, i in zip(which[idx:stop], pos[idx:stop])]
        tri = _merge(tri, _gather(batch, lo, hi - lo, dtype))
        idx = stop
    freeze_below(n_cols)

    r_diag = np.zeros(n_cols)
    for first, rows in frozen:
        r_diag[first : first + rows.shape[0]] = np.abs(np.diagonal(rows))
    # structural rank guard: legitimate ill-conditioning may push diagonal
    # entries to eps-level of the scale, but a lost column falls far below
    floor = 100.0 * eps(dtype) * r_diag.max()
    low = np.flatnonzero((r_diag < floor) | (r_diag == 0.0))
    if low.size:
        raise RankDeficient(
            f"{low.size} R diagonal entries below {floor:g} (first: column {order[low[0]]})"
        )

    x = np.zeros(n_cols, dtype=dtype)
    for first, rows in reversed(frozen):
        f, width = rows.shape[0], rows.shape[1] - 1
        x[first : first + f] = scipy.linalg.solve_triangular(
            rows[:, :f], rows[:, width] - rows[:, f:width] @ x[first + f : first + width],
            check_finite=False,
        )

    out = np.zeros(n_cols, dtype=dtype)
    out[order] = x
    r_diag_out = np.zeros(n_cols)
    r_diag_out[order] = r_diag
    return out, r_diag_out
