"""The sliding-window block QR that the elimination tree of
:mod:`dlsfem.blockqr` replaced.  Kept as the reference its successor is
checked against.

All rows, in the order of the first column of their panel under a
geometric column order, are merged batch by batch into an upper-triangular
active window R over a contiguous range of the columns.  LAPACK ``?tpqrt``
(triangular-pentagonal QR with l = 0) folds the new rows into the carried
triangle without factoring it again.  Before each batch, the window rows
of the columns that no later panel touches are final: they leave the
window as one front.  One triangular solve per front, last front first,
gives z = D u; then u = z / D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from dlsfem.linalg import RankDeficient, eps

# ?tpqrt panel width
TPQRT_BLOCK = 32


@dataclass(frozen=True, eq=False)
class _Front:
    """Final unscaled rows [R11 | R12 | rhs] of the columns ``cols``."""

    r11: np.ndarray            # (p, p)
    r12: np.ndarray            # (p, b)
    cols: np.ndarray           # (1, p)
    rest: np.ndarray           # (1, b)
    rhs: np.ndarray            # (1, p)


def _gather(batch, lo, width, dtype):
    """The rows [panel | load] of the batch's (stack, index, window columns)
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
    """The fronts of the window over the columns ``order``, in the order
    they are finished."""
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


def solve_window_ls(stacks, n_cols, scale=None, sort_keys=None, row_cap=256):
    """Minimize ||B D u - l||_2 for B and its load l given as a list of
    :class:`dlsfem.blockqr.RowStack` by the sliding window alone.

    ``sort_keys`` (n_cols, k) are lexicographic keys (primary first) that
    order the columns (identity order when omitted); at most ``row_cap``
    incoming rows are merged in one window update.  Returns (x, r_diag).
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
    fronts = _window([st for st in stacks if st.panel.size], order, dtype, row_cap)

    r_diag = np.zeros(n_cols)
    for f in fronts:
        r_diag[f.cols] = np.abs(np.diagonal(f.r11)) * np.abs(scale[f.cols])
    floor = 100.0 * eps(dtype) * r_diag.max()
    low = np.flatnonzero((r_diag < floor) | (r_diag == 0.0))
    if low.size:
        raise RankDeficient(f"{low.size} R diagonal entries below {floor:g} (first: column {low[0]})")

    z = np.zeros(n_cols, dtype=dtype)
    for f in reversed(fronts):
        z[f.cols] = scipy.linalg.solve_triangular(f.r11, (f.rhs - z[f.rest] @ f.r12.T).T, check_finite=False).T
    return z / scale, r_diag
