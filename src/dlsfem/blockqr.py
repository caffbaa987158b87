"""Least-squares solver for row-blocked rectangular systems.

Solves min ||B u - l||_2 where B is stored as independent dense row
blocks, each touching a small set of columns (the element panels produced
by the overdetermined assembly).  The algorithm is a sequential Householder
QR in three steps, each made of LAPACK calls on small dense arrays:

1. Compression.  Columns are permuted into a geometric (left-to-right)
   order.  Every block [B_K | l_K] with more rows than its k + 1 columns is
   replaced by the k x (k+1) R factor of its local Householder QR, batched
   with one LAPACK ``?geqrf`` per block in the blocks' own dtype.  The
   dropped rows only carry the local residual, so the minimizer is
   unchanged and the step is backward stable.
2. Triangular window update.  The compressed panels, in the order of their
   first column, are merged batch by batch into an upper-triangular active
   window R over a contiguous column range.  LAPACK ``?tpqrt``
   (triangular-pentagonal QR) folds the new rows into the carried triangle
   without factoring it again; a window that carries nothing yet is an
   all-zero triangle.
3. Freezing and back-substitution.  Before each batch, the window rows of
   the columns that no later panel touches are final.  They leave the
   window as one block of R rows, and the solution is recovered by one
   triangular solve per frozen block, last block first.

The work stays proportional to (compressed rows) x (window width)^2 instead
of rows x columns^2.  Every LAPACK call runs in the dtype of the blocks
(single/double, real or complex), so single-precision systems are factored
in single precision; no normal equations are formed anywhere.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .linalg import RankDeficient, eps

# ?tpqrt panel width: of 8-128, 32 was fastest on windows of 250-1800
# columns (OpenBLAS, 2 cores)
TPQRT_BLOCK = 32


def _compress(blocks, rhs, rank_of, dtype):
    """Augmented panels (pcols, rows) in the order of their first column.

    ``pcols`` are the block's permuted column ids in increasing order and
    ``rows`` its rows [B_K | l_K] in that column order, compressed to the
    k rows of the R factor when the block has more than k + 1 rows.
    """
    geqrf = scipy.linalg.get_lapack_funcs("geqrf", dtype=dtype)
    by_shape: dict = {}
    for i, (rows, cols) in enumerate(blocks):
        if rows.size:
            by_shape.setdefault(rows.shape, []).append(i)
    panels = []
    for (m, k), idx in by_shape.items():
        pcols = rank_of[np.stack([blocks[i][1] for i in idx])]
        sort = np.argsort(pcols, axis=1, kind="stable")
        aug = np.empty((len(idx), m, k + 1), dtype=dtype)
        aug[:, :, :k] = np.take_along_axis(
            np.stack([blocks[i][0] for i in idx]), sort[:, None, :], axis=2
        )
        aug[:, :, k] = np.stack([rhs[i] for i in idx])
        if m > k + 1:
            # not np.linalg.qr, which factors float32/complex64 in double
            aug = np.triu(np.stack([geqrf(a)[0][:k] for a in aug]))
        panels.extend(zip(np.take_along_axis(pcols, sort, axis=1), aug))
    panels.sort(key=lambda panel: panel[0][0])
    return panels


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


def solve_blocked_ls(blocks, rhs, n_cols, sort_keys=None, row_cap=256):
    """Minimize ||B u - l||_2 for a row-blocked B.

    Parameters
    ----------
    blocks : list of (rows, cols)
        Dense panels with their global column index lists.
    rhs : list of ndarray
        Right-hand-side slice for each block.
    n_cols : int
        Global column dimension.
    sort_keys : (n_cols, k) array, optional
        Lexicographic keys (primary first) used to order columns; geometric
        keys keep the active window small.  Identity order when omitted.
    row_cap : int
        Maximum number of incoming (compressed) rows merged in one LAPACK call.

    Returns
    -------
    x : ndarray (n_cols,)
    r_diag : ndarray (n_cols,) magnitudes of the R diagonal (rank diagnostics)
    """
    if n_cols == 0:
        return np.zeros(0), np.zeros(0)
    dtype = blocks[0][0].dtype if blocks else np.float64
    if sort_keys is None:
        order = np.arange(n_cols)
    else:
        keys = np.asarray(sort_keys)
        order = np.lexsort(tuple(keys[:, k] for k in range(keys.shape[1] - 1, -1, -1)))
    rank_of = np.empty(n_cols, dtype=np.int64)
    rank_of[order] = np.arange(n_cols)

    panels = _compress(blocks, rhs, rank_of, dtype)
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
    while idx < len(panels):
        freeze_below(int(panels[idx][0][0]))
        hi = max(lo + tri.shape[0] - 1, int(panels[idx][0][-1]) + 1)
        # growing the window is what costs; adding rows at fixed width is cheap
        width_cap = max(256, int(1.25 * (hi - lo)) + 64)
        # always consume at least one panel so the loop advances
        stop, nrows = idx + 1, panels[idx][1].shape[0]
        while stop < len(panels) and nrows < row_cap:
            new_hi = max(hi, int(panels[stop][0][-1]) + 1)
            if new_hi - lo > width_cap:
                break
            hi = new_hi
            nrows += panels[stop][1].shape[0]
            stop += 1
        tri = _merge(tri, _gather(panels[idx:stop], lo, hi - lo, dtype))
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
