"""Block solvers on one elimination tree: least squares and normal equations.

``solve_blocked_ls`` solves min ||B D u - l||_2 for a column scale D > 0
and B with its load l given as stacks of dense row panels
(:class:`RowStack`): the elements of a class share one panel over their
own columns, and every panel carries its rows' loads and a mesh cell.
``solve_blocked_ne`` solves A x = f for A the sum of Hermitian
positive-definite element blocks and f the sum of their loads
(:class:`BlockStack`), such as the element normal equations (A_K, f_K) of
B* B.  Both run on one multifrontal elimination tree (George, 1973; Liu,
1992; Davis, SuiteSparseQR, 2011), analysed once per structure and filled
per system, as sparse direct solvers split it (Amestoy et al., MUMPS, 2001):

1. Analysis (:class:`TreePlan`).  The panels (blocks) are merged in rounds
   of 2 x 2 groups of cells until one group holds all that is left; a
   column that one group's panels alone touch is private to it.  Groups
   with panels of the same parts and the same patterns of equal and
   private columns share a signature, for which the plan holds the groups,
   their panels' parts and instances (gather), each panel column's front
   position (scatter), the count p of private columns, each group's u
   front columns (private first, by first appearance) and its cells.  It
   reads no values, so the NE's blocks and the QR's row panels share it.
2. Numeric pass.  A signature's front is filled and factored once for all
   its groups (once each when a panel is per-element):

   * a row front stacks the panels' rows; one ``?geqrt`` factors it in
     place, in compact-WY form (Schreiber & Van Loan, 1989) with recursive
     level-3 panels (Elmroth & Gustavson, 2000), and ``?gemqrt`` projects
     the loads.  The min(rows, u) - p rows of the triangle over the other
     columns go on; since B D = Q (R D), [R11 | R12] solve for z = D u.
   * a Hermitian front sums its blocks, one flat-index scatter each.
     ``?potrf`` factors A11 = R11* R11, one ``?trtrs`` gives R12 = R11^-* A12
     and the loads R11^-* f1, and the upper triangle of the Schur
     complement A22 - R12* R12 (``?syrk``/``?herk``) goes on with the loads
     f2 - R12* R11^-* f1 (``?gemm``); no kernel reads a lower triangle.
3. Back-substitution.  One triangular solve per front, last front first,
   for all its groups; in least squares u = z / D.

The work is (front rows) x (front width)^2 summed over the fronts; no
global matrix or band is formed.  Every LAPACK/BLAS call goes through
scipy's wrappers in the panels' dtype (single precision stays single), at
one OpenBLAS thread (:mod:`dlsfem.linalg`; at 2, the QR fronts at p = 2
double n = 32 took 28 ms, not 18).  A poor grouping costs speed, not accuracy.
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
    if not r:       # a front of parts with no rows left
        return a[:0], loads[:0]
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
    """Hermitian front a (u, u), first p columns private, of which only the
    upper triangle is read: (R11, R12, rhs (G, p), the upper triangle of
    the Schur complement A22 - R12* R12 and its loads (G, .), passed up).
    Raises NotPositiveDefinite at a nonpositive pivot."""
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
        # ?syrk/?herk updates the upper triangle, the only one the next round reads
        schur = syrk(-1.0, r12, beta=1.0, c=schur, trans=2)
        proj = gemm(-1.0, r12, x[:, b:], beta=1.0, c=proj, trans_a=2)
    # copies: no view keeps a front alive
    return r11, r12.copy(), x[:, b:].T.copy(), schur, proj.T


@dataclass(frozen=True, eq=False)
class _Signature:
    """The G groups of a round that share a front: slot t of each is panel
    inst[t] of part src[t], over the front columns at[t]; the front
    finishes the first p of its columns cols (G, u) and passes the others
    up on the groups' cells (G, 2), in one part (one each when own)."""

    src: tuple
    inst: np.ndarray           # (t, G)
    at: tuple                  # (k_t,) per slot
    p: int
    cols: np.ndarray           # (G, u)
    cells: np.ndarray          # (G, 2)
    own: bool

    def fronts(self):
        return [slice(i, i + 1) for i in range(len(self.cols))] if self.own else [slice(None)]


@dataclass(frozen=True, eq=False)
class TreePlan:
    """The tree over given stacks, analysed once: each round's signatures
    (module notes), index arrays of O(panel columns) in all.  The parts of
    round r + 1 are the fronts of round r with columns left, in order; a
    Hermitian front passes up u - p columns, a row front min(rows, u) - p
    rows of them, counted from its panels.  Serves all stacks it fits."""

    n_cols: int
    inputs: tuple              # (cells, cols, per-element) of every nonempty stack
    rounds: tuple              # of tuples of _Signature

    @classmethod
    def build(cls, stacks, n_cols):
        parts = [(st.cells, st.cols, st.panel.ndim == 3) for st in stacks if st.panel.size]
        inputs, rounds, first = tuple(parts), [], np.full(n_cols, np.iinfo(np.int64).max)
        while parts:
            rounds.append(_analyse(parts, first))
            parts = [(s.cells[of], s.cols[of, s.p :], False) for s in rounds[-1] if s.cols.shape[1] > s.p for of in s.fronts()]
        return cls(n_cols, inputs, tuple(rounds))

    def fits(self, stacks, n_cols):
        parts = [st for st in stacks if st.panel.size]
        return n_cols == self.n_cols and len(parts) == len(self.inputs) and all(
            own == (st.panel.ndim == 3) and np.array_equal(cells, st.cells) and np.array_equal(cols, st.cols)
            for st, (cells, cols, own) in zip(parts, self.inputs))


def _analyse(parts, first):
    """The signatures of one round of (cells, cols, per-element) parts:
    groups whose panels come from the same parts, in which the first
    group's patterns of equal and of private columns repeat (a group that
    fails starts a candidate of its own).  ``first``: work array, n_cols."""
    sizes, ks = [len(c) for _, c, _ in parts], np.array([c.shape[1] for _, c, _ in parts])
    src, idx = np.repeat(np.arange(len(parts)), sizes), np.concatenate([np.arange(e) for e in sizes])
    flat, offset = np.concatenate([c.ravel() for _, c, _ in parts]), np.cumsum(sizes * ks) - sizes * ks
    cells = np.concatenate([c for c, _, _ in parts])
    cells = cells - [cells[:, 0].min(), cells[:, 1].min()]    # from 0, so that halving reaches one group
    # the panels in canonical order: by group (in lexicographic order of
    # (x // 2, y // 2)), cell within the group, part, index
    key = ((cells[:, 0] >> 1) * ((cells[:, 1] >> 1).max() + 1) + (cells[:, 1] >> 1) << 2) + (cells & 1) @ [1, 2]
    order = np.argsort(key, kind="stable")
    src, idx, cells, key = src[order], idx[order], cells[order], key[order] >> 2
    first_panel = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    n_panels = np.diff(np.append(first_panel, key.size))
    group = np.repeat(np.arange(first_panel.size), n_panels)
    who = np.full((first_panel.size, int(n_panels.max())), -1)
    who[group, np.arange(group.size) - first_panel[group]] = src

    candidates, classes = np.unique(who.view(f"V{who.shape[1] * who.itemsize}").ravel(), return_inverse=True)[1], []
    for groups in np.split(np.argsort(candidates, kind="stable"), np.cumsum(np.bincount(candidates))[:-1]):
        slots = who[groups[0], : n_panels[groups[0]]]
        inst, k = idx[first_panel[groups] + np.arange(slots.size)[:, None]], ks[slots]
        at = np.arange(k.sum())
        cols = flat[(offset[slots, None] + inst * k[:, None] - (np.cumsum(k) - k)[:, None]).repeat(k, axis=0).T + at]
        while groups.size:
            # the first group's first entry of each column; the others agree
            np.minimum.at(first, cols[0], at)
            lead = first[cols[0]]
            first[cols[0]] = np.iinfo(np.int64).max
            heads = np.flatnonzero(lead == at)
            fits, rest = slice(None), slice(0)
            if len(groups) > 1:
                distinct = np.sort(cols[:, heads], axis=1)
                fits = (cols[:, lead] == cols).all(1) & (distinct[:, 1:] != distinct[:, :-1]).all(1)
                fits, rest = (slice(None), slice(0)) if fits.all() else (fits, ~fits)
            classes.append((groups[fits], slots, inst[:, fits], cols[fits].take(heads, axis=1), np.cumsum(lead == at)[lead] - 1))
            groups, inst, cols = groups[rest], inst[:, rest], cols[rest]

    # private columns (held by one group) first, each in order of first appearance
    held = np.bincount(np.concatenate([c.ravel() for _, _, _, c, _ in classes]), minlength=first.size)
    out = []
    for groups, slots, inst, cols, lead in classes:
        private, ends = held[cols] == 1, np.cumsum(ks[slots]).tolist()
        while groups.size:
            fits = (private == private[0]).all(1)
            fits, rest = (slice(None), slice(0)) if fits.all() else (fits, ~fits)
            rank = np.argsort(~private[0], kind="stable")
            local = np.argsort(rank)
            out.append(_Signature(
                tuple(slots), inst[:, fits], tuple(local[lead][i:j] for i, j in zip([0] + ends, ends)), int(private[0].sum()),
                cols[fits].take(rank, axis=1), cells[first_panel[groups[fits]]] >> 1, any(parts[s][2] for s in slots)))
            groups, inst, cols, private = groups[rest], inst[:, rest], cols[rest], private[rest]
    return tuple(out)


def _factor_round(parts, signatures, dtype, hermitian, upper):
    """One round's numeric pass: (parts that go on, fronts); ``upper``: the
    parts are passed-up Hermitian blocks, holding their upper triangle."""
    factor = _cholesky_front if hermitian else _qr_front
    for pt in parts if upper else ():     # conjugated below, once for all fronts
        np.copyto(pt.panel, pt.panel.T.conj(), where=np.tri(len(pt.panel), k=-1, dtype=bool))
    out, fronts = [], []
    for sig in signatures:
        panels = [parts[s] for s in sig.src]
        (n_groups, u), p = sig.cols.shape, sig.p
        # a row front stacks its panels' rows, a Hermitian one sums its blocks
        n_rows = u if hermitian else max(sum(pt.panel.shape[-2] for pt in panels), p)
        buf = np.zeros((n_groups if sig.own else 1, u * n_rows), dtype=dtype)
        front = buf.reshape(len(buf), u, n_rows).transpose(0, 2, 1)     # F-ordered
        loads = np.zeros((n_rows, n_groups), dtype=dtype, order="C" if hermitian else "F")
        row = 0
        for pt, inst, c in zip(panels, sig.inst, sig.at):
            panel = pt.panel if pt.panel.ndim == 2 else pt.panel[inst]
            if hermitian:
                buf.reshape(-1)[(np.arange(len(buf)) * u * u)[:, None, None] + c[:, None] + c * u] += panel
                loads[c] += pt.loads[inst].T
            else:
                m = pt.panel.shape[-2]
                front[:, row : row + m, c] = panel
                loads[row : row + m] = pt.loads[inst].T
                row += m
        for a, of in zip(front, sig.fronts()):
            r11, r12, rhs, up, up_loads = factor(a, loads[:, of], p, dtype)
            if p:
                fronts.append(_Front(r11, r12, sig.cols[of, :p], sig.cols[of, p:], rhs))
            if u > p:
                out.append(BlockStack(up, sig.cols[of, p:], up_loads, sig.cells[of]))
    return out, fronts


def _tree(stacks, plan, dtype, hermitian):
    """The fronts of every round of the plan, and the magnitudes of their R
    diagonal on the n_cols columns (0 where no front finishes one)."""
    parts, fronts = [st for st in stacks if st.panel.size], []
    for r, signatures in enumerate(plan.rounds):
        parts, done = _factor_round(parts, signatures, dtype, hermitian, upper=hermitian and r > 0)
        fronts += done
    r_diag = np.zeros(plan.n_cols)
    for f in fronts:
        r_diag[f.cols] = np.abs(np.diagonal(f.r11))
    return fronts, r_diag


def _back_substitute(fronts, n_cols, dtype):
    """z from R z = rhs, one triangular solve per front, last first."""
    z = np.zeros(n_cols, dtype=dtype)
    for f in reversed(fronts):
        z[f.cols] = scipy.linalg.solve_triangular(f.r11, (f.rhs - z[f.rest] @ f.r12.T).T, check_finite=False).T
    return z


def solve_blocked_ls(stacks, n_cols, scale=None, plan=None):
    """Minimize ||B D u - l||_2 for B and its load l given as a list of
    :class:`RowStack`.

    ``scale`` is the positive column scale D (the identity when omitted),
    ``plan`` the stacks' :class:`TreePlan` (built here when omitted).
    Returns (u, r_diag): the solution and the magnitudes of the R diagonal
    of B D (rank diagnostics), both of length n_cols.
    """
    if n_cols == 0:
        return np.zeros(0), np.zeros(0)
    dtype = stacks[0].panel.dtype if stacks else np.float64
    scale = np.ones(n_cols, dtype=dtype) if scale is None else np.asarray(scale, dtype=dtype)
    fronts, r_diag = _tree(stacks, plan or TreePlan.build(stacks, n_cols), dtype, hermitian=False)
    r_diag *= np.abs(scale)
    # structural rank guard: legitimate ill-conditioning may push diagonal
    # entries to eps-level of the scale, but a lost column falls far below
    floor = 100.0 * eps(dtype) * r_diag.max()
    low = np.flatnonzero((r_diag < floor) | (r_diag == 0.0))
    if low.size:
        raise RankDeficient(f"{low.size} R diagonal entries below {floor:g} (first: column {low[0]})")
    return _back_substitute(fronts, n_cols, dtype) / scale, r_diag


def solve_blocked_ne(stacks, n_cols, plan=None):
    """Solve A x = f for A and f the sums of the Hermitian blocks of a list
    of :class:`BlockStack` and of their loads, by Cholesky on the
    elimination tree of ``plan`` (built here when omitted).

    Returns (x, r_diag): the solution and the magnitudes of the diagonal of
    the Cholesky factor R of A, both of length n_cols.  Raises
    NotPositiveDefinite at a nonpositive pivot, or when no block holds a
    column.
    """
    if n_cols == 0:
        return np.zeros(0), np.zeros(0)
    dtype = stacks[0].panel.dtype if stacks else np.float64
    fronts, r_diag = _tree(stacks, plan or TreePlan.build(stacks, n_cols), dtype, hermitian=True)
    missing = np.flatnonzero(r_diag == 0.0)
    if missing.size:
        raise NotPositiveDefinite(f"{missing.size} columns in no block (first: column {missing[0]})")
    return _back_substitute(fronts, n_cols, dtype), r_diag
