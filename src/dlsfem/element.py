"""Element pipeline: Gram preconditioning, whitening, boundary
modification, and static condensation in least-squares and
normal-equation flavors.

The whitened element system is

    Btilde = L^-1 B,   ltilde = L^-1 l,   L L* = G,

so that the G^-1-weighted element residual becomes an ordinary 2-norm.
Condensation eliminates bubble columns (trial functions supported in a
single element) either by the orthogonal projector I - Q_b Q_b* obtained
from a QR of the bubble block (least-squares flavor) or by the Schur
complement of the element normal equation; Appendix-style equivalence of
the two is covered by the test suite.

Every function takes one element or a whole element class at once.  Loads
and coefficient vectors may carry leading batch axes, (E, M) for E
elements; matrices are either shared by the batch, (M, k), or stacked per
element, (E, M, k).  A shared factor solves for all E elements in one
triangular solve with E right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import NotPositiveDefinite


class NonpositiveDiagonal(Exception):
    """Diagonal scaling hit a nonpositive entry."""


class RankDeficientBubbles(Exception):
    """Bubble block lost full column rank: the test space is too poor."""


class SingularBubbleBlock(Exception):
    """Bubble block of the element normal equation is not positive definite."""


@dataclass
class CondensedElement:
    """Interface-only element rows plus the factors needed for recovery."""

    rows: np.ndarray          # (M, n_interface) projected interface block
    rhs: np.ndarray           # (M,) projected load
    q_bubb: np.ndarray        # (M, n_bubble)
    r_bubb: np.ndarray        # (n_bubble, n_bubble) upper triangular
    b_interf: np.ndarray      # unprojected interface block (for recovery)
    ltilde: np.ndarray        # unprojected load (for recovery)


def precondition_gram(g, b, l):
    """Unit-diagonal rescaling of the Gram matrix, Eq.-(3.16) style.

    G -> D^-1/2 G D^-1/2, B -> D^-1/2 B, l -> D^-1/2 l with D = diag(G).
    The scaling is a pure row transformation of the weighted least-squares
    system: the whitened matrix L^-1 B (and hence the minimizer and the
    normal equation) is unchanged in exact arithmetic, while the Cholesky
    factorization runs on a much better conditioned Gram matrix.

    Returns (g, b, l, d) with d the diagonal that was scaled out.
    """
    g = np.asarray(g)
    d = np.real(np.diag(g)).copy()
    if np.any(d <= 0):
        raise NonpositiveDiagonal("Gram diagonal must be positive")
    s = 1.0 / np.sqrt(d)
    g_s = g * s[:, None] * s[None, :]
    b_s = np.asarray(b) * s[:, None]
    l_s = np.asarray(l) * s
    return g_s, b_s, l_s, d


def whiten(g, b, l):
    """Cholesky whitening: returns (Btilde, ltilde) with G = L L*."""
    ell_factor = linalg.cholesky(np.asarray(g))
    bt = linalg.triangular_solve(ell_factor, np.asarray(b))
    lt = linalg.triangular_solve(ell_factor, np.asarray(l)[..., None])[..., 0]
    return bt, lt


def element_ne(bt, lt):
    """Element normal equation: A_K = Btilde* Btilde, f_K = Btilde* ltilde."""
    bth = linalg.adjoint(bt)
    return bth @ np.asarray(bt), linalg.matvec(bth, lt)


def apply_dirichlet(bt, lt, fixed_local, lift_local=None):
    """Eliminate fixed columns, moving their lift contribution to the load.

    ``lift_local`` is a full-length local lift vector (entries at free
    positions are allowed and are also moved to the load, which makes the
    solution independent of the particular lift chosen).  Returns
    (bt_free, lt_mod, free_local).
    """
    bt = np.asarray(bt)
    lt = np.asarray(lt).copy()
    n = bt.shape[-1]
    fixed_local = np.asarray(fixed_local, dtype=np.int64)
    free = np.setdiff1d(np.arange(n), fixed_local)
    if lift_local is not None and np.any(lift_local != 0):
        lt = lt - linalg.matvec(bt, np.asarray(lift_local).astype(lt.dtype))
    return bt[..., free], lt, free


def condense_ls(bt, lt, bubble_idx, interface_idx):
    """Least-squares static condensation via QR of the bubble block.

    The interface rows become (I - Q_b Q_b*) [B_interf | ltilde]; the
    retained factors reproduce the bubble minimizer
    u_b = R_b^-1 Q_b* (ltilde - B_interf u_i).  The two index sets
    partition the columns, so without bubbles the rows are ``bt`` and
    ``lt`` themselves, not copies.
    """
    bt = np.asarray(bt)
    lt = np.asarray(lt)
    bubble_idx = np.asarray(bubble_idx, dtype=np.int64)
    interface_idx = np.asarray(interface_idx, dtype=np.int64)
    qr = linalg.householder_qr(bt[..., bubble_idx])
    if bubble_idx.size == 0:
        return CondensedElement(bt, lt, qr.q, qr.r, bt, lt)
    b_int = bt[..., interface_idx]
    diag = np.abs(np.diagonal(qr.r, axis1=-2, axis2=-1))
    dmax = diag.max(axis=-1)
    if np.any(dmax == 0.0) or np.any(
        diag.min(axis=-1) < bt.shape[-2] * linalg.eps(bt.dtype) * dmax
    ):
        raise RankDeficientBubbles(
            "bubble block rank deficient (min diag %g)" % diag.min()
        )
    qb = qr.q
    qbh = linalg.adjoint(qb)
    rows = b_int - qb @ (qbh @ b_int)
    rhs = lt - linalg.matvec(qb, linalg.matvec(qbh, lt))
    return CondensedElement(rows, rhs, qb, qr.r, b_int, lt)


def recover_bubbles(cond: CondensedElement, u_interf):
    """Bubble coefficients minimizing the local residual at fixed interface."""
    resid = cond.ltilde - linalg.matvec(cond.b_interf, np.asarray(u_interf, dtype=cond.rows.dtype))
    y = linalg.matvec(linalg.adjoint(cond.q_bubb), resid)
    return linalg.triangular_solve(
        linalg.adjoint(cond.r_bubb), y[..., None], trans="C"
    )[..., 0]


@dataclass
class SchurElement:
    """Schur-complement condensation data of the element normal equation."""

    schur: np.ndarray
    rhs: np.ndarray
    chol_bb: np.ndarray   # Cholesky factor of the bubble block
    a_bi: np.ndarray      # bubble-interface coupling
    f_bubb: np.ndarray


def condense_ne(a, f, bubble_idx, interface_idx, hermitian=True):
    """Schur complement of the bubble block of (A_K, f_K).

    The two index sets partition the columns, so without bubbles the
    Schur complement and its load are ``a`` and ``f`` themselves.  With
    ``hermitian`` (an element normal equation) the complement is the
    Hermitian part of A_ii - A_ib A_bb^-1 A_bi, which equals its conjugate
    transpose exactly: the products round its two triangles differently,
    while the tree reads the upper one only and Lanczos takes the sum of
    the blocks for Hermitian.  The square matrix of a conforming test space
    is condensed as it is (``hermitian=False``).
    """
    a = np.asarray(a)
    f = np.asarray(f)
    bubble_idx = np.asarray(bubble_idx, dtype=np.int64)
    interface_idx = np.asarray(interface_idx, dtype=np.int64)
    a_bb = a[..., bubble_idx[:, None], bubble_idx]
    a_bi = a[..., bubble_idx[:, None], interface_idx]
    f_b = f[..., bubble_idx]
    if bubble_idx.size == 0:
        return SchurElement(a, f, a_bb, a_bi, f_b)
    a_ii = a[..., interface_idx[:, None], interface_idx]
    f_i = f[..., interface_idx]
    try:
        chol = linalg.cholesky(a_bb)
    except NotPositiveDefinite as err:
        raise SingularBubbleBlock(str(err)) from err
    # A_ib A_bb^-1 A_bi via the triangular factor
    y = linalg.triangular_solve(chol, a_bi)
    yf = linalg.triangular_solve(chol, f_b[..., None])
    yh = linalg.adjoint(y)
    schur = a_ii - yh @ y
    if hermitian:
        schur = 0.5 * (schur + linalg.adjoint(schur))
    rhs = f_i - (yh @ yf)[..., 0]
    return SchurElement(schur, rhs, chol, a_bi, f_b)


def recover_bubbles_ne(schur_elem: SchurElement, u_interf):
    """Bubble recovery for the Schur flavor: u_b = A_bb^-1 (f_b - A_bi u_i)."""
    rhs = schur_elem.f_bubb - linalg.matvec(
        schur_elem.a_bi, np.asarray(u_interf, dtype=schur_elem.schur.dtype)
    )
    y = linalg.triangular_solve(schur_elem.chol_bb, rhs[..., None])
    return linalg.triangular_solve(schur_elem.chol_bb, y, trans="C")[..., 0]
