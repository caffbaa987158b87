"""Dense least-squares, KKT and constrained solvers, the references of the tests.

No study runs a constrained minimization: Dirichlet data is eliminated
while the context is built.  The solvers here densify the assembled
systems and serve as oracles for that elimination and for the element
pipeline: ``least_squares_qr`` by Householder QR, ``saddle_solve`` on the
KKT system [[A, C*], [C, 0]], and the method of weighting (stacked alpha C
rows) and the KKT system on a whole assembled context.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from dlsfem.assembly import AssemblyContext, RectangularRowBlocked, SparseSymmetric
from dlsfem.linalg import RankDeficient, eps, fro, householder_qr, solve_spd, triangular_solve
from dlsfem.solve import Solution, _indicators, _recover


class SingularSaddle(Exception):
    """KKT system is singular or violates the well-posedness conditions."""


def least_squares_qr(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimizer of ||M x - b||_2 via Householder QR, M full column rank.

    Rank is diagnosed from the R diagonal: any |R_kk| below
    rows * eps * |R_11| raises RankDeficient.
    """
    m = np.asarray(m)
    b = np.asarray(b)
    qr = householder_qr(m)
    diag = np.abs(np.diag(qr.r))
    if diag.size:
        threshold = m.shape[0] * eps(m.dtype) * diag[0]
        if np.any(diag < threshold):
            raise RankDeficient(
                "R diagonal below %g (min %g)" % (threshold, diag.min())
            )
    return triangular_solve(qr.r.conj().T, qr.q.conj().T @ b, trans="C")


def saddle_solve(a, c, f, d):
    """Solve the KKT system [[A, C*], [C, 0]] [u; w] = [f; d].

    A is Hermitian N x N, C is L x N with full row rank and
    Null(A) and Null(C) intersecting only in zero.  With an empty C this
    reduces to solve_spd.
    """
    a = np.asarray(a)
    c = np.asarray(c)
    f = np.asarray(f)
    n = a.shape[0]
    ell = c.shape[0] if c.size else 0
    if ell == 0:
        return solve_spd(a, f), np.zeros(0, dtype=a.dtype)
    d = np.asarray(d)
    dtype = np.result_type(a.dtype, c.dtype, f.dtype, d.dtype)
    kkt = np.zeros((n + ell, n + ell), dtype=dtype)
    kkt[:n, :n] = a
    kkt[:n, n:] = c.conj().T
    kkt[n:, :n] = c
    rhs = np.concatenate([f.astype(dtype), d.astype(dtype)])
    try:
        sol = scipy.linalg.solve(kkt, rhs, check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as err:
        raise SingularSaddle(str(err)) from err
    scale = fro(kkt) * max(fro(rhs), 1.0)
    if fro(kkt @ sol - rhs) > 1000.0 * eps(dtype) * max(scale, 1.0):
        raise SingularSaddle("block residual exceeds well-posedness tolerance")
    return sol[:n], sol[n:]


@dataclass
class ConstraintSystem:
    """Equality constraints C u = d with penalty Gram H = alpha^-2 I."""

    c: np.ndarray
    d: np.ndarray
    alpha: float = 1.0

    def __post_init__(self):
        self.c = np.atleast_2d(np.asarray(self.c))
        self.d = np.atleast_1d(np.asarray(self.d))
        if self.c.shape[0]:
            qr = householder_qr(self.c.conj().T)
            diag = np.abs(np.diag(qr.r))
            if diag.size and diag.min() < self.c.shape[1] * eps(self.c.dtype) * max(diag.max(), 1.0):
                raise RankDeficient("constraint matrix is not full row rank")


def solve_weighted_constraints(
    bt: RectangularRowBlocked,
    ltilde: np.ndarray,
    cons: ConstraintSystem,
    ctx: AssemblyContext,
) -> Solution:
    """Stacked least-squares [alpha C; Btilde] u ~ [alpha d; ltilde].

    ``ltilde`` must be the load assembled from ``ctx``: the indicators are
    taken against the context's stored element loads.
    """
    dense = bt.to_dense()
    dtype = np.result_type(dense.dtype, cons.c.dtype)
    if cons.alpha == 0.0 or cons.c.shape[0] == 0:
        stack = dense.astype(dtype)
        rhs = ltilde.astype(dtype)
    else:
        stack = np.vstack([(cons.alpha * cons.c).astype(dtype), dense.astype(dtype)])
        rhs = np.concatenate([(cons.alpha * cons.d).astype(dtype), ltilde.astype(dtype)])
    u = least_squares_qr(stack, rhs)
    full = _recover(ctx, u, "QR")
    eta, rnorm, gal, rvec = _indicators(ctx, full, "QR")
    return Solution(full, "QR", eta, rnorm, gal, u, ctx, rvec)


def solve_saddle_constraints(
    a: SparseSymmetric,
    f: np.ndarray,
    cons: ConstraintSystem,
    ctx: AssemblyContext,
):
    """KKT system [[A, C*], [C, 0]]; returns (Solution, multipliers)."""
    u, w = saddle_solve(a.to_dense(), cons.c, f, cons.d)
    full = _recover(ctx, u, "NE")
    eta, rnorm, gal, rvec = _indicators(ctx, full, "NE")
    return Solution(full, "NE", eta, rnorm, gal, u, ctx, rvec), w
