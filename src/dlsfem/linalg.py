"""Linear-algebra kernels used by every other module.

All routines are generic over the scalar field (real or complex) and the
working precision (single or double): they preserve the dtype of their
inputs.  ``cholesky``, ``triangular_solve`` and ``householder_qr`` also
take stacks (..., m, n) of matrices, one factorization per matrix, which
is how the element pipeline treats whole element classes at once.
Factorizations are delegated to LAPACK through scipy; this module adds
the contracts the rest of the library relies on (Hermitian checks,
deterministic QR phases, rank diagnostics, typed failures).

Condition numbers are diagnostics, not part of any solve path, and are
always evaluated in double precision.  ``hpd_condition_number`` takes a
sparse Hermitian positive-definite matrix and needs only its two extreme
eigenvalues: lambda_max by ARPACK Lanczos, lambda_min by Lanczos on the
inverse (shift-invert at sigma = 0, one sparse LU).  The dense
``singular_values``/``condition_number`` pair computes the whole spectrum
and serves as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg


class NotPositiveDefinite(Exception):
    """A Cholesky or LDL* pivot is nonpositive: the matrix is not HPD."""


class SingularTriangular(Exception):
    """Triangular solve with a zero diagonal entry."""


class RankDeficient(Exception):
    """Least-squares matrix is numerically rank deficient."""


class ZeroMatrix(Exception):
    """Condition number of an all-zero matrix was requested."""


class SingularSaddle(Exception):
    """KKT system is singular or violates the well-posedness conditions."""


def eps(dtype) -> float:
    """Machine epsilon of the real type underlying ``dtype``."""
    return float(np.finfo(np.dtype(dtype)).eps)


def is_complex(dtype) -> bool:
    return np.issubdtype(np.dtype(dtype), np.complexfloating)


def fro(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of every matrix in a stack."""
    return np.swapaxes(np.asarray(m), -1, -2).conj()


def matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a matrix or a stack of matrices and a batch of vectors (..., n)."""
    return (m @ np.asarray(x)[..., None])[..., 0]


def hermitian_defect(g) -> float:
    """Relative Frobenius distance of ``g`` (or a stack) from its adjoint."""
    g = np.asarray(g)
    scale = fro(g)
    if scale == 0.0:
        return 0.0
    return fro(g - adjoint(g)) / scale


def cholesky(g: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L* = g for Hermitian positive-definite g.

    ``g`` may be a stack (..., n, n); every matrix is factored on its own.
    Raises NotPositiveDefinite on a nonpositive pivot, which in this library
    signals a broken or ill-posed test inner product.
    """
    g = np.asarray(g)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError("cholesky expects a square matrix")
    if hermitian_defect(g) > 100.0 * eps(g.dtype):
        raise ValueError("matrix is not Hermitian to working tolerance")
    if g.shape[-1] == 0:
        return g.copy()
    try:
        return scipy.linalg.cholesky(g, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err


def triangular_solve(ell: np.ndarray, m: np.ndarray, trans: str = "N") -> np.ndarray:
    """Solve L X = M (or L* X = M with ``trans='C'``) for lower-triangular L.

    A stack of factors (..., n, n) solves against a matching stack of
    right-hand sides.  One factor (n, n) against a stack (..., n, c) solves
    all of them as the columns of a single right-hand side, in one call.
    """
    ell = np.asarray(ell)
    m = np.asarray(m)
    n = ell.shape[-1]
    if ell.shape[-2] != n:
        raise ValueError("triangular factor must be square")
    if np.any(np.diagonal(ell, axis1=-2, axis2=-1) == 0):
        raise SingularTriangular("zero diagonal entry in triangular factor")
    if n == 0:
        return m.copy()
    if m.ndim == 1:
        return triangular_solve(ell, m[:, None], trans)[:, 0]
    if ell.ndim == 2 and m.ndim > 2:
        cols = np.moveaxis(m, -2, 0)
        x = triangular_solve(ell, cols.reshape(n, -1), trans)
        return np.moveaxis(x.reshape(cols.shape), 0, -2)
    return scipy.linalg.solve_triangular(
        ell, m, lower=True, trans=0 if trans == "N" else 2, check_finite=False
    )


@dataclass
class QrFactors:
    """Economic QR factors: q has orthonormal columns, r is upper triangular.

    The diagonal of r is real and nonnegative (reflector phases are
    normalized away) so factors are deterministic and easy to cross-check.
    """

    q: np.ndarray
    r: np.ndarray


def householder_qr(m: np.ndarray) -> QrFactors:
    """Householder QR of an m-by-n matrix (or a stack) with m >= n, without pivoting."""
    m = np.asarray(m)
    *batch, rows, cols = m.shape
    if rows < cols:
        raise ValueError("householder_qr expects rows >= cols")
    if cols == 0:
        return QrFactors(
            np.zeros((*batch, rows, 0), dtype=m.dtype), np.zeros((*batch, 0, 0), dtype=m.dtype)
        )
    q, r = scipy.linalg.qr(m, mode="economic", check_finite=False)
    # normalize so diag(r) >= 0
    d = np.diagonal(r, axis1=-2, axis2=-1)
    phase = np.where(np.abs(d) == 0, 1.0, d / np.where(np.abs(d) == 0, 1.0, np.abs(d)))
    q = q * phase[..., None, :]
    r = r * np.conj(phase)[..., :, None]
    return QrFactors(q=q, r=r)


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


def solve_spd(a: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Solve A u = f for Hermitian positive-definite A by Cholesky."""
    ell = cholesky(a)
    y = triangular_solve(ell, f)
    return triangular_solve(ell, y, trans="C")


def singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values of ``m``, computed in double precision.

    Hermitian inputs use their own eigendecomposition (sigma = |lambda|),
    which keeps sigma_min accurate for products like B*B whose explicit
    squaring would otherwise drown the small singular values in round-off.
    Non-Hermitian (or rectangular) inputs use the symmetric
    eigendecomposition of M*M.
    """
    m = np.asarray(m)
    md = m.astype(np.complex128 if is_complex(m.dtype) else np.float64)
    if md.shape[0] == md.shape[1] and hermitian_defect(md) <= 1e-12:
        sig = np.abs(np.linalg.eigvalsh(md))
    else:
        gram = md.conj().T @ md
        lam = np.linalg.eigvalsh(gram)
        sig = np.sqrt(np.clip(lam, 0.0, None))
    return np.sort(sig)[::-1]


def condition_number(m: np.ndarray) -> float:
    """sigma_1 / sigma_R over the nonzero singular values of ``m``."""
    m = np.asarray(m)
    if m.size == 0 or fro(m) == 0.0:
        raise ZeroMatrix("condition number of a zero matrix")
    sig = singular_values(m)
    tol = sig[0] * max(m.shape) * eps(np.float64)
    nonzero = sig[sig > tol]
    return float(sig[0] / nonzero[-1])


def hpd_condition_number(a) -> float:
    """lambda_max / lambda_min of a Hermitian positive-definite (sparse) ``a``.

    Evaluated in double precision from the two extreme eigenvalues:
    lambda_max by ARPACK Lanczos to full precision, lambda_min by Lanczos on
    A^-1 (shift-invert at sigma = 0) through a sparse LU with diagonal
    pivots in a symmetric ordering.  The LU pivots are those of LDL*, so an
    off-diagonal or nonpositive pivot proves the matrix indefinite or
    singular, and so does lambda_min <= N eps lambda_max; either raises
    NotPositiveDefinite.  The Lanczos start vector is fixed, so repeated
    calls are bit-identical.  A matrix too small for ARPACK (N < 3) takes
    the dense eigvalsh.
    """
    dtype = np.complex128 if is_complex(a.dtype) else np.float64
    a = scipy.sparse.csc_matrix(a, dtype=dtype)
    n = a.shape[0]
    if n == 0:
        raise ZeroMatrix("condition number of an empty matrix")
    if n < 3:
        lam = np.linalg.eigvalsh(a.toarray())
        lam_min, lam_max = lam[0], lam[-1]
    else:
        try:
            lu = scipy.sparse.linalg.splu(
                a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as err:     # an exactly zero pivot
            raise NotPositiveDefinite(f"singular matrix: {err}") from err
        # an HPD matrix never leaves the diagonal for a pivot, and then the
        # U diagonal holds the LDL* pivots
        if not np.array_equal(lu.perm_r, lu.perm_c) or np.any(lu.U.diagonal().real <= 0):
            raise NotPositiveDefinite("nonpositive LDL* pivot: matrix is not HPD")
        v0 = np.random.default_rng(0).standard_normal(n).astype(dtype)
        eigsh = scipy.sparse.linalg.eigsh
        lam_max = eigsh(a, k=1, which="LA", tol=0, v0=v0, return_eigenvectors=False)[0]
        inverse = scipy.sparse.linalg.LinearOperator(a.shape, matvec=lu.solve, dtype=dtype)
        lam_min = eigsh(
            a, k=1, sigma=0.0, which="LM", tol=0, v0=v0, OPinv=inverse,
            return_eigenvectors=False,
        )[0]
    if not lam_min > n * eps(np.float64) * abs(lam_max):
        raise NotPositiveDefinite(
            "lambda_min %g <= N eps lambda_max (lambda_max %g)" % (lam_min, lam_max)
        )
    return float(lam_max / lam_min)


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
