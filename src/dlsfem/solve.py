"""Global solution paths and post-processing.

Both solution paths run on the one elimination tree of
:mod:`dlsfem.blockqr`, which follows the mesh cells that the assembled
panels and blocks carry, with two front kernels: ``solve_ls`` solves the
row-blocked rectangular system by multifrontal Householder QR, and
``solve_ne`` the Hermitian normal equation by multifrontal Cholesky on the
element blocks it was given.  Only the square product S* S of a
conforming test space, which carries no blocks, is factored by banded
Cholesky after a geometric bandwidth-reducing reordering.  Both return a
:class:`Solution` with the full coefficient vector (lift re-inserted,
bubbles recovered) and the per-element residual indicators eta_K.
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
    precondition_global,
    precondition_global_rect,
)
from .blockqr import solve_blocked_ls, solve_blocked_ne
from .linalg import NotPositiveDefinite


class ZeroSolution(Exception):
    """rho requested for an identically zero solution of a zero load."""


@dataclass
class Solution:
    """Solved coefficients with residual bookkeeping.

    ``coefficients`` covers the full trial layout in double precision;
    ``system_vector`` is the raw solution of the assembled (preconditioned)
    system in the working precision; ``residual`` is the whitened global
    residual ltilde - Btilde u in element-row order (the discrete Riesz
    representative of the residual, whose element slices give eta_K).
    ``r_diag_min``/``r_diag_max`` bound the magnitudes of the R diagonal of
    the system the QR path solved (None for the other paths).
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

    def component(self, name: str) -> np.ndarray:
        return self.coefficients[self.context.component_slice(name)]

    @property
    def eta_total(self) -> float:
        return float(np.sqrt(np.sum(self.eta**2)))


def _recover(ctx: AssemblyContext, u_solve: np.ndarray, solver: str) -> np.ndarray:
    """Full coefficient vector: lift plus homogeneous part plus bubbles.

    The element systems were assembled with the full lift moved to the
    load, so the solve and the bubble recovery produce the homogeneous
    part, which is added on top of the lift (the affine-set split).
    """
    out_dtype = np.complex128 if ctx.formulation.field == "complex" else np.float64
    lift = ctx.lift_full.astype(out_dtype)
    full = lift.copy()
    full[ctx.solve_ids] += u_solve.astype(out_dtype)
    if ctx.options.condense:
        for c in ctx.classes:
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

    eta_K is always measured on the uncondensed element system with the
    recovered local coefficients; the global residual norm is taken from
    the system that was actually solved (condensed rows when the QR path
    solved a condensed system), so the sum identity is a genuine
    cross-check.  The residuals are taken against the loads stored in the
    context, which are the ones the assembled systems carry.
    """
    ne = ctx.mesh.n_elements
    eta = np.zeros(ne)
    gal = np.zeros(ctx.n_solve, dtype=np.complex128 if ctx.formulation.field == "complex" else np.float64)
    if ctx.square_data is not None:
        # conforming test space: no localizable residual decomposition
        s = ctx.square_data["matrix"]
        rhs = ctx.square_data["rhs"]
        hom = (full - ctx.lift_full)[ctx.solve_ids].astype(s.dtype)
        r = rhs - s @ hom
        return eta, float(np.linalg.norm(r)), float(np.linalg.norm(s.conj().T @ r)), r
    condensed_qr = solver == "QR" and ctx.options.condense
    hom_full = full - ctx.lift_full.astype(full.dtype)
    # element e owns rows e*M .. e*M + M - 1 of the residual, as in Btilde
    rvec = np.empty((ne, ctx.formulation.n_test_local), dtype=ctx.options.working_dtype(ctx.formulation))
    for c in ctx.classes:
        u_free = hom_full[c.free_ids].astype(c.bt.dtype)
        r = c.lt - linalg.matvec(c.bt, u_free)
        eta[c.elements] = np.linalg.norm(r, axis=-1)
        if condensed_qr:
            mat, ids = c.cond_ls.rows, c.interface_ids
            r = c.cond_ls.rhs - linalg.matvec(mat, u_free[:, c.interf_pos])
        else:
            mat, ids = c.bt, c.free_ids
        cols = ctx.solve_index[ids]
        ok = cols >= 0
        np.add.at(gal, cols[ok], linalg.matvec(linalg.adjoint(mat), r)[ok])
        rvec[c.elements] = r
    resid = math.sqrt(float(np.sum(np.abs(rvec) ** 2, dtype=np.float64)))
    return eta, resid, float(np.linalg.norm(gal)), rvec.ravel()


def _banded_cholesky_solve(a: SparseSymmetric, f: np.ndarray, keys: np.ndarray):
    """Cholesky solve after a geometric bandwidth-reducing permutation."""
    order = np.lexsort(tuple(keys[:, k] for k in range(keys.shape[1] - 1, -1, -1)))
    csr = a.matrix.tocsr()
    ap = csr[order][:, order].tocoo()
    i, j, v = ap.row, ap.col, ap.data
    lower = i >= j
    i, j, v = i[lower], j[lower], v[lower]
    bw = int(np.max(i - j)) if i.size else 0
    n = a.n
    ab = np.zeros((bw + 1, n), dtype=v.dtype)
    ab[i - j, j] = v
    try:
        cb = scipy.linalg.cholesky_banded(ab, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        raise NotPositiveDefinite(str(err)) from err
    x = scipy.linalg.cho_solve_banded((cb, True), f[order], check_finite=False)
    out = np.empty_like(x)
    out[order] = x
    return out


def solve_ne(a: SparseSymmetric, f: np.ndarray, ctx: AssemblyContext, precondition: bool = True) -> Solution:
    """Normal-equation path: A u = f by Cholesky, on the elimination tree
    over the blocks of ``a``, or banded for a system without blocks (S* S)."""
    scale = None
    if precondition and a.n:
        a, f, scale = precondition_global(a, f)
    if not a.n:
        u = np.zeros(0, dtype=f.dtype)
    elif a.blocks is None:
        u = _banded_cholesky_solve(a, f, ctx.sort_keys())
    else:
        u = solve_blocked_ne(a.blocks, f, a.n, a.scale)[0]
    if scale is not None:
        u = u * scale.astype(u.dtype)
    full = _recover(ctx, u, "NE")
    eta, rnorm, gal, rvec = _indicators(ctx, full, "NE")
    return Solution(full, "NE", eta, rnorm, gal, u, ctx, rvec)


def solve_ls(bt: RectangularRowBlocked, ltilde: np.ndarray, ctx: AssemblyContext, precondition: bool = True) -> Solution:
    """Least-squares path: min ||Btilde u - ltilde|| by Householder QR.

    ``ltilde`` is the load assembled from ``ctx``: the residual indicators
    and the bubble recovery use the element loads stored in the context.
    """
    scale = None
    if precondition and bt.n_cols:
        bt, ltilde, scale = precondition_global_rect(bt, ltilde)
    u, r_diag = solve_blocked_ls(bt.stacks, ltilde, bt.n_cols, bt.scale)
    if scale is not None:
        u = u * scale.astype(u.dtype)
    full = _recover(ctx, u, "QR")
    eta, rnorm, gal, rvec = _indicators(ctx, full, "QR")
    sol = Solution(full, "QR", eta, rnorm, gal, u, ctx, rvec)
    if r_diag.size:
        sol.r_diag_min, sol.r_diag_max = float(r_diag.min()), float(r_diag.max())
    return sol


def residual_rho(bt: RectangularRowBlocked, ltilde: np.ndarray, solution: Solution) -> float:
    """rho = ||Btilde u - ltilde|| / (||Btilde||_2 ||u||_2) of Eq.-(3.14) type.

    ||Btilde||_2 comes from a power iteration on the Gram matrix
    Btilde* Btilde (:meth:`RectangularRowBlocked.normal_matrix`, built once
    per set of panels and shared with the condition diagnostic): a fixed
    start (seed 1234), at most 60 steps, stopped at a 1e-10 relative change.
    The cap usually ends it before convergence: on the finer ultraweak
    levels the norm reads low by 0.5-0.7% against Lanczos, and rho high by
    the same factor.  The iteration is kept as it is on purpose: a sharper
    estimate moves the benchmark's gated ``rho`` column, which is to be
    re-recorded only together with a change of the benchmark reference.
    """
    u = solution.system_vector.astype(np.complex128 if np.iscomplexobj(ltilde) else np.float64)
    unorm = float(np.linalg.norm(u))
    resid = float(np.linalg.norm(bt.matvec(u) - ltilde))
    if unorm == 0.0 and float(np.linalg.norm(ltilde)) == 0.0:
        raise ZeroSolution("rho undefined for zero solution of zero load")
    gram = bt.normal_matrix().matrix
    n = bt.n_cols
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    smax = 0.0
    for _ in range(60):
        y = gram @ x
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


def _accumulate_norms(form, mesh_obj, coeffs, ctx_layouts, offsets, rule, exact=None, case=None):
    """Element-quadrature L2/H1/H(div) norms per component, in two dicts:
    those of u_h - u_exact, and those of u_exact (u_h = 0, bit for bit)."""
    h = mesh_obj.h
    w = rule.weights * h * h
    origins = mesh_obj.element_origins()
    px = origins[:, 0:1] + h * rule.points[None, :, 0]
    py = origins[:, 1:2] + h * rule.points[None, :, 1]
    sq, sq_exact = {}, {}

    def integrate(key, pairs):
        """Quadrature of sum |f_h - f|^2 and of sum |f|^2 over (f_h, f) pairs."""
        sq[key] = float(np.sum(w * sum(np.abs(fh - f) ** 2 for fh, f in pairs)))
        sq_exact[key] = float(
            np.sum(w * sum(np.abs(np.broadcast_to(f, fh.shape)) ** 2 for fh, f in pairs))
        )

    def field(name):
        return exact[name](px, py) if exact and name in exact else 0.0

    comps = form.field_components()
    for comp, lay, off in zip(form.trial, ctx_layouts, offsets):
        if comp not in comps:
            continue
        tabs = basis.eval_basis({"l2": "Y", "h1": "W", "hdiv": "V"}[comp.kind], comp.p, rule.points)
        call = coeffs[off + lay.element_dofs]  # (ne, nloc)
        if comp.kind in ("l2", "h1"):
            integrate(comp.name, [(np.einsum("ei,ip->ep", call, tabs["values"]), field(comp.name))])
            if comp.kind == "h1":
                gx = np.einsum("ei,ip->ep", call, tabs["grad"][:, 0, :]) / h
                gy = np.einsum("ei,ip->ep", call, tabs["grad"][:, 1, :]) / h
                integrate(comp.name + "_grad", [(gx, field("sigx")), (gy, field("sigy"))])
        else:  # hdiv vector component
            vx = np.einsum("ei,ip->ep", call, tabs["values"][:, 0, :]) / h
            vy = np.einsum("ei,ip->ep", call, tabs["values"][:, 1, :]) / h
            dv = np.einsum("ei,ip->ep", call, tabs["div"]) / (h * h)
            if exact is not None and case is not None and case.kind == "poisson":
                ex_d = case.div_sigma(px, py)
            else:
                ex_d = 0.0
            integrate(comp.name, [(vx, field("sigx")), (vy, field("sigy"))])
            integrate(comp.name + "_div", [(dv, ex_d)])

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

    return norms(sq), norms(sq_exact)


def error_norms(solution: Solution, case, form, mesh_obj, extra_order: int = 2) -> dict:
    """Absolute and relative error norms by element quadrature.

    Uses a rule two orders above the assembly rule.  Relative norms divide
    by the matching norm of the exact solution.
    """
    ctx = solution.context
    rule = basis.gauss_rule(form.quadrature_order + extra_order)
    errs, refs = _accumulate_norms(
        form, mesh_obj, solution.coefficients, ctx.layouts, ctx.offsets, rule,
        exact=case.fields, case=case,
    )
    out = dict(errs)
    for key, val in errs.items():
        ref = refs.get(key, 0.0)
        out[key + "_rel"] = val / ref if ref > 0 else math.inf if val > 0 else 0.0
    return out


def discrete_norms(form, mesh_obj, ctx: AssemblyContext, coeffs: np.ndarray, extra_order: int = 2) -> dict:
    """Norms of a discrete function given by trial coefficients."""
    rule = basis.gauss_rule(form.quadrature_order + extra_order)
    return _accumulate_norms(form, mesh_obj, coeffs, ctx.layouts, ctx.offsets, rule)[0]
