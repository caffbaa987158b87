"""Interpolation of manufactured solutions into the trial space.

Vertex values are interpolated directly; edge and interior coefficients
come from local L2 projections (edge-wise for traces and normal fluxes,
element-wise for field remainders).  Polynomial data lying in the trial
space is reproduced exactly, which the error-norm tests rely on.
"""

from __future__ import annotations

import numpy as np

from . import basis
from .assembly import AssemblyContext, edge_coefficients
from .basis import gauss_rule


def _h1_like_coeffs(mesh, lay, func, dtype):
    """Vertex interpolation plus edge (and interior) L2 projection."""
    out = edge_coefficients(
        mesh, lay, np.arange(mesh.n_edges), np.arange(mesh.vertices.shape[0]), func, None, dtype
    )
    ker = lay.p - 1
    if lay.kind == "h1" and ker > 0:
        rule = gauss_rule(lay.p + 3)
        wv, _ = basis.w_table(lay.p, rule.points)
        n_int = ker * ker
        int_tab = wv[-n_int:]
        gram = np.einsum("ip,p,jp->ij", int_tab, rule.weights, int_tab)
        origins = mesh.element_origins()
        px = origins[:, 0:1] + mesh.h * rule.points[None, :, 0]
        py = origins[:, 1:2] + mesh.h * rule.points[None, :, 1]
        fv = func(px, py)
        partial = np.einsum(
            "ei,ip->ep", out[lay.element_dofs[:, : wv.shape[0] - n_int]], wv[: wv.shape[0] - n_int]
        )
        rhs = np.einsum("ip,ep->ei", int_tab * rule.weights, fv - partial)
        out[lay.n_total - mesh.n_elements * n_int :] = np.linalg.solve(gram, rhs.T).T.ravel()
    return out


def _hdiv_coeffs(mesh, lay, sigx, sigy, dtype):
    """Edge normal-trace projection plus interior vector-L2 projection."""
    p = lay.p

    def flux(x, y, nx, ny):
        return sigx(x, y) * nx + sigy(x, y) * ny

    out = edge_coefficients(mesh, lay, np.arange(mesh.n_edges), None, None, flux, dtype)
    n_int = 2 * p * (p - 1)
    if n_int == 0:
        return out
    rule = gauss_rule(p + 3)
    vv, _ = basis.v_table(p, rule.points)
    nloc = vv.shape[0]
    int_tab = vv[-n_int:]
    gram = np.einsum("icp,p,jcp->ij", int_tab, rule.weights, int_tab)
    origins = mesh.element_origins()
    px = origins[:, 0:1] + mesh.h * rule.points[None, :, 0]
    py = origins[:, 1:2] + mesh.h * rule.points[None, :, 1]
    sx, sy = sigx(px, py), sigy(px, py)
    edge_part = out[lay.element_dofs[:, : nloc - n_int]]
    part_x = np.einsum("ei,ip->ep", edge_part, vv[: nloc - n_int, 0, :]) / mesh.h
    part_y = np.einsum("ei,ip->ep", edge_part, vv[: nloc - n_int, 1, :]) / mesh.h
    rhs = mesh.h * (
        np.einsum("ip,ep->ei", int_tab[:, 0, :] * rule.weights, sx - part_x)
        + np.einsum("ip,ep->ei", int_tab[:, 1, :] * rule.weights, sy - part_y)
    )
    out[lay.n_total - mesh.n_elements * n_int :] = np.linalg.solve(gram, rhs.T).T.ravel()
    return out


def interpolate_case(ctx: AssemblyContext, case) -> np.ndarray:
    """Trial coefficients approximating the exact solution of ``case``."""
    form = ctx.formulation
    mesh = ctx.mesh
    dtype = np.complex128 if form.field == "complex" else np.float64
    out = np.zeros(ctx.n_total, dtype=dtype)
    scalar_name = "u" if case.kind == "poisson" else "pres"

    def flux(x, y, nx, ny):
        if case.kind == "poisson":
            return case.fields["sigx"](x, y) * nx + case.fields["sigy"](x, y) * ny
        return case.fields["ux"](x, y) * nx + case.fields["uy"](x, y) * ny

    for comp, lay, off in zip(form.trial, ctx.layouts, ctx.offsets):
        sl = slice(off, off + lay.n_total)
        if comp.kind == "l2":
            rule = gauss_rule(comp.p + 3)
            ytab = basis.y_table(comp.p, rule.points)
            origins = mesh.element_origins()
            px = origins[:, 0:1] + mesh.h * rule.points[None, :, 0]
            py = origins[:, 1:2] + mesh.h * rule.points[None, :, 1]
            fv = case.fields[comp.name](px, py)
            out[sl] = np.einsum("ip,ep->ei", ytab * rule.weights, fv).ravel()
        elif comp.kind in ("h1", "trace_h1"):
            out[sl] = _h1_like_coeffs(mesh, lay, case.fields[scalar_name], dtype)
        elif comp.kind == "hdiv":
            out[sl] = _hdiv_coeffs(
                mesh, lay, case.fields["sigx"], case.fields["sigy"], dtype
            )
        elif comp.kind == "trace_flux":
            out[sl] = edge_coefficients(mesh, lay, np.arange(mesh.n_edges), None, None, flux, dtype)
    return out
