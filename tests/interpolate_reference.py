"""Interpolation of manufactured solutions into the trial space, one edge
at a time in Python loops: vertex values directly, edge and interior
coefficients by local L2 projections.  The reference of the Dirichlet lift
(``assembly.edge_coefficients`` projects all boundary edges at once) and
the interpolant of the consistency tests.
"""

from __future__ import annotations

import numpy as np

from dlsfem import basis
from dlsfem.basis import gauss_rule


def _edge_geometry(mesh, eid, t):
    mid = mesh.edge_midpoints[eid]
    horiz = mesh.edge_orientation[eid] == 0
    if horiz:
        x = mid[0] - 0.5 * mesh.h + mesh.h * t
        y = np.full_like(x, mid[1])
        normal = (0.0, 1.0)
        ends = ((mid[0] - 0.5 * mesh.h, mid[1]), (mid[0] + 0.5 * mesh.h, mid[1]))
    else:
        y = mid[1] - 0.5 * mesh.h + mesh.h * t
        x = np.full_like(y, mid[0])
        normal = (1.0, 0.0)
        ends = ((mid[0], mid[1] - 0.5 * mesh.h), (mid[0], mid[1] + 0.5 * mesh.h))
    return x, y, normal, ends


def _h1_like_coeffs(mesh, lay, func, dtype):
    """Vertex interpolation plus edge (and interior) L2 projection."""
    p = lay.p
    out = np.zeros(lay.n_total, dtype=dtype)
    vx, vy = mesh.vertices[:, 0], mesh.vertices[:, 1]
    nv = mesh.vertices.shape[0]
    out[:nv] = func(vx, vy)
    q1 = gauss_rule(p + 3)
    t, w = q1.points_1d, q1.weights_1d
    ker = p - 1
    if ker > 0:
        hats, _ = basis.h1_hierarchical(p, t)
        gram = np.einsum("ip,p,jp->ij", hats[2:], w, hats[2:])
        for eid in range(mesh.n_edges):
            x, y, _, ends = _edge_geometry(mesh, eid, t)
            vals = func(x, y)
            u0 = func(np.array([ends[0][0]]), np.array([ends[0][1]]))[0]
            u1 = func(np.array([ends[1][0]]), np.array([ends[1][1]]))[0]
            resid = vals - (u0 * hats[0] + u1 * hats[1])
            rhs = np.einsum("ip,p->i", hats[2:], w * resid)
            out[nv + eid * ker : nv + (eid + 1) * ker] = np.linalg.solve(gram, rhs)
    if lay.kind == "h1" and ker > 0:
        rule = gauss_rule(p + 3)
        wv, _ = basis.w_table(p, rule.points)
        n_int = ker * ker
        start = lay.n_total - mesh.n_elements * n_int
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
        coeffs = np.linalg.solve(gram, rhs.T).T
        for e in range(mesh.n_elements):
            out[start + e * n_int : start + (e + 1) * n_int] = coeffs[e]
    return out


def _flux_coeffs(mesh, lay, flux_func, dtype, scale=1.0):
    """Edge-wise projection of a normal flux onto the (orthonormal) edge basis."""
    p = lay.p
    out = np.zeros(lay.n_total, dtype=dtype)
    q1 = gauss_rule(p + 3)
    t, w = q1.points_1d, q1.weights_1d
    leg, _ = basis.legendre_shifted(p - 1, t)
    for eid in range(mesh.n_edges):
        x, y, normal, _ = _edge_geometry(mesh, eid, t)
        g = flux_func(x, y, normal[0], normal[1])
        out[eid * p : (eid + 1) * p] = scale * np.einsum("ip,p->i", leg, w * g)
    return out


def _hdiv_coeffs(mesh, lay, sigx, sigy, dtype):
    """Edge normal-trace projection plus interior vector-L2 projection."""
    p = lay.p

    def flux(x, y, nx, ny):
        return sigx(x, y) * nx + sigy(x, y) * ny

    # physical edge basis is P_k / h (Piola), so coefficients pick up h
    out = _flux_coeffs(mesh, lay, flux, dtype, scale=mesh.h)
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
    coeffs = np.linalg.solve(gram, rhs.T).T
    start = lay.n_total - mesh.n_elements * n_int
    for e in range(mesh.n_elements):
        out[start + e * n_int : start + (e + 1) * n_int] = coeffs[e]
    return out


def interpolate_case(ctx, case) -> np.ndarray:
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
        elif comp.kind == "h1":
            out[sl] = _h1_like_coeffs(mesh, lay, case.fields[scalar_name], dtype)
        elif comp.kind == "trace_h1":
            out[sl] = _h1_like_coeffs(mesh, lay, case.fields[scalar_name], dtype)
        elif comp.kind == "hdiv":
            out[sl] = _hdiv_coeffs(
                mesh, lay, case.fields["sigx"], case.fields["sigy"], dtype
            )
        elif comp.kind == "trace_flux":
            out[sl] = _flux_coeffs(mesh, lay, flux, dtype)
    return out
