"""The per-point error norms that :func:`dlsfem.solve._accumulate_norms`
replaced: every exact field evaluated at the physical coordinates of all
ne x nq element quadrature points, and each integral formed from fresh
temporaries.  Kept as the reference its grid-evaluated, in-place successor
is checked against bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from dlsfem import basis
from dlsfem.solve import NORM_EXTRA_ORDER


def accumulate_norms(ctx, coeffs, exact=False):
    """L2/H1/H(div) norms per trial component: those of u_h - u_exact (of
    u_h alone unless ``exact``), and those of u_exact (u_h = 0)."""
    form, case, h = ctx.formulation, ctx.case, ctx.mesh.h
    rule = basis.gauss_rule(form.quadrature_order + NORM_EXTRA_ORDER)
    w = rule.weights * h * h
    origins = ctx.mesh.element_origins()
    px = origins[:, 0:1] + h * rule.points[None, :, 0]
    py = origins[:, 1:2] + h * rule.points[None, :, 1]
    sq, sq_exact = {}, {}

    def integrate(key, pairs):
        sq[key] = float(np.sum(w * sum(np.abs(fh - f) ** 2 for fh, f in pairs)))
        sq_exact[key] = float(
            np.sum(w * sum(np.abs(np.broadcast_to(f, fh.shape)) ** 2 for fh, f in pairs))
        )

    fields = case.fields if exact else {}

    def field(name):
        return fields[name](px, py) if name in fields else 0.0

    comps = form.field_components()
    for comp, lay, off in zip(form.trial, ctx.layouts, ctx.offsets):
        if comp not in comps:
            continue
        call = coeffs[off + lay.element_dofs]
        if comp.kind == "l2":
            vals = basis.y_table(comp.p, rule.points)
            integrate(comp.name, [(np.einsum("ei,ip->ep", call, vals), field(comp.name))])
        elif comp.kind == "h1":
            vals, grads = basis.w_table(comp.p, rule.points)
            integrate(comp.name, [(np.einsum("ei,ip->ep", call, vals), field(comp.name))])
            gx = np.einsum("ei,ip->ep", call, grads[:, 0, :]) / h
            gy = np.einsum("ei,ip->ep", call, grads[:, 1, :]) / h
            integrate(comp.name + "_grad", [(gx, field("sigx")), (gy, field("sigy"))])
        else:
            vals, divs = basis.v_table(comp.p, rule.points)
            vx = np.einsum("ei,ip->ep", call, vals[:, 0, :]) / h
            vy = np.einsum("ei,ip->ep", call, vals[:, 1, :]) / h
            dv = np.einsum("ei,ip->ep", call, divs) / (h * h)
            ex_d = case.div_sigma(px, py) if exact and case.kind == "poisson" else 0.0
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


def error_norms(ctx, coeffs) -> dict:
    """:func:`dlsfem.solve.error_norms` of the coefficients ``coeffs``."""
    errs, refs = accumulate_norms(ctx, coeffs, exact=True)
    out = dict(errs)
    for key, val in errs.items():
        ref = refs.get(key, 0.0)
        out[key + "_rel"] = val / ref if ref > 0 else math.inf if val > 0 else 0.0
        out[key + "_exact"] = ref
    return out
