"""The per-element classical FOSLS assembly that
:func:`dlsfem.studies.assemble_fosls_monolithic` replaced: one dense
(n_total, n_total) matrix, element matrices added one element at a time in
a Python loop.  Kept as the reference its sparse successor is checked
against.
"""

from __future__ import annotations

import numpy as np

from dlsfem import basis
from dlsfem.assembly import trial_layouts
from dlsfem.formulation import make_formulation


def assemble_fosls_monolithic(mesh, p: int, case):
    """Classical first-order-system least-squares stiffness and load.

    A_ij = (L u_j, L u_i)_L2 with L(u, sigma) = (-div sigma + alpha u,
    sigma - grad u); no test space is discretized.  Uses the same trial
    layout and quadrature as the fosls-strong formulation at dp = 1.
    Returns the dense (A, f) over every DOF and the free (non-Dirichlet)
    DOF ids.
    """
    form = make_formulation("fosls-strong", p, 1, alpha=case.alpha)
    rule = basis.gauss_rule(form.quadrature_order)
    layouts, offsets = trial_layouts(mesh, form)
    n_total = int(offsets[-1] + layouts[-1].n_total)
    gdofs_all = np.concatenate(
        [lay.element_dofs + off for lay, off in zip(layouts, offsets)], axis=1
    )
    h = mesh.h
    wv, wg = basis.w_table(p, rule.points)
    vv, vd = basis.v_table(p, rule.points)
    nu, ns = wv.shape[0], vv.shape[0]
    nloc = nu + ns
    npts = rule.n_points
    origins = mesh.element_origins()
    px = origins[:, 0:1] + h * rule.points[None, :, 0]
    py = origins[:, 1:2] + h * rule.points[None, :, 1]

    # residual component tables: c0 = -div sigma + alpha u, (c1, c2) = sigma - grad u
    c0 = np.zeros((nloc, npts))
    c1 = np.zeros((nloc, npts))
    c2 = np.zeros((nloc, npts))
    c0[nu:] = -vd / (h * h)
    c1[:nu] = -wg[:, 0, :] / h
    c2[:nu] = -wg[:, 1, :] / h
    c1[nu:] = vv[:, 0, :] / h
    c2[nu:] = vv[:, 1, :] / h

    w = rule.weights * h * h
    a = np.zeros((n_total, n_total))
    rhs = np.zeros(n_total)
    variable_alpha = callable(case.alpha)
    if not variable_alpha:
        c0u = c0.copy()
        if case.alpha:
            c0u[:nu] += case.alpha * wv
        a_master = (
            np.einsum("ip,p,jp->ij", c0u, w, c0u)
            + np.einsum("ip,p,jp->ij", c1, w, c1)
            + np.einsum("ip,p,jp->ij", c2, w, c2)
        )
    fvals = case.f(px, py)
    for e in range(mesh.n_elements):
        gd = gdofs_all[e]
        if variable_alpha:
            c0e = c0.copy()
            c0e[:nu] += case.alpha(px[e], py[e]) * wv
            a_k = (
                np.einsum("ip,p,jp->ij", c0e, w, c0e)
                + np.einsum("ip,p,jp->ij", c1, w, c1)
                + np.einsum("ip,p,jp->ij", c2, w, c2)
            )
        else:
            c0e = c0u
            a_k = a_master
        a[np.ix_(gd, gd)] += a_k
        rhs[gd] += np.einsum("ip,p->i", c0e, w * fvals[e])

    fixed = np.zeros(n_total, dtype=bool)
    fixed[layouts[0].boundary_dofs] = True   # u component leads the layout
    return a, rhs, np.flatnonzero(~fixed)
