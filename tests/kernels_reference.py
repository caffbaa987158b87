"""The per-formulation master kernels that the term tables replaced.

``_build_kernels`` and ``_vol`` below write the Gram G, the form B, the
load table and the variable-alpha block of each formulation out by hand,
one branch per formulation.  They are kept as the oracle of
``dlsfem.formulation``: its channel tables and term lists must give the
same kernels (``tests/test_formulation.py::test_kernels_match_reference``).
The returned ``load_scale`` and ``alpha_var["scale"]`` carry the h factors
that the library's channel tables fold into the tables themselves.
"""

from __future__ import annotations

import numpy as np

from dlsfem import basis
from dlsfem.basis import QuadratureRule
from dlsfem.formulation import Formulation, UnsupportedCombination
from dlsfem.mesh import EDGE_NORMAL_SIGNS


def _vol(test_tab, trial_tab, w):
    return np.einsum("ip,p,jp->ij", test_tab, w, trial_tab)


def _build_kernels(form: Formulation, h: float, rule: QuadratureRule) -> dict:
    w = rule.weights
    t1 = rule.points_1d
    w1 = rule.weights_1d
    tsl = form.test_slices()
    usl = form.trial_slices()
    n_test, n_trial = form.n_test_local, form.n_trial_local
    g = np.zeros((n_test, n_test))
    b = np.zeros((n_test, n_trial), dtype=form.dtype)
    alpha_var = None

    if form.name == "fosls-strong":
        t = form.p + form.dp
        yv = basis.y_table(t, rule.points)
        wv, wg = basis.w_table(form.p, rule.points)
        vv, vd = basis.v_table(form.p, rule.points)
        # L2 test inner product: diagonal h^2 Gram per component
        gy = h * h * _vol(yv, yv, w)
        for name in ("v", "taux", "tauy"):
            g[tsl[name], tsl[name]] = gy
        # -(div sigma, v) : physical div carries 1/h^2, measure h^2
        b[tsl["v"], usl["sigma"]] = -_vol(yv, vd, w)
        # (alpha u, v)
        if form.has_variable_alpha:
            alpha_var = {
                "rows": tsl["v"],
                "cols": usl["u"],
                "test_tab": yv,
                "trial_tab": wv,
                "scale": h * h,
            }
        elif form.alpha:
            b[tsl["v"], usl["u"]] = (form.alpha * h * h) * _vol(yv, wv, w)
        # (sigma, tau) - (grad u, tau), both with one net factor of h
        b[tsl["taux"], usl["sigma"]] = h * _vol(yv, vv[:, 0, :], w)
        b[tsl["tauy"], usl["sigma"]] = h * _vol(yv, vv[:, 1, :], w)
        b[tsl["taux"], usl["u"]] = -h * _vol(yv, wg[:, 0, :], w)
        b[tsl["tauy"], usl["u"]] = -h * _vol(yv, wg[:, 1, :], w)
        load_rows, load_table, load_scale = tsl["v"], yv, h * h

    elif form.name == "primal-dpg":
        t = form.p + form.dp
        vv, vg = basis.w_table(t, rule.points)
        wv, wg = basis.w_table(form.p, rule.points)
        g[tsl["v"], tsl["v"]] = h * h * _vol(vv, vv, w) + (
            _vol(vg[:, 0, :], vg[:, 0, :], w) + _vol(vg[:, 1, :], vg[:, 1, :], w)
        )
        b[tsl["v"], usl["u"]] = _vol(vg[:, 0, :], wg[:, 0, :], w) + _vol(
            vg[:, 1, :], wg[:, 1, :], w
        )
        flux_tabs = basis.trace_flux_edge_tables(form.p, t1)
        for le in range(4):
            v_edge, _ = basis.w_table(t, basis.edge_points(le, t1))
            b[tsl["v"], usl["sighat_n"]] -= (EDGE_NORMAL_SIGNS[le] * h) * _vol(
                v_edge, flux_tabs[le], w1
            )
        load_rows, load_table, load_scale = tsl["v"], vv, h * h

    elif form.name == "ultraweak-dpg":
        t = form.p + form.dp
        vv, vg = basis.w_table(t, rule.points)
        tv, td = basis.v_table(t, rule.points)
        yv = basis.y_table(form.p, rule.points)
        g[tsl["v"], tsl["v"]] = h * h * _vol(vv, vv, w) + (
            _vol(vg[:, 0, :], vg[:, 0, :], w) + _vol(vg[:, 1, :], vg[:, 1, :], w)
        )
        g[tsl["tau"], tsl["tau"]] = (
            _vol(tv[:, 0, :], tv[:, 0, :], w)
            + _vol(tv[:, 1, :], tv[:, 1, :], w)
            + _vol(td, td, w) / (h * h)
        )
        # (sigma, grad v + tau)
        b[tsl["v"], usl["sigx"]] = h * _vol(vg[:, 0, :], yv, w)
        b[tsl["v"], usl["sigy"]] = h * _vol(vg[:, 1, :], yv, w)
        b[tsl["tau"], usl["sigx"]] = h * _vol(tv[:, 0, :], yv, w)
        b[tsl["tau"], usl["sigy"]] = h * _vol(tv[:, 1, :], yv, w)
        # (u, div tau)
        b[tsl["tau"], usl["u"]] = _vol(td, yv, w)
        trace_tabs = basis.trace_h1_edge_tables(form.p, t1)
        flux_tabs = basis.trace_flux_edge_tables(form.p, t1)
        for le in range(4):
            v_edge, _ = basis.w_table(t, basis.edge_points(le, t1))
            tau_edge, _ = basis.v_table(t, basis.edge_points(le, t1))
            tau_n = np.einsum("icp,c->ip", tau_edge, basis.EDGE_NORMALS[le])
            b[tsl["v"], usl["sighat_n"]] -= (EDGE_NORMAL_SIGNS[le] * h) * _vol(
                v_edge, flux_tabs[le], w1
            )
            # <uhat, tau.n>: Piola 1/h cancels the edge measure h
            b[tsl["tau"], usl["uhat"]] -= _vol(tau_n, trace_tabs[le], w1)
        load_rows, load_table, load_scale = tsl["v"], vv, h * h

    elif form.name == "acoustics-ultraweak":
        t = form.p + form.dp
        om = form.omega
        qv, qg = basis.w_table(t, rule.points)
        vv, vd = basis.v_table(t, rule.points)
        yv = basis.y_table(form.p, rule.points)
        g[tsl["q"], tsl["q"]] = h * h * _vol(qv, qv, w) + (
            _vol(qg[:, 0, :], qg[:, 0, :], w) + _vol(qg[:, 1, :], qg[:, 1, :], w)
        )
        g[tsl["v"], tsl["v"]] = (
            _vol(vv[:, 0, :], vv[:, 0, :], w)
            + _vol(vv[:, 1, :], vv[:, 1, :], w)
            + _vol(vd, vd, w) / (h * h)
        )
        # -(p, i w q): conjugation on the test argument flips the sign of i w
        b[tsl["q"], usl["pres"]] = (1j * om * h * h) * _vol(qv, yv, w)
        # -(p, div v)
        b[tsl["v"], usl["pres"]] = -_vol(vd, yv, w)
        # -(u, i w v)
        b[tsl["v"], usl["ux"]] = (1j * om * h) * _vol(vv[:, 0, :], yv, w)
        b[tsl["v"], usl["uy"]] = (1j * om * h) * _vol(vv[:, 1, :], yv, w)
        # -(u, grad q)
        b[tsl["q"], usl["ux"]] = -h * _vol(qg[:, 0, :], yv, w)
        b[tsl["q"], usl["uy"]] = -h * _vol(qg[:, 1, :], yv, w)
        trace_tabs = basis.trace_h1_edge_tables(form.p, t1)
        flux_tabs = basis.trace_flux_edge_tables(form.p, t1)
        for le in range(4):
            q_edge, _ = basis.w_table(t, basis.edge_points(le, t1))
            v_edge, _ = basis.v_table(t, basis.edge_points(le, t1))
            v_n = np.einsum("icp,c->ip", v_edge, basis.EDGE_NORMALS[le])
            b[tsl["q"], usl["uhat_n"]] += (EDGE_NORMAL_SIGNS[le] * h) * _vol(
                q_edge, flux_tabs[le], w1
            )
            b[tsl["v"], usl["phat"]] += _vol(v_n, trace_tabs[le], w1)
        load_rows, load_table, load_scale = tsl["q"], qv, h * h

    elif form.name == "bubnov-galerkin":
        wv, wg = basis.w_table(form.p, rule.points)
        g = np.eye(n_test)
        b[tsl["u"], usl["u"]] = _vol(wg[:, 0, :], wg[:, 0, :], w) + _vol(
            wg[:, 1, :], wg[:, 1, :], w
        )
        load_rows, load_table, load_scale = tsl["u"], wv, h * h

    else:  # pragma: no cover
        raise UnsupportedCombination(form.name)

    return {
        "G": g,
        "B": b,
        "alpha_var": alpha_var,
        "load_rows": load_rows,
        "load_table": load_table,
        "load_scale": load_scale,
    }
