"""Variational formulations and manufactured solutions.

Each formulation bundles a trial-space layout, a test-space layout, the
bilinear form b, the load functional, and the test inner product.  All of
them are posed on the unit square with uniform quad meshes:

    fosls-strong        (u, sigma) in H1 x H(div); test (Y^t)^3 with the
                        L2 inner product (diagonal Gram).
    primal-dpg          (u, sighat_n) in H1 x skeleton flux; broken W^t
                        test space with L2 + grad inner product.
    ultraweak-dpg       (u, sigma, uhat, sighat_n); broken W^t x V^t test
                        space with H1 + H(div) inner product.
    bubnov-galerkin     u in H1 with test space equal to the trial space
                        (square system, identity Gram).
    acoustics-ultraweak complex ultraweak first-order acoustics at
                        frequency omega, hard-wall boundary.

Element matrices are produced on the master square once per (mesh size,
formulation) pair; uniform meshes make them element independent except for
load rows and variable-coefficient blocks.

The inner products are Hermitian; bases are real, so Gram matrices are
real symmetric even for the complex acoustics formulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import basis
from .basis import QuadratureRule
from .mesh import EDGE_NORMAL_SIGNS, local_dim


class UnsupportedCombination(Exception):
    """Formulation name/order combination is not available."""


class UnknownCase(Exception):
    """Unknown manufactured-solution name."""


FORMULATION_NAMES = (
    "fosls-strong",
    "primal-dpg",
    "ultraweak-dpg",
    "bubnov-galerkin",
    "acoustics-ultraweak",
)

#: default near-resonance frequency, just above the first hard-wall mode
RESONANCE_OMEGA = 0.5001 * 2.0 * np.pi


@dataclass(frozen=True)
class TrialComponent:
    name: str
    kind: str    # space kind from dlsfem.mesh
    p: int


@dataclass(frozen=True)
class TestComponent:
    name: str
    kind: str
    p: int


@dataclass
class Formulation:
    """One variational formulation with its discretization orders."""

    name: str
    field: str                      # "real" | "complex"
    p: int
    dp: int
    trial: tuple
    test: tuple
    alpha: object = 0.0             # number or callable(x, y) (fosls only)
    omega: Optional[float] = None   # acoustics frequency
    dirichlet_component: Optional[str] = None
    test_conforming: bool = False   # True only for bubnov-galerkin
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def quadrature_order(self) -> int:
        return self.p + self.dp + 2

    @property
    def dtype(self):
        return np.complex128 if self.field == "complex" else np.float64

    @property
    def has_variable_alpha(self) -> bool:
        return callable(self.alpha)

    def trial_sizes(self):
        return [local_dim(c.kind, c.p) for c in self.trial]

    def test_sizes(self):
        return [local_dim(c.kind, c.p) for c in self.test]

    def trial_slices(self):
        return _slices(self.trial_sizes(), [c.name for c in self.trial])

    def test_slices(self):
        return _slices(self.test_sizes(), [c.name for c in self.test])

    @property
    def n_trial_local(self) -> int:
        return sum(self.trial_sizes())

    @property
    def n_test_local(self) -> int:
        return sum(self.test_sizes())

    def field_components(self):
        """Trial components that are fields (not skeleton traces)."""
        return [c for c in self.trial if c.kind in ("h1", "hdiv", "l2")]

    def kernels(self, h: float, rule: QuadratureRule) -> dict:
        key = (round(h, 15), rule.q)
        if key not in self._cache:
            self._cache[key] = _build_kernels(self, h, rule)
        return self._cache[key]


def _slices(sizes, names):
    out = {}
    off = 0
    for name, size in zip(names, sizes):
        out[name] = slice(off, off + size)
        off += size
    return out


def make_formulation(name: str, p: int, dp: int, alpha=0.0, omega=None) -> Formulation:
    """Build one of the five supported formulations."""
    if p < 1 or dp < 0:
        raise UnsupportedCombination("need p >= 1 and dp >= 0")
    t = p + dp
    if name == "fosls-strong":
        return Formulation(
            name=name, field="real", p=p, dp=dp,
            trial=(TrialComponent("u", "h1", p), TrialComponent("sigma", "hdiv", p)),
            test=(
                TestComponent("v", "l2_broken", t),
                TestComponent("taux", "l2_broken", t),
                TestComponent("tauy", "l2_broken", t),
            ),
            alpha=alpha,
            dirichlet_component="u",
        )
    if name == "primal-dpg":
        return Formulation(
            name=name, field="real", p=p, dp=dp,
            trial=(
                TrialComponent("u", "h1", p),
                TrialComponent("sighat_n", "trace_flux", p),
            ),
            test=(TestComponent("v", "h1_broken", t),),
            dirichlet_component="u",
        )
    if name == "ultraweak-dpg":
        return Formulation(
            name=name, field="real", p=p, dp=dp,
            trial=(
                TrialComponent("u", "l2", p),
                TrialComponent("sigx", "l2", p),
                TrialComponent("sigy", "l2", p),
                TrialComponent("uhat", "trace_h1", p),
                TrialComponent("sighat_n", "trace_flux", p),
            ),
            test=(
                TestComponent("v", "h1_broken", t),
                TestComponent("tau", "hdiv_broken", t),
            ),
            dirichlet_component="uhat",
        )
    if name == "bubnov-galerkin":
        return Formulation(
            name=name, field="real", p=p, dp=0,
            trial=(TrialComponent("u", "h1", p),),
            test=(TestComponent("u", "h1", p),),
            dirichlet_component="u",
            test_conforming=True,
        )
    if name == "acoustics-ultraweak":
        return Formulation(
            name=name, field="complex", p=p, dp=dp,
            trial=(
                TrialComponent("pres", "l2", p),
                TrialComponent("ux", "l2", p),
                TrialComponent("uy", "l2", p),
                TrialComponent("phat", "trace_h1", p),
                TrialComponent("uhat_n", "trace_flux", p),
            ),
            test=(
                TestComponent("q", "h1_broken", t),
                TestComponent("v", "hdiv_broken", t),
            ),
            omega=float(omega) if omega is not None else RESONANCE_OMEGA,
            dirichlet_component="uhat_n",
        )
    raise UnsupportedCombination(f"unknown formulation {name!r}")


# ---------------------------------------------------------------------------
# Master element kernels
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Manufactured solutions
# ---------------------------------------------------------------------------

@dataclass
class ManufacturedCase:
    """Closed-form exact solution with derived body force and boundary data.

    ``fields`` maps trial-component names to exact evaluators (vectorized
    over point arrays).  ``boundary_value`` is the scalar Dirichlet trace
    (Poisson cases); ``boundary_flux(x, y, nx, ny)`` is the normal-velocity
    trace for the hard-wall acoustics case.
    """

    name: str
    kind: str                       # "poisson" | "acoustics"
    fields: dict
    f: Callable
    alpha: object = 0.0
    omega: Optional[float] = None
    boundary_value: Optional[Callable] = None
    boundary_flux: Optional[Callable] = None

    def div_sigma(self, x, y):
        """div(grad u) = alpha*u - f, used by H(div) error norms."""
        if self.kind != "poisson":
            raise ValueError("div_sigma is defined for Poisson cases only")
        a = self.alpha(x, y) if callable(self.alpha) else self.alpha
        return a * self.fields["u"](x, y) - self.f(x, y)


def _poisson_case(name, u, gx, gy, f, alpha=0.0):
    return ManufacturedCase(
        name=name,
        kind="poisson",
        fields={"u": u, "sigx": gx, "sigy": gy},
        f=f,
        alpha=alpha,
        boundary_value=u,
    )


def make_case(name: str, omega: Optional[float] = None) -> ManufacturedCase:
    """Manufactured cases used by the experiment studies."""
    if name in ("poisson-sine", "poisson-sine10"):
        k = 1.0 if name == "poisson-sine" else 10.0
        kp = k * np.pi

        def u(x, y):
            return np.sin(kp * x) * np.sin(kp * y)

        return _poisson_case(
            name,
            u,
            lambda x, y: kp * np.cos(kp * x) * np.sin(kp * y),
            lambda x, y: kp * np.sin(kp * x) * np.cos(kp * y),
            lambda x, y: 2.0 * kp * kp * np.sin(kp * x) * np.sin(kp * y),
        )
    if name == "poisson-quartic":

        def g(t):
            return t * t * (1.0 - t) ** 2

        def dg(t):
            return 2.0 * t * (1.0 - t) * (1.0 - 2.0 * t)

        def d2g(t):
            return 2.0 * (1.0 - 6.0 * t + 6.0 * t * t)

        return _poisson_case(
            name,
            lambda x, y: g(x) * g(y),
            lambda x, y: dg(x) * g(y),
            lambda x, y: g(x) * dg(y),
            lambda x, y: -(d2g(x) * g(y) + g(x) * d2g(y)),
        )
    if name == "poisson-alpha-sine":

        def alpha(x, y):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        def u(x, y):
            return np.sin(np.pi * x) * np.sin(np.pi * y)

        return _poisson_case(
            name,
            u,
            lambda x, y: np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            lambda x, y: np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            lambda x, y: 2.0 * np.pi**2 * u(x, y) + alpha(x, y) * u(x, y),
            alpha=alpha,
        )
    if name == "acoustics-resonance":
        om = float(omega) if omega is not None else RESONANCE_OMEGA
        pi = np.pi

        def pres(x, y):
            return np.cos(pi * x) * np.cos(pi * y) + 0j

        def ux(x, y):
            # u = -grad p / (i w)
            return (-1j * pi / om) * np.sin(pi * x) * np.cos(pi * y)

        def uy(x, y):
            return (-1j * pi / om) * np.cos(pi * x) * np.sin(pi * y)

        def f(x, y):
            return 1j * (om - 2.0 * pi * pi / om) * pres(x, y)

        def boundary_flux(x, y, nx, ny):
            return ux(x, y) * nx + uy(x, y) * ny

        return ManufacturedCase(
            name=name,
            kind="acoustics",
            fields={"pres": pres, "ux": ux, "uy": uy},
            f=f,
            omega=om,
            boundary_flux=boundary_flux,
        )
    raise UnknownCase(f"unknown case {name!r}")
