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

Forms are data.  A space kind's master channels are its master basis
values and derivatives at the quadrature points, [y] for l2, [w, grad w]
for h1 and [div v, v] for hdiv, each with its derivative order k: the
physical channel is master / h^k (grad w / h; Piola v / h, div v / h^2).
The kernels read h times the physical channels, [h y], [h w, grad w] and
[div v / h, v], so an element integral (a, b)_K = h^2 sum_q w_q a_q b_q is
the master sum sum_q w_q A_q B_q of the channels.  The error norms (solve)
scale a coefficient sum over a master channel by 1 / h^k, and the classical
FOSLS system (studies) reads the physical channels.  On an edge the broken
test kinds carry the edge measure h instead: h v, and v.n (the Piola 1/h
cancels h); the trial traces are the trace tables, a flux one signed by the
outward normal.

A volume term (test, channel, trial, channel, coefficient) adds the
coefficient times its sum to the (test, trial) block of B; the coefficient
"alpha" is the reaction coefficient, and a callable one is left to the
element pipeline as ``alpha_var``.  An edge term (test, trial, sign) adds
sign times its sum on each of the four edges.  Each test Gram block sums
its component's channel products (the physical L2, H1 or H(div) norm) and
is real symmetric, as the bases are real, even for complex acoustics; a
conforming test space has the identity.  The load rows are h times channel
0 of the load component.  The kernels are built once per (mesh size,
quadrature rule); uniform meshes make them element independent except for
load rows and variable-coefficient blocks.
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
class Component:
    name: str
    kind: str    # space kind from dlsfem.mesh
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
    volume_terms: tuple             # (test, channel, trial, channel, coefficient)
    load_component: str             # test component whose rows carry the load
    edge_terms: tuple = ()          # (test, trial, sign)
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


def _components(p, **kinds):
    return tuple(Component(name, kind, p) for name, kind in kinds.items())


def make_formulation(name: str, p: int, dp: int, alpha=0.0, omega=None) -> Formulation:
    """Build one of the five supported formulations."""
    if p < 1 or dp < 0:
        raise UnsupportedCombination("need p >= 1 and dp >= 0")
    t = p + dp
    if name == "fosls-strong":
        return Formulation(
            name=name, field="real", p=p, dp=dp,
            trial=_components(p, u="h1", sigma="hdiv"),
            test=_components(t, v="l2_broken", taux="l2_broken", tauy="l2_broken"),
            # -(div sigma, v) + (alpha u, v) and (sigma, tau) - (grad u, tau)
            volume_terms=(
                ("v", 0, "sigma", 0, -1), ("v", 0, "u", 0, "alpha"),
                ("taux", 0, "sigma", 1, 1), ("tauy", 0, "sigma", 2, 1),
                ("taux", 0, "u", 1, -1), ("tauy", 0, "u", 2, -1),
            ),
            load_component="v", alpha=alpha, dirichlet_component="u",
        )
    if name == "primal-dpg":
        return Formulation(
            name=name, field="real", p=p, dp=dp,
            trial=_components(p, u="h1", sighat_n="trace_flux"),
            test=_components(t, v="h1_broken"),
            # (grad u, grad v) - <sighat_n, v>
            volume_terms=(("v", 1, "u", 1, 1), ("v", 2, "u", 2, 1)),
            edge_terms=(("v", "sighat_n", -1),),
            load_component="v", dirichlet_component="u",
        )
    if name == "ultraweak-dpg":
        return Formulation(
            name=name, field="real", p=p, dp=dp,
            trial=_components(
                p, u="l2", sigx="l2", sigy="l2", uhat="trace_h1", sighat_n="trace_flux"
            ),
            test=_components(t, v="h1_broken", tau="hdiv_broken"),
            # (sigma, grad v + tau) + (u, div tau) - <sighat_n, v> - <uhat, tau.n>
            volume_terms=(
                ("v", 1, "sigx", 0, 1), ("v", 2, "sigy", 0, 1),
                ("tau", 1, "sigx", 0, 1), ("tau", 2, "sigy", 0, 1), ("tau", 0, "u", 0, 1),
            ),
            edge_terms=(("v", "sighat_n", -1), ("tau", "uhat", -1)),
            load_component="v", dirichlet_component="uhat",
        )
    if name == "bubnov-galerkin":
        return Formulation(
            name=name, field="real", p=p, dp=0,
            trial=_components(p, u="h1"),
            test=_components(p, u="h1"),
            volume_terms=(("u", 1, "u", 1, 1), ("u", 2, "u", 2, 1)),
            load_component="u", dirichlet_component="u", test_conforming=True,
        )
    if name == "acoustics-ultraweak":
        omega = float(omega) if omega is not None else RESONANCE_OMEGA
        iw = 1j * omega
        return Formulation(
            name=name, field="complex", p=p, dp=dp,
            trial=_components(
                p, pres="l2", ux="l2", uy="l2", phat="trace_h1", uhat_n="trace_flux"
            ),
            test=_components(t, q="h1_broken", v="hdiv_broken"),
            # -(p, i w q) - (p, div v) - (u, i w v) - (u, grad q) + <uhat_n, q>
            # + <phat, v.n>; conjugation on the test argument flips the sign of i w
            volume_terms=(
                ("q", 0, "pres", 0, iw), ("v", 0, "pres", 0, -1),
                ("v", 1, "ux", 0, iw), ("v", 2, "uy", 0, iw),
                ("q", 1, "ux", 0, -1), ("q", 2, "uy", 0, -1),
            ),
            edge_terms=(("q", "uhat_n", 1), ("v", "phat", 1)),
            load_component="q", omega=omega, dirichlet_component="uhat_n",
        )
    raise UnsupportedCombination(f"unknown formulation {name!r}")


# ---------------------------------------------------------------------------
# Master element kernels
# ---------------------------------------------------------------------------

def master_channels(kind: str, p: int, points: np.ndarray):
    """A kind's master channel table (n, c, q) and each channel's derivative
    order k: the physical channel is the master one over h^k."""
    if kind in ("l2", "l2_broken"):
        return basis.y_table(p, points)[:, None], (0,)
    if kind in ("h1", "h1_broken"):
        vals, grads = basis.w_table(p, points)
        return np.concatenate([vals[:, None], grads], axis=1), (0, 1, 1)
    vals, divs = basis.v_table(p, points)
    return np.concatenate([divs[:, None], vals], axis=1), (2, 1, 1)


def scale_h(t: np.ndarray, e: int, h: float) -> np.ndarray:
    """h^e t for e in 1, 0, -1, -2, rounded as h * t, t, t / h and t / (h * h)."""
    return h * t if e == 1 else t if e == 0 else t / h if e == -1 else t / (h * h)


def channels(kind: str, p: int, points: np.ndarray, h: float, e: int = 1) -> np.ndarray:
    """h^e times the physical channels of a kind's master basis, shape (n, c, q)."""
    tab, orders = master_channels(kind, p, points)
    return np.stack([scale_h(tab[:, c], e - k, h) for c, k in enumerate(orders)], axis=1)


def _edge_channels(kind: str, p: int, t: np.ndarray, h: float) -> list:
    """A kind's traces on the four local edges; broken test kinds carry the measure h."""
    if kind == "trace_h1":
        return basis.trace_h1_edge_tables(p, t)
    if kind == "trace_flux":
        return [s * tab for s, tab in zip(EDGE_NORMAL_SIGNS, basis.trace_flux_edge_tables(p, t))]
    edges = [basis.edge_points(le, t) for le in range(4)]
    if kind == "h1_broken":
        return [h * basis.w_table(p, pts)[0] for pts in edges]
    return [
        np.einsum("icp,c->ip", basis.v_table(p, pts)[0], n)
        for pts, n in zip(edges, basis.EDGE_NORMALS)
    ]


def _vol(test_tab, trial_tab, w):
    return np.einsum("ip,p,jp->ij", test_tab, w, trial_tab)


def _build_kernels(form: Formulation, h: float, rule: QuadratureRule) -> dict:
    tsl, usl = form.test_slices(), form.trial_slices()
    test = {c.name: c for c in form.test}
    trial = {c.name: c for c in form.trial}
    tables = {}

    def table(comp, edge=False):
        key = (comp.kind, comp.p, edge)
        if key not in tables:
            make = _edge_channels if edge else channels
            tables[key] = make(comp.kind, comp.p, rule.points_1d if edge else rule.points, h)
        return tables[key]

    n_test = form.n_test_local
    if form.test_conforming:
        g = np.eye(n_test)
    else:
        g = np.zeros((n_test, n_test))
        for c in form.test:
            tab = table(c)
            # rounds as channel 0 + (channel 1 + channel 2): singular dp = 0 NEs hinge on it
            g[tsl[c.name], tsl[c.name]] = sum(
                _vol(tab[:, k], tab[:, k], rule.weights) for k in reversed(range(tab.shape[1]))
            )

    b = np.zeros((n_test, form.n_trial_local), dtype=form.dtype)
    alpha_var = None
    for vname, vc, uname, uc, coef in form.volume_terms:
        v_tab, u_tab = table(test[vname])[:, vc], table(trial[uname])[:, uc]
        if coef == "alpha" and form.has_variable_alpha:
            alpha_var = dict(rows=tsl[vname], cols=usl[uname], test_tab=v_tab, trial_tab=u_tab)
            continue
        coef = form.alpha if coef == "alpha" else coef
        if coef:
            b[tsl[vname], usl[uname]] += coef * _vol(v_tab, u_tab, rule.weights)
    for le in range(4):
        for vname, uname, sign in form.edge_terms:
            v_tab, u_tab = table(test[vname], True)[le], table(trial[uname], True)[le]
            b[tsl[vname], usl[uname]] += sign * _vol(v_tab, u_tab, rule.weights_1d)

    load = test[form.load_component]
    return {
        "G": g,
        "B": b,
        "alpha_var": alpha_var,
        "load_rows": tsl[load.name],
        "load_table": h * table(load)[:, 0],
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
