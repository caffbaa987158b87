import dataclasses

import numpy as np
import pytest

from dlsfem import basis
from dlsfem.assembly import build_context
from dlsfem.formulation import (
    RESONANCE_OMEGA,
    UnknownCase,
    UnsupportedCombination,
    make_case,
    make_formulation,
)
from dlsfem.mesh import uniform_mesh

import interpolate_reference
import kernels_reference
from element_reference import eval_forms


class TestMakeFormulation:
    def test_fosls_layout_dims(self):
        form = make_formulation("fosls-strong", p=2, dp=1)
        assert form.n_test_local == 3 * (2 + 1) ** 2 == 27
        assert [c.kind for c in form.trial] == ["h1", "hdiv"]

    def test_bubnov_galerkin_test_equals_trial(self):
        form = make_formulation("bubnov-galerkin", p=3, dp=2)
        assert form.test_conforming
        assert form.test[0].kind == form.trial[0].kind == "h1"
        assert form.test[0].p == form.trial[0].p == 3

    def test_ultraweak_test_dim(self):
        form = make_formulation("ultraweak-dpg", p=2, dp=1)
        assert form.n_test_local == 16 + 24 == 40

    def test_primal_test_dim(self):
        form = make_formulation("primal-dpg", p=2, dp=1)
        assert form.n_test_local == 16

    def test_acoustics_is_complex(self):
        form = make_formulation("acoustics-ultraweak", p=1, dp=1)
        assert form.field == "complex"
        assert form.omega == pytest.approx(RESONANCE_OMEGA)

    def test_bad_combinations(self):
        with pytest.raises(UnsupportedCombination):
            make_formulation("nope", 1, 1)
        with pytest.raises(UnsupportedCombination):
            make_formulation("primal-dpg", 0, 1)
        with pytest.raises(UnsupportedCombination):
            make_formulation("primal-dpg", 1, -1)


class TestGramProperties:
    @pytest.mark.parametrize(
        "name", ["fosls-strong", "primal-dpg", "ultraweak-dpg", "acoustics-ultraweak"]
    )
    def test_gram_hermitian_and_spd(self, name):
        form = make_formulation(name, p=2, dp=1)
        rule = basis.gauss_rule(form.quadrature_order)
        for h in (1.0, 0.25):
            g = form.kernels(h, rule)["G"]
            scale = np.abs(g).max()
            assert np.abs(g - g.conj().T).max() <= 1e-14 * scale
            assert np.all(np.linalg.eigvalsh(g) > 0)

    def test_fosls_gram_diagonal(self):
        form = make_formulation("fosls-strong", p=2, dp=1)
        rule = basis.gauss_rule(form.quadrature_order)
        g = form.kernels(0.125, rule)["G"]
        off = g - np.diag(np.diag(g))
        assert np.abs(off).max() <= 1e-13 * np.diag(g).max()


def _bump(x, y):
    return 1.0 + x * x * y


def _max_rel(new, old):
    return np.abs(new - old).max() / np.abs(old).max()


@pytest.mark.parametrize("h", [0.5, 1.0 / 96])
@pytest.mark.parametrize("dp", [0, 1, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize(
    "name, alpha",
    [("fosls-strong", 0.0), ("fosls-strong", 0.7), ("fosls-strong", _bump)]
    + [(name, 0.0) for name in
       ("primal-dpg", "ultraweak-dpg", "bubnov-galerkin", "acoustics-ultraweak")],
)
def test_kernels_match_reference(name, alpha, p, dp, h):
    """The term tables give the hand-written kernels to round-off, and
    bitwise at h = 1/2, where every factor h scales exactly."""
    form = make_formulation(name, p, dp, alpha=alpha)
    rule = basis.gauss_rule(form.quadrature_order)
    new = form.kernels(h, rule)
    old = kernels_reference._build_kernels(form, h, rule)
    tol = 0.0 if h == 0.5 else 1e-14
    assert _max_rel(new["G"], old["G"]) <= tol
    assert _max_rel(new["B"], old["B"]) <= tol
    assert new["load_rows"] == old["load_rows"]
    assert _max_rel(new["load_table"], old["load_scale"] * old["load_table"]) <= tol
    assert (new["alpha_var"] is None) == (old["alpha_var"] is None) == (not callable(alpha))
    if callable(alpha):
        wa = rule.weights * alpha(rule.points[:, 0], rule.points[:, 1])
        na, oa = new["alpha_var"], old["alpha_var"]
        assert (na["rows"], na["cols"]) == (oa["rows"], oa["cols"])
        assert _max_rel(
            np.einsum("ip,p,jp->ij", na["test_tab"], wa, na["trial_tab"]),
            oa["scale"] * np.einsum("ip,p,jp->ij", oa["test_tab"], wa, oa["trial_tab"]),
        ) <= tol


class TestEvalForms:
    def test_zero_load_zero_lift(self):
        form = make_formulation("primal-dpg", p=1, dp=1)
        case = make_case("poisson-sine")
        rule = basis.gauss_rule(form.quadrature_order)
        g, b, ell = eval_forms(form, 0.5, rule)
        assert np.all(ell == 0)

    def test_ultraweak_constant_tau_against_constant_u(self):
        # (u, div tau) = 0 when tau is constant
        form = make_formulation("ultraweak-dpg", p=1, dp=0)
        rule = basis.gauss_rule(form.quadrature_order)
        b = form.kernels(0.5, rule)["B"]
        tsl = form.test_slices()
        usl = form.trial_slices()
        vv, _ = basis.v_table(1, rule.points)
        # constant test field tau = (1, 0): bottom+top x-family do not contribute;
        # left+right edge fns phi_0 + phi_1 = 1 in x
        coef = np.zeros(vv.shape[0])
        coef[1] = 1.0   # right edge fn: phi_1(xi) P_0(eta) e_x
        coef[3] = 1.0   # left edge fn: phi_0(xi) P_0(eta) e_x
        vals = np.einsum("i,icp->cp", coef, vv)
        np.testing.assert_allclose(vals[0], 1.0)
        block = b[tsl["tau"], usl["u"]]
        np.testing.assert_allclose(coef @ block, 0.0, atol=1e-14)

    def test_primal_symmetry_gives_energy(self):
        # b(u, v)|_{v=u} = ||grad u||^2 on one element
        form = make_formulation("primal-dpg", p=2, dp=0)
        rule = basis.gauss_rule(form.quadrature_order)
        h = 0.25
        b = form.kernels(h, rule)["B"]
        usl = form.trial_slices()
        rng = np.random.default_rng(3)
        nu = usl["u"].stop - usl["u"].start
        cu = rng.standard_normal(nu)
        energy = cu @ b[:, usl["u"]][: nu] @ cu   # test W^p == trial W^p when dp=0
        wv, wg = basis.w_table(2, rule.points)
        gx = np.einsum("i,ip->p", cu, wg[:, 0, :]) / h
        gy = np.einsum("i,ip->p", cu, wg[:, 1, :]) / h
        ref = np.sum(rule.weights * h * h * (gx**2 + gy**2))
        assert energy == pytest.approx(ref, rel=1e-12)

    def test_fosls_single_element_against_symbolic(self):
        # p=1 FOSLS block cross-checked against exact monomial integration
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        form = make_formulation("fosls-strong", p=1, dp=1)
        rule = basis.gauss_rule(form.quadrature_order)
        b = form.kernels(1.0, rule)["B"]
        # trial: W^1 (4 bilinear) + V^1 (4 edge fns); test: (Y^2)^3
        hats = [(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y]
        # V^1 local order: bottom,right,top,left
        vfns = [
            (0, (1 - y)), (x, 0), (0, y), ((1 - x), 0),
        ]
        leg = [sympy.Integer(1), sympy.sqrt(3) * (2 * x - 1)]
        ytab = [leg[a].subs(x, x) * leg[b_].subs(x, y) for b_ in range(2) for a in range(2)]
        tsl = form.test_slices()
        usl = form.trial_slices()
        # row block: (sigma, taux) - (grad u, taux)
        for i, yv in enumerate(ytab):
            for j, hat in enumerate(hats):
                ref = -sympy.integrate(sympy.diff(hat, x) * yv, (x, 0, 1), (y, 0, 1))
                assert b[tsl["taux"], usl["u"]][i, j] == pytest.approx(float(ref), abs=1e-14)
            for j, (vx, vy) in enumerate(vfns):
                ref = sympy.integrate(vx * yv, (x, 0, 1), (y, 0, 1))
                assert b[tsl["taux"], usl["sigma"]][i, j] == pytest.approx(float(ref), abs=1e-14)
                refd = -sympy.integrate(
                    (sympy.diff(vx, x) + sympy.diff(vy, y)) * yv, (x, 0, 1), (y, 0, 1)
                )
                assert b[tsl["v"], usl["sigma"]][i, j] == pytest.approx(float(refd), abs=1e-14)


class TestManufacturedCases:
    def test_poisson_sine_values(self):
        case = make_case("poisson-sine")
        assert case.fields["u"](np.array([0.5]), np.array([0.5]))[0] == pytest.approx(1.0)
        assert case.f(np.array([0.5]), np.array([0.5]))[0] == pytest.approx(2 * np.pi**2)

    def test_quartic_vanishes_on_boundary(self):
        case = make_case("poisson-quartic")
        t = np.linspace(0, 1, 50)
        for xs, ys in [(t, np.zeros_like(t)), (t, np.ones_like(t)),
                       (np.zeros_like(t), t), (np.ones_like(t), t)]:
            np.testing.assert_allclose(case.fields["u"](xs, ys), 0.0, atol=1e-16)

    def test_unknown_case(self):
        with pytest.raises(UnknownCase):
            make_case("poisson-cubic")

    @pytest.mark.parametrize(
        "name", ["poisson-sine", "poisson-sine10", "poisson-quartic", "poisson-alpha-sine"]
    )
    def test_poisson_force_by_symbolic_differentiation(self, name):
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y")
        exprs = {
            "poisson-sine": sympy.sin(sympy.pi * x) * sympy.sin(sympy.pi * y),
            "poisson-sine10": sympy.sin(10 * sympy.pi * x) * sympy.sin(10 * sympy.pi * y),
            "poisson-quartic": x**2 * (1 - x) ** 2 * y**2 * (1 - y) ** 2,
            "poisson-alpha-sine": sympy.sin(sympy.pi * x) * sympy.sin(sympy.pi * y),
        }
        u = exprs[name]
        alpha = exprs["poisson-alpha-sine"] if name == "poisson-alpha-sine" else 0
        f_expr = -sympy.diff(u, x, 2) - sympy.diff(u, y, 2) + alpha * u
        f_num = sympy.lambdify((x, y), f_expr, "numpy")
        gx_num = sympy.lambdify((x, y), sympy.diff(u, x), "numpy")
        case = make_case(name)
        rng = np.random.default_rng(0)
        xs, ys = rng.random(100), rng.random(100)
        np.testing.assert_allclose(case.f(xs, ys), f_num(xs, ys), atol=1e-12)
        np.testing.assert_allclose(case.fields["sigx"](xs, ys), gx_num(xs, ys), atol=1e-12)

    def test_acoustics_force_by_symbolic_differentiation(self):
        sympy = pytest.importorskip("sympy")
        x, y = sympy.symbols("x y", real=True)
        om = RESONANCE_OMEGA
        p = sympy.cos(sympy.pi * x) * sympy.cos(sympy.pi * y)
        ux = -sympy.diff(p, x) / (sympy.I * om)
        uy = -sympy.diff(p, y) / (sympy.I * om)
        f = sympy.I * om * p + sympy.diff(ux, x) + sympy.diff(uy, y)
        f_num = sympy.lambdify((x, y), f, "numpy")
        ux_num = sympy.lambdify((x, y), ux, "numpy")
        case = make_case("acoustics-resonance")
        rng = np.random.default_rng(1)
        xs, ys = rng.random(100), rng.random(100)
        np.testing.assert_allclose(case.f(xs, ys), f_num(xs, ys), atol=1e-12)
        np.testing.assert_allclose(case.fields["ux"](xs, ys), ux_num(xs, ys), atol=1e-12)

    def test_acoustics_hard_boundary_flux_is_zero(self):
        case = make_case("acoustics-resonance")
        t = np.linspace(0, 1, 20)
        z, o = np.zeros_like(t), np.ones_like(t)
        for xs, ys, nx, ny in [(t, z, 0, -1), (t, o, 0, 1), (z, t, -1, 0), (o, t, 1, 0)]:
            np.testing.assert_allclose(case.boundary_flux(xs, ys, nx, ny), 0.0, atol=1e-14)


@pytest.mark.parametrize(
    "fname,cname",
    [
        ("fosls-strong", "poisson-sine"),
        ("primal-dpg", "poisson-sine"),
        ("ultraweak-dpg", "poisson-sine"),
        ("acoustics-ultraweak", "acoustics-resonance"),
    ],
)
def test_consistency_interpolant_residual_decreases(fname, cname):
    form = make_formulation(fname, p=2, dp=1)
    case = make_case(cname)
    resids = []
    for n in (2, 4, 8):
        ctx = build_context(uniform_mesh(n), form, case)
        ui = interpolate_reference.interpolate_case(ctx, case)
        r2 = 0.0
        for cls in ctx.classes:
            r = cls.lt - ui[cls.free_ids] @ cls.bt.T
            r2 += float(np.sum(np.abs(r) ** 2))
        resids.append(np.sqrt(r2))
    assert resids[1] < resids[0] and resids[2] < resids[1]


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize(
    "fname,cname",
    [
        ("fosls-strong", "poisson-alpha-sine"),
        ("primal-dpg", "poisson-sine10"),
        ("ultraweak-dpg", "poisson-sine"),
        ("acoustics-ultraweak", "acoustics-resonance"),
        ("bubnov-galerkin", "poisson-sine10"),
        pytest.param("fosls-strong", "acoustics-resonance", id="hdiv-sigma"),
    ],
)
def test_interpolant_matches_per_edge_reference(fname, cname, p):
    """The Dirichlet lift, projected onto all boundary edges at once by
    ``assembly.edge_coefficients``, equals the per-edge interpolant on the
    fixed DOFs.  An H(div) Dirichlet component (fosls-strong's sigma, given
    the acoustics case's normal flux) has no edge rule."""
    case = _nonzero_on_boundary(make_case(cname))
    form = make_formulation(fname, p=p, dp=1, alpha=case.alpha)
    if fname == "fosls-strong" and case.kind == "acoustics":
        with pytest.raises(ValueError, match="no edge rule for hdiv"):
            build_context(uniform_mesh(5), dataclasses.replace(form, dirichlet_component="sigma"), case)
        return
    ctx = build_context(uniform_mesh(5), form, case)
    want = interpolate_reference.interpolate_case(ctx, case)[ctx.fixed_mask]
    got = ctx.lift_full[ctx.fixed_mask]
    assert got.dtype == want.dtype
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def _nonzero_on_boundary(case):
    """``case`` plus a smooth field that is nonzero on the boundary, added
    to its fields and its boundary data alike (the cases themselves vanish
    there, which leaves the lift zero)."""
    fields = dict(case.fields)
    if case.kind == "poisson":
        u, gx, gy = fields["u"], fields["sigx"], fields["sigy"]
        fields.update(
            u=lambda x, y: u(x, y) + 1.0 + x * y + 2.0 * y * y,
            sigx=lambda x, y: gx(x, y) + y,
            sigy=lambda x, y: gy(x, y) + x + 4.0 * y,
        )
        return dataclasses.replace(case, fields=fields, boundary_value=fields["u"])
    ux, uy = fields["ux"], fields["uy"]
    fields.update(ux=lambda x, y: ux(x, y) + 1.0 + y * y, uy=lambda x, y: uy(x, y) + x - 0.5)
    return dataclasses.replace(
        case, fields=fields,
        boundary_flux=lambda x, y, nx, ny: fields["ux"](x, y) * nx + fields["uy"](x, y) * ny,
    )
