import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from dlsfem import element, linalg
from dlsfem.assembly import (
    Options,
    _scale_columns,
    assemble_ne,
    assemble_overdetermined,
    build_context,
    build_square_context,
    precondition_global,
    precondition_global_rect,
)
from dlsfem.formulation import ManufacturedCase, make_case, make_formulation
from dlsfem.blockqr import solve_blocked_ls
from dlsfem.mesh import uniform_mesh
from dlsfem.solve import (
    NORM_EXTRA_ORDER,
    Solution,
    ZeroSolution,
    discrete_norms,
    error_norms,
    residual_rho,
    solve_ls,
    solve_ne,
)
from dlsfem.studies import assemble_fosls_monolithic

import norms_reference
from dense_reference import ConstraintSystem, solve_saddle_constraints, solve_weighted_constraints
from interpolate_reference import interpolate_case
from window_reference import solve_window_ls

POISSON_FORMULATIONS = ["fosls-strong", "primal-dpg", "ultraweak-dpg"]


def _solve_both(fname, n, p, dp, cname="poisson-sine", options=None):
    form = make_formulation(fname, p=p, dp=dp)
    case = make_case(cname)
    mesh = uniform_mesh(n)
    ctx = build_context(mesh, form, case, options)
    bt, lt = assemble_overdetermined(ctx)
    return (
        solve_ne(assemble_ne(ctx)[0], ctx),
        solve_ls(bt, ctx),
        (form, case, mesh, ctx, bt, lt),
    )


class TestAgreement:
    @pytest.mark.parametrize("fname", POISSON_FORMULATIONS)
    @pytest.mark.parametrize("n,p", [(2, 1), (2, 3), (8, 2), (16, 1)])
    def test_ne_qr_coefficient_agreement(self, fname, n, p):
        sol_ne, sol_qr, _ = _solve_both(fname, n, p, 1)
        diff = np.linalg.norm(sol_ne.coefficients - sol_qr.coefficients)
        assert diff <= 1e-8 * np.linalg.norm(sol_qr.coefficients)

    def test_agreement_without_condensation(self):
        sol_ne, sol_qr, _ = _solve_both(
            "ultraweak-dpg", 4, 2, 1, options=Options(condense=False)
        )
        diff = np.linalg.norm(sol_ne.coefficients - sol_qr.coefficients)
        assert diff <= 1e-8 * np.linalg.norm(sol_qr.coefficients)

    def test_condensed_equals_uncondensed(self):
        _, sol_c, _ = _solve_both("ultraweak-dpg", 4, 2, 1)
        _, sol_u, _ = _solve_both(
            "ultraweak-dpg", 4, 2, 1, options=Options(condense=False)
        )
        diff = np.linalg.norm(sol_c.coefficients - sol_u.coefficients)
        assert diff <= 1e-10 * np.linalg.norm(sol_u.coefficients)


class TestSolutionInvariants:
    @pytest.mark.parametrize("fname", POISSON_FORMULATIONS + ["acoustics-ultraweak"])
    def test_indicator_decomposition(self, fname):
        cname = "acoustics-resonance" if fname.startswith("acou") else "poisson-sine"
        _, sol_qr, _ = _solve_both(fname, 4, 2, 1, cname)
        total = math.sqrt(float(np.sum(sol_qr.eta**2)))
        assert total == pytest.approx(sol_qr.residual_norm, rel=1e-12)

    def test_galerkin_orthogonality(self):
        sol_ne, sol_qr, (form, case, mesh, ctx, bt, lt) = _solve_both(
            "ultraweak-dpg", 4, 2, 1
        )
        scale = math.sqrt(float(bt.col_norms_sq().sum())) * np.linalg.norm(lt)
        assert sol_qr.galerkin_residual <= 1000 * np.finfo(np.float64).eps * scale

    def test_consistent_single_element(self):
        # load in the range of the operator: residual at round-off level
        form = make_formulation("fosls-strong", p=2, dp=1)
        case = make_case("poisson-sine")
        mesh = uniform_mesh(1)
        ctx = build_context(mesh, form, case, Options(condense=False))
        bt = assemble_overdetermined(ctx)[0]
        ui = interpolate_case(ctx, case)
        lt_consistent = bt.matvec(ui[ctx.solve_ids])
        # the context stores the consistent element loads, and the system
        # assembled from it carries them
        rows = lt_consistent.reshape(mesh.n_elements, -1)
        ctx.classes = [dataclasses.replace(c, lt=rows[c.elements]) for c in ctx.classes]
        sol = solve_ls(assemble_overdetermined(ctx)[0], ctx)
        assert sol.residual_norm <= 1e-12

    def test_zero_load_zero_solution(self):
        form = make_formulation("primal-dpg", p=1, dp=1)
        case = make_case("poisson-sine")

        zero_case = ManufacturedCase(
            name="zero",
            kind="poisson",
            fields=case.fields,
            f=lambda x, y: np.zeros_like(x),
            boundary_value=lambda x, y: np.zeros_like(x),
        )
        ctx = build_context(uniform_mesh(2), form, zero_case)
        sol = solve_ne(assemble_ne(ctx)[0], ctx)
        np.testing.assert_allclose(sol.coefficients, 0.0, atol=1e-14)


class TestLiftIndependence:
    def test_two_lifts_same_total_solution(self):
        # boundary data from u = 1 + x + y (harmonic, f = 0); perturbing the
        # lift by an interior (homogeneous) function must not change the sum
        form = make_formulation("primal-dpg", p=2, dp=1)

        def u_exact(x, y):
            return 1.0 + x + y

        case = ManufacturedCase(
            name="affine",
            kind="poisson",
            fields={
                "u": u_exact,
                "sigx": lambda x, y: np.ones_like(x),
                "sigy": lambda x, y: np.ones_like(x),
            },
            f=lambda x, y: np.zeros_like(x),
            boundary_value=u_exact,
        )
        mesh = uniform_mesh(2)
        ctx = build_context(mesh, form, case)
        sol_a = solve_ls(assemble_overdetermined(ctx)[0], ctx)
        # second lift: same boundary values plus an interior perturbation
        rng = np.random.default_rng(0)
        ctx2 = build_context(mesh, form, case)
        perturb = np.zeros(ctx2.n_total)
        free_u = np.setdiff1d(
            np.arange(ctx2.layouts[0].n_total), ctx2.layouts[0].boundary_dofs
        )
        perturb[free_u] = rng.standard_normal(free_u.size)
        ctx2.lift_full = ctx2.lift_full + perturb
        ctx2.classes = [
            dataclasses.replace(cls, lt=cls.lt - perturb[cls.free_ids] @ cls.bt.T)
            for cls in ctx2.classes
        ]
        sol_b = solve_ls(assemble_overdetermined(ctx2)[0], ctx2)
        diff = np.linalg.norm(sol_a.coefficients - sol_b.coefficients)
        assert diff <= 1e-10 * np.linalg.norm(sol_a.coefficients)
        err = error_norms(sol_a)
        assert err["u_l2_rel"] <= 1e-12   # affine data is in the space


class TestConstraints:
    def _unconstrained_setup(self, n=2):
        form = make_formulation("primal-dpg", p=1, dp=1)
        case = make_case("poisson-sine")
        mesh = uniform_mesh(n)
        # no Dirichlet component: every boundary DOF stays a solve column
        free = dataclasses.replace(form, dirichlet_component=None)
        ctx = build_context(mesh, free, case, Options(condense=False))
        return form, case, mesh, ctx, assemble_overdetermined(ctx)[0], assemble_ne(ctx)[0]

    def _boundary_constraints(self, ctx, alpha):
        lay = ctx.layouts[0]
        fixed = lay.boundary_dofs
        c = np.zeros((fixed.size, ctx.n_solve))
        c[np.arange(fixed.size), ctx.solve_index[fixed]] = 1.0
        return ConstraintSystem(c=c, d=np.zeros(fixed.size), alpha=alpha)

    def test_full_pinning(self):
        form, case, mesh, ctx, bt, a = self._unconstrained_setup()
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal(ctx.n_solve)
        cons = ConstraintSystem(c=np.eye(ctx.n_solve), d=u0, alpha=1e8)
        sol = solve_weighted_constraints(bt, cons, ctx)
        assert np.linalg.norm(sol.system_vector - u0) <= 1e-6 * np.linalg.norm(u0)

    def test_alpha_zero_is_unconstrained(self):
        # needs a well-posed base problem, so keep the BC elimination and
        # constrain something else
        form = make_formulation("primal-dpg", p=1, dp=1)
        case = make_case("poisson-sine")
        ctx = build_context(uniform_mesh(2), form, case, Options(condense=False))
        bt = assemble_overdetermined(ctx)[0]
        c = np.zeros((1, ctx.n_solve))
        c[0, 0] = 1.0
        cons = ConstraintSystem(c=c, d=np.array([3.0]), alpha=0.0)
        sol = solve_weighted_constraints(bt, cons, ctx)
        ref = solve_ls(bt, ctx)
        np.testing.assert_allclose(
            sol.system_vector, ref.system_vector, atol=1e-10 * np.linalg.norm(ref.system_vector)
        )

    def test_constraint_residual_monotone_in_alpha(self):
        form, case, mesh, ctx, bt, a = self._unconstrained_setup()
        resids = []
        for alpha in (1e2, 1e4, 1e6):
            cons = self._boundary_constraints(ctx, alpha)
            sol = solve_weighted_constraints(bt, cons, ctx)
            resids.append(np.linalg.norm(cons.c @ sol.system_vector - cons.d))
        assert resids[1] < resids[0] and resids[2] < resids[1]

    def test_weighting_matches_elimination(self):
        # Dirichlet by weighting at alpha = 1e8 vs. column elimination
        form, case, mesh, ctx, bt, a = self._unconstrained_setup()
        cons = self._boundary_constraints(ctx, alpha=1e8)
        sol_w = solve_weighted_constraints(bt, cons, ctx)
        ctx_e = build_context(mesh, form, case, Options(condense=False))
        sol_e = solve_ls(assemble_overdetermined(ctx_e)[0], ctx_e)
        diff = np.linalg.norm(sol_w.coefficients - sol_e.coefficients)
        assert diff <= 1e-6 * np.linalg.norm(sol_e.coefficients)

    def test_saddle_empty_constraints_is_ne(self):
        form = make_formulation("primal-dpg", p=1, dp=1)
        case = make_case("poisson-sine")
        ctx = build_context(uniform_mesh(2), form, case, Options(condense=False))
        a = assemble_ne(ctx)[0]
        cons = ConstraintSystem(c=np.zeros((0, ctx.n_solve)), d=np.zeros(0))
        sol, w = solve_saddle_constraints(a, cons, ctx)
        ref = solve_ne(a, ctx)
        np.testing.assert_allclose(sol.system_vector, ref.system_vector, atol=1e-11)
        assert w.size == 0

    def test_saddle_matches_elimination(self):
        form, case, mesh, ctx, bt, a = self._unconstrained_setup()
        cons = self._boundary_constraints(ctx, alpha=1.0)
        sol_s, w = solve_saddle_constraints(a, cons, ctx)
        ctx_e = build_context(mesh, form, case, Options(condense=False))
        sol_e = solve_ls(assemble_overdetermined(ctx_e)[0], ctx_e)
        diff = np.linalg.norm(sol_s.coefficients - sol_e.coefficients)
        assert diff <= 1e-9 * np.linalg.norm(sol_e.coefficients)

    def test_saddle_weighting_limit(self):
        form, case, mesh, ctx, bt, a = self._unconstrained_setup()
        cons_s = self._boundary_constraints(ctx, alpha=1.0)
        sol_s, _ = solve_saddle_constraints(a, cons_s, ctx)
        cons_w = self._boundary_constraints(ctx, alpha=1e8)
        sol_w = solve_weighted_constraints(bt, cons_w, ctx)
        diff = np.linalg.norm(sol_s.system_vector - sol_w.system_vector)
        assert diff <= 1e-5 * max(np.linalg.norm(sol_s.system_vector), 1.0)

    def test_random_saddle_block_residual(self):
        rng = np.random.default_rng(23)
        form, case, mesh, ctx, bt, a = self._unconstrained_setup()
        c = rng.standard_normal((3, ctx.n_solve))
        cons = ConstraintSystem(c=c, d=rng.standard_normal(3))
        sol, w = solve_saddle_constraints(a, cons, ctx)
        ad = a.to_dense()
        r1 = ad @ sol.system_vector + c.T @ w - a.rhs
        r2 = c @ sol.system_vector - cons.d
        scale = np.linalg.norm(ad) * np.linalg.norm(sol.system_vector)
        assert np.linalg.norm(r1) <= 1e-11 * max(scale, 1.0)
        assert np.linalg.norm(r2) <= 1e-11 * max(np.linalg.norm(cons.d), 1.0)


# every formulation with the case a study solves it on
LOAD_SYSTEMS = [
    ("fosls-strong", 1, "poisson-sine"),
    ("primal-dpg", 1, "poisson-sine"),
    ("ultraweak-dpg", 1, "poisson-sine"),
    ("acoustics-ultraweak", 1, "acoustics-resonance"),
    ("bubnov-galerkin", 0, "poisson-sine10"),
]


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("condense", [True, False])
@pytest.mark.parametrize("fname,dp,cname", LOAD_SYSTEMS)
def test_assembled_load_is_the_stored_load(fname, dp, cname, condense, precision):
    """The loads that the assembled systems carry are, bit for bit, the ones
    the context stores.  Btilde's rows and its stacks carry the element
    loads (their condensed rows when condensed), A's blocks the loads of the
    element normal equations (their Schur loads when condensed), and ltilde
    and f are their sums; a square system carries its right-hand side l and
    S* l.  So the indicators of solve_ls, which read the stored loads, are
    those of the load it solved for."""
    form = make_formulation(fname, p=2, dp=dp)
    ctx = build_context(uniform_mesh(3), form, make_case(cname), Options(condense=condense, precision=precision))
    bt, lt = assemble_overdetermined(ctx)
    a, f = assemble_ne(ctx)
    assert lt is bt.rhs and f is a.rhs
    ne = ctx.mesh.n_elements
    eta = np.zeros(ne)
    sol = solve_ls(bt, ctx)
    if ctx.square is not None:
        stored = ctx.square.rhs
        np.testing.assert_array_equal(lt, stored)
        for st in bt.stacks:
            np.testing.assert_array_equal(st.loads, stored[st.rows])
        np.testing.assert_array_equal(f, ctx.square.matrix.conj().T @ stored)
        blocks = ctx.square.blocks
    else:
        rows = lt.reshape(ne, -1)
        hom = sol.coefficients - ctx.lift_full
        for c, st in zip(ctx.classes, bt.stacks):
            stored = c.cond_ls.rhs if condense else c.lt
            np.testing.assert_array_equal(rows[c.elements], stored)
            np.testing.assert_array_equal(st.loads, stored)
            u = hom[c.free_ids].astype(c.bt.dtype)
            eta[c.elements] = np.linalg.norm(c.lt - linalg.matvec(c.bt, u), axis=-1)
        blocks = a.blocks
    # the element normal equations' loads, and f (S* S's S of a square system) their sum
    f_sum = np.zeros(ctx.n_solve, dtype=f.dtype)
    for c, st in zip(ctx.classes, blocks):
        stored = c.cond_ne.rhs if condense else c.lt if c.square else element.element_ne(c.bt, c.lt)[1]
        np.testing.assert_array_equal(st.loads, stored)
        np.add.at(f_sum, st.cols, stored)
    np.testing.assert_array_equal(ctx.square.rhs if ctx.square is not None else f, f_sum)
    tol = 100.0 * np.finfo(lt.dtype).eps * np.linalg.norm(lt)
    np.testing.assert_allclose(sol.eta, eta, rtol=0, atol=tol)
    assert abs(sol.residual_norm - np.linalg.norm(lt - bt.matvec(sol.system_vector))) <= tol


def power_rho(bt, solution):
    """rho with ||Btilde||_2 from the power iteration on Btilde, then
    Btilde*, through CSR copies of Btilde: the reference for residual_rho,
    which runs the same iteration on the Gram Btilde* Btilde, applied on
    the stacks' Grams (on S* S for a square system)."""
    ltilde = bt.rhs
    op = bt.to_coo().tocsr()
    op_adj = op.conj().T.tocsr()
    u = solution.system_vector.astype(np.complex128 if np.iscomplexobj(ltilde) else np.float64)
    unorm = float(np.linalg.norm(u))
    resid = float(np.linalg.norm(op @ u - ltilde))
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(bt.n_cols)
    x /= np.linalg.norm(x)
    smax = 0.0
    for _ in range(60):
        y = op_adj @ (op @ x)
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
    if smax * unorm <= 1e-8 * resid:
        return math.inf
    return resid / (smax * unorm)


RHO_SYSTEMS = {
    # name: (formulation, p, n, case, precision)
    "ultraweak-p2": ("ultraweak-dpg", 2, 8, "poisson-sine", "double"),
    "acoustics": ("acoustics-ultraweak", 2, 6, "acoustics-resonance", "double"),
    "bubnov": ("bubnov-galerkin", 2, 8, "poisson-sine10", "double"),
    "failure-single": ("ultraweak-dpg", 1, 16, "poisson-quartic", "single"),
    # per-element (E, M, k) panels, whose Grams form an (E, k, k) stack
    "fosls-variable-alpha": ("fosls-strong", 2, 8, "poisson-alpha-sine", "double"),
}


def with_load(bt, load):
    """Btilde carrying another load over its rows."""
    return dataclasses.replace(bt, stacks=[dataclasses.replace(st, loads=load[st.rows]) for st in bt.stacks])


class TestRho:
    @pytest.mark.parametrize("name", list(RHO_SYSTEMS))
    def test_gram_power_iteration_matches_operator_pair(self, name):
        fname, p, n, cname, precision = RHO_SYSTEMS[name]
        case = make_case(cname)
        form = make_formulation(fname, p=p, dp=1, alpha=case.alpha)
        ctx = build_context(uniform_mesh(n), form, case, Options(precision=precision))
        bt = assemble_overdetermined(ctx)[0]
        per_element = any(st.panel.ndim == 3 and st.panel.shape[-2] > 1 for st in bt.stacks)
        assert per_element == (name == "fosls-variable-alpha")
        sol = solve_ls(bt, ctx)
        if ctx.square is not None:
            # a square system leaves a round-off residual, which the two
            # product orders round differently; off the solution it is defined
            assert abs(residual_rho(bt, sol) - power_rho(bt, sol)) <= 1000 * np.finfo(float).eps
            rng = np.random.default_rng(5)
            u = sol.system_vector * (1.0 + 1e-3 * rng.standard_normal(bt.n_cols))
            sol = dataclasses.replace(sol, system_vector=u)
        want = power_rho(bt, sol)
        assert 0.0 < want < math.inf
        assert residual_rho(bt, sol) == pytest.approx(want, rel=1e-12, abs=0)

    def test_consistent_load_gives_tiny_rho(self):
        form = make_formulation("fosls-strong", p=2, dp=1)
        case = make_case("poisson-sine")
        mesh = uniform_mesh(2)
        ctx = build_context(mesh, form, case, Options(condense=False))
        bt = assemble_overdetermined(ctx)[0]
        ui = interpolate_case(ctx, case)
        bt_c = with_load(bt, bt.matvec(ui[ctx.solve_ids]))
        sol = solve_ls(bt_c, ctx)
        assert residual_rho(bt_c, sol) <= 1e-12

    def test_orthogonal_load_reports_inf(self):
        form = make_formulation("primal-dpg", p=1, dp=1)
        case = make_case("poisson-sine")
        mesh = uniform_mesh(2)
        ctx = build_context(mesh, form, case, Options(condense=False))
        bt = assemble_overdetermined(ctx)[0]
        dense = bt.to_dense()
        q, _ = np.linalg.qr(dense)
        rng = np.random.default_rng(3)
        r = rng.standard_normal(bt.n_rows)
        bt_perp = with_load(bt, r - q @ (q.T @ r))
        sol = solve_ls(bt_perp, ctx)
        assert residual_rho(bt_perp, sol) == math.inf

    def test_zero_solution_of_zero_load_raises(self):
        form = make_formulation("primal-dpg", p=1, dp=1)
        case = make_case("poisson-sine")
        ctx = build_context(uniform_mesh(2), form, case, Options(condense=False))
        bt = assemble_overdetermined(ctx)[0]
        bt = with_load(bt, np.zeros(bt.n_rows))
        sol = solve_ls(bt, ctx)
        with pytest.raises(ZeroSolution):
            residual_rho(bt, sol)

    def test_rho_decreases_under_refinement(self):
        form = make_formulation("ultraweak-dpg", p=2, dp=1)
        case = make_case("poisson-sine")
        rhos = []
        for n in (1, 2, 4, 8):
            ctx = build_context(uniform_mesh(n), form, case)
            bt = assemble_overdetermined(ctx)[0]
            rhos.append(residual_rho(bt, solve_ls(bt, ctx)))
        assert all(b < a for a, b in zip(rhos, rhos[1:]))


class TestErrorNorms:
    def test_zero_solution_gives_exact_norm(self):
        # ||u||_L2 of sin sin is exactly 1/2
        form = make_formulation("primal-dpg", p=1, dp=1)
        case = make_case("poisson-sine")
        mesh = uniform_mesh(4)
        ctx = build_context(mesh, form, case)
        zero = Solution(
            np.zeros(ctx.n_total), "QR", np.zeros(mesh.n_elements), 0.0, 0.0,
            np.zeros(ctx.n_solve), ctx,
        )
        err = error_norms(zero)
        assert err["u_l2"] == pytest.approx(0.5, abs=1e-12)

    def test_exact_polynomial_injection(self):
        # quartic solution lies in the p=5 trial space: zero error
        form = make_formulation("fosls-strong", p=5, dp=1)
        case = make_case("poisson-quartic")
        mesh = uniform_mesh(2)
        ctx = build_context(mesh, form, case)
        ui = interpolate_case(ctx, case)
        sol = Solution(ui, "QR", np.zeros(mesh.n_elements), 0.0, 0.0, ui[ctx.solve_ids], ctx)
        err = error_norms(sol)
        assert err["u_l2"] <= 1e-12
        assert err["U"] <= 1e-12

    @pytest.mark.parametrize("fname,p", [("ultraweak-dpg", 1), ("ultraweak-dpg", 2),
                                         ("fosls-strong", 1), ("fosls-strong", 2)])
    def test_l2_field_rate(self, fname, p):
        form = make_formulation(fname, p=p, dp=1)
        case = make_case("poisson-sine")
        errs = []
        for n in (4, 8, 16):
            mesh = uniform_mesh(n)
            ctx = build_context(mesh, form, case)
            errs.append(error_norms(solve_ls(assemble_overdetermined(ctx)[0], ctx))["fields_l2_rel"])
        rate = np.polyfit(np.log([4, 8, 16]), np.log(errs), 1)[0]
        assert -rate == pytest.approx(p, abs=0.3)


# one manufactured case per formulation, every case of make_case among them
NORM_CASES = {
    "fosls-strong": "poisson-alpha-sine",
    "primal-dpg": "poisson-sine10",
    "ultraweak-dpg": "poisson-quartic",
    "bubnov-galerkin": "poisson-sine",
    "acoustics-ultraweak": "acoustics-resonance",
}


def _norm_context(fname, n, options=None):
    case = make_case(NORM_CASES[fname])
    form = make_formulation(fname, p=2, dp=1, **({"alpha": case.alpha} if fname == "fosls-strong" else {}))
    build = build_square_context if form.test_conforming else build_context
    return build(uniform_mesh(n), form, case, options)


def _bits(norms):
    return {key: float(val).hex() for key, val in norms.items()}


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("condense", [True, False])
@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("fname", list(NORM_CASES))
def test_norms_match_per_point_reference(fname, precision, condense, n):
    # the grid-evaluated, in-place norms equal the per-point formula they
    # replaced bit for bit, on a solution and on random coefficients
    ctx = _norm_context(fname, n, Options(condense=condense, precision=precision))
    sol = solve_ne(assemble_ne(ctx)[0], ctx)
    assert _bits(error_norms(sol)) == _bits(norms_reference.error_norms(ctx, sol.coefficients))
    rng = np.random.default_rng(n)
    coeffs = rng.standard_normal(ctx.n_total)
    if np.iscomplexobj(sol.coefficients):
        coeffs = coeffs + 1j * rng.standard_normal(ctx.n_total)
    assert _bits(discrete_norms(ctx, coeffs)) == _bits(norms_reference.accumulate_norms(ctx, coeffs)[0])


@pytest.mark.parametrize("fname", ["fosls-strong", "acoustics-ultraweak"])
def test_case_data_is_evaluated_on_grid_lines(fname):
    # every evaluation of f, alpha and the exact fields sees at most one
    # coordinate per grid line (n g values), never all n^2 g^2 points
    seen = {}

    def recorder(name, fn):
        def record(x, y):
            seen[name] = max(seen.get(name, 0), np.size(x), np.size(y))
            return fn(x, y)

        return record

    base = make_case(NORM_CASES[fname])
    case = dataclasses.replace(
        base,
        f=recorder("f", base.f),
        fields={key: recorder(key, fn) for key, fn in base.fields.items()},
        alpha=recorder("alpha", base.alpha) if callable(base.alpha) else base.alpha,
    )
    n = 6
    form = make_formulation(fname, p=2, dp=1, **({"alpha": case.alpha} if fname == "fosls-strong" else {}))
    ctx = build_context(uniform_mesh(n), form, case, Options(condense=False))
    error_norms(solve_ne(assemble_ne(ctx)[0], ctx))
    if fname == "fosls-strong":
        assemble_fosls_monolithic(ctx, case)
    assert set(seen) == {"f", *base.fields} | ({"alpha"} if callable(base.alpha) else set())
    g = max(form.quadrature_order + NORM_EXTRA_ORDER, form.p + 3)
    assert max(seen.values()) <= n * g


def test_residual_vector_matches_indicators():
    form = make_formulation("ultraweak-dpg", p=2, dp=1)
    case = make_case("poisson-sine")
    mesh = uniform_mesh(4)
    ctx = build_context(mesh, form, case)
    bt = assemble_overdetermined(ctx)[0]
    sol = solve_ls(bt, ctx)
    assert sol.residual is not None and sol.residual.size == bt.n_rows
    assert np.linalg.norm(sol.residual) == pytest.approx(sol.residual_norm, rel=1e-14)
    # element slices of the residual reproduce eta_K
    for cls in ctx.classes:
        m = cls.cond_ls.rows.shape[0]
        for e in cls.elements:
            sl = sol.residual[e * m : (e + 1) * m]
            assert np.linalg.norm(sl) == pytest.approx(sol.eta[e], rel=1e-10)


# the block QR against dense lstsq on assembled (preconditioned) systems;
# a setting is the precision, with "-uncondensed" for condense=False
REAL_SYSTEMS = [
    ("ultraweak-dpg", 2, 8, "poisson-sine", "double"),
    ("acoustics-ultraweak", 2, 3, "acoustics-resonance", "double"),
    ("ultraweak-dpg", 1, 8, "poisson-sine", "single"),
    # 6 is no power of 2: ragged groups in the tree
    ("acoustics-ultraweak", 2, 6, "acoustics-resonance", "double"),
    # a variable alpha: per-element panels, whose fronts are never shared
    ("fosls-strong", 2, 8, "poisson-alpha-sine", "double"),
    # the element bubbles become private columns of the round-1 fronts
    ("ultraweak-dpg", 2, 6, "poisson-sine", "double-uncondensed"),
]


@pytest.mark.parametrize("fname,p,n,cname,setting", REAL_SYSTEMS)
def test_qr_matches_dense_lstsq_on_assembled_system(fname, p, n, cname, setting):
    precision, _, uncondensed = setting.partition("-")
    case = make_case(cname)
    form = make_formulation(fname, p=p, dp=1, alpha=case.alpha)
    ctx = build_context(uniform_mesh(n), form, case, Options(precision=precision, condense=not uncondensed))
    bt, lt = assemble_overdetermined(ctx)
    sol = solve_ls(bt, ctx)
    scale = precondition_global_rect(bt)
    dense = bt.to_dense() * scale
    wide = np.complex128 if np.iscomplexobj(dense) else np.float64
    m, v = dense.astype(wide), lt.astype(wide)
    ref = np.linalg.lstsq(m, v, rcond=None)[0]
    # least-squares forward error bound: u kappa (1 + kappa ||r|| / (||B|| ||x||))
    sv = np.linalg.svd(m, compute_uv=False)
    kappa = sv[0] / sv[-1]
    eta = np.linalg.norm(v - m @ ref) / (sv[0] * np.linalg.norm(ref))
    bound = 100.0 * np.finfo(dense.dtype).eps * kappa * (1.0 + kappa * eta)
    got = sol.system_vector / scale
    assert np.linalg.norm(got - ref) <= bound * np.linalg.norm(ref)
    assert 0.0 < sol.r_diag_min <= sol.r_diag_max
    if precision == "double":
        sol_ne = solve_ne(assemble_ne(ctx)[0], ctx)
        diff = np.linalg.norm(sol_ne.coefficients - sol.coefficients)
        assert diff <= 1e-10 * np.linalg.norm(sol.coefficients)


@pytest.mark.parametrize("condense", [True, False])
def test_square_system_without_free_columns_solves_to_nothing(condense):
    """Bubnov-Galerkin p=1 on one element fixes every DOF: S is 0 x 0, the
    rectangular system has no stacks, and both solvers return an empty
    system vector with the lift as the solution."""
    form = make_formulation("bubnov-galerkin", p=1, dp=0)
    ctx = build_square_context(uniform_mesh(1), form, make_case("poisson-sine10"), Options(condense=condense))
    bt = assemble_overdetermined(ctx)[0]
    assert ctx.n_solve == 0 and bt.stacks == []
    for sol in (solve_ls(bt, ctx), solve_ne(assemble_ne(ctx)[0], ctx)):
        assert sol.system_vector.size == 0
        np.testing.assert_array_equal(sol.coefficients, ctx.lift_full)


@pytest.mark.parametrize("fname,cname", [
    ("ultraweak-dpg", "poisson-sine"),
    ("fosls-strong", "poisson-alpha-sine"),
    ("primal-dpg", "poisson-sine10"),
    ("acoustics-ultraweak", "acoustics-resonance"),
    ("bubnov-galerkin", "poisson-sine10"),
])
def test_ne_and_qr_report_one_r_diagonal_range(fname, cname):
    """On one tree, the Cholesky factor of D A D and the R of Btilde D have
    the same diagonal magnitudes up to round-off (A = Btilde* Btilde), so
    the two solvers report one range, to 1e-9 relative in double.  The
    banded Cholesky of a square system's S* S reports none."""
    case = make_case(cname)
    form = make_formulation(fname, p=2, dp=1, alpha=case.alpha)
    ctx = build_context(uniform_mesh(4), form, case)
    qr = solve_ls(assemble_overdetermined(ctx)[0], ctx)
    ne = solve_ne(assemble_ne(ctx)[0], ctx)
    assert 0.0 < qr.r_diag_min <= qr.r_diag_max
    if form.test_conforming:
        assert ne.r_diag_min is None and ne.r_diag_max is None
        return
    assert ne.r_diag_min == pytest.approx(qr.r_diag_min, rel=1e-9)
    assert ne.r_diag_max == pytest.approx(qr.r_diag_max, rel=1e-9)


@pytest.mark.parametrize("fname,cname", [
    ("ultraweak-dpg", "poisson-sine"),
    ("fosls-strong", "poisson-sine"),
    ("acoustics-ultraweak", "acoustics-resonance"),
    ("primal-dpg", "poisson-sine10"),
])
def test_dp0_wide_fronts_raise_rank_deficient(fname, cname):
    """At dp = 0 the element panels have fewer rows than columns, so some
    tree fronts are wide; the QR path reports the lost rank as
    RankDeficient."""
    form = make_formulation(fname, p=2, dp=0)
    ctx = build_context(uniform_mesh(8), form, make_case(cname), Options(condense=False))
    bt = assemble_overdetermined(ctx)[0]
    with pytest.raises(linalg.RankDeficient):
        solve_ls(bt, ctx)


def _wide(x):
    return x.astype(np.complex128 if np.iscomplexobj(x) else np.float64)


# the tree QR against the sliding-window QR it replaced, on assembled
# (preconditioned) systems: element classes, per-element panels under a
# variable alpha, complex panels and the square system's one-row panels
WINDOW_SYSTEMS = [
    ("ultraweak-dpg", 2, 16, "poisson-sine"),
    ("fosls-strong", 2, 8, "poisson-alpha-sine"),
    ("acoustics-ultraweak", 2, 6, "acoustics-resonance"),
    ("bubnov-galerkin", 2, 12, "poisson-sine10"),
]


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("fname,p,n,cname", WINDOW_SYSTEMS)
def test_tree_qr_matches_window_reference(fname, p, n, cname, precision):
    """Both QRs are backward stable: in double they agree to 1e-12; in
    single, to twice the least-squares forward error bound
    100 u kappa (1 + kappa ||r|| / (||B|| ||x||)) that each of them meets."""
    case = make_case(cname)
    form = make_formulation(fname, p=p, dp=1, alpha=case.alpha)
    ctx = build_context(uniform_mesh(n), form, case, Options(precision=precision))
    bt, lt = assemble_overdetermined(ctx)
    s = precondition_global_rect(bt)
    got, _ = solve_blocked_ls(bt.stacks, bt.n_cols, s)
    want, _ = solve_window_ls(bt.stacks, bt.n_cols, s, sort_keys=ctx.sort_keys())
    assert got.dtype == want.dtype == s.dtype
    if precision == "double":
        bound = 1e-12
    else:
        ev = np.linalg.eigvalsh(_scale_columns(bt.gram, s.astype(bt.gram.dtype)).toarray())
        kappa = math.sqrt(ev[-1] / ev[0])
        eta = np.linalg.norm(bt.matvec(s * _wide(want)) - lt) / (math.sqrt(ev[-1]) * np.linalg.norm(_wide(want)))
        bound = 2 * 100.0 * np.finfo(got.dtype).eps * kappa * (1.0 + kappa * eta)
        assert bound < 0.1
    assert np.linalg.norm(_wide(got) - want) <= bound * np.linalg.norm(_wide(want))


# solve_ne (the Cholesky on the elimination tree; the banded one before it)
# against a dense Cholesky at small sizes: both are backward stable, so
# they agree to the forward error 100 u kappa(A)
NE_SYSTEMS = [
    ("ultraweak-dpg", 1, 8, "poisson-sine", "double", np.float64),
    ("ultraweak-dpg", 1, 8, "poisson-sine", "single", np.float32),
    ("acoustics-ultraweak", 2, 3, "acoustics-resonance", "double", np.complex128),
    ("acoustics-ultraweak", 2, 3, "acoustics-resonance", "single", np.complex64),
]


@pytest.mark.parametrize("fname,p,n,cname,precision,dtype", NE_SYSTEMS)
def test_banded_ne_matches_dense_cholesky(fname, p, n, cname, precision, dtype):
    form = make_formulation(fname, p=p, dp=1)
    ctx = build_context(uniform_mesh(n), form, make_case(cname), Options(precision=precision))
    a, f = assemble_ne(ctx)
    sol = solve_ne(a, ctx)
    assert sol.system_vector.dtype == dtype
    scale = precondition_global(a)
    a_s = _scale_columns(a.matrix, scale).toarray()
    dense = linalg.solve_spd(a_s, f * scale)
    assert dense.dtype == dtype
    got = _wide(sol.system_vector) / scale
    bound = 100.0 * np.finfo(dtype).eps * np.linalg.cond(_wide(a_s))
    assert bound < 0.1
    assert np.linalg.norm(got - dense) <= bound * np.linalg.norm(_wide(dense))


# the sparse square (Bubnov-Galerkin) system, solved by QR on its rows and by
# Cholesky on S* S, against a dense solve of S: 100 u kappa of the system
# each route factors, kappa(S D^-1/2) and its square
@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("precision", ["double", "single"])
def test_sparse_square_system_matches_dense_solve(p, precision):
    form = make_formulation("bubnov-galerkin", p=p, dp=0)
    ctx = build_square_context(uniform_mesh(8), form, make_case("poisson-sine10"), Options(precision=precision))
    s = ctx.square.matrix
    assert scipy.sparse.issparse(s)
    dense = s.toarray().astype(np.float64)
    ref = np.linalg.solve(dense, ctx.square.rhs.astype(np.float64))
    scale = 1.0 / np.linalg.norm(dense, axis=0)
    kappa = np.linalg.cond(dense * scale)
    eps = np.finfo(s.dtype).eps
    bt, a = assemble_overdetermined(ctx)[0], assemble_ne(ctx)[0]
    for sol, k in ((solve_ls(bt, ctx), kappa), (solve_ne(a, ctx), kappa**2)):
        assert sol.system_vector.dtype == s.dtype
        err = np.linalg.norm((sol.system_vector.astype(np.float64) - ref) / scale)
        assert 100.0 * eps * k < 0.1
        assert err <= 100.0 * eps * k * np.linalg.norm(ref / scale)


def test_square_path_memory_grows_with_the_unknowns():
    """Build, both assemblies and both solves of the square system stay
    sparse: from n=16 to n=32 (4x the unknowns) the traced peak grows less
    than 6x, where a dense S would grow 16x."""
    form = make_formulation("bubnov-galerkin", p=2, dp=0)
    case = make_case("poisson-sine10")
    peaks = []
    for n in (16, 32):
        tracemalloc.start()
        try:
            ctx = build_square_context(uniform_mesh(n), form, case)
            assert scipy.sparse.issparse(ctx.square.matrix)
            solve_ne(assemble_ne(ctx)[0], ctx)
            solve_ls(assemble_overdetermined(ctx)[0], ctx)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 6 * peaks[0]
