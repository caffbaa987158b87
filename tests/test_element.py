import numpy as np
import pytest

from dlsfem import linalg
from dlsfem.element import (
    NonpositiveDiagonal,
    RankDeficientBubbles,
    apply_dirichlet,
    condense_ls,
    condense_ne,
    element_ne,
    precondition_gram,
    recover_bubbles,
    recover_bubbles_ne,
    whiten,
)
from dlsfem.basis import gauss_rule
from dlsfem.formulation import make_case, make_formulation
from dlsfem.mesh import uniform_mesh

from dense_reference import least_squares_qr, saddle_solve
from element_reference import compute_element


def random_system(rng, m=12, n=7, dtype=np.float64):
    g = rng.standard_normal((m, m))
    if np.issubdtype(dtype, np.complexfloating):
        g = g + 1j * rng.standard_normal((m, m))
    g = (g @ g.conj().T + m * np.eye(m)).astype(dtype)
    b = rng.standard_normal((m, n)).astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        b = b + 1j * rng.standard_normal((m, n)).astype(dtype)
    ell = rng.standard_normal(m).astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        ell = ell + 1j * rng.standard_normal(m).astype(dtype)
    return g, b, ell


class TestPreconditionGram:
    def test_unit_diagonal_unchanged(self):
        g = np.array([[1.0, 0.3], [0.3, 1.0]])
        b = np.ones((2, 2))
        g2, b2, l2, d = precondition_gram(g, b, np.ones(2))
        np.testing.assert_allclose(g2, g)
        np.testing.assert_allclose(b2, b)
        np.testing.assert_allclose(d, 1.0)

    def test_diag_4_9(self):
        # rows are scaled by D^{-1/2}: the whitened system (and hence the
        # normal equation B* G^-1 B) is exactly invariant
        g = np.diag([4.0, 9.0])
        b = np.ones((2, 3))
        g2, b2, l2, d = precondition_gram(g, b, np.ones(2))
        np.testing.assert_allclose(np.diag(g2), 1.0)
        np.testing.assert_allclose(b2[0], 0.5)
        np.testing.assert_allclose(b2[1], 1.0 / 3.0)

    def test_argmin_invariance(self):
        rng = np.random.default_rng(17)
        g, b, ell = random_system(rng)
        # scale G badly to make the preconditioning nontrivial
        s = np.diag(10.0 ** rng.uniform(-3, 3, size=g.shape[0]))
        g, b, ell = s @ g @ s, s @ b, s @ ell
        bt0, lt0 = whiten(g, b, ell)
        x0 = least_squares_qr(bt0, lt0)
        g2, b2, l2, _ = precondition_gram(g, b, ell)
        bt1, lt1 = whiten(g2, b2, l2)
        x1 = least_squares_qr(bt1, lt1)
        np.testing.assert_allclose(x1, x0, rtol=0, atol=1e-12 * np.linalg.norm(x0))

    def test_nonpositive_diagonal(self):
        with pytest.raises(NonpositiveDiagonal):
            precondition_gram(np.diag([1.0, 0.0]), np.ones((2, 1)), np.ones(2))


class TestWhiten:
    def test_identity_gram(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((5, 3))
        bt, lt = whiten(np.eye(5), b, np.ones(5))
        np.testing.assert_allclose(bt, b)

    def test_scalar_gram(self):
        b = np.ones((1, 2))
        bt, _ = whiten(np.array([[4.0]]), b, np.ones(1))
        np.testing.assert_allclose(bt, b / 2.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_whitening_identity(self, dtype):
        rng = np.random.default_rng(5)
        g, b, ell = random_system(rng, dtype=dtype)
        bt, lt = whiten(g, b, ell)
        # oracle: explicit inverse column by column via solve_spd
        ginv_b = np.column_stack([linalg.solve_spd(g, b[:, j]) for j in range(b.shape[1])])
        ref = b.conj().T @ ginv_b
        got = bt.conj().T @ bt
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


class TestElementNe:
    def test_orthonormal_columns(self):
        q = np.linalg.qr(np.random.default_rng(1).standard_normal((8, 3)))[0]
        a, f = element_ne(q, np.zeros(8))
        np.testing.assert_allclose(a, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(f, 0.0)

    def test_eigenvalues_are_squared_singular_values(self):
        rng = np.random.default_rng(2)
        bt = rng.standard_normal((10, 4))
        a, _ = element_ne(bt, np.zeros(10))
        lam = np.sort(np.linalg.eigvalsh(a))
        sig = np.sort(np.linalg.svd(bt, compute_uv=False) ** 2)
        np.testing.assert_allclose(lam, sig, rtol=1e-12)


class TestApplyDirichlet:
    def test_homogeneous_drops_columns(self):
        rng = np.random.default_rng(6)
        bt = rng.standard_normal((6, 4))
        lt = rng.standard_normal(6)
        b2, l2, free = apply_dirichlet(bt, lt, [1], np.zeros(4))
        np.testing.assert_array_equal(free, [0, 2, 3])
        np.testing.assert_allclose(l2, lt)
        np.testing.assert_allclose(b2, bt[:, [0, 2, 3]])

    def test_all_fixed_degenerate(self):
        rng = np.random.default_rng(7)
        bt = rng.standard_normal((5, 2))
        lt = rng.standard_normal(5)
        lift = np.array([1.0, -2.0])
        b2, l2, free = apply_dirichlet(bt, lt, [0, 1], lift)
        assert b2.shape[1] == 0
        np.testing.assert_allclose(l2, lt - bt @ lift)

    def test_against_saddle_oracle(self):
        # elimination equals the KKT system with C picking the fixed DOFs
        rng = np.random.default_rng(8)
        g, b, ell = random_system(rng, m=14, n=6)
        bt, lt = whiten(g, b, ell)
        fixed = np.array([1, 4])
        lift_vals = rng.standard_normal(2)
        lift = np.zeros(6)
        lift[fixed] = lift_vals
        b2, l2, free = apply_dirichlet(bt, lt, fixed, lift)
        u_free = least_squares_qr(b2, l2)
        a = bt.conj().T @ bt
        c = np.eye(6)[fixed]
        u_sad, _ = saddle_solve(a, c, bt.conj().T @ lt, lift_vals)
        full = lift.copy()
        full[free] = u_free
        np.testing.assert_allclose(full, u_sad, atol=1e-10)


class TestCondensation:
    def partitioned(self, rng, m=20, nb=5, ni=6, dtype=np.float64):
        g, b, ell = random_system(rng, m=m, n=nb + ni, dtype=dtype)
        bt, lt = whiten(g, b, ell)
        return bt, lt, np.arange(nb), np.arange(nb, nb + ni)

    def test_no_bubbles_identity(self):
        rng = np.random.default_rng(9)
        bt, lt, _, _ = self.partitioned(rng, nb=0, ni=5)
        cond = condense_ls(bt, lt, np.zeros(0, dtype=int), np.arange(5))
        np.testing.assert_allclose(cond.rows, bt)
        np.testing.assert_allclose(cond.rhs, lt)

    def test_orthogonal_interface_unchanged(self):
        rng = np.random.default_rng(10)
        q = np.linalg.qr(rng.standard_normal((12, 8)))[0]
        b_bubb, b_int = q[:, :3], q[:, 3:7]
        bt = np.hstack([b_bubb, b_int])
        lt = rng.standard_normal(12)
        cond = condense_ls(bt, lt, np.arange(3), np.arange(3, 7))
        np.testing.assert_allclose(cond.rows, b_int, atol=1e-13)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_ls_roundtrip_matches_full_solve(self, dtype):
        rng = np.random.default_rng(11)
        bt, lt, bub, intf = self.partitioned(rng, dtype=dtype)
        full = least_squares_qr(bt, lt)
        cond = condense_ls(bt, lt, bub, intf)
        u_i = least_squares_qr(cond.rows, cond.rhs)
        u_b = recover_bubbles(cond, u_i)
        np.testing.assert_allclose(u_i, full[intf], atol=1e-11 * np.linalg.norm(full))
        np.testing.assert_allclose(u_b, full[bub], atol=1e-11 * np.linalg.norm(full))

    def test_projector_algebra(self):
        rng = np.random.default_rng(12)
        bt, lt, bub, intf = self.partitioned(rng)
        cond = condense_ls(bt, lt, bub, intf)
        p = cond.q_bubb @ cond.q_bubb.conj().T
        assert np.linalg.norm(p @ p - p) <= 1e-12
        assert np.linalg.norm(p - p.conj().T) <= 1e-12
        # I - P equals Q_interf Q_interf* from the full QR
        q_full, _ = np.linalg.qr(np.hstack([bt[:, bub], np.eye(bt.shape[0])])[:, : bt.shape[0]])
        q_interf = q_full[:, len(bub):]
        recon = q_interf @ q_interf.conj().T
        assert np.linalg.norm((np.eye(bt.shape[0]) - p) - recon) <= 1e-12

    def test_rank_deficient_bubbles(self):
        bt = np.zeros((6, 3))
        bt[:, 2] = 1.0
        with pytest.raises(RankDeficientBubbles):
            condense_ls(bt, np.ones(6), np.arange(2), np.array([2]))

    def test_schur_scalar(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        schur = condense_ne(a, np.zeros(2), np.array([0]), np.array([1]))
        assert schur.schur[0, 0] == pytest.approx(1.5)

    def test_schur_no_coupling(self):
        a = np.diag([2.0, 3.0, 4.0])
        schur = condense_ne(a, np.ones(3), np.array([0]), np.array([1, 2]))
        np.testing.assert_allclose(schur.schur, np.diag([3.0, 4.0]))

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_ne_equals_ls_condensation(self, dtype):
        # Schur complement of the normal equation coincides with the
        # normal equation of the projected rows
        rng = np.random.default_rng(13)
        bt, lt, bub, intf = self.partitioned(rng, dtype=dtype)
        a, f = element_ne(bt, lt)
        schur = condense_ne(a, f, bub, intf)
        cond = condense_ls(bt, lt, bub, intf)
        a_ls = cond.rows.conj().T @ cond.rows
        f_ls = cond.rows.conj().T @ cond.rhs
        assert np.linalg.norm(schur.schur - a_ls) <= 1e-11 * np.linalg.norm(a_ls)
        rhs_schur = f[intf] - (
            cond.rows.conj().T @ (bt[:, bub] @ np.linalg.solve(a[np.ix_(bub, bub)], f[bub]))
        )
        u1 = linalg.solve_spd(schur.schur, schur.rhs)
        u2 = least_squares_qr(cond.rows, cond.rhs)
        np.testing.assert_allclose(u1, u2, atol=1e-11 * max(np.linalg.norm(u2), 1))

    def test_ne_recovery_matches_ls(self):
        rng = np.random.default_rng(14)
        bt, lt, bub, intf = self.partitioned(rng)
        a, f = element_ne(bt, lt)
        schur = condense_ne(a, f, bub, intf)
        u_i = linalg.solve_spd(schur.schur, schur.rhs)
        u_b = recover_bubbles_ne(schur, u_i)
        full = least_squares_qr(bt, lt)
        np.testing.assert_allclose(u_b, full[bub], atol=1e-11 * np.linalg.norm(full))

    def test_recover_zero_when_residual_orthogonal(self):
        rng = np.random.default_rng(15)
        bt, lt, bub, intf = self.partitioned(rng)
        cond = condense_ls(bt, lt, bub, intf)
        # choose interface values so the remaining load is already projected
        u_i = rng.standard_normal(len(intf))
        resid = cond.ltilde - cond.b_interf @ u_i
        proj = resid - cond.q_bubb @ (cond.q_bubb.conj().T @ resid)
        cond2 = condense_ls(bt, proj + cond.b_interf @ u_i, bub, intf)
        u_b = recover_bubbles(cond2, u_i)
        np.testing.assert_allclose(u_b, 0.0, atol=1e-12)

    def test_zero_load_zero_interface_zero_bubbles(self):
        rng = np.random.default_rng(16)
        bt, _, bub, intf = self.partitioned(rng)
        cond = condense_ls(bt, np.zeros(bt.shape[0]), bub, intf)
        u_b = recover_bubbles(cond, np.zeros(len(intf)))
        np.testing.assert_allclose(u_b, 0.0)


class TestComputeElement:
    def test_fosls_gram_diagonal_single_element(self):
        form = make_formulation("fosls-strong", p=1, dp=1)
        case = make_case("poisson-sine")
        mesh = uniform_mesh(1)
        rule = gauss_rule(form.quadrature_order)
        sys = compute_element(form, mesh, 0, case, rule)
        off = sys.g - np.diag(np.diag(sys.g))
        assert np.abs(off).max() <= 1e-13 * np.diag(sys.g).max()

    def test_primal_gradgrad_block_hand_quadrature(self):
        # p=1 vertex functions on an h element: exact bilinear integrals
        form = make_formulation("primal-dpg", p=1, dp=0)
        case = make_case("poisson-sine")
        mesh = uniform_mesh(2)
        rule = gauss_rule(form.quadrature_order)
        sys = compute_element(form, mesh, 0, case, rule)
        usl = form.trial_slices()
        block = sys.b[:, usl["u"]][:4, :4]
        # classical bilinear element stiffness (h-independent)
        ref = (1.0 / 6.0) * np.array(
            [[4, -1, -2, -1], [-1, 4, -1, -2], [-2, -1, 4, -1], [-1, -2, -1, 4]]
        )
        np.testing.assert_allclose(block, ref, atol=1e-13)

    def test_zero_load_gives_zero_l(self):
        form = make_formulation("ultraweak-dpg", p=1, dp=1)
        case = make_case("poisson-sine")

        class ZeroCase:
            f = staticmethod(lambda x, y: np.zeros_like(x))

        mesh = uniform_mesh(2)
        rule = gauss_rule(form.quadrature_order)
        sys = compute_element(form, mesh, 0, ZeroCase(), rule)
        np.testing.assert_allclose(sys.l, 0.0)
