import numpy as np
import pytest
import scipy.sparse

from dlsfem import linalg
from dlsfem.linalg import (
    NotPositiveDefinite,
    RankDeficient,
    SingularTriangular,
    ZeroMatrix,
    cholesky,
    condition_number,
    eps,
    householder_qr,
    hpd_extreme_eigenpairs,
    hpd_ratio,
    solve_spd,
    triangular_solve,
)

from dense_reference import SingularSaddle, least_squares_qr, saddle_solve

REAL_DTYPES = [np.float32, np.float64]
ALL_DTYPES = [np.float32, np.float64, np.complex64, np.complex128]


def random_matrix(rng, m, n, dtype):
    a = rng.standard_normal((m, n))
    if np.issubdtype(dtype, np.complexfloating):
        a = a + 1j * rng.standard_normal((m, n))
    return a.astype(dtype)


def random_spd(rng, n, dtype, shift=0.5):
    m = random_matrix(rng, n, n, dtype)
    return (m @ m.conj().T + shift * np.eye(n)).astype(dtype)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(cholesky(np.eye(3)), np.eye(3))

    def test_2x2_by_multiplication(self):
        g = np.array([[4.0, 2.0], [2.0, 5.0]])
        ell = cholesky(g)
        np.testing.assert_allclose(ell, [[2.0, 0.0], [1.0, 2.0]])
        np.testing.assert_allclose(ell @ ell.T, g)

    def test_zero_pivot_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[0.0, 0.0], [0.0, 1.0]]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("n", [1, 4, 17])
    def test_roundtrip(self, dtype, n):
        rng = np.random.default_rng(42 + n)
        g = random_spd(rng, n, dtype)
        ell = cholesky(g)
        assert np.all(np.tril(ell) == ell)
        assert np.all(np.real(np.diag(ell)) > 0)
        resid = np.linalg.norm(ell @ ell.conj().T - g) / np.linalg.norm(g)
        assert resid <= 100 * eps(dtype)


class TestTriangularSolve:
    def test_identity(self):
        m = np.arange(6.0).reshape(3, 2)
        np.testing.assert_allclose(triangular_solve(np.eye(3), m), m)

    def test_diagonal_scaling(self):
        ell = np.diag([2.0, 4.0])
        np.testing.assert_allclose(
            triangular_solve(ell, np.array([[2.0], [8.0]])), [[1.0], [2.0]]
        )

    def test_remultiplication_oracle(self):
        rng = np.random.default_rng(3)
        ell = np.tril(rng.standard_normal((5, 5))) + 2 * np.eye(5)
        m = rng.standard_normal((5, 3))
        x = triangular_solve(ell, m)
        kappa = np.linalg.cond(ell)
        assert np.linalg.norm(ell @ x - m) <= 100 * eps(np.float64) * kappa * np.linalg.norm(m)

    def test_singular_raises(self):
        with pytest.raises(SingularTriangular):
            triangular_solve(np.diag([1.0, 0.0]), np.ones(2))


class TestHouseholderQr:
    def test_orthonormal_input(self):
        q0 = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))[0]
        qr = householder_qr(q0)
        np.testing.assert_allclose(np.abs(qr.r), np.eye(3), atol=1e-14)

    def test_column_norm(self):
        qr = householder_qr(np.array([[3.0], [4.0]]))
        assert abs(qr.r[0, 0]) == pytest.approx(5.0)

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("shape", [(8, 3), (64, 32), (12, 12), (5, 1)])
    def test_reconstruction_and_orthogonality(self, dtype, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        m = random_matrix(rng, *shape, dtype)
        qr = householder_qr(m)
        cols = shape[1]
        assert np.linalg.norm(qr.q.conj().T @ qr.q - np.eye(cols)) <= 100 * eps(dtype) * cols
        assert np.linalg.norm(qr.q @ qr.r - m) <= 100 * eps(dtype) * np.linalg.norm(m)
        diag = np.diag(qr.r)
        assert np.all(np.isreal(diag)) and np.all(np.real(diag) >= 0)


class TestStacks:
    """Stacks of matrices give what one call per matrix gives, in their dtype."""

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("trans", ["N", "C"])
    def test_stack_matches_one_call_per_matrix(self, dtype, trans):
        rng = np.random.default_rng(21)
        g = np.stack([random_spd(rng, 5, dtype) for _ in range(3)])
        rhs = np.stack([random_matrix(rng, 5, 2, dtype) for _ in range(3)])
        m = np.stack([random_matrix(rng, 7, 4, dtype) for _ in range(3)])
        ell = cholesky(g)
        x = triangular_solve(ell, rhs, trans)
        qr = householder_qr(m)
        tol = 100 * eps(dtype)
        for out in (ell, x, qr.q, qr.r):
            assert out.dtype == dtype
        for i in range(3):
            ell_i = cholesky(g[i])
            kappa = np.linalg.cond(ell_i)
            assert np.linalg.norm(ell[i] - ell_i) <= tol * kappa * np.linalg.norm(ell_i)
            x_i = triangular_solve(ell_i, rhs[i], trans)
            assert np.linalg.norm(x[i] - x_i) <= tol * kappa * np.linalg.norm(x_i)
            qr_i = householder_qr(m[i])
            kappa = np.linalg.cond(m[i])
            assert np.linalg.norm(qr.q[i] - qr_i.q) <= tol * kappa
            assert np.linalg.norm(qr.r[i] - qr_i.r) <= tol * kappa * np.linalg.norm(m[i])

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("trans", ["N", "C"])
    def test_one_factor_solves_a_stack_of_right_hand_sides(self, dtype, trans):
        rng = np.random.default_rng(22)
        ell = cholesky(random_spd(rng, 6, dtype))
        rhs = random_matrix(rng, 48, 1, dtype).reshape(4, 6, 2)
        x = triangular_solve(ell, rhs, trans)
        assert x.shape == rhs.shape and x.dtype == dtype
        kappa = np.linalg.cond(ell)
        for i in range(4):
            x_i = triangular_solve(ell, rhs[i], trans)
            assert np.linalg.norm(x[i] - x_i) <= 100 * eps(dtype) * kappa * np.linalg.norm(x_i)

    def test_empty_bubble_stacks(self):
        qr = householder_qr(np.zeros((3, 5, 0)))
        assert qr.q.shape == (3, 5, 0) and qr.r.shape == (3, 0, 0)
        x = triangular_solve(np.zeros((0, 0)), np.zeros((3, 0, 1)))
        assert x.shape == (3, 0, 1)


class TestLeastSquares:
    def test_square_preimage(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        b = m @ np.eye(4)[:, 0]
        np.testing.assert_allclose(least_squares_qr(m, b), np.eye(4)[:, 0], atol=1e-12)

    def test_mean_of_two_samples(self):
        x = least_squares_qr(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
        assert x[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_consistent_overdetermined(self, dtype):
        rng = np.random.default_rng(11)
        m = random_matrix(rng, 20, 7, dtype)
        x_true = random_matrix(rng, 7, 1, dtype)[:, 0]
        x = least_squares_qr(m, m @ x_true)
        np.testing.assert_allclose(x, x_true, atol=1e-10)

    def test_normal_residual_contract(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((30, 8))
        b = rng.standard_normal(30)
        x = least_squares_qr(m, b)
        lhs = np.linalg.norm(m.T @ (m @ x - b))
        assert lhs <= 1000 * eps(np.float64) * np.linalg.norm(m) * np.linalg.norm(b)

    def test_rank_deficient_raises(self):
        m = np.ones((5, 2))
        with pytest.raises(RankDeficient):
            least_squares_qr(m, np.ones(5))


class TestSolveSpd:
    def test_identity(self):
        f = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(solve_spd(np.eye(3), f), f)

    def test_diagonal(self):
        np.testing.assert_allclose(
            solve_spd(np.diag([2.0, 5.0]), np.array([2.0, 10.0])), [1.0, 2.0]
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_cross_oracle_with_qr(self, dtype):
        rng = np.random.default_rng(21)
        m = random_matrix(rng, 15, 6, dtype)
        b = random_matrix(rng, 15, 1, dtype)[:, 0]
        a = m.conj().T @ m
        u_ne = solve_spd(a, m.conj().T @ b)
        u_qr = least_squares_qr(m, b)
        np.testing.assert_allclose(u_ne, u_qr, atol=1e-10 * np.linalg.norm(u_qr))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))


class TestConditionNumber:
    def test_identity_and_diag(self):
        assert condition_number(np.eye(4)) == pytest.approx(1.0)
        assert condition_number(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            condition_number(np.zeros((3, 3)))

    @pytest.mark.parametrize("target", [1e2, 1e4, 1e6])
    def test_squaring_relation(self, target):
        rng = np.random.default_rng(int(np.log10(target)))
        q1 = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        q2 = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        sing = np.geomspace(1.0, 1.0 / target, 12)
        m = q1 @ np.diag(sing) @ q2
        cm = condition_number(m)
        cn = condition_number(m.T @ m)
        assert cn / cm**2 == pytest.approx(1.0, rel=1e-3)

    def test_rectangular(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((9, 4))
        ref = np.linalg.cond(m)
        assert condition_number(m) == pytest.approx(ref, rel=1e-9)


class TestHpdConditionNumber:
    """Extreme-eigenvalue condition number against the dense reference.

    Both routes carry an absolute lambda_min error of order eps ||A||, so
    they may differ by a modest multiple of cond * eps relative.
    """

    @staticmethod
    def assert_matches_dense(a):
        ref = condition_number(a)
        lam, _ = hpd_extreme_eigenpairs(scipy.sparse.csr_matrix(a))
        got = lam[1] / lam[0]
        assert abs(got - ref) <= 100.0 * ref * eps(np.float64) * ref

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40])
    def test_matches_dense_condition_number(self, dtype, n):
        rng = np.random.default_rng(n)
        self.assert_matches_dense(random_spd(rng, n, dtype, shift=1e-2))

    @pytest.mark.parametrize("target", [1e2, 1e6, 1e10])
    def test_graded_spectrum(self, target):
        rng = np.random.default_rng(int(np.log10(target)))
        q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
        a = q @ np.diag(np.geomspace(1.0, 1.0 / target, 30)) @ q.T
        self.assert_matches_dense((a + a.T) / 2)

    def test_single_precision_input_evaluated_in_double(self):
        a = np.diag(np.geomspace(1.0, 1e-6, 10))
        lam, _ = hpd_extreme_eigenpairs(scipy.sparse.csr_matrix(a.astype(np.float32)))
        got = lam[1] / lam[0]
        ref = float(a[0, 0] / a.astype(np.float32).astype(np.float64)[-1, -1])
        assert got == pytest.approx(ref, rel=1e-12)

    def test_repeat_calls_bit_identical(self):
        a = scipy.sparse.csr_matrix(random_spd(np.random.default_rng(3), 60, np.complex128))
        first, _ = hpd_extreme_eigenpairs(a)
        second, _ = hpd_extreme_eigenpairs(a)
        assert first[1] / first[0] == second[1] / second[0]

    @pytest.mark.parametrize(
        "a",
        [
            np.diag([1.0, -1.0, 2.0, 3.0]),            # negative pivot
            np.diag([1.0, 0.0, 2.0, 3.0]),             # exactly singular
            np.diag([1.0, 1e-17, 2.0, 3.0]),           # numerically singular
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
            np.diag([1.0, -1.0]),                      # dense small-N route
        ],
        ids=["negative", "singular", "near-singular", "off-diagonal-pivot", "small"],
    )
    def test_not_hpd_raises(self, a):
        with pytest.raises(NotPositiveDefinite):
            hpd_extreme_eigenpairs(scipy.sparse.csr_matrix(a))


class TestHpdExtremeEigenpairs:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40])
    def test_eigenpairs_of_the_extremes(self, dtype, n):
        """Unit eigenvectors with a residual of round-off size, at the
        extreme eigenvalues of the dense eigh; their ratio is
        the same on a repeated call, bit for bit."""
        a = random_spd(np.random.default_rng(n + 7), n, dtype, shift=1e-2)
        lam, v = hpd_extreme_eigenpairs(scipy.sparse.csr_matrix(a))
        ref = np.linalg.eigvalsh(a)
        assert lam.shape == (2,) and v.shape == (n, 2) and v.dtype == dtype
        norm = np.linalg.norm(a, 2)
        np.testing.assert_allclose(lam, ref[[0, -1]], rtol=0, atol=100 * eps(np.float64) * norm)
        np.testing.assert_allclose(np.linalg.norm(v, axis=0), 1.0, rtol=1e-13)
        assert np.linalg.norm(a @ v - v * lam, axis=0).max() <= 100 * eps(np.float64) * norm
        again, _ = hpd_extreme_eigenpairs(scipy.sparse.csr_matrix(a))
        assert again[1] / again[0] == lam[1] / lam[0]

    def test_rayleigh_quotients_of_a_nearby_matrix(self):
        """At the eigenvectors of A, the Rayleigh quotients of A + E give the
        extreme eigenvalues of A + E to second order in ||E||."""
        rng = np.random.default_rng(4)
        a = random_spd(rng, 40, np.float64, shift=1e-1)
        e = random_spd(rng, 40, np.float64) * 1e-7
        _, v = hpd_extreme_eigenpairs(scipy.sparse.csr_matrix(a))
        q = np.einsum("ij,ik,kj->j", v, a + e, v)
        ref = np.linalg.eigvalsh(a + e)[[0, -1]]
        assert np.abs(q - ref).max() <= 1e-3 * np.linalg.norm(e, 2)

    def test_floor(self):
        assert hpd_ratio(1.0, 4.0, 3) == 4.0
        with pytest.raises(NotPositiveDefinite):
            hpd_ratio(4.0 * 3 * eps(np.float64), 4.0, 3)
        with pytest.raises(NotPositiveDefinite):
            hpd_ratio(-1.0, 4.0, 3)


class TestSaddleSolve:
    def test_pin_first_coefficient(self):
        u, w = saddle_solve(np.eye(2), np.array([[1.0, 0.0]]), np.zeros(2), np.array([5.0]))
        np.testing.assert_allclose(u, [5.0, 0.0])

    def test_empty_constraints_reduce_to_spd(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 4, np.float64)
        f = rng.standard_normal(4)
        u, w = saddle_solve(a, np.zeros((0, 4)), f, np.zeros(0))
        np.testing.assert_allclose(u, solve_spd(a, f))
        assert w.size == 0

    def test_block_residual_oracle(self):
        rng = np.random.default_rng(33)
        a = random_spd(rng, 6, np.float64)
        c = rng.standard_normal((2, 6))
        f = rng.standard_normal(6)
        d = rng.standard_normal(2)
        u, w = saddle_solve(a, c, f, d)
        np.testing.assert_allclose(a @ u + c.T @ w, f, atol=1e-11)
        np.testing.assert_allclose(c @ u, d, atol=1e-11)

    def test_singular_raises(self):
        a = np.zeros((2, 2))
        c = np.array([[1.0, 0.0]])
        with pytest.raises(SingularSaddle):
            saddle_solve(a, c, np.ones(2), np.ones(1))
