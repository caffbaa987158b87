import numpy as np
import pytest

from dlsfem import basis
from dlsfem.basis import UnsupportedOrder, gauss_rule
from dlsfem.mesh import local_dim


class TestQuadrature:
    def test_midpoint(self):
        r = gauss_rule(1)
        np.testing.assert_allclose(r.points, [[0.5, 0.5]])
        np.testing.assert_allclose(r.weights, [1.0])

    def test_degree3_exactness(self):
        r = gauss_rule(2)
        val = np.sum(r.weights * r.points[:, 0] ** 2)
        assert val == pytest.approx(1.0 / 3.0)

    def test_monomial_q5(self):
        r = gauss_rule(5)
        val = np.sum(r.weights * r.points[:, 0] ** 8 * r.points[:, 1] ** 6)
        assert val == pytest.approx(1.0 / 63.0, abs=1e-15)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
    def test_weights_positive_sum_to_area(self, q):
        r = gauss_rule(q)
        assert np.all(r.weights > 0)
        assert r.weights.sum() == pytest.approx(1.0)
        assert r.weights_1d.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_exact_to_degree_2q_minus_1(self, q):
        r = gauss_rule(q)
        k = 2 * q - 1
        val = np.sum(r.weights_1d * r.points_1d**k)
        assert val == pytest.approx(1.0 / (k + 1), rel=1e-14)


class TestDimensions:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_dims(self, p):
        r = gauss_rule(p + 2)
        assert local_dim("h1_broken", p) == (p + 1) ** 2
        assert local_dim("hdiv_broken", p) == 2 * p * (p + 1)
        assert local_dim("l2_broken", p) == p * p
        assert basis.w_table(p, r.points)[0].shape[0] == local_dim("h1_broken", p)
        assert basis.v_table(p, r.points)[0].shape[0] == local_dim("hdiv_broken", p)
        assert basis.y_table(p, r.points).shape[0] == local_dim("l2_broken", p)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            basis.w_table(0, np.zeros((1, 2)))


class TestYOrthonormality:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_gram_is_identity(self, p):
        r = gauss_rule(p + 2)
        y = basis.y_table(p, r.points)
        gram = np.einsum("ip,p,jp->ij", y, r.weights, y)
        assert np.abs(gram - np.eye(p * p)).max() <= 1e-13


class TestExactSequence:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_div_v_in_span_y(self, p):
        r = gauss_rule(p + 2)
        _, dv = basis.v_table(p, r.points)
        y = basis.y_table(p, r.points)
        coef = np.einsum("ip,p,jp->ij", dv, r.weights, y)
        resid = np.abs(coef @ y - dv).max()
        assert resid <= 1e-12

    def test_div_matches_l2_fit_pointwise(self):
        # fit div of each V^2 function onto Y^2 values at random points
        rng = np.random.default_rng(4)
        pts = rng.random((25, 2))
        vv, dv = basis.v_table(2, pts)
        y = basis.y_table(2, pts)
        coef, *_ = np.linalg.lstsq(y.T, dv.T, rcond=None)
        np.testing.assert_allclose(coef.T @ y, dv, atol=1e-11)


class TestWBasis:
    def test_vertex_values_at_corner(self):
        vals, _ = basis.w_table(1, np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(vals[:, 0], [1.0, 0.0, 0.0, 0.0])

    def test_vertex_partition_of_unity(self):
        rng = np.random.default_rng(1)
        pts = rng.random((10, 2))
        vals, _ = basis.w_table(3, pts)
        np.testing.assert_allclose(vals[:4].sum(axis=0), np.ones(10), atol=1e-14)

    def test_kernel_derivative_is_legendre(self):
        t = np.linspace(0, 1, 7)
        vals, dvals = basis.h1_hierarchical(4, t)
        leg, _ = basis.legendre_shifted(3, t)
        for k in range(2, 5):
            np.testing.assert_allclose(dvals[k], leg[k - 1], atol=1e-13)
        # kernels vanish at the ends
        np.testing.assert_allclose(vals[2:, [0, -1]], 0.0, atol=1e-14)


class TestEdgeTraces:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_flux_trace_spans_degree_p_minus_1(self, p):
        # normal trace of V^p on an edge spans exactly polynomials of
        # degree p-1 (fit residual test)
        t = np.linspace(0.01, 0.99, 40)
        for le in range(4):
            vv, _ = basis.v_table(p, basis.edge_points(le, t))
            n = basis.EDGE_NORMALS[le]
            tr = np.einsum("icp,c->ip", vv, n)
            nz = tr[np.abs(tr).max(axis=1) > 1e-12]
            vander = np.vander(t, p, increasing=True).T
            coef, *_ = np.linalg.lstsq(vander.T, nz.T, rcond=None)
            assert np.abs(coef.T @ vander - nz).max() <= 1e-10
            # and the full degree p-1 space is reached
            assert np.linalg.matrix_rank(nz, tol=1e-10) == p

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_w_trace_spans_degree_p(self, p):
        t = np.linspace(0.0, 1.0, 30)
        for le in range(4):
            wv, _ = basis.w_table(p, basis.edge_points(le, t))
            nz = wv[np.abs(wv).max(axis=1) > 1e-12]
            vander = np.vander(t, p + 1, increasing=True).T
            coef, *_ = np.linalg.lstsq(vander.T, nz.T, rcond=None)
            assert np.abs(coef.T @ vander - nz).max() <= 1e-10
            assert np.linalg.matrix_rank(nz, tol=1e-10) == p + 1


class TestPullback:
    def test_divergence_theorem_on_element(self):
        # volume integral of div sigma equals the boundary flux for a
        # random V^2 combination on an h=1/3 element
        rng = np.random.default_rng(9)
        h = 1.0 / 3.0
        coef = rng.standard_normal(local_dim("hdiv_broken", 2))
        r = gauss_rule(5)
        vv, dv = basis.v_table(2, r.points)
        vol = np.sum(r.weights * (coef @ dv)) / (h * h) * h * h
        t, w = r.points_1d, r.weights_1d
        flux = 0.0
        for le in range(4):
            ve, _ = basis.v_table(2, basis.edge_points(le, t))
            tr = np.einsum("i,icp,c->p", coef, ve, basis.EDGE_NORMALS[le]) / h
            flux += np.sum(w * tr) * h
        assert vol == pytest.approx(flux, abs=1e-13)

