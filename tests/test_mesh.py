import numpy as np
import pytest

from dlsfem import basis
from dlsfem.mesh import UnsupportedSpace, build_layout, uniform_mesh


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_entity_counts(n):
    m = uniform_mesh(n)
    assert m.n_elements == n * n
    assert m.n_interior_edges == 2 * n * (n - 1)
    assert int(m.edge_on_boundary.sum()) == 4 * n
    assert m.h == pytest.approx(1.0 / n)


def test_single_element_mesh():
    m = uniform_mesh(1)
    assert m.n_elements == 1
    assert m.n_interior_edges == 0
    assert int(m.edge_on_boundary.sum()) == 4


def test_interior_edges_shared_by_two_elements():
    m = uniform_mesh(3)
    counts = np.zeros(m.n_edges, dtype=int)
    for e in range(m.n_elements):
        for eid in m.element_edges[e]:
            counts[eid] += 1
    assert np.all(counts[m.edge_on_boundary] == 1)
    assert np.all(counts[~m.edge_on_boundary] == 2)


def test_shared_edge_normal_signs_opposite():
    # bottom/left local edges carry -1, top/right +1: the two elements of an
    # interior edge must see it with opposite signs
    from dlsfem.mesh import EDGE_NORMAL_SIGNS

    m = uniform_mesh(2)
    seen = {}
    for e in range(m.n_elements):
        for le, eid in enumerate(m.element_edges[e]):
            seen.setdefault(eid, []).append(EDGE_NORMAL_SIGNS[le])
    for eid, signs in seen.items():
        if len(signs) == 2:
            assert signs[0] * signs[1] == -1


def test_refinement_nesting():
    coarse = uniform_mesh(3)
    fine = uniform_mesh(6)
    for e in range(coarse.n_elements):
        o = coarse.element_origins()[e]
        children = 0
        for ef in range(fine.n_elements):
            of = fine.element_origins()[ef]
            inside = (
                o[0] - 1e-12 <= of[0] <= o[0] + coarse.h - fine.h + 1e-12
                and o[1] - 1e-12 <= of[1] <= o[1] + coarse.h - fine.h + 1e-12
            )
            children += inside
        assert children == 4


class TestLayouts:
    def test_h1_p1_single_element(self):
        m = uniform_mesh(1)
        lay = build_layout(m, "h1", 1)
        assert lay.n_total == 4
        assert set(lay.boundary_dofs) == {0, 1, 2, 3}

    def test_h1_p1_n2(self):
        m = uniform_mesh(2)
        lay = build_layout(m, "h1", 1)
        assert lay.n_total == 9
        assert lay.boundary_dofs.size == 8

    @pytest.mark.parametrize("n,p", [(1, 1), (2, 2), (3, 3), (4, 2)])
    def test_h1_dimension_formula(self, n, p):
        lay = build_layout(uniform_mesh(n), "h1", p)
        assert lay.n_total == (n * p + 1) ** 2

    @pytest.mark.parametrize("n,p", [(1, 1), (2, 2), (3, 3)])
    def test_hdiv_dimension_formula(self, n, p):
        lay = build_layout(uniform_mesh(n), "hdiv", p)
        assert lay.n_total == 2 * n * p * (n * p + 1)

    def test_hdiv_entity_enumeration_n2_p2(self):
        m = uniform_mesh(2)
        lay = build_layout(m, "hdiv", 2)
        assert lay.n_total == 40
        assert lay.counts["edge"] == m.n_edges * 2
        assert lay.counts["interior"] == m.n_elements * 4

    @pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 3)])
    def test_l2_dimension(self, n, p):
        lay = build_layout(uniform_mesh(n), "l2", p)
        assert lay.n_total == n * n * p * p
        assert lay.boundary_dofs.size == 0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_trace_layouts(self, p):
        m = uniform_mesh(2)
        th = build_layout(m, "trace_h1", p)
        assert th.n_total == 9 + m.n_edges * (p - 1)
        tf = build_layout(m, "trace_flux", p)
        assert tf.n_total == m.n_edges * p

    def test_conforming_sharing(self):
        # two elements sharing an edge map its DOFs to the same global ids
        m = uniform_mesh(2)
        lay = build_layout(m, "h1", 3)
        right_of_0 = m.element_edges[0, 1]
        assert m.element_edges[1, 3] == right_of_0
        ker = 2
        base = 4
        d0 = lay.element_dofs[0, base + ker : base + 2 * ker]   # right edge of elem 0
        d1 = lay.element_dofs[1, base + 3 * ker : base + 4 * ker]  # left edge of elem 1
        np.testing.assert_array_equal(d0, d1)

    def test_unsupported_space(self):
        with pytest.raises(UnsupportedSpace):
            build_layout(uniform_mesh(1), "h2", 1)
        with pytest.raises(UnsupportedSpace):
            build_layout(uniform_mesh(1), "h1", 0)


def test_h1_mass_matrix_partition_of_unity():
    # vertex basis functions sum to one, so vertex-column row sums of the
    # mass matrix integrate each basis function
    for p in (1, 2):
        m = uniform_mesh(3)
        lay = build_layout(m, "h1", p)
        rule = basis.gauss_rule(p + 2)
        wv, _ = basis.w_table(p, rule.points)
        mass_loc = np.einsum("ip,p,jp->ij", wv, rule.weights, wv) * m.h**2
        mass = np.zeros((lay.n_total, lay.n_total))
        for e in range(m.n_elements):
            gd = lay.element_dofs[e]
            mass[np.ix_(gd, gd)] += mass_loc
        np.testing.assert_allclose(mass, mass.T, atol=1e-15)
        nv = (m.n + 1) ** 2
        row_sums = mass[:, :nv].sum(axis=1)
        integrals = np.zeros(lay.n_total)
        for e in range(m.n_elements):
            integrals[lay.element_dofs[e]] += np.einsum("ip,p->i", wv, rule.weights) * m.h**2
        np.testing.assert_allclose(row_sums, integrals, atol=1e-14)
