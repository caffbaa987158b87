import numpy as np
import pytest
import scipy.io
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, strategies as st

from dlsfem.assembly import (
    Options,
    RectangularRowBlocked,
    SparseSymmetric,
    _scale_columns,
    assemble_ne,
    assemble_overdetermined,
    build_context,
    build_square_context,
    precondition_global,
    precondition_global_rect,
    write_matrix_market,
)
from dlsfem.element import NonpositiveDiagonal
from dlsfem.formulation import make_case, make_formulation
from dlsfem.linalg import hermitian_defect, solve_spd
from dlsfem.mesh import uniform_mesh
from test_blockqr import DTYPES, PROPERTY, row_problems, shared_problems

ALL_FORMULATIONS = ["fosls-strong", "primal-dpg", "ultraweak-dpg", "acoustics-ultraweak"]


def _case_for(name):
    return make_case("acoustics-resonance" if name.startswith("acoustics") else "poisson-sine")


class TestCrossAssemblyIdentity:
    @pytest.mark.parametrize("fname", ALL_FORMULATIONS)
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("p,dp", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
    def test_densified_ne_equals_btb(self, fname, n, p, dp):
        form = make_formulation(fname, p=p, dp=dp)
        case = _case_for(fname)
        ctx = build_context(uniform_mesh(n), form, case)
        a, f = assemble_ne(ctx)
        bt, lt = assemble_overdetermined(ctx)
        an = bt.gram.toarray()
        fn = bt.rmatvec(lt)
        scale = np.linalg.norm(an)
        assert np.linalg.norm(a.to_dense() - an) <= 1e-12 * scale
        assert np.linalg.norm(f - fn) <= 1e-12 * max(np.linalg.norm(fn), 1.0)

    def test_uncondensed_variant(self):
        form = make_formulation("ultraweak-dpg", p=2, dp=1)
        case = _case_for("ultraweak-dpg")
        ctx = build_context(uniform_mesh(2), form, case, Options(condense=False))
        a, _ = assemble_ne(ctx)
        bt, _ = assemble_overdetermined(ctx)
        an = bt.gram.toarray()
        assert np.linalg.norm(a.to_dense() - an) <= 1e-12 * np.linalg.norm(an)


class TestStructure:
    def test_single_element_equals_element_system(self):
        form = make_formulation("fosls-strong", p=1, dp=1)
        case = _case_for("fosls-strong")
        ctx = build_context(uniform_mesh(1), form, case, Options(condense=False))
        a, f = assemble_ne(ctx)
        cls = ctx.classes[0]
        a_k = cls.bt.conj().T @ cls.bt
        perm = ctx.solve_index[cls.gdofs[0, cls.free_local]]
        dense = a.to_dense()
        np.testing.assert_allclose(dense[np.ix_(perm, perm)], a_k, atol=1e-14)

    def test_overdetermined_single_element_block(self):
        form = make_formulation("primal-dpg", p=1, dp=1)
        ctx = build_context(uniform_mesh(1), form, _case_for("primal-dpg"), Options(condense=False))
        bt, lt = assemble_overdetermined(ctx)
        assert [st.cols.shape[0] for st in bt.stacks] == [1]
        assert bt.n_rows == form.n_test_local

    @staticmethod
    def _assert_rows_partition(bt):
        """The stacks' row ranges cover 0..n_rows-1, every row exactly once."""
        rows = np.concatenate([st.rows.ravel() for st in bt.stacks])
        np.testing.assert_array_equal(np.sort(rows), np.arange(bt.n_rows))

    def test_rows_partition_and_counts(self):
        form = make_formulation("ultraweak-dpg", p=2, dp=1)
        ctx = build_context(uniform_mesh(2), form, _case_for("ultraweak-dpg"))
        bt, lt = assemble_overdetermined(ctx)
        assert bt.n_rows == 4 * 40 == 160
        self._assert_rows_partition(bt)
        form = make_formulation("bubnov-galerkin", p=2, dp=0)
        ctx = build_square_context(uniform_mesh(4), form, _case_for("bubnov-galerkin"))
        bt, lt = assemble_overdetermined(ctx)
        assert bt.n_rows == ctx.n_solve == ctx.square.matrix.shape[0]
        self._assert_rows_partition(bt)

    def test_condensation_reduces_columns_not_rows(self):
        form = make_formulation("ultraweak-dpg", p=2, dp=1)
        case = _case_for("ultraweak-dpg")
        mesh = uniform_mesh(2)
        ctx_c = build_context(mesh, form, case, Options(condense=True))
        ctx_u = build_context(mesh, form, case, Options(condense=False))
        bt_c, _ = assemble_overdetermined(ctx_c)
        bt_u, _ = assemble_overdetermined(ctx_u)
        assert bt_c.n_rows == bt_u.n_rows
        n_bubbles = int(np.count_nonzero(ctx_c.bubble_mask & ~ctx_c.fixed_mask))
        assert bt_c.n_cols == bt_u.n_cols - n_bubbles

    def test_interface_stencil_n2(self):
        # interface rows of A receive contributions from adjacent elements only
        form = make_formulation("primal-dpg", p=1, dp=1)
        case = _case_for("primal-dpg")
        mesh = uniform_mesh(2)
        ctx = build_context(mesh, form, case)
        a, _ = assemble_ne(ctx)
        dense = a.to_dense()
        # the single interior vertex couples to every other free DOF (all
        # elements touch it), but flux DOFs on opposite outer edges of
        # different elements never couple
        off = ctx.offsets[1]
        # bottom edge of element 0 and top edge of element 3 share no element
        e_bottom = mesh.element_edges[0, 0]
        e_top = mesh.element_edges[3, 2]
        i = ctx.solve_index[off + e_bottom]   # p=1: one flux DOF per edge
        j = ctx.solve_index[off + e_top]
        assert dense[i, j] == 0.0

    def test_determinism_bit_identical(self):
        form = make_formulation("ultraweak-dpg", p=2, dp=1)
        case = _case_for("ultraweak-dpg")
        mesh = uniform_mesh(3)
        a1, f1 = assemble_ne(build_context(mesh, form, case))
        a2, f2 = assemble_ne(build_context(mesh, form, case))
        assert np.array_equal(a1.matrix.data, a2.matrix.data)
        assert np.array_equal(f1, f2)

    @pytest.mark.parametrize(
        "fname,precision",
        [("acoustics-ultraweak", "double"), ("ultraweak-dpg", "single"), ("ultraweak-dpg", "double")],
    )
    def test_condensed_ne_blocks_are_exactly_hermitian(self, fname, precision):
        """Every condensed element normal equation equals its conjugate
        transpose bit for bit (complex Schur complements used not to)."""
        form = make_formulation(fname, p=2, dp=1)
        ctx = build_context(uniform_mesh(8), form, _case_for(fname), Options(precision=precision))
        a, _ = assemble_ne(ctx)
        assert len(a.blocks) == 9 and all(c.bubble_pos.size for c in ctx.classes)
        for st in a.blocks:
            assert st.panel.dtype == ctx.options.working_dtype(form)
            np.testing.assert_array_equal(st.panel, st.panel.conj().swapaxes(-1, -2))

    def test_hermitian_invariant(self):
        form = make_formulation("acoustics-ultraweak", p=1, dp=1)
        ctx = build_context(uniform_mesh(2), form, _case_for("acoustics-ultraweak"))
        a, _ = assemble_ne(ctx)
        assert hermitian_defect(a.to_dense()) <= 1e-13


class TestGlobalPreconditioning:
    def test_unit_diagonal_noop(self):
        form = make_formulation("primal-dpg", p=1, dp=1)
        ctx = build_context(uniform_mesh(2), form, _case_for("primal-dpg"))
        a, f = assemble_ne(ctx)
        s = precondition_global(a)
        a1 = SparseSymmetric(a.n, _scale_columns(a.matrix, s))
        np.testing.assert_allclose(a1.diagonal(), 1.0, atol=1e-13)
        s2 = precondition_global(a1)
        np.testing.assert_allclose(s2, 1.0, atol=1e-12)

    def test_offdiagonal_scaling(self):
        a = SparseSymmetric(2, scipy.sparse.csr_matrix(np.array([[4.0, 1.0], [1.0, 9.0]])))
        s = precondition_global(a)
        np.testing.assert_allclose(_scale_columns(a.matrix, s).toarray(), [[1.0, 1.0 / 6.0], [1.0 / 6.0, 1.0]])

    def test_argmin_invariance(self):
        form = make_formulation("fosls-strong", p=2, dp=1)
        ctx = build_context(uniform_mesh(2), form, _case_for("fosls-strong"))
        a, f = assemble_ne(ctx)
        u0 = solve_spd(a.to_dense(), f)
        s = precondition_global(a)
        u1 = s * solve_spd(_scale_columns(a.matrix, s).toarray(), s * f)
        np.testing.assert_allclose(u1, u0, atol=1e-12 * np.linalg.norm(u0))

    def test_rectangular_matches_ne_scaling(self):
        form = make_formulation("fosls-strong", p=2, dp=1)
        ctx = build_context(uniform_mesh(2), form, _case_for("fosls-strong"))
        a, f = assemble_ne(ctx)
        bt, lt = assemble_overdetermined(ctx)
        s_ne = precondition_global(a)
        s_od = precondition_global_rect(bt)
        np.testing.assert_allclose(s_od, s_ne, rtol=1e-12)
        np.testing.assert_allclose(
            _scale_columns(bt.gram, s_od).diagonal(), 1.0, atol=1e-12
        )

    def test_zero_column_raises(self):
        a = SparseSymmetric(2, scipy.sparse.csr_matrix(np.diag([1.0, 0.0])))
        with pytest.raises(NonpositiveDiagonal):
            precondition_global(a)


class TestMatrixMarket:
    def test_round_trip_symmetric(self, tmp_path):
        form = make_formulation("primal-dpg", p=1, dp=1)
        ctx = build_context(uniform_mesh(2), form, _case_for("primal-dpg"))
        a, f = assemble_ne(ctx)
        path = tmp_path / "A.mtx"
        write_matrix_market(path, a)
        back = scipy.io.mmread(path)
        np.testing.assert_allclose(back.toarray(), a.to_dense(), rtol=1e-15)
        header = path.read_text().splitlines()[0]
        assert header.startswith("%%MatrixMarket matrix coordinate real")

    def test_round_trip_rectangular_and_vector(self, tmp_path):
        form = make_formulation("ultraweak-dpg", p=1, dp=1)
        ctx = build_context(uniform_mesh(2), form, _case_for("ultraweak-dpg"))
        bt, lt = assemble_overdetermined(ctx)
        write_matrix_market(tmp_path / "B.mtx", bt)
        write_matrix_market(tmp_path / "l.mtx", lt)
        back = scipy.io.mmread(tmp_path / "B.mtx")
        np.testing.assert_allclose(back.toarray(), bt.to_dense(), rtol=1e-15)
        vec = scipy.io.mmread(tmp_path / "l.mtx")
        np.testing.assert_allclose(np.asarray(vec).ravel(), lt, rtol=1e-15)
        header = (tmp_path / "B.mtx").read_text().splitlines()[0]
        assert "coordinate real general" in header

    def test_complex_hermitian_header(self, tmp_path):
        form = make_formulation("acoustics-ultraweak", p=1, dp=1)
        ctx = build_context(uniform_mesh(1), form, _case_for("acoustics-ultraweak"))
        a, _ = assemble_ne(ctx)
        write_matrix_market(tmp_path / "A.mtx", a)
        header = (tmp_path / "A.mtx").read_text().splitlines()[0]
        assert "complex" in header and "hermitian" in header
        back = scipy.io.mmread(tmp_path / "A.mtx")
        np.testing.assert_allclose(back.toarray(), a.to_dense(), rtol=1e-14)

    def test_17_digits(self, tmp_path):
        form = make_formulation("primal-dpg", p=1, dp=1)
        ctx = build_context(uniform_mesh(1), form, _case_for("primal-dpg"))
        a, _ = assemble_ne(ctx)
        write_matrix_market(tmp_path / "A.mtx", a)
        lines = [ln for ln in (tmp_path / "A.mtx").read_text().splitlines() if not ln.startswith("%")]
        mantissa = lines[1].split()[2].split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) >= 16


class TestSquareContext:
    def test_bg_matches_classical_stiffness(self):
        form = make_formulation("bubnov-galerkin", p=1, dp=0)
        case = _case_for("bubnov-galerkin")
        ctx = build_square_context(uniform_mesh(2), form, case, Options(condense=False))
        s = ctx.square.matrix
        # n=2, p=1: single interior vertex; classical 5-point value 8/3
        assert s.shape == (1, 1)
        assert s.toarray()[0, 0] == pytest.approx(8.0 / 3.0)

    def test_bg_ne_squares_condition(self):
        from dlsfem.linalg import condition_number

        form = make_formulation("bubnov-galerkin", p=2, dp=0)
        case = _case_for("bubnov-galerkin")
        ctx = build_square_context(uniform_mesh(4), form, case)
        a, _ = assemble_ne(ctx)
        bt, _ = assemble_overdetermined(ctx)
        cond_s = condition_number(bt.to_dense())
        cond_a = condition_number(a.to_dense())
        assert cond_a == pytest.approx(cond_s**2, rel=1e-3)


# ---------------------------------------------------------------------------
# Products on the stacks, column-scaled by D, against the dense B D of to_dense()
# ---------------------------------------------------------------------------

STACK_SYSTEMS = {
    # name: (formulation, p, n, case); the stacks each one assembles to
    "shared": ("ultraweak-dpg", 2, 4, "poisson-sine"),
    "shared-complex": ("acoustics-ultraweak", 2, 3, "acoustics-resonance"),
    "per-element": ("fosls-strong", 2, 4, "poisson-alpha-sine"),
    "one-row": ("bubnov-galerkin", 2, 4, "poisson-sine"),
}


NORMAL_SYSTEMS = {
    # name: (formulation, p, n, case, precision)
    "ultraweak-p1-single": ("ultraweak-dpg", 1, 8, "poisson-sine", "single"),
    "ultraweak-p2-double": ("ultraweak-dpg", 2, 8, "poisson-sine", "double"),
    "acoustics": ("acoustics-ultraweak", 2, 6, "acoustics-resonance", "double"),
    "primal-dpg": ("primal-dpg", 2, 8, "poisson-sine", "double"),
    "fosls-variable-alpha": ("fosls-strong", 2, 8, "poisson-alpha-sine", "double"),
    "bubnov": ("bubnov-galerkin", 2, 8, "poisson-sine", "double"),
}


def _stack_system(name, precision):
    fname, p, n, cname = STACK_SYSTEMS[name]
    case = make_case(cname)
    form = make_formulation(fname, p=p, dp=1, alpha=case.alpha)
    ctx = build_context(uniform_mesh(n), form, case, Options(precision=precision))
    bt, lt = assemble_overdetermined(ctx)
    panels = {st.panel.ndim if st.panel.shape[-2] > 1 else "row" for st in bt.stacks}
    assert panels == {"shared": {2}, "shared-complex": {2}, "per-element": {3}, "one-row": {"row"}}[name]
    return bt, lt


def _random_vector(rng, n, dtype):
    v = rng.standard_normal(n)
    return v + 1j * rng.standard_normal(n) if np.issubdtype(dtype, np.complexfloating) else v


def check_stack_products(bt, rng, s=None):
    """matvec, rmatvec, the Gram and the Gram product, with the columns
    scaled by ``s`` (none by default) as the solvers and diagnostics apply
    it, against the dense products of to_dense() * s, whose entries are
    rounded to the panels' dtype."""
    s = np.ones(bt.n_cols, dtype=bt.dtype) if s is None else s
    dense = bt.to_dense() * s
    eps = np.finfo(dense.dtype).eps
    d = dense.astype(np.result_type(dense.dtype, np.float64))
    x, r = _random_vector(rng, bt.n_cols, d.dtype), _random_vector(rng, bt.n_rows, d.dtype)
    assert np.linalg.norm(bt.matvec(s * x) - d @ x) <= 64 * eps * np.linalg.norm(abs(d) @ abs(x))
    adj = d.conj().T
    assert np.linalg.norm(s.conj() * bt.rmatvec(r) - adj @ r) <= 64 * eps * np.linalg.norm(abs(adj) @ abs(r))
    gram = _scale_columns(bt.gram, s.astype(bt.gram.dtype)).toarray()
    assert gram.dtype == d.dtype
    assert np.linalg.norm(gram - adj @ d) <= 64 * eps * np.linalg.norm(abs(adj) @ abs(d))
    got = s.conj() * bt.normal_matvec(s * x)
    assert got.dtype == d.dtype
    assert np.linalg.norm(got - adj @ (d @ x)) <= 64 * eps * np.linalg.norm(abs(adj) @ (abs(d) @ abs(x)))


class TestStackProducts:
    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("name", list(STACK_SYSTEMS))
    def test_assembled_products_match_dense(self, name, precision):
        bt, lt = _stack_system(name, precision)
        rng = np.random.default_rng(11)
        s = precondition_global_rect(bt)
        check_stack_products(bt, rng, s)      # builds the Gram
        check_stack_products(bt, rng)
        # the Gram is built once, and its column scaling is D* G D
        g = bt.gram
        assert bt.gram is g
        sd = scipy.sparse.diags(s.astype(g.dtype))
        np.testing.assert_allclose(
            _scale_columns(g, s.astype(g.dtype)).toarray(), (sd.conj() @ g @ sd).toarray(),
            rtol=4 * np.finfo(np.float64).eps, atol=0,
        )

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_square_gram_is_the_panel_sum(self, precision):
        """The square system's Gram S* S, put in by the assembly as one sparse
        product, equals the sum of its one-row panels' P* P."""
        bt, _ = _stack_system("one-row", precision)
        g = bt.gram
        assert g is bt.square_gram
        want = RectangularRowBlocked(bt.n_cols, bt.n_rows, bt.stacks).gram
        assert g.dtype == want.dtype == np.float64
        assert scipy.sparse.linalg.norm(g - want) <= 1e-14 * scipy.sparse.linalg.norm(want)

    @pytest.mark.parametrize("name", list(NORMAL_SYSTEMS))
    def test_normal_matvec_matches_gram(self, name):
        """B* B x on the stacks' Grams equals the CSR Gram's product.

        Both sum the same m_i products G_e[i, j] x_j into entry i, for G_e
        the elements' Grams (the CSR adds the entries of each (i, j) first),
        so each is within gamma(m_i) ~ m_i eps / 2 of the exact sum, relative
        to M_i = sum |G_e[i, j]| |x_j|: the two differ by at most
        2 m_i eps M_i, in double (m_i is k times the count of elements at
        column i: at most 64 here).  A square system multiplies by its S* S."""
        fname, p, n, cname, precision = NORMAL_SYSTEMS[name]
        case = make_case(cname)
        form = make_formulation(fname, p=p, dp=1, alpha=case.alpha)
        bt = assemble_overdetermined(build_context(uniform_mesh(n), form, case, Options(precision=precision)))[0]
        rng = np.random.default_rng(17)
        for x in (rng.standard_normal(bt.n_cols), _random_vector(rng, bt.n_cols, np.complex128)):
            got, want = bt.normal_matvec(x), bt.gram @ x
            assert got.dtype == want.dtype == np.result_type(bt.dtype, x, np.float64)
            if bt.square_gram is not None:
                np.testing.assert_array_equal(got, want)
                continue
            terms, mag = np.zeros(bt.n_cols), np.zeros(bt.n_cols)
            for st, g in zip(bt.stacks, bt.stack_grams):
                np.add.at(terms, st.cols, g.shape[-1])
                v = abs(x[st.cols])
                np.add.at(mag, st.cols, v @ abs(g).T if g.ndim == 2 else (abs(g) @ v[..., None])[..., 0])
            assert np.all(abs(got - want) <= 2 * terms * np.finfo(np.float64).eps * mag)
        panels = {"shared" if st.panel.ndim == 2 else "row" if st.panel.shape[-2] == 1 else "per-element" for st in bt.stacks}
        assert panels == {"fosls-variable-alpha": {"per-element"}, "bubnov": {"row"}}.get(name, {"shared"})

    @pytest.mark.parametrize("name", list(STACK_SYSTEMS))
    def test_ne_quadratic_form_matches_dense(self, name):
        """x* A_s x of A_s = D A D, taken as (D x)* A (D x) on the element
        blocks (on S* S for the square system), equals the dense product with
        A_s, and the CSR sum of the blocks is not built."""
        fname, p, n, cname = STACK_SYSTEMS[name]
        case = make_case(cname)
        form = make_formulation(fname, p=p, dp=1, alpha=case.alpha)
        a = assemble_ne(build_context(uniform_mesh(n), form, case))[0]
        s = precondition_global(a)
        rng = np.random.default_rng(5)
        xs = [_random_vector(rng, a.n, a.dtype) for _ in range(3)]
        got = [a.quadratic_form(s * x) for x in xs]
        assert (a._matrix is None) == (a.blocks is not None)
        dense = _scale_columns(a.matrix, s).toarray()
        for x, q in zip(xs, got):
            ref = np.vdot(x, dense @ x)
            assert abs(q - ref.real) <= 64 * np.finfo(np.float64).eps * np.vdot(abs(x), abs(dense) @ abs(x)).real

    @pytest.mark.parametrize("dtype", DTYPES)
    @PROPERTY
    @given(data=st.data())
    def test_property_shared_and_per_element_stacks(self, dtype, data):
        stacks, ncols, how = data.draw(shared_problems(dtype))
        bt = RectangularRowBlocked(ncols, sum(st.loads.size for st in stacks), stacks)
        check_stack_products(bt, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), how["scale"])

    @pytest.mark.parametrize("dtype", DTYPES)
    @PROPERTY
    @given(data=st.data())
    def test_property_one_row_stacks(self, dtype, data):
        stacks, ncols, _ = data.draw(row_problems(dtype))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        s = np.exp(rng.uniform(-2, 2, ncols)).astype(dtype)
        check_stack_products(RectangularRowBlocked(ncols, sum(st.loads.size for st in stacks), stacks), rng, s)
