"""Global system construction.

One element pipeline (compute, Gram preconditioning, precision cast,
whitening, Dirichlet modification, condensation) feeds two assembly paths:

* ``assemble_ne``  gives the element normal equations (A_K, f_K),
  A_K = Btilde_K* Btilde_K, as one :class:`BlockStack` per element class,
  whose sums are A and f (summed as CSR and vector only when read); each
  block carries its element's mesh cell, which places it in the
  elimination tree of the Cholesky.  The square product S* S is one
  sparse matrix, formed once per context.
* ``assemble_overdetermined`` gives the whitened rectangular system
  (Btilde, ltilde) as one :class:`RowStack` per element class: its shared
  panel with the columns, row loads and row offsets of its elements (the
  broken test space means no two elements share a row, so element e owns
  rows e*M .. e*M + M - 1).  A square system is one stack of one-row
  panels per row width of S.  Each panel carries the mesh cell of its
  element (a row of S, that of its DOF), which places it in the block
  QR's elimination tree.

Both are immutable data over the unscaled matrix with its load; the
global column scale is a vector that its users apply.

The pipeline runs on element classes, not on single elements.  The master
element system is computed once; the elements whose Dirichlet column
pattern agrees (interior, four edge and four corner classes on a uniform
mesh) form one :class:`ElementClass`, which holds one whitened matrix and
the stacked loads and global indices of its elements.  Each layer does a
few array operations per class: a variable coefficient turns the shared
matrix into a per-element stack that the same calls accept.

Single-precision studies compute element matrices in double and convert
them to the working precision just before whitening; everything from the
Cholesky factorization of the Gram matrix onward then runs in the working
precision, which is the round-off-critical region of the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse

from . import basis, element, linalg
from .basis import gauss_rule
from .blockqr import BlockStack, RowStack, TreePlan
from .element import NonpositiveDiagonal, RankDeficientBubbles, SingularBubbleBlock
from .formulation import Formulation, ManufacturedCase
from .mesh import Mesh, build_layout, entity_dofs


@dataclass
class Options:
    """Assembly options, each set by a CLI flag.

    The two diagonal scalings are no options: the element Gram matrix is
    always scaled to unit diagonal before whitening (a row scaling, which
    leaves the whitened matrix unchanged in exact arithmetic), and the
    solvers always scale the global columns (:func:`precondition_global`).
    """

    condense: bool = True
    precision: str = "double"     # "single" | "double"

    def real_dtype(self):
        return np.float32 if self.precision == "single" else np.float64

    def working_dtype(self, form: Formulation):
        if form.field == "complex":
            return np.complex64 if self.precision == "single" else np.complex128
        return self.real_dtype()


class SparseSymmetric:
    """Hermitian matrix A with its load f: the sums of the element blocks
    ``blocks`` (one :class:`BlockStack` per element class) and of their
    loads, which ``solve_ne`` factors on the elimination tree of
    :mod:`dlsfem.blockqr`.  Their CSR sum (``matrix``) and summed load
    (``rhs``) are built only when read (diagnostics, export, matrix
    distances).  A system without blocks (the square product S* S) is given
    as its ``matrix`` and ``rhs``.
    """

    def __init__(self, n: int, matrix=None, blocks=None, rhs=None):
        self.n = n
        self.blocks = blocks
        self._matrix = matrix
        self._rhs = rhs

    @property
    def dtype(self):
        return self._matrix.dtype if self.blocks is None else self.blocks[0].panel.dtype

    @property
    def matrix(self) -> scipy.sparse.csr_matrix:
        if self._matrix is None:
            self._matrix = _sum_blocks(self.n, [(st.cols, st.panel) for st in self.blocks])
        return self._matrix

    @property
    def rhs(self) -> np.ndarray:
        if self._rhs is None:
            # summed aside, then set: no thread reads a partial sum
            rhs = np.zeros(self.n, dtype=self.dtype)
            for st in self.blocks:
                np.add.at(rhs, st.cols, st.loads)
            self._rhs = rhs
        return self._rhs

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def diagonal(self) -> np.ndarray:
        if self.blocks is None:
            return self.matrix.diagonal()
        return _sum_columns(self.n, [(st.cols, np.real(np.diagonal(st.panel, axis1=-2, axis2=-1))) for st in self.blocks])

    def quadratic_form(self, x: np.ndarray) -> float:
        """Re x* A x, block by block: no CSR sum of the blocks is made."""
        if self.blocks is None:
            return float(np.real(np.vdot(x, self.matrix @ x)))
        total = 0.0
        for st in self.blocks:
            v = x[st.cols]
            av = v @ st.panel.T if st.panel.ndim == 2 else linalg.matvec(st.panel, v)
            total += np.real(np.vdot(v, av))
        return float(total)


@dataclass(frozen=True, eq=False)
class RectangularRowBlocked:
    """Row-blocked rectangular matrix B with its load as :class:`RowStack` s,
    one per element class (or per row width of a square S).

    Products run stack by stack on the panels; no global copy of B is
    formed.  The solvers' column scale is not part of it.
    """

    n_cols: int
    n_rows: int
    stacks: list
    square_gram: Optional[scipy.sparse.csr_matrix] = dc_field(default=None, repr=False)  # S* S of a square system

    @property
    def dtype(self):
        return self.stacks[0].panel.dtype if self.stacks else np.dtype(np.float64)

    def to_coo(self):
        # filled stack by stack: only one stack's panels are held besides the output
        nnz = sum(st.cols.size * st.panel.shape[-2] for st in self.stacks)
        vals = np.empty(nnz, dtype=self.dtype)
        rows, cols = np.empty(nnz, dtype=np.int64), np.empty(nnz, dtype=np.int64)
        pos = 0
        for st in self.stacks:
            shape = (st.cols.shape[0],) + st.panel.shape[-2:]
            end = pos + st.cols.size * st.panel.shape[-2]
            vals[pos:end].reshape(shape)[...] = st.panel
            rows[pos:end].reshape(shape)[...] = st.rows[:, :, None]
            cols[pos:end].reshape(shape)[...] = st.cols[:, None, :]
            pos = end
        return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(self.n_rows, self.n_cols))

    def to_dense(self) -> np.ndarray:
        return self.to_coo().toarray()

    @cached_property
    def rhs(self) -> np.ndarray:
        """The load over the rows, gathered from the stacks."""
        out = np.zeros(self.n_rows, dtype=self.dtype)
        for st in self.stacks:
            out[st.rows] = st.loads
        return out

    @cached_property
    def stack_grams(self) -> list:
        """Each stack's P* P in double (complex128 for complex panels): one
        (k, k) Gram of a shared panel, or an (E, k, k) stack of per-element
        panels; formed on first use."""
        grams = []
        for st in self.stacks:
            p = st.panel.astype(np.result_type(st.panel.dtype, np.float64), copy=False)
            g = linalg.adjoint(p) @ p
            # a shared Gram in column order: normal_matvec multiplies by its transpose
            grams.append(np.asfortranarray(g) if g.ndim == 2 else g)
        return grams

    @cached_property
    def _flat_cols(self) -> np.ndarray:
        """The stacks' columns, each flattened, in stack order."""
        return np.concatenate([st.cols.ravel() for st in self.stacks])

    @cached_property
    def _complex_slots(self) -> np.ndarray:
        """Each column c of :attr:`_flat_cols` as the slots 2c, 2c + 1 of a
        real sum, which keep the real and imaginary parts of a complex sum
        apart (its complex128 view is the complex sum)."""
        return (2 * self._flat_cols[:, None] + np.arange(2)).ravel()

    def normal_matvec(self, x: np.ndarray) -> np.ndarray:
        """B* B x in double (complex128 for complex panels or x) on the
        stacks' Grams: per stack, one gather of x and one batched product,
        then one column sum over all stacks, of the real and imaginary parts
        apart; no global matrix is formed.  A square system multiplies by
        its S* S."""
        if self.square_gram is not None:
            return self.square_gram @ x
        # np.dot: the least overhead per call, for the tiny stacks of coarse levels
        y = np.concatenate([
            (np.dot(x[st.cols], g.T) if g.ndim == 2 else linalg.matvec(g, x[st.cols])).ravel()
            for st, g in zip(self.stacks, self.stack_grams)
        ])
        if np.iscomplexobj(y):
            return np.bincount(self._complex_slots, y.view(np.float64), 2 * self.n_cols).view(np.complex128)
        return np.bincount(self._flat_cols, y, self.n_cols)

    @cached_property
    def gram(self) -> scipy.sparse.csr_matrix:
        """B* B as a CSR matrix, the sum of :attr:`stack_grams`, built on first
        use; a square system's assembly gives S* S.  Only the condition
        diagnostic at N <= ``studies.COND_LIMIT`` (it hands a matrix to a
        sparse LU) and the tests read it; products run on
        :meth:`normal_matvec`."""
        if self.square_gram is not None:
            return self.square_gram
        return _sum_blocks(self.n_cols, [(st.cols, g) for st, g in zip(self.stacks, self.stack_grams)])

    def col_norms_sq(self) -> np.ndarray:
        return _sum_columns(self.n_cols, [(st.cols, np.sum(np.abs(st.panel) ** 2, axis=-2)) for st in self.stacks])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """B x, one batched product per stack (each row lies in one stack)."""
        out = np.zeros(self.n_rows, dtype=np.result_type(self.dtype, x))
        for st in self.stacks:
            v = x[st.cols]
            out[st.rows] = v @ st.panel.T if st.panel.ndim == 2 else (st.panel @ v[..., None])[..., 0]
        return out

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """B* r, one batched product per stack."""
        out = np.zeros(self.n_cols, dtype=np.result_type(self.dtype, r))
        for st in self.stacks:
            v = r[st.rows]
            ph = st.panel.conj()
            np.add.at(out, st.cols, v @ ph if ph.ndim == 2 else (v[:, None, :] @ ph)[:, 0])
        return out


@dataclass(frozen=True, eq=False)
class ElementClass:
    """Elements that share one Dirichlet column signature, with stacked data.

    With constant coefficients the class shares one whitened matrix ``bt``
    (M, k); a variable coefficient makes it a stack (E, M, k).  Loads are
    always stacked, (E, M).  The condensation factors depend on ``bt`` and
    ``lt`` only; they are computed for the whole class on first use and
    kept, so every assembler and solver of a context sees the same ones.
    Threads that reach a factor at the same time may each compute it; the
    results are equal, so it does not matter whose is kept.
    """

    elements: np.ndarray       # (E,) element ids, increasing
    gdofs: np.ndarray          # (E, nloc) local -> global trial ids (full local set)
    free_local: np.ndarray     # local positions that survived BC elimination
    bubble_pos: np.ndarray     # positions within free columns
    interf_pos: np.ndarray
    bt: np.ndarray             # whitened, BC-modified matrix (M, k) or (E, M, k)
    lt: np.ndarray             # whitened, BC-modified loads (E, M)
    square: bool = False       # bt is the square matrix of a conforming test space

    @property
    def free_ids(self) -> np.ndarray:
        return self.gdofs[:, self.free_local]

    @property
    def interface_ids(self) -> np.ndarray:
        return self.gdofs[:, self.free_local[self.interf_pos]]

    @property
    def bubble_ids(self) -> np.ndarray:
        return self.gdofs[:, self.free_local[self.bubble_pos]]

    @cached_property
    def cond_ls(self) -> element.CondensedElement:
        """Least-squares condensation: projected rows, bubble QR factors."""
        return element.condense_ls(self.bt, self.lt, self.bubble_pos, self.interf_pos)

    @cached_property
    def cond_ne(self) -> element.SchurElement:
        """Schur condensation of the element normal equation (A_K, f_K).

        The square matrix of a conforming test space is condensed as it is.
        """
        a, f = (self.bt, self.lt) if self.square else element.element_ne(self.bt, self.lt)
        return element.condense_ne(a, f, self.bubble_pos, self.interf_pos, hermitian=not self.square)


@dataclass
class AssemblyContext:
    """Everything the solvers need besides the global matrix itself."""

    formulation: Formulation
    mesh: Mesh
    case: ManufacturedCase
    options: Options
    rule: object
    layouts: list                  # per trial component
    offsets: list
    n_total: int
    fixed_mask: np.ndarray
    lift_full: np.ndarray
    free_ids: np.ndarray
    solve_ids: np.ndarray          # columns of the assembled system
    solve_index: np.ndarray        # n_total -> position in solve_ids or -1
    bubble_mask: np.ndarray
    positions: np.ndarray          # (n_total, 2)
    classes: list = dc_field(default_factory=list)   # ElementClass per BC signature
    records: tuple = ()            # kept empty for bench/tracing.py, which counts len(records)
    # conforming-test (square) systems only: S with its load, and S* S
    square: Optional[SparseSymmetric] = None
    square_normal: Optional[scipy.sparse.csr_matrix] = None
    tree: Optional[TreePlan] = dc_field(default=None, repr=False)   # see tree_plan

    @property
    def n_solve(self) -> int:
        return self.solve_ids.size

    @property
    def n_free(self) -> int:
        return self.free_ids.size

    def tree_plan(self, stacks) -> TreePlan:
        """The elimination tree's plan over ``stacks``, the blocks or row
        panels of a system over the solve columns.  The context keeps it:
        the NE's blocks and the QR's row panels come from the same classes,
        cells and columns, so the solvers of a level analyse the tree once,
        and stacks it does not fit (:meth:`TreePlan.fits`) get a plan of
        their own.  Threads may build it twice; the plans are equal."""
        plan = self.tree
        if plan is None or not plan.fits(stacks, self.n_solve):
            plan = self.tree = TreePlan.build(stacks, self.n_solve)
        return plan

    def sort_keys(self) -> np.ndarray:
        """(x, y, component) keys of the solve columns, for solver orderings."""
        pos = self.positions[self.solve_ids]
        comp = np.zeros(self.n_total)
        for idx, (lay, off) in enumerate(zip(self.layouts, self.offsets)):
            comp[off : off + lay.n_total] = idx
        return np.column_stack([pos, comp[self.solve_ids]])


def trial_layouts(mesh: Mesh, form: Formulation):
    layouts = [build_layout(mesh, c.kind, c.p) for c in form.trial]
    offsets = np.concatenate([[0], np.cumsum([l.n_total for l in layouts])])[:-1]
    return layouts, list(offsets)


def edge_coefficients(mesh: Mesh, layout, edges, vertices, value, flux, dtype):
    """Coefficients of ``layout`` on the given edges and vertices (zero
    elsewhere), all edges at once.

    For h1 and trace_h1: ``value`` interpolated at the vertices, and the
    edge-wise L2 projection of its remainder over the linear interpolant
    onto the edge hats.  For trace_flux: the normal ``flux(x, y, nx, ny)``
    projected onto the orthonormal edge Legendre basis, with the global
    edge normals (+y on horizontal edges, +x on vertical ones).  Other kinds
    have no edge rule (ValueError).
    """
    out = np.zeros(layout.n_total, dtype=dtype)
    p = layout.p
    q1 = gauss_rule(p + 3)
    t, w = q1.points_1d, q1.weights_1d
    # unit direction (E, 2) and quadrature points (E, nq) of every edge
    along = np.where(mesh.edge_orientation[edges, None] == 0, [[1.0, 0.0]], [[0.0, 1.0]])
    start = mesh.edge_midpoints[edges] - 0.5 * mesh.h * along
    end = mesh.edge_midpoints[edges] + 0.5 * mesh.h * along
    x = start[:, :1] + mesh.h * t * along[:, :1]
    y = start[:, 1:] + mesh.h * t * along[:, 1:]
    # global ids of the edges' DOFs, numbered after the vertex DOFs
    per_vertex, per_edge, _ = entity_dofs(layout.kind, p)
    edge_ids = mesh.vertices.shape[0] * per_vertex + edges[:, None] * per_edge + np.arange(per_edge)
    if layout.kind in ("h1", "trace_h1"):
        out[vertices] = value(mesh.vertices[vertices, 0], mesh.vertices[vertices, 1])
        if per_edge:
            hats, _ = basis.h1_hierarchical(p, t)
            gram = np.einsum("ip,p,jp->ij", hats[2:], w, hats[2:])
            u0 = value(start[:, 0], start[:, 1])[:, None]
            u1 = value(end[:, 0], end[:, 1])[:, None]
            resid = value(x, y) - (u0 * hats[0] + u1 * hats[1])
            rhs = np.einsum("ip,ep->ie", hats[2:], w * resid)
            out[edge_ids] = np.linalg.solve(gram, rhs).T
    elif layout.kind == "trace_flux":
        leg, _ = basis.legendre_shifted(p - 1, t)
        vals = flux(x, y, along[:, 1:], along[:, :1])
        out[edge_ids] = np.einsum("ip,ep->ei", leg, w * vals)
    else:
        raise ValueError(f"no edge rule for {layout.kind}")
    return out


def build_context(
    mesh: Mesh,
    form: Formulation,
    case: ManufacturedCase,
    options: Optional[Options] = None,
) -> AssemblyContext:
    """Run the element pipeline for the whole mesh, one element class at a time.

    The separate NE/overdetermined assemblers consume the resulting
    context; for a given context both views of the problem are guaranteed
    to come from identical whitened element data.  The load f and a variable
    alpha are evaluated on the mesh's quadrature grid (:meth:`Mesh.at_quadrature_points`).

    A conforming-test (Bubnov-Galerkin) formulation runs the same pipeline:
    its Gram matrix is the identity, so whitening leaves the square
    stiffness matrix as it is, and the test functions of fixed DOFs are
    dropped with their columns.  Its context also carries the square
    system S with its load, the sum of the (condensed) element matrices and
    loads, and the product S* S.
    """
    options = options or Options()
    square = form.test_conforming
    rule = gauss_rule(form.quadrature_order)
    kern = form.kernels(mesh.h, rule)
    layouts, offsets = trial_layouts(mesh, form)
    n_total = int(offsets[-1] + layouts[-1].n_total)

    gdofs_all = np.concatenate(
        [lay.element_dofs + off for lay, off in zip(layouts, offsets)], axis=1
    )

    fixed_mask = np.zeros(n_total, dtype=bool)
    lift_full = np.zeros(n_total, dtype=form.dtype)
    if form.dirichlet_component is not None:
        for comp, lay, off in zip(form.trial, layouts, offsets):
            if comp.name != form.dirichlet_component:
                continue
            fixed_mask[off + lay.boundary_dofs] = True
            has_data = (
                case.boundary_value is not None
                if lay.kind in ("h1", "trace_h1")
                else case.boundary_flux is not None
            )
            if has_data:
                lift = edge_coefficients(
                    mesh, lay, np.flatnonzero(mesh.edge_on_boundary),
                    np.flatnonzero(mesh.vertex_on_boundary), case.boundary_value,
                    case.boundary_flux, form.dtype,
                )
                lift_full[off : off + lay.n_total][lay.boundary_dofs] = lift[
                    lay.boundary_dofs
                ]

    # bubbles: the interior DOFs, which every layout numbers last
    bubble_mask = np.zeros(n_total, dtype=bool)
    if options.condense:
        for lay, off in zip(layouts, offsets):
            bubble_mask[off + lay.n_total - mesh.n_elements * lay.n_interior : off + lay.n_total] = True

    free_mask = ~fixed_mask
    free_ids = np.flatnonzero(free_mask)
    solve_ids = np.flatnonzero(free_mask & ~bubble_mask)
    solve_index = np.full(n_total, -1, dtype=np.int64)
    solve_index[solve_ids] = np.arange(solve_ids.size)

    positions = np.concatenate([lay.positions for lay in layouts], axis=0)

    # --- master element data, whitened loads of every element -------------
    wdtype = options.working_dtype(form)
    g_scaled, b_scaled, _, dvec = element.precondition_gram(kern["G"], kern["B"], np.zeros(form.n_test_local))
    row_scale = 1.0 / np.sqrt(dvec)

    ne, m_test = mesh.n_elements, form.n_test_local
    # batched loads: f on the quadrature grid of every element at once
    l_all = np.zeros((ne, m_test), dtype=form.dtype)
    l_all[:, kern["load_rows"]] = np.einsum(
        "ip,ep->ei", kern["load_table"] * rule.weights, mesh.at_quadrature_points(case.f, rule)
    )
    l_all *= row_scale[None, :]

    if kern["alpha_var"] is not None:
        av = kern["alpha_var"]
        avals = mesh.at_quadrature_points(form.alpha, rule)
        b_scaled = np.repeat(b_scaled[None], ne, axis=0)
        b_scaled[:, av["rows"], av["cols"]] += (
            np.einsum("ip,ep,jp->eij", av["test_tab"] * rule.weights, avals, av["trial_tab"])
            * row_scale[av["rows"], None]
        )
    bt_full, lt_all = element.whiten(
        g_scaled.astype(options.real_dtype()), b_scaled.astype(wdtype), l_all.astype(wdtype)
    )

    # --- element classes: BC modification once per Dirichlet signature -----
    fixed_local = fixed_mask[gdofs_all]
    # signatures as byte strings: np.unique(fixed_local, axis=0) compares
    # them field by field, about 25x slower
    packed = np.packbits(fixed_local, axis=1)
    signatures, which = np.unique(packed.view(f"V{packed.shape[1]}").ravel(), return_inverse=True)
    classes = []
    for i in range(signatures.size):
        els = np.flatnonzero(which == i)
        bt, lt, free_local = element.apply_dirichlet(
            bt_full if bt_full.ndim == 2 else bt_full[els],
            lt_all[els],
            np.flatnonzero(fixed_local[els[0]]),
            lift_full[gdofs_all[els]],
        )
        if square:
            bt, lt = bt[..., free_local, :], lt[:, free_local]
        bub = bubble_mask[gdofs_all[els[0], free_local]]
        classes.append(
            ElementClass(
                elements=els,
                gdofs=gdofs_all[els],
                free_local=free_local,
                bubble_pos=np.flatnonzero(bub),
                interf_pos=np.flatnonzero(~bub),
                bt=bt,
                lt=lt,
                square=square,
            )
        )

    ctx = AssemblyContext(
        formulation=form,
        mesh=mesh,
        case=case,
        options=options,
        rule=rule,
        layouts=layouts,
        offsets=offsets,
        n_total=n_total,
        fixed_mask=fixed_mask,
        lift_full=lift_full,
        free_ids=free_ids,
        solve_ids=solve_ids,
        solve_index=solve_index,
        bubble_mask=bubble_mask,
        positions=positions,
        classes=classes,
    )
    if square:
        ctx.square = _element_system(ctx)
        ctx.square_normal = (ctx.square.matrix.conj().T @ ctx.square.matrix).tocsr()
    return ctx


class AssemblyError(Exception):
    """Element-level failure annotated with the element id."""


def build_square_context(
    mesh: Mesh,
    form: Formulation,
    case: ManufacturedCase,
    options: Optional[Options] = None,
) -> AssemblyContext:
    """Assembly for conforming-test (Bubnov-Galerkin) formulations.

    The test space equals the trial space, the Gram matrix is the
    identity, and the 'whitened' system is the square stiffness matrix
    itself.  Static condensation is the classical per-element Schur
    elimination of interior DOFs.  The condensed matrix S is kept sparse
    (``AssemblyContext.square``): the least-squares view hands its rows to the
    block QR as one-row panels, and the normal equation is the sparse
    product S* S (squaring the condition number, as forming normal
    equations of a traditional method must).
    """
    if not form.test_conforming:
        raise ValueError("build_square_context needs a conforming-test formulation")
    return build_context(mesh, form, case, options)


def _class_system(c: ElementClass, solve_index, ls: bool):
    """(matrix, loads, solve columns) that one class adds to an assembled system.

    ``ls`` selects the rows of the overdetermined system, otherwise the
    element normal equation (the square matrix itself for a conforming
    test space).  Both are condensed to the interface columns; a class
    without bubbles (every class of an uncondensed context) gives its own
    matrix and loads.
    """
    try:
        cond = c.cond_ls if ls else c.cond_ne
    except (RankDeficientBubbles, SingularBubbleBlock, linalg.NotPositiveDefinite) as err:
        raise AssemblyError(
            f"element {c.elements[0]} (class of {c.elements.size}): {err}"
        ) from err
    return cond.rows if ls else cond.schur, cond.rhs, solve_index[c.interface_ids]


def element_cells(mesh: Mesh) -> np.ndarray:
    """(n_elements, 2) integer mesh cell of every element."""
    return np.rint(mesh.element_origins() / mesh.h).astype(np.int64)


def assemble_overdetermined(ctx: AssemblyContext):
    """Row-blocked rectangular system (Btilde, ltilde) per Algorithm-3 order:
    each class adds the rows and loads of its elements as one stack.

    Returns (RectangularRowBlocked, its load ltilde).
    """
    if ctx.square is not None:
        # one stack of one-row panels per row width of S, over the nonzeros;
        # row i sits in the mesh cell of its DOF i
        s, rhs, mesh = ctx.square.matrix, ctx.square.rhs, ctx.mesh
        cells = np.clip(np.floor(ctx.positions[ctx.solve_ids] / mesh.h), 0, mesh.n - 1).astype(np.int64)
        width = np.diff(s.indptr)
        stacks = []
        for w in np.unique(width):
            rows = np.flatnonzero(width == w)
            at = s.indptr[rows, None] + np.arange(w)
            stacks.append(RowStack(s.data[at][:, None, :], s.indices[at], rhs[rows, None], cells[rows], rows))
        # the Gram S* S as one sparse product: the context's in double
        s64 = s.astype(np.result_type(s.dtype, np.float64), copy=False)
        gram = ctx.square_normal if s64 is s else (s64.conj().T @ s64).tocsr()
        bt = RectangularRowBlocked(ctx.n_solve, s.shape[0], stacks, gram)
        return bt, bt.rhs
    m = ctx.formulation.n_test_local
    cells = element_cells(ctx.mesh)
    stacks = []
    for c in ctx.classes:
        mat, vec, cols = _class_system(c, ctx.solve_index, ls=True)
        # element e owns rows e*m .. e*m + m - 1
        stacks.append(RowStack(mat, cols, vec, cells[c.elements], c.elements * m))
    bt = RectangularRowBlocked(ctx.n_solve, ctx.mesh.n_elements * m, stacks)
    return bt, bt.rhs


def _element_system(ctx: AssemblyContext) -> SparseSymmetric:
    """The element normal equations (A_K, f_K) of the classes, or the square
    matrices and loads of a conforming test space, one :class:`BlockStack`
    per class with its elements' mesh cells."""
    cells = element_cells(ctx.mesh)
    blocks = []
    for c in ctx.classes:
        mat, vec, cols = _class_system(c, ctx.solve_index, ls=False)
        blocks.append(BlockStack(mat, cols, vec, cells[c.elements]))
    return SparseSymmetric(ctx.n_solve, blocks=blocks)


def assemble_ne(ctx: AssemblyContext):
    """Hermitian normal equation (A, f) per Algorithm 2: the sums of the
    element normal equations (A_K, f_K).  The square product S* S is the
    one sparse matrix of the context, with the load S* l.

    Returns (SparseSymmetric, its load f).
    """
    if ctx.square is None:
        a = _element_system(ctx)
    else:
        s = ctx.square
        a = SparseSymmetric(ctx.n_solve, matrix=ctx.square_normal, rhs=s.matrix.conj().T @ s.rhs)
    return a, a.rhs


def _sum_blocks(n, parts):
    """(n, n) CSR sum of dense blocks: ``parts`` holds (cols (E, k), mats (k, k) or (E, k, k))."""
    if not parts:
        return scipy.sparse.csr_matrix((n, n))
    rows_idx, cols_idx, vals = [], [], []
    for cols, mats in parts:
        e, k = cols.shape
        rows_idx.append(np.repeat(cols, k, axis=1).ravel())
        cols_idx.append(np.tile(cols, (1, k)).ravel())
        vals.append(np.broadcast_to(mats, (e, k, k)).ravel())
    coo = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows_idx), np.concatenate(cols_idx))),
        shape=(n, n),
    )
    csr = coo.tocsr()
    csr.sum_duplicates()
    return csr


def _scale_columns(csr, scale):
    """D* csr D for the diagonal D = ``scale``, a new CSR on the same pattern."""
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    data = scale.conj()[rows] * csr.data * scale[csr.indices]
    return scipy.sparse.csr_matrix((data, csr.indices, csr.indptr), shape=csr.shape)


def _sum_columns(n, parts):
    """(n,) sum of per-column values: ``parts`` holds (cols (E, k), values
    (k,) or (E, k))."""
    d = np.zeros(n)
    for cols, vals in parts:
        d += np.bincount(cols.ravel(), weights=np.broadcast_to(vals, cols.shape).ravel(), minlength=n)
    return d


# ---------------------------------------------------------------------------
# Global diagonal preconditioning
# ---------------------------------------------------------------------------

def precondition_global(a: SparseSymmetric) -> np.ndarray:
    """Column scale s = diag(A)^-1/2 in A's dtype: D A D has unit diagonal
    for D = diag(s), and A x = f is solved by x = s * u, D A D u = s * f."""
    d = np.real(a.diagonal())
    if np.any(d <= 0):
        raise NonpositiveDiagonal("zero or negative diagonal entry (disconnected DOF?)")
    return (1.0 / np.sqrt(d)).astype(a.dtype)


def precondition_global_rect(bt: RectangularRowBlocked) -> np.ndarray:
    """Column scale s to unit column norms in Btilde's dtype, that of
    :func:`precondition_global` for Btilde* Btilde: x = s * u, u = argmin ||Btilde D u - ltilde||."""
    d = bt.col_norms_sq()
    if np.any(d <= 0):
        raise NonpositiveDiagonal("zero column in Btilde (disconnected DOF?)")
    return (1.0 / np.sqrt(d)).astype(bt.dtype)


# ---------------------------------------------------------------------------
# Matrix Market export
# ---------------------------------------------------------------------------

def write_matrix_market(path, obj):
    """Write a matrix or vector in Matrix Market format, 17 digits; a
    complex normal equation as the lower triangle of a Hermitian matrix."""
    import scipy.io

    if isinstance(obj, SparseSymmetric):
        mat = obj.matrix.tocoo()
        if np.iscomplexobj(mat.data):
            scipy.io.mmwrite(path, scipy.sparse.tril(mat), precision=17, symmetry="hermitian")
        else:
            scipy.io.mmwrite(path, mat, precision=17, symmetry="general")
    elif isinstance(obj, RectangularRowBlocked):
        scipy.io.mmwrite(path, obj.to_coo(), precision=17, symmetry="general")
    else:
        arr = np.asarray(obj)
        scipy.io.mmwrite(path, arr.reshape(-1, 1), precision=17)
