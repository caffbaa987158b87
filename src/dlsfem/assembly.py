"""Global system construction.

Two assembly paths share one per-element pipeline (compute, Gram
preconditioning, precision cast, whitening, Dirichlet modification,
condensation):

* ``assemble_ne``  accumulates the element normal equations
  A_K = Btilde_K* Btilde_K into one sparse Hermitian matrix (standard
  conforming-FEM accumulation).
* ``assemble_overdetermined`` stacks the whitened rectangular element
  blocks row by row; the broken test space means no two elements touch the
  same row, so blocks are simply concatenated.

Uniform meshes allow heavy sharing: the master element system is computed
once, and elements whose Dirichlet column pattern agrees (all interior
elements, for instance) share their whitened/condensed matrices, leaving
only load vectors element specific.

Single-precision studies compute element matrices in double and convert
them to the working precision just before whitening; everything from the
Cholesky factorization of the Gram matrix onward then runs in the working
precision, which is the round-off-critical region of the pipeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
import scipy.sparse

from . import basis, element, linalg
from .basis import gauss_rule
from .element import NonpositiveDiagonal
from .formulation import Formulation, ManufacturedCase
from .mesh import Mesh, build_layout


@dataclass
class Options:
    """Assembly options: toggles mirror the CLI flags."""

    condense: bool = True
    precondition_gram: bool = True
    eliminate_bc: bool = True
    precision: str = "double"     # "single" | "double"

    def real_dtype(self):
        return np.float32 if self.precision == "single" else np.float64

    def working_dtype(self, form: Formulation):
        if form.field == "complex":
            return np.complex64 if self.precision == "single" else np.complex128
        return self.real_dtype()


@dataclass
class SparseSymmetric:
    """Hermitian sparse matrix in deduplicated coordinate storage."""

    n: int
    matrix: scipy.sparse.csr_matrix

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal()

    def hermitian_defect(self) -> float:
        diff = self.matrix - self.matrix.conj().T
        scale = scipy.sparse.linalg.norm(self.matrix)
        return float(scipy.sparse.linalg.norm(diff) / scale) if scale else 0.0

    def coo(self):
        return self.matrix.tocoo()


@dataclass
class RowBlock:
    """One element's rows of the global rectangular system."""

    rows: np.ndarray     # (m, k) dense panel
    cols: np.ndarray     # (k,) global column ids
    offset: int          # global row offset


@dataclass
class RectangularRowBlocked:
    """Row-blocked rectangular matrix; every row belongs to one element.

    The blocks are not to be changed once ``matvec``/``rmatvec`` has run:
    the products use an operator built from them on first use.
    """

    n_cols: int
    n_rows: int
    blocks: list
    _products: Optional[tuple] = dc_field(default=None, init=False, repr=False, compare=False)

    def to_coo(self):
        rows, cols, vals = [], [], []
        for blk in self.blocks:
            m, k = blk.rows.shape
            rows.append(np.repeat(np.arange(m) + blk.offset, k))
            cols.append(np.tile(blk.cols, m))
            vals.append(blk.rows.ravel())
        if not rows:
            return scipy.sparse.coo_matrix((self.n_rows, self.n_cols))
        return scipy.sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n_rows, self.n_cols),
        )

    def to_dense(self) -> np.ndarray:
        dtype = self.blocks[0].rows.dtype if self.blocks else np.float64
        out = np.zeros((self.n_rows, self.n_cols), dtype=dtype)
        for blk in self.blocks:
            out[blk.offset : blk.offset + blk.rows.shape[0], blk.cols] = blk.rows
        return out

    def normal_matrix(self) -> np.ndarray:
        """Dense Btilde* Btilde, accumulated block by block (diagnostics)."""
        dtype = self.blocks[0].rows.dtype if self.blocks else np.float64
        a = np.zeros((self.n_cols, self.n_cols), dtype=dtype)
        for blk in self.blocks:
            a[np.ix_(blk.cols, blk.cols)] += blk.rows.conj().T @ blk.rows
        return a

    def col_norms_sq(self) -> np.ndarray:
        d = np.zeros(self.n_cols)
        for blk in self.blocks:
            d[blk.cols] += np.sum(np.abs(blk.rows) ** 2, axis=0)
        return d

    def _operator(self):
        """(B, B*) for products, built once on first use.

        One panel covering the whole matrix (the square system) is used as
        it is, since a dense product beats a CSR copy of a dense matrix;
        anything else becomes one CSR matrix and its CSR adjoint.
        """
        if self._products is None:
            blk = self.blocks[0] if len(self.blocks) == 1 else None
            if (
                blk is not None
                and blk.rows.shape == (self.n_rows, self.n_cols)
                and np.array_equal(blk.cols, np.arange(self.n_cols))
            ):
                op = blk.rows
                self._products = (op, op.conj().T)
            else:
                op = self.to_coo().tocsr()
                self._products = (op, op.conj().T.tocsr())
        return self._products

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._operator()[0] @ x

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        return self._operator()[1] @ r


@dataclass
class ElementRecord:
    """Per-element whitened data kept for recovery and error indicators."""

    gdofs: np.ndarray          # local -> global trial ids (full local set)
    free_local: np.ndarray     # local positions that survived BC elimination
    bt: np.ndarray             # whitened, BC-modified matrix (M x n_free)
    lt: np.ndarray             # whitened, BC-modified load (M,)
    bubble_pos: np.ndarray     # positions within free columns
    interf_pos: np.ndarray
    row_offset: int = 0
    cond_ls: object = None     # element.CondensedElement (shared per class)
    cond_ne: object = None     # element.SchurElement matrix part (shared)
    f_ne: Optional[np.ndarray] = None  # element NE rhs (full free set)


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
    records: list = dc_field(default_factory=list)
    wall_assemble_s: float = 0.0
    square_data: Optional[dict] = None   # conforming-test (square) systems only

    @property
    def n_solve(self) -> int:
        return self.solve_ids.size

    @property
    def n_free(self) -> int:
        return self.free_ids.size

    def component_slice(self, name: str) -> slice:
        for comp, lay, off in zip(self.formulation.trial, self.layouts, self.offsets):
            if comp.name == name:
                return slice(off, off + lay.n_total)
        raise KeyError(name)

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


def _edge_lift_coefficients(form: Formulation, mesh: Mesh, layout, offset, case):
    """Lift vector by vertex interpolation plus edge-wise L2 projection."""
    lift = np.zeros(layout.n_total, dtype=form.dtype)
    p = layout.p
    q1 = gauss_rule(p + 3)
    t, w = q1.points_1d, q1.weights_1d
    bedges = np.flatnonzero(mesh.edge_on_boundary)
    if layout.kind in ("h1", "trace_h1"):
        bv = np.flatnonzero(mesh.vertex_on_boundary)
        vx, vy = mesh.vertices[bv, 0], mesh.vertices[bv, 1]
        lift[bv] = case.boundary_value(vx, vy)
        ker = p - 1
        if ker > 0:
            hats, _ = basis.h1_hierarchical(p, t)
            gram = np.einsum("ip,p,jp->ij", hats[2:], w, hats[2:])
            nv = (mesh.n + 1) ** 2
            for eid in bedges:
                mid = mesh.edge_midpoints[eid]
                horiz = mesh.edge_orientation[eid] == 0
                if horiz:
                    x = mid[0] - 0.5 * mesh.h + mesh.h * t
                    y = np.full_like(x, mid[1])
                    x0, y0 = mid[0] - 0.5 * mesh.h, mid[1]
                    x1, y1 = mid[0] + 0.5 * mesh.h, mid[1]
                else:
                    y = mid[1] - 0.5 * mesh.h + mesh.h * t
                    x = np.full_like(y, mid[0])
                    x0, y0 = mid[0], mid[1] - 0.5 * mesh.h
                    x1, y1 = mid[0], mid[1] + 0.5 * mesh.h
                vals = case.boundary_value(x, y)
                u0 = case.boundary_value(np.array([x0]), np.array([y0]))[0]
                u1 = case.boundary_value(np.array([x1]), np.array([y1]))[0]
                resid = vals - (u0 * hats[0] + u1 * hats[1])
                rhs = np.einsum("ip,p->i", hats[2:], w * resid)
                coeffs = np.linalg.solve(gram, rhs)
                lift[nv + eid * ker : nv + eid * ker + ker] = coeffs
    elif layout.kind == "trace_flux":
        leg, _ = basis.legendre_shifted(p - 1, t)
        for eid in bedges:
            mid = mesh.edge_midpoints[eid]
            horiz = mesh.edge_orientation[eid] == 0
            if horiz:
                x = mid[0] - 0.5 * mesh.h + mesh.h * t
                y = np.full_like(x, mid[1])
                nx, ny = 0.0, 1.0   # global edge normal
            else:
                y = mid[1] - 0.5 * mesh.h + mesh.h * t
                x = np.full_like(y, mid[0])
                nx, ny = 1.0, 0.0
            vals = case.boundary_flux(x, y, nx, ny)
            lift[eid * p : (eid + 1) * p] = np.einsum("ip,p->i", leg, w * vals)
    else:
        raise ValueError(f"no lift rule for {layout.kind}")
    return lift


def build_context(
    mesh: Mesh,
    form: Formulation,
    case: ManufacturedCase,
    options: Optional[Options] = None,
) -> AssemblyContext:
    """Run the per-element pipeline for the whole mesh.

    The separate NE/overdetermined assemblers consume the resulting
    context; for a given context both views of the problem are guaranteed
    to come from identical whitened element data.
    """
    options = options or Options()
    if form.test_conforming:
        raise ValueError("conforming-test formulations use build_square_context")
    t0 = time.perf_counter()
    rule = gauss_rule(form.quadrature_order)
    kern = form.kernels(mesh.h, rule)
    layouts, offsets = trial_layouts(mesh, form)
    n_total = int(offsets[-1] + layouts[-1].n_total)

    gdofs_all = np.concatenate(
        [lay.element_dofs + off for lay, off in zip(layouts, offsets)], axis=1
    )

    fixed_mask = np.zeros(n_total, dtype=bool)
    lift_full = np.zeros(n_total, dtype=form.dtype)
    if options.eliminate_bc and form.dirichlet_component is not None:
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
                lift = _edge_lift_coefficients(form, mesh, lay, off, case)
                lift_full[off : off + lay.n_total][lay.boundary_dofs] = lift[
                    lay.boundary_dofs
                ]

    bubble_mask = np.zeros(n_total, dtype=bool)
    for comp, lay, off in zip(form.trial, layouts, offsets):
        if comp.kind == "l2":
            bubble_mask[off : off + lay.n_total] = True
        elif comp.kind in ("h1", "hdiv"):
            n_int = lay.counts.get("interior", 0)
            if n_int:
                bubble_mask[off + lay.n_total - n_int : off + lay.n_total] = True

    free_mask = ~fixed_mask
    free_ids = np.flatnonzero(free_mask)
    if options.condense:
        solve_ids = np.flatnonzero(free_mask & ~bubble_mask)
    else:
        solve_ids = free_ids
    solve_index = np.full(n_total, -1, dtype=np.int64)
    solve_index[solve_ids] = np.arange(solve_ids.size)

    positions = np.concatenate([lay.positions for lay in layouts], axis=0)

    # --- master element data -------------------------------------------
    wdtype = options.working_dtype(form)
    rdtype = options.real_dtype()
    g_master = kern["G"]
    b_master = kern["B"]
    if options.precondition_gram:
        g_scaled, b_scaled, _, dvec = element.precondition_gram(
            g_master, b_master, np.zeros(form.n_test_local)
        )
        row_scale = 1.0 / np.sqrt(dvec)
    else:
        g_scaled, b_scaled = g_master, b_master
        row_scale = np.ones(form.n_test_local)
    gw = g_scaled.astype(rdtype)
    chol = linalg.cholesky(gw)

    ne, m_test = mesh.n_elements, form.n_test_local
    origins = mesh.element_origins()

    # batched loads: physical quadrature points of every element at once
    px = origins[:, 0:1] + mesh.h * rule.points[None, :, 0]
    py = origins[:, 1:2] + mesh.h * rule.points[None, :, 1]
    fvals = case.f(px, py)
    l_all = np.zeros((ne, m_test), dtype=form.dtype)
    l_all[:, kern["load_rows"]] = kern["load_scale"] * np.einsum(
        "ip,ep->ei", kern["load_table"] * rule.weights, fvals
    )
    l_all *= row_scale[None, :]
    lt_all = linalg.triangular_solve(chol, l_all.astype(wdtype).T).T

    variable = kern["alpha_var"] is not None
    if variable:
        av = kern["alpha_var"]
        avals = form.alpha(px, py)
        delta = av["scale"] * np.einsum(
            "ip,ep,jp->eij", av["test_tab"] * rule.weights, avals, av["trial_tab"]
        )
    else:
        bw_master = (b_scaled).astype(wdtype)
        bt_master = linalg.triangular_solve(chol, bw_master)

    # --- per-element BC modification and storage ------------------------
    records = []
    class_cache: dict = {}
    local_range = np.arange(form.n_trial_local)
    for e in range(ne):
        gdofs = gdofs_all[e]
        if variable:
            b_e = b_scaled.copy()
            b_e[av["rows"], av["cols"]] += delta[e] * row_scale[av["rows"], None]
            bt_full = linalg.triangular_solve(chol, b_e.astype(wdtype))
        else:
            bt_full = bt_master

        elem_fixed = np.flatnonzero(fixed_mask[gdofs])
        lt = lt_all[e]
        if elem_fixed.size:
            lift_local = lift_full[gdofs]
            lt = lt - (bt_full[:, elem_fixed] @ lift_local[elem_fixed].astype(wdtype))

        sig = tuple(elem_fixed.tolist())
        cache_key = None if variable else sig
        if cache_key is not None and cache_key in class_cache:
            bt_free, free_local, bubble_pos, interf_pos = class_cache[cache_key]
        else:
            free_local = np.setdiff1d(local_range, elem_fixed)
            bt_free = np.ascontiguousarray(bt_full[:, free_local])
            bub = bubble_mask[gdofs[free_local]]
            bubble_pos = np.flatnonzero(bub)
            interf_pos = np.flatnonzero(~bub)
            if cache_key is not None:
                class_cache[cache_key] = (bt_free, free_local, bubble_pos, interf_pos)
        records.append(
            ElementRecord(
                gdofs=gdofs,
                free_local=free_local,
                bt=bt_free,
                lt=lt,
                bubble_pos=bubble_pos,
                interf_pos=interf_pos,
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
        records=records,
    )
    ctx.wall_assemble_s = time.perf_counter() - t0
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
    elimination of interior DOFs; the least-squares view is the square
    condensed matrix solved by QR, and the normal equation is S* S
    (squaring the condition number, as forming normal equations of a
    traditional method must).
    """
    options = options or Options()
    t0 = time.perf_counter()
    rule = gauss_rule(form.quadrature_order)
    kern = form.kernels(mesh.h, rule)
    layouts, offsets = trial_layouts(mesh, form)
    n_total = int(offsets[-1] + layouts[-1].n_total)
    lay = layouts[0]
    gdofs_all = lay.element_dofs

    fixed_mask = np.zeros(n_total, dtype=bool)
    lift_full = np.zeros(n_total, dtype=form.dtype)
    if options.eliminate_bc:
        fixed_mask[lay.boundary_dofs] = True
        if case.boundary_value is not None:
            lift = _edge_lift_coefficients(form, mesh, lay, 0, case)
            lift_full[lay.boundary_dofs] = lift[lay.boundary_dofs]

    bubble_mask = np.zeros(n_total, dtype=bool)
    n_int = lay.counts.get("interior", 0)
    if n_int:
        bubble_mask[n_total - n_int :] = True

    free_mask = ~fixed_mask
    free_ids = np.flatnonzero(free_mask)
    solve_ids = np.flatnonzero(free_mask & ~bubble_mask) if options.condense else free_ids
    solve_index = np.full(n_total, -1, dtype=np.int64)
    solve_index[solve_ids] = np.arange(solve_ids.size)

    wdtype = options.working_dtype(form)
    b_master = kern["B"].astype(wdtype)
    ne = mesh.n_elements
    origins = mesh.element_origins()
    px = origins[:, 0:1] + mesh.h * rule.points[None, :, 0]
    py = origins[:, 1:2] + mesh.h * rule.points[None, :, 1]
    fvals = case.f(px, py)
    l_all = (
        kern["load_scale"]
        * np.einsum("ip,ep->ei", kern["load_table"] * rule.weights, fvals)
    ).astype(wdtype)

    n_solve = solve_ids.size
    s_dense = np.zeros((n_solve, n_solve), dtype=wdtype)
    rhs = np.zeros(n_solve, dtype=wdtype)
    records = []
    local_range = np.arange(form.n_trial_local)
    schur_cache: dict = {}
    for e in range(ne):
        gdofs = gdofs_all[e]
        elem_fixed = np.flatnonzero(fixed_mask[gdofs])
        lt = l_all[e]
        if elem_fixed.size:
            lt = lt - b_master[:, elem_fixed] @ lift_full[gdofs][elem_fixed].astype(wdtype)
        free_local = np.setdiff1d(local_range, elem_fixed)
        b_free = b_master[np.ix_(free_local, free_local)]
        lt = lt[free_local]
        bub = bubble_mask[gdofs[free_local]]
        bubble_pos = np.flatnonzero(bub)
        interf_pos = np.flatnonzero(~bub)
        sig = tuple(elem_fixed.tolist())
        if options.condense:
            schur = schur_cache.get(sig)
            if schur is None:
                schur = element.condense_ne(
                    b_free, np.zeros(b_free.shape[0], dtype=wdtype), bubble_pos, interf_pos
                )
                schur_cache[sig] = schur
            f_b = lt[bubble_pos]
            if bubble_pos.size:
                y = linalg.triangular_solve(schur.chol_bb, f_b)
                rhs_e = lt[interf_pos] - (
                    linalg.triangular_solve(schur.chol_bb, schur.a_bi).conj().T @ y
                )
            else:
                rhs_e = lt[interf_pos]
            cols = solve_index[gdofs[free_local[interf_pos]]]
            s_dense[np.ix_(cols, cols)] += schur.schur
            rhs[cols] += rhs_e
            rec = ElementRecord(
                gdofs=gdofs, free_local=free_local, bt=b_free, lt=lt,
                bubble_pos=bubble_pos, interf_pos=interf_pos,
            )
            rec.cond_ne = element.SchurElement(
                schur=schur.schur, rhs=None, chol_bb=schur.chol_bb,
                a_bi=schur.a_bi, f_bubb=f_b,
            )
        else:
            cols = solve_index[gdofs[free_local]]
            s_dense[np.ix_(cols, cols)] += b_free
            rhs[cols] += lt
            rec = ElementRecord(
                gdofs=gdofs, free_local=free_local, bt=b_free, lt=lt,
                bubble_pos=bubble_pos, interf_pos=interf_pos,
            )
        records.append(rec)

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
        positions=lay.positions,
        records=records,
        square_data={"matrix": s_dense, "rhs": rhs},
    )
    ctx.wall_assemble_s = time.perf_counter() - t0
    return ctx


def assemble_overdetermined(
    mesh_or_ctx,
    form=None,
    case=None,
    options=None,
):
    """Row-blocked rectangular system (Btilde, ltilde) per Algorithm-3 order.

    Accepts either an AssemblyContext or (mesh, formulation, case, options).
    Returns (RectangularRowBlocked, ltilde, context).
    """
    ctx = (
        mesh_or_ctx
        if isinstance(mesh_or_ctx, AssemblyContext)
        else build_context(mesh_or_ctx, form, case, options)
    )
    if ctx.square_data is not None:
        s = ctx.square_data["matrix"]
        blk = RowBlock(rows=s, cols=np.arange(ctx.n_solve), offset=0)
        bt = RectangularRowBlocked(n_cols=ctx.n_solve, n_rows=s.shape[0], blocks=[blk])
        return bt, ctx.square_data["rhs"].copy(), ctx
    condense = ctx.options.condense
    blocks = []
    rhs = []
    offset = 0
    cond_cache: dict = {}
    for e, rec in enumerate(ctx.records):
        try:
            if condense:
                # matrix factors are shared per BC-signature class; only the
                # load is element specific
                key = id(rec.bt)
                base = cond_cache.get(key)
                if base is None:
                    base = element.condense_ls(
                        rec.bt, rec.lt, rec.bubble_pos, rec.interf_pos
                    )
                    cond_cache[key] = base
                qb = base.q_bubb
                rhs_e = rec.lt - qb @ (qb.conj().T @ rec.lt)
                rec.cond_ls = element.CondensedElement(
                    rows=base.rows,
                    rhs=rhs_e,
                    q_bubb=qb,
                    r_bubb=base.r_bubb,
                    b_interf=base.b_interf,
                    ltilde=rec.lt,
                )
                cols = ctx.solve_index[rec.gdofs[rec.free_local[rec.interf_pos]]]
                rows_mat = rec.cond_ls.rows
                rhs_vec = rhs_e
            else:
                cols = ctx.solve_index[rec.gdofs[rec.free_local]]
                rows_mat = rec.bt
                rhs_vec = rec.lt
        except (element.RankDeficientBubbles, linalg.NotPositiveDefinite) as err:
            raise AssemblyError(f"element {e}: {err}") from err
        blocks.append(RowBlock(rows=rows_mat, cols=cols, offset=offset))
        rec.row_offset = offset
        rhs.append(rhs_vec)
        offset += rows_mat.shape[0]
    bt = RectangularRowBlocked(n_cols=ctx.n_solve, n_rows=offset, blocks=blocks)
    ltilde = np.concatenate(rhs) if rhs else np.zeros(0)
    return bt, ltilde, ctx


def assemble_ne(
    mesh_or_ctx,
    form=None,
    case=None,
    options=None,
):
    """Accumulated sparse Hermitian normal equation (A, f) per Algorithm 2.

    Returns (SparseSymmetric, f, context).
    """
    ctx = (
        mesh_or_ctx
        if isinstance(mesh_or_ctx, AssemblyContext)
        else build_context(mesh_or_ctx, form, case, options)
    )
    if ctx.square_data is not None:
        s = ctx.square_data["matrix"]
        a = s.conj().T @ s
        f = s.conj().T @ ctx.square_data["rhs"]
        return SparseSymmetric(n=ctx.n_solve, matrix=scipy.sparse.csr_matrix(a)), f, ctx
    condense = ctx.options.condense
    rows_idx, cols_idx, vals = [], [], []
    fvec = np.zeros(ctx.n_solve, dtype=ctx.options.working_dtype(ctx.formulation))
    ne_cache: dict = {}
    for e, rec in enumerate(ctx.records):
        try:
            key = id(rec.bt)
            a_k = ne_cache.get(("a", key))
            if a_k is None:
                a_k = rec.bt.conj().T @ rec.bt
                ne_cache[("a", key)] = a_k
            f_k = rec.bt.conj().T @ rec.lt
            rec.f_ne = f_k
            if condense:
                schur = ne_cache.get(("s", key))
                if schur is None:
                    schur = element.condense_ne(
                        a_k, np.zeros(a_k.shape[0], dtype=a_k.dtype),
                        rec.bubble_pos, rec.interf_pos,
                    )
                    ne_cache[("s", key)] = schur
                rec.cond_ne = element.SchurElement(
                    schur=schur.schur,
                    rhs=None,
                    chol_bb=schur.chol_bb,
                    a_bi=schur.a_bi,
                    f_bubb=f_k[rec.bubble_pos],
                )
                f_b = f_k[rec.bubble_pos]
                f_i = f_k[rec.interf_pos]
                if rec.bubble_pos.size:
                    y = linalg.triangular_solve(schur.chol_bb, f_b)
                    yb = linalg.triangular_solve(schur.chol_bb, schur.a_bi)
                    rhs_e = f_i - yb.conj().T @ y
                else:
                    rhs_e = f_i
                a_scatter = schur.schur
                cols = ctx.solve_index[rec.gdofs[rec.free_local[rec.interf_pos]]]
            else:
                a_scatter = a_k
                rhs_e = f_k
                cols = ctx.solve_index[rec.gdofs[rec.free_local]]
        except (element.SingularBubbleBlock, linalg.NotPositiveDefinite) as err:
            raise AssemblyError(f"element {e}: {err}") from err
        k = cols.size
        rows_idx.append(np.repeat(cols, k))
        cols_idx.append(np.tile(cols, k))
        vals.append(a_scatter.ravel())
        fvec[cols] += rhs_e
    n = ctx.n_solve
    if rows_idx:
        coo = scipy.sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows_idx), np.concatenate(cols_idx))),
            shape=(n, n),
        )
        csr = coo.tocsr()
        csr.sum_duplicates()
    else:
        csr = scipy.sparse.csr_matrix((n, n))
    return SparseSymmetric(n=n, matrix=csr), fvec, ctx


# ---------------------------------------------------------------------------
# Global diagonal preconditioning
# ---------------------------------------------------------------------------

def precondition_global(a: SparseSymmetric, f: np.ndarray):
    """A -> D^-1/2 A D^-1/2 with D = diag(A); returns (A', f', scale).

    The solution of the original system is scale * u_scaled.
    """
    d = np.real(a.diagonal())
    if np.any(d <= 0):
        raise NonpositiveDiagonal("zero or negative diagonal entry (disconnected DOF?)")
    s = (1.0 / np.sqrt(d)).astype(np.result_type(a.matrix.dtype, np.float64))
    sd = scipy.sparse.diags(s.astype(a.matrix.dtype))
    scaled = SparseSymmetric(n=a.n, matrix=(sd @ a.matrix @ sd).tocsr())
    return scaled, f * s.astype(f.dtype), s


def precondition_global_rect(bt: RectangularRowBlocked, ltilde: np.ndarray):
    """Btilde -> Btilde D^-1/2 with D the squared column norms.

    Equivalent to the normal-equation scaling; the load is unchanged and
    the solution of the original problem is scale * u_scaled.
    """
    d = bt.col_norms_sq()
    if np.any(d <= 0):
        raise NonpositiveDiagonal("zero column in Btilde (disconnected DOF?)")
    dtype = bt.blocks[0].rows.dtype if bt.blocks else np.float64
    s = (1.0 / np.sqrt(d)).astype(dtype)
    blocks = [
        RowBlock(rows=blk.rows * s[blk.cols][None, :], cols=blk.cols, offset=blk.offset)
        for blk in bt.blocks
    ]
    return RectangularRowBlocked(bt.n_cols, bt.n_rows, blocks), ltilde, s


# ---------------------------------------------------------------------------
# Matrix Market export
# ---------------------------------------------------------------------------

def write_matrix_market(path, obj, symmetry: Optional[str] = None):
    """Write a matrix or vector in Matrix Market format, 17 digits."""
    import scipy.io

    if isinstance(obj, SparseSymmetric):
        mat = obj.coo()
        sym = symmetry or ("hermitian" if np.iscomplexobj(mat.data) else "general")
        if sym == "hermitian":
            mat = scipy.sparse.tril(mat)
        scipy.io.mmwrite(path, mat, precision=17, symmetry=sym)
    elif isinstance(obj, RectangularRowBlocked):
        scipy.io.mmwrite(path, obj.to_coo(), precision=17, symmetry="general")
    else:
        arr = np.asarray(obj)
        scipy.io.mmwrite(path, arr.reshape(-1, 1), precision=17)
