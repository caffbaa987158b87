"""Batch experiment driver: refinement studies with CSV output.

Five studies mirror the conditioning/round-off experiments the library is
built around:

    converge       error vs. mesh size for one formulation/solver set
    condition      cond(A) and cond(Btilde) vs. mesh size
    failure        single-precision Poisson with a quartic solution:
                   normal-equation error floor vs. QR
    acoustics      near-resonance complex ultraweak study
    compare-fosls  distance between the classical least-squares system
                   and the discretized-Riesz-map system as the test space
                   is enriched; the classical system is assembled as
                   element blocks over the free columns of the Riesz-map
                   context and solved by the same tree Cholesky (at p = 2
                   it reaches n = 64)

Reported error columns are combined relative L2 errors over the field
components ((u, sigma) for Poisson formulations, (p, u) for acoustics).
Condition numbers are diagnostics computed only up to N <= 5000 columns,
in double precision regardless of the working precision, from one
spectrum per level: the two extreme eigenpairs of the sparse
preconditioned Btilde* Btilde (Lanczos for lambda_max, shift-invert
Lanczos for lambda_min) give cond(Btilde), and the Rayleigh quotients of
the preconditioned A at those eigenvectors give cond(A).  A level that
assembled A only uses A's own extreme eigenvalues.  A double-precision
study reuses the systems it assembled for its solves; a single-precision
one assembles them once more in double precision.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.sparse.linalg

from . import basis, linalg
from .assembly import (
    AssemblyError,
    Options,
    SparseSymmetric,
    _scale_columns,
    assemble_ne,
    assemble_overdetermined,
    build_context,
    build_square_context,
    element_cells,
    precondition_global,
    precondition_global_rect,
    write_matrix_market,
)
from .blockqr import BlockStack
from .element import NonpositiveDiagonal
from .formulation import FORMULATION_NAMES, make_case, make_formulation
from .linalg import NotPositiveDefinite, RankDeficient
from .mesh import uniform_mesh
from .solve import ZeroSolution, discrete_norms, error_norms, residual_rho, solve_ls, solve_ne

STUDIES = ("converge", "condition", "failure", "acoustics", "compare-fosls")
COND_LIMIT = 5000

CSV_HEADER = "n,h,N,M,cond_A,cond_Btilde,err_ne,err_qr,rho,eta_total,wall_ms"


class ConfigError(Exception):
    """Invalid study configuration; the message names the offending field."""


@dataclass
class StudyConfig:
    study: str
    formulation: str = "ultraweak-dpg"
    p: int = 2
    dp: int = 1
    refinements: int = 4
    precision: str = "double"
    solvers: tuple = ("qr",)
    condense: bool = True
    out_dir: str = "."
    dump_matrices: bool = False
    start_n: Optional[int] = None
    dp_list: tuple = ()            # compare-fosls only

    def validate(self):
        if self.study not in STUDIES:
            raise ConfigError(f"study: unknown study {self.study!r}")
        if self.study == "acoustics":
            self.formulation = "acoustics-ultraweak"
        if self.formulation not in FORMULATION_NAMES:
            raise ConfigError(f"formulation: unknown formulation {self.formulation!r}")
        if self.p < 1:
            raise ConfigError("p: must be >= 1")
        if self.dp < 0:
            raise ConfigError("dp: must be >= 0")
        if self.refinements < 1:
            raise ConfigError("refinements: must be >= 1")
        if self.precision not in ("single", "double"):
            raise ConfigError("precision: must be single or double")
        solvers = tuple(self.solvers)
        if not solvers or any(s not in ("ne", "qr") for s in solvers):
            raise ConfigError("solvers: subset of ne, qr required")
        if self.study == "failure":
            self.solvers = ("ne", "qr")
        if self.study == "condition":
            self.solvers = tuple(sorted(set(solvers) | {"ne", "qr"}))
        return self


@dataclass
class StudyRow:
    n: int
    h: float
    n_trial: Optional[int]
    m_rows: Optional[int] = None
    cond_a: Optional[float] = None
    cond_btilde: Optional[float] = None
    err_ne: Optional[float] = None
    err_qr: Optional[float] = None
    rho: Optional[float] = None
    eta_total: Optional[float] = None
    wall_ms: float = 0.0
    failed: dict = dc_field(default_factory=dict)

    def csv(self) -> str:
        def fmt(x):
            if x is None or (isinstance(x, float) and math.isnan(x)):
                return ""
            if isinstance(x, float):
                return format(x, ".17g")
            return str(x)

        return ",".join(
            fmt(v)
            for v in (
                self.n, float(self.h), self.n_trial, self.m_rows, self.cond_a,
                self.cond_btilde, self.err_ne, self.err_qr, self.rho,
                self.eta_total, self.wall_ms,
            )
        )


def case_for(config: StudyConfig):
    """Manufactured case and starting mesh implied by (study, formulation)."""
    if config.study == "failure":
        return make_case("poisson-quartic"), 1
    if config.study == "acoustics":
        return make_case("acoustics-resonance"), 1
    if config.study == "compare-fosls":
        return make_case("poisson-alpha-sine"), 2
    if config.formulation in ("primal-dpg", "bubnov-galerkin"):
        return make_case("poisson-sine10"), 2
    return make_case("poisson-sine"), 1


def _formulation_for(config: StudyConfig, case):
    kwargs = {"alpha": case.alpha} if config.formulation == "fosls-strong" else {}
    return make_formulation(config.formulation, config.p, config.dp, **kwargs)


def _build(mesh, form, case, options):
    if form.test_conforming:
        return build_square_context(mesh, form, case, options)
    return build_context(mesh, form, case, options)


def _cond_diagnostics(mesh, form, case, options, need_a, need_b, assembled=None):
    """Condition numbers of the (condensed, preconditioned) A and Btilde.

    Evaluated in double precision: the condition number is a property of
    the discretization, not of the working precision.  ``assembled`` is
    (ctx, A, Btilde), the context ``run_study`` built at this level with
    the systems it assembled there, None where an assembly failed or did
    not run.  In double precision these are used as they are and a missing
    system leaves its cell empty; otherwise a double-precision context is
    built and assembled here.

    One spectrum serves the level, one sparse LU and two Lanczos runs: that
    of the scaled Gram D G D, G = Btilde* Btilde, when Btilde was assembled,
    else that of A_s = D A D, each with its own column scale D.
    cond(Btilde) is the square root of the Gram's eigenvalue ratio.  cond(A)
    is the ratio of A_s's Rayleigh quotients at the Gram's extreme
    eigenvectors x, each (D x)* A (D x) on A's element blocks (on S* S for
    a square system).  Since A = Btilde* Btilde up to round-off, these
    quotients are A_s's extreme eigenvalues to second order in the
    difference.  A singular or indefinite matrix leaves its cell empty, and
    a singular or indefinite Gram leaves both cells empty.
    """
    if assembled is not None and not 0 < assembled[0].n_solve <= COND_LIMIT:
        return None, None           # the size does not depend on precision
    if assembled is not None and options.precision == "double":
        _, a, bt = assembled
    else:
        ctx = _build(mesh, form, case, replace(options, precision="double"))
        if not 0 < ctx.n_solve <= COND_LIMIT:
            return None, None
        a = _try_assemble(assemble_ne, ctx) if need_a else None
        bt = _try_assemble(assemble_overdetermined, ctx) if need_b else None
    s_a = gram = None
    if a is not None:
        try:
            s_a = precondition_global(a)
        except NonpositiveDiagonal:
            a = None
    if bt is not None:
        try:
            gram = _scale_columns(bt.gram, precondition_global_rect(bt))
        except NonpositiveDiagonal:
            pass
    if gram is None and a is None:
        return None, None
    try:
        lam, v = linalg.hpd_extreme_eigenpairs(_scale_columns(a.matrix, s_a) if gram is None else gram)
    except NotPositiveDefinite:
        return None, None
    ratio = float(lam[1] / lam[0])
    if gram is None:
        return ratio, None
    cond_a = None
    if a is not None:
        q = [a.quadratic_form(s_a * x) / np.vdot(x, x).real for x in v.T]
        try:
            cond_a = linalg.hpd_ratio(q[0], q[1], a.n)
        except NotPositiveDefinite:
            pass
    return cond_a, math.sqrt(ratio)


def _try_assemble(assemble, ctx):
    """The matrix of one assembly path, or None when the assembly fails."""
    try:
        return assemble(ctx)[0]
    except AssemblyError:
        return None


def run_study(config: StudyConfig):
    """Run one study; returns (rows, csv_path). CSV schema is fixed.

    A level whose context cannot be built (a typed element or assembly
    failure) ends the study: its row keeps n and h, leaves every value
    empty and records the reason under each solver.
    """
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if config.study == "compare-fosls":
        return compare_fosls(
            config.p,
            config.dp_list or (config.dp,),
            config.refinements,
            alpha="sine",
            out_dir=out_dir,
        )
    case, default_start = case_for(config)
    start_n = config.start_n or default_start
    form = _formulation_for(config, case)
    options = Options(condense=config.condense, precision=config.precision)
    rows = []
    for level in range(config.refinements):
        n = start_n * (2**level)
        t0 = time.perf_counter()
        mesh = uniform_mesh(n)
        try:
            ctx = _build(mesh, form, case, options)
        except (NotPositiveDefinite, NonpositiveDiagonal, AssemblyError) as err:
            # no system at this level: every solver fails for the same reason
            rows.append(StudyRow(
                n=n, h=mesh.h, n_trial=None, failed={s: str(err) for s in config.solvers},
                wall_ms=1000.0 * (time.perf_counter() - t0),
            ))
            break
        row = StudyRow(n=n, h=mesh.h, n_trial=int(ctx.n_free))
        sol_by = {}
        bt = a = None
        if "qr" in config.solvers:
            try:
                bt = assemble_overdetermined(ctx)[0]
                row.m_rows = bt.n_rows
                sol_by["qr"] = solve_ls(bt, ctx)
            except (RankDeficient, NotPositiveDefinite, AssemblyError) as err:
                row.failed["qr"] = str(err)
        if "ne" in config.solvers:
            try:
                a = assemble_ne(ctx)[0]
                sol_by["ne"] = solve_ne(a, ctx)
            except (NotPositiveDefinite, AssemblyError) as err:
                row.failed["ne"] = str(err)
        for tag, sol in sol_by.items():
            val = error_norms(sol)["fields_l2_rel"]
            if tag == "ne":
                row.err_ne = val
            else:
                row.err_qr = val
        pick = sol_by.get("qr") or sol_by.get("ne")
        if pick is not None:
            row.eta_total = pick.eta_total
            if bt is not None:
                try:
                    row.rho = residual_rho(bt, sol_by.get("qr") or pick)
                except ZeroSolution:
                    row.rho = None
        need_cond = config.study in ("condition", "converge", "failure", "acoustics")
        if need_cond:
            row.cond_a, row.cond_btilde = _cond_diagnostics(
                mesh, form, case, options,
                need_a="ne" in config.solvers,
                need_b="qr" in config.solvers,
                assembled=(ctx, a, bt),
            )
        if config.dump_matrices:
            if "ne" in config.solvers and "ne" not in row.failed:
                write_matrix_market(out_dir / f"A_{n}.mtx", a)
            if bt is not None:
                write_matrix_market(out_dir / f"Btilde_{n}.mtx", bt)
                write_matrix_market(out_dir / f"l_{n}.mtx", bt.rhs)
        row.wall_ms = 1000.0 * (time.perf_counter() - t0)
        rows.append(row)
        if len(row.failed) == len(config.solvers):
            break
    csv_path = out_dir / "study.csv"
    with open(csv_path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv() + "\n")
    return rows, csv_path


# ---------------------------------------------------------------------------
# FOSLS comparison: classical monolithic system vs. discretized Riesz map
# ---------------------------------------------------------------------------

def assemble_fosls_monolithic(ctx, case):
    """Classical first-order-system least-squares stiffness and load.

    A_ij = (L u_j, L u_i)_L2 with L(u, sigma) = (-div sigma + alpha u,
    sigma - grad u); no test space is discretized.  Assembled sparse over
    the columns of ``ctx``, an uncondensed fosls-strong context of the
    same mesh and p: its element classes drop the Dirichlet columns, so
    the two systems share their unknowns.  The study's cases have zero
    boundary data, so no lift enters the load.  The quadrature rule is
    that of dp = 1 (order p + 3) for every dp.  The element matrices h^2 C* W C,
    C = L(u, sigma) at the quadrature points, are formed in one batch (one
    per element only where alpha varies), and kept as one block stack per
    element class with the elements' mesh cells and loads.  Returns the
    SparseSymmetric.
    """
    p, h = ctx.formulation.p, ctx.mesh.h
    rule = basis.gauss_rule(p + 3)
    wv, wg = basis.w_table(p, rule.points)
    vv, vd = basis.v_table(p, rule.points)
    nu = wv.shape[0]
    # C: (local dof, component, point), components -div sigma + alpha u and sigma - grad u
    c = np.zeros((nu + vv.shape[0], 3, rule.n_points))
    c[nu:, 0] = -vd / (h * h)
    c[:nu, 1:] = -wg / h
    c[nu:, 1:] = vv / h
    if callable(case.alpha):
        c = np.repeat(c[None], ctx.mesh.n_elements, axis=0)
        c[:, :nu, 0] += ctx.mesh.at_quadrature_points(case.alpha, rule)[:, None, :] * wv
    else:
        c[:nu, 0] += case.alpha * wv
    w = rule.weights * h * h
    # component by component: the study's smallest distances (about 1e-9)
    # move by 1e-6 relative under a one-ulp change of these entries
    a_k = sum(np.einsum("...ip,p,...jp->...ij", c[..., k, :], w, c[..., k, :]) for k in range(3))
    f_k = np.einsum("...ip,...p->...i", c[..., 0, :], w * ctx.mesh.at_quadrature_points(case.f, rule))
    cells = element_cells(ctx.mesh)
    blocks = []
    for cl in ctx.classes:
        fl = cl.free_local
        block = (a_k if a_k.ndim == 2 else a_k[cl.elements])[..., fl[:, None], fl]
        blocks.append(BlockStack(block, ctx.solve_index[cl.free_ids], f_k[cl.elements][:, fl], cells[cl.elements]))
    return SparseSymmetric(ctx.n_solve, blocks=blocks)


def compare_fosls(p: int, dp_list, refinements: int, alpha="sine", out_dir="."):
    """Distance between classical FOSLS and Riesz-map systems/solutions.

    alpha = "sine" uses alpha(x, y) = sin(pi x) sin(pi y) (enrichment
    convergence study); alpha = 0 checks the exact-containment identity.
    The classical system is assembled once per level over the free
    columns of the uncondensed fosls-strong context, and both systems are
    solved by the same Cholesky on the elimination tree of their element
    blocks.  Returns (rows, csv_path); rows carry n, h, dp, the relative
    Frobenius matrix distance, and the U-norm solution distance.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    case = make_case("poisson-alpha-sine" if alpha == "sine" else "poisson-sine")
    rows = []
    for level in range(refinements):
        n = 2 * (2**level)
        mesh = uniform_mesh(n)
        a_ls = None
        for dp in dp_list:
            form = make_formulation("fosls-strong", p, dp, alpha=case.alpha)
            ctx = build_context(mesh, form, case, Options(condense=False))
            if a_ls is None:
                a_ls = assemble_fosls_monolithic(ctx, case)
                a_ls_norm = scipy.sparse.linalg.norm(a_ls.matrix)
                u_ls = solve_ne(a_ls, ctx).coefficients
            a = assemble_ne(ctx)[0]
            mat_dist = float(scipy.sparse.linalg.norm(a.matrix - a_ls.matrix) / a_ls_norm)
            try:
                sol = solve_ne(a, ctx)
            except NotPositiveDefinite:
                # a too-poor test space can lose rank; the matrix distance
                # is still well defined
                sol_dist = sol_dist_rel = math.nan
            else:
                sol_dist = discrete_norms(ctx, sol.coefficients - u_ls)["U"]
                sol_dist_rel = sol_dist / error_norms(sol)["U_exact"]
            rows.append(
                {
                    "n": n,
                    "h": mesh.h,
                    "dp": dp,
                    "mat_dist_rel": mat_dist,
                    "sol_dist_U": sol_dist,
                    "sol_dist_U_rel": sol_dist_rel,
                }
            )
    csv_path = out_dir / "compare_fosls.csv"
    with open(csv_path, "w") as fh:
        fh.write("n,h,dp,mat_dist_rel,sol_dist_U,sol_dist_U_rel\n")
        for r in rows:
            fh.write(
                "%d,%s,%d,%s,%s,%s\n"
                % (
                    r["n"], format(r["h"], ".17g"), r["dp"],
                    format(r["mat_dist_rel"], ".17g"),
                    format(r["sol_dist_U"], ".17g"),
                    format(r["sol_dist_U_rel"], ".17g"),
                )
            )
    return rows, csv_path
