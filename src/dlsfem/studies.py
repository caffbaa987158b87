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
                   is enriched

Reported error columns are combined relative L2 errors over the field
components ((u, sigma) for Poisson formulations, (p, u) for acoustics).
Condition numbers are dense diagnostics, evaluated in double precision
from a double-precision assembly regardless of the working precision, and
only up to N <= 5000 columns.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Optional

import numpy as np

from . import basis, linalg
from .assembly import (
    AssemblyError,
    Options,
    assemble_ne,
    assemble_overdetermined,
    build_context,
    build_square_context,
    precondition_global,
    precondition_global_rect,
    write_matrix_market,
)
from .formulation import (
    FORMULATION_NAMES,
    RESONANCE_OMEGA,
    make_case,
    make_formulation,
)
from .linalg import NotPositiveDefinite, RankDeficient
from .mesh import uniform_mesh
from .solve import (
    ZeroSolution,
    discrete_norms,
    error_norms,
    residual_rho,
    solve_ls,
    solve_ne,
)

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
    precondition_gram: bool = True
    precondition_global: bool = True
    out_dir: str = "."
    dump_matrices: bool = False
    omega: float = RESONANCE_OMEGA
    start_n: Optional[int] = None
    max_trial_dofs: Optional[int] = None
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
    n_trial: int
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
        return make_case("acoustics-resonance", omega=config.omega), 1
    if config.study == "compare-fosls":
        return make_case("poisson-alpha-sine"), 2
    if config.formulation in ("primal-dpg", "bubnov-galerkin"):
        return make_case("poisson-sine10"), 2
    return make_case("poisson-sine"), 1


def _formulation_for(config: StudyConfig, case):
    kwargs = {}
    if config.formulation == "fosls-strong":
        kwargs["alpha"] = case.alpha
    if config.formulation == "acoustics-ultraweak":
        kwargs["omega"] = config.omega
    return make_formulation(config.formulation, config.p, config.dp, **kwargs)


def _build(mesh, form, case, options):
    if form.test_conforming:
        return build_square_context(mesh, form, case, options)
    return build_context(mesh, form, case, options)


def _cond_diagnostics(mesh, form, case, options, need_a, need_b):
    """Condition numbers of the (condensed, preconditioned) matrices.

    Always computed from a double-precision assembly: the condition number
    is a property of the discretization, not of the working precision.
    """
    opts = Options(
        condense=options.condense,
        precondition_gram=options.precondition_gram,
        eliminate_bc=options.eliminate_bc,
        precision="double",
    )
    ctx = _build(mesh, form, case, opts)
    if ctx.n_solve == 0 or ctx.n_solve > COND_LIMIT:
        return None, None
    cond_a = cond_b = None
    if need_a:
        a, f, _ = assemble_ne(ctx)
        a_s, _, _ = precondition_global(a, f)
        cond_a = linalg.condition_number(a_s.to_dense())
    if need_b:
        bt, lt, _ = assemble_overdetermined(ctx)
        bt_s, _, _ = precondition_global_rect(bt, lt)
        gram = bt_s.normal_matrix()
        gram = gram.astype(np.complex128 if np.iscomplexobj(gram) else np.float64)
        sig = np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))
        tol = sig.max() * max(bt_s.n_rows, bt_s.n_cols) * linalg.eps(np.float64)
        nz = sig[sig > tol]
        cond_b = float(sig.max() / nz.min())
    return cond_a, cond_b


def run_study(config: StudyConfig):
    """Run one study; returns (rows, csv_path). CSV schema is fixed."""
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
    options = Options(
        condense=config.condense,
        precondition_gram=config.precondition_gram,
        precision=config.precision,
    )
    rows = []
    for level in range(config.refinements):
        n = start_n * (2**level)
        t0 = time.perf_counter()
        mesh = uniform_mesh(n)
        ctx = _build(mesh, form, case, options)
        row = StudyRow(n=n, h=mesh.h, n_trial=int(ctx.n_free))
        sol_by = {}
        bt = lt = None
        if "qr" in config.solvers:
            try:
                bt, lt, _ = assemble_overdetermined(ctx)
                row.m_rows = bt.n_rows
                sol = solve_ls(bt, lt, ctx, precondition=config.precondition_global)
                sol_by["qr"] = sol
            except (RankDeficient, NotPositiveDefinite, AssemblyError) as err:
                row.failed["qr"] = str(err)
        if "ne" in config.solvers:
            try:
                a, f, _ = assemble_ne(ctx)
                sol = solve_ne(a, f, ctx, precondition=config.precondition_global)
                sol_by["ne"] = sol
            except (NotPositiveDefinite, AssemblyError) as err:
                row.failed["ne"] = str(err)
        for tag, sol in sol_by.items():
            err = error_norms(sol, case, form, mesh)
            val = err["fields_l2_rel"]
            if tag == "ne":
                row.err_ne = val
            else:
                row.err_qr = val
        pick = sol_by.get("qr") or sol_by.get("ne")
        if pick is not None:
            row.eta_total = pick.eta_total
            if bt is not None:
                try:
                    row.rho = residual_rho(bt, lt, sol_by.get("qr") or pick)
                except ZeroSolution:
                    row.rho = None
        need_cond = config.study in ("condition", "converge", "failure", "acoustics")
        if need_cond:
            row.cond_a, row.cond_btilde = _cond_diagnostics(
                mesh, form, case, options,
                need_a="ne" in config.solvers,
                need_b="qr" in config.solvers,
            )
        if config.dump_matrices:
            if "ne" in config.solvers and "ne" not in row.failed:
                write_matrix_market(out_dir / f"A_{n}.mtx", a)
            if bt is not None:
                write_matrix_market(out_dir / f"Btilde_{n}.mtx", bt)
                write_matrix_market(out_dir / f"l_{n}.mtx", lt)
        row.wall_ms = 1000.0 * (time.perf_counter() - t0)
        rows.append(row)
        if len(row.failed) == len(config.solvers):
            break
        if config.max_trial_dofs and row.n_trial >= config.max_trial_dofs:
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

def assemble_fosls_monolithic(mesh, p: int, case, eliminate_bc: bool = True):
    """Classical first-order-system least-squares stiffness and load.

    A_ij = (L u_j, L u_i)_L2 with L(u, sigma) = (-div sigma + alpha u,
    sigma - grad u); no test space is discretized.  Uses the same trial
    layout and quadrature as the fosls-strong formulation so the two
    systems are directly comparable.
    """
    form = make_formulation("fosls-strong", p, 1, alpha=case.alpha)
    rule = basis.gauss_rule(form.quadrature_order)
    from .assembly import trial_layouts

    layouts, offsets = trial_layouts(mesh, form)
    n_total = int(offsets[-1] + layouts[-1].n_total)
    gdofs_all = np.concatenate(
        [lay.element_dofs + off for lay, off in zip(layouts, offsets)], axis=1
    )
    h = mesh.h
    wv, wg = basis.w_table(p, rule.points)
    vv, vd = basis.v_table(p, rule.points)
    nu, ns = wv.shape[0], vv.shape[0]
    nloc = nu + ns
    npts = rule.n_points
    origins = mesh.element_origins()
    px = origins[:, 0:1] + h * rule.points[None, :, 0]
    py = origins[:, 1:2] + h * rule.points[None, :, 1]

    # residual component tables: c0 = -div sigma + alpha u, (c1, c2) = sigma - grad u
    c0 = np.zeros((nloc, npts))
    c1 = np.zeros((nloc, npts))
    c2 = np.zeros((nloc, npts))
    c0[nu:] = -vd / (h * h)
    c1[:nu] = -wg[:, 0, :] / h
    c2[:nu] = -wg[:, 1, :] / h
    c1[nu:] = vv[:, 0, :] / h
    c2[nu:] = vv[:, 1, :] / h

    w = rule.weights * h * h
    a = np.zeros((n_total, n_total))
    rhs = np.zeros(n_total)
    variable_alpha = callable(case.alpha)
    if not variable_alpha:
        c0u = c0.copy()
        if case.alpha:
            c0u[:nu] += case.alpha * wv
        a_master = (
            np.einsum("ip,p,jp->ij", c0u, w, c0u)
            + np.einsum("ip,p,jp->ij", c1, w, c1)
            + np.einsum("ip,p,jp->ij", c2, w, c2)
        )
    fvals = case.f(px, py)
    for e in range(mesh.n_elements):
        gd = gdofs_all[e]
        if variable_alpha:
            c0e = c0.copy()
            c0e[:nu] += case.alpha(px[e], py[e]) * wv
            a_k = (
                np.einsum("ip,p,jp->ij", c0e, w, c0e)
                + np.einsum("ip,p,jp->ij", c1, w, c1)
                + np.einsum("ip,p,jp->ij", c2, w, c2)
            )
        else:
            c0e = c0u
            a_k = a_master
        a[np.ix_(gd, gd)] += a_k
        rhs[gd] += np.einsum("ip,p->i", c0e, w * fvals[e])

    fixed = np.zeros(n_total, dtype=bool)
    if eliminate_bc:
        fixed[layouts[0].boundary_dofs] = True   # u component leads the layout
    free = np.flatnonzero(~fixed)
    return a, rhs, free, form, layouts, offsets, n_total


def compare_fosls(p: int, dp_list, refinements: int, alpha="sine", out_dir="."):
    """Distance between classical FOSLS and Riesz-map systems/solutions.

    alpha = "sine" uses alpha(x, y) = sin(pi x) sin(pi y) (enrichment
    convergence study); alpha = 0 checks the exact-containment identity.
    Returns (rows, csv_path); rows carry n, h, dp, the relative Frobenius
    matrix distance, and the U-norm solution distance.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    case = make_case("poisson-alpha-sine" if alpha == "sine" else "poisson-sine")
    rows = []
    for level in range(refinements):
        n = 2 * (2**level)
        mesh = uniform_mesh(n)
        a_ls, f_ls, free, form_ref, layouts, offsets, n_total = assemble_fosls_monolithic(
            mesh, p, case
        )
        u_ls = np.zeros(n_total)
        u_ls[free] = linalg.solve_spd(a_ls[np.ix_(free, free)], f_ls[free])
        for dp in dp_list:
            form = make_formulation("fosls-strong", p, dp, alpha=case.alpha)
            options = Options(condense=False, precondition_gram=True)
            ctx = build_context(mesh, form, case, options)
            a, f, _ = assemble_ne(ctx)
            a_free = a.to_dense()
            a_ref = a_ls[np.ix_(free, free)]
            mat_dist = float(
                np.linalg.norm(a_free - a_ref) / np.linalg.norm(a_ref)
            )
            try:
                sol = solve_ne(a, f, ctx, precondition=False)
                diff = sol.coefficients - u_ls
                dn = discrete_norms(form, mesh, ctx, diff)
                exact_norm = _exact_u_norm(form, mesh, ctx, case)
                sol_dist, sol_dist_rel = dn["U"], dn["U"] / exact_norm
            except NotPositiveDefinite:
                # a too-poor test space can lose rank; the matrix distance
                # is still well defined
                sol_dist = sol_dist_rel = math.nan
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


def _exact_u_norm(form, mesh, ctx, case) -> float:
    """U-norm of the exact solution by quadrature."""
    rule = basis.gauss_rule(form.quadrature_order + 2)
    h = mesh.h
    w = rule.weights * h * h
    origins = mesh.element_origins()
    px = origins[:, 0:1] + h * rule.points[None, :, 0]
    py = origins[:, 1:2] + h * rule.points[None, :, 1]
    u = case.fields["u"](px, py)
    sx = case.fields["sigx"](px, py)
    sy = case.fields["sigy"](px, py)
    ds = case.div_sigma(px, py)
    h1 = np.sum(w * (np.abs(u) ** 2 + np.abs(sx) ** 2 + np.abs(sy) ** 2))
    hdiv = np.sum(w * (np.abs(sx) ** 2 + np.abs(sy) ** 2 + np.abs(ds) ** 2))
    return math.sqrt(float(h1 + hdiv))
