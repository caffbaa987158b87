import csv
import dataclasses
import functools
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from dlsfem import assembly, basis, cli, element, linalg, solve, studies
from dlsfem.assembly import (
    AssemblyError,
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
)
from dlsfem.cli import build_parser, main as cli_main
from dlsfem.formulation import FORMULATION_NAMES, RESONANCE_OMEGA, make_case, make_formulation
from dlsfem.mesh import uniform_mesh
from dlsfem.solve import ZeroSolution
from dlsfem.studies import (
    CSV_HEADER,
    ConfigError,
    StudyConfig,
    _cond_diagnostics,
    _formulation_for,
    assemble_fosls_monolithic,
    case_for,
    compare_fosls,
    run_study,
)

from fosls_reference import assemble_fosls_monolithic as fosls_reference

BENCH = Path(__file__).resolve().parent.parent / "bench"


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    return [ln.split(",") for ln in lines[1:]]


class TestConfig:
    def test_unknown_study(self):
        with pytest.raises(ConfigError, match="study"):
            StudyConfig(study="wat").validate()

    def test_bad_refinements(self):
        with pytest.raises(ConfigError, match="refinements"):
            StudyConfig(study="converge", refinements=0).validate()

    def test_bad_precision(self):
        with pytest.raises(ConfigError, match="precision"):
            StudyConfig(study="converge", precision="half").validate()

    def test_failure_forces_both_solvers(self):
        cfg = StudyConfig(study="failure", solvers=("qr",)).validate()
        assert set(cfg.solvers) == {"ne", "qr"}

    def test_acoustics_forces_complex_formulation(self):
        cfg = StudyConfig(study="acoustics", formulation="ultraweak-dpg").validate()
        assert cfg.formulation == "acoustics-ultraweak"


class TestRunStudy:
    def test_converge_schema_and_rate(self, tmp_path):
        cfg = StudyConfig(
            study="converge", formulation="ultraweak-dpg", p=2, dp=1,
            refinements=4, solvers=("qr",), out_dir=str(tmp_path),
        )
        rows, csv_path = run_study(cfg)
        table = read_rows(csv_path)
        assert len(table) == 4
        errs = np.array([float(r[7]) for r in table])
        ns = np.array([float(r[0]) for r in table])
        assert np.all(np.diff(errs) < 0)
        rate = np.polyfit(np.log(1.0 / ns[1:]), np.log(errs[1:]), 1)[0]
        assert rate == pytest.approx(2.0, abs=0.3)
        # rho decreases as well
        rhos = np.array([float(r[8]) for r in table])
        assert np.all(np.diff(rhos) < 0)

    def test_csv_determinism_modulo_walltime(self, tmp_path):
        cfg = dict(
            study="condition", formulation="fosls-strong", p=2, dp=1,
            refinements=3, solvers=("ne", "qr"),
        )
        rows1, path1 = run_study(StudyConfig(out_dir=str(tmp_path / "a"), **cfg))
        rows2, path2 = run_study(StudyConfig(out_dir=str(tmp_path / "b"), **cfg))
        strip = lambda p: [ln.rsplit(",", 1)[0] for ln in p.read_text().splitlines()]
        assert strip(path1) == strip(path2)

    @pytest.mark.parametrize("error", [ZeroSolution("zero"), ValueError("bug")])
    def test_only_zero_solution_leaves_rho_empty(self, tmp_path, monkeypatch, error):
        def fail(*args):
            raise error

        monkeypatch.setattr(studies, "residual_rho", fail)
        cfg = StudyConfig(
            study="converge", formulation="ultraweak-dpg", p=1, dp=1,
            refinements=1, solvers=("qr",), out_dir=str(tmp_path),
        )
        if isinstance(error, ZeroSolution):
            rows, _ = run_study(cfg)
            assert rows[0].rho is None
        else:
            with pytest.raises(ValueError, match="bug"):
                run_study(cfg)

    def test_only_the_condition_diagnostic_builds_a_gram(self, tmp_path, monkeypatch):
        """rho builds no Gram matrix: its power iteration runs on the stacks.
        A level at or below COND_LIMIT builds one, the condition diagnostic's,
        and a level above it (qr-p2's n = 32) none.  rho scales no matrix, a
        double-precision square level forms S* S once for both solvers, and
        no study path copies Btilde into a COO/CSR matrix unless it is
        dumped."""
        builds, coo_calls, products, rho_scalings, rho_cols = [], [], [], [], []
        in_rho, in_cond = [], []
        gram, to_coo = RectangularRowBlocked.gram.func, RectangularRowBlocked.to_coo
        rho, cond = studies.residual_rho, studies._cond_diagnostics
        scale_columns = assembly._scale_columns

        def counting_gram(self):
            builds.append((self.n_cols, bool(in_rho), bool(in_cond)))
            return gram(self)

        def counting_coo(self):
            coo_calls.append(self.n_cols)
            return to_coo(self)

        def counting_scale(csr, s):
            if in_rho:
                rho_scalings.append(csr.shape)
            return scale_columns(csr, s)

        def inside(flag, func):
            def wrapped(*args, **kwargs):
                flag.append(True)
                try:
                    return func(*args, **kwargs)
                finally:
                    flag.pop()
            return wrapped

        def tracking_rho(bt, sol):
            rho_cols.append(bt.n_cols)
            return inside(in_rho, rho)(bt, sol)

        for cls in (scipy.sparse.csr_matrix, scipy.sparse.csc_matrix):
            def counting_matmul(self, other, matmul=cls.__matmul__):
                if scipy.sparse.issparse(other):
                    products.append(other.shape)
                return matmul(self, other)

            monkeypatch.setattr(cls, "__matmul__", counting_matmul)
        counted = functools.cached_property(counting_gram)
        counted.__set_name__(RectangularRowBlocked, "gram")
        monkeypatch.setattr(RectangularRowBlocked, "gram", counted)
        monkeypatch.setattr(RectangularRowBlocked, "to_coo", counting_coo)
        for mod in (assembly, solve, studies):
            monkeypatch.setattr(mod, "_scale_columns", counting_scale, raising=False)
        monkeypatch.setattr(studies, "residual_rho", tracking_rho)
        monkeypatch.setattr(studies, "_cond_diagnostics", inside(in_cond, cond))
        # qr-p2's configuration: n = 8 and 16 at or below COND_LIMIT, n = 32 above
        cfg = dict(
            study="converge", formulation="ultraweak-dpg", p=2, dp=1,
            start_n=8, refinements=3, solvers=("qr",),
        )
        rows, _ = run_study(StudyConfig(out_dir=str(tmp_path / "a"), **cfg))
        assert [r.n for r in rows] == [8, 16, 32]
        assert all(r.rho is not None for r in rows)
        assert [r.cond_btilde is not None for r in rows] == [True, True, False]
        assert rho_cols[0] < rho_cols[1] <= studies.COND_LIMIT < rho_cols[2]
        assert builds == [(rho_cols[0], False, True), (rho_cols[1], False, True)]
        assert coo_calls == [] and products == [] and rho_scalings == []
        run_study(StudyConfig(out_dir=str(tmp_path / "b"), dump_matrices=True, **dict(cfg, refinements=2)))
        assert len(coo_calls) == 2          # the dumps, one per level
        builds.clear()
        rho_cols.clear()
        square = dict(cfg, formulation="bubnov-galerkin", start_n=4, refinements=2, solvers=("ne", "qr"))
        rows, _ = run_study(StudyConfig(out_dir=str(tmp_path / "c"), **square))
        assert [r.n for r in rows] == [4, 8]
        assert all(None not in (r.rho, r.cond_a, r.cond_btilde) for r in rows)
        assert builds == [(rho_cols[0], False, True), (rho_cols[1], False, True)]
        assert len(products) == 2 and products[0] < products[1]     # S* S, one per level
        assert rho_scalings == []

    @pytest.mark.parametrize(
        "formulation,solvers,quotients",
        [
            ("ultraweak-dpg", ("ne", "qr"), 2),
            ("bubnov-galerkin", ("ne", "qr"), 2),
            ("ultraweak-dpg", ("qr",), 0),
            ("ultraweak-dpg", ("ne",), 0),
        ],
    )
    def test_one_spectrum_per_level(self, tmp_path, monkeypatch, formulation, solvers, quotients):
        """A double-precision level factors one matrix and runs Lanczos twice,
        whichever systems it assembled; with both, cond_A comes from two
        Rayleigh quotients on A_s."""
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting("splu", scipy.sparse.linalg.splu))
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting("eigsh", scipy.sparse.linalg.eigsh))
        monkeypatch.setattr(
            SparseSymmetric, "quadratic_form", counting("quadratic_form", SparseSymmetric.quadratic_form)
        )
        cfg = StudyConfig(
            study="converge", formulation=formulation, p=1, dp=1, start_n=4,
            refinements=1, solvers=solvers, out_dir=str(tmp_path),
        )
        (row,), _ = run_study(cfg)
        assert 3 <= row.n_trial <= studies.COND_LIMIT
        assert (row.cond_a is not None) == ("ne" in solvers)
        assert (row.cond_btilde is not None) == ("qr" in solvers)
        assert sorted(calls) == ["eigsh", "eigsh"] + ["quadratic_form"] * quotients + ["splu"]

    def test_condition_study_cond_squaring(self, tmp_path):
        cfg = StudyConfig(
            study="condition", formulation="fosls-strong", p=2, dp=1,
            refinements=3, out_dir=str(tmp_path),
        )
        rows, _ = run_study(cfg)
        for row in rows:
            assert row.cond_a is not None and row.cond_btilde is not None
            assert 0.99 <= row.cond_a / row.cond_btilde**2 <= 1.01

    def test_matrix_dumps(self, tmp_path):
        cfg = StudyConfig(
            study="converge", formulation="primal-dpg", p=1, dp=1,
            refinements=2, solvers=("ne", "qr"), dump_matrices=True,
            out_dir=str(tmp_path),
        )
        run_study(cfg)
        for n in (2, 4):
            assert (tmp_path / f"A_{n}.mtx").exists()
            assert (tmp_path / f"Btilde_{n}.mtx").exists()
            assert (tmp_path / f"l_{n}.mtx").exists()

    def test_bubnov_galerkin_study(self, tmp_path):
        cfg = StudyConfig(
            study="condition", formulation="bubnov-galerkin", p=1, dp=0,
            refinements=3, out_dir=str(tmp_path),
        )
        rows, _ = run_study(cfg)
        conds = [row.cond_btilde for row in rows]
        # square stiffness condition number grows ~ h^-2
        assert conds[2] / conds[1] == pytest.approx(4.0, rel=0.4)

    def test_single_precision_run(self, tmp_path):
        cfg = StudyConfig(
            study="failure", formulation="ultraweak-dpg", p=1, dp=1,
            refinements=3, precision="single", out_dir=str(tmp_path),
        )
        rows, _ = run_study(cfg)
        assert all(row.err_ne is not None and row.err_qr is not None for row in rows)


class TestCompareFosls:
    def test_identity_alpha_zero(self, tmp_path):
        rows, _ = compare_fosls(p=2, dp_list=(1,), refinements=2, alpha=0, out_dir=tmp_path)
        for r in rows:
            assert r["mat_dist_rel"] <= 1e-12
            assert r["sol_dist_U_rel"] <= 1e-11

    def test_dp0_gives_nonzero_distance(self, tmp_path):
        rows, _ = compare_fosls(p=2, dp_list=(0,), refinements=1, alpha=0, out_dir=tmp_path)
        assert rows[0]["mat_dist_rel"] > 1e-8

    def test_alpha_sine_rate_grows_with_dp(self, tmp_path):
        rows, csv_path = compare_fosls(
            p=2, dp_list=(1, 2), refinements=3, alpha="sine", out_dir=tmp_path
        )
        rates = {}
        for dp in (1, 2):
            data = [(r["n"], r["sol_dist_U"]) for r in rows if r["dp"] == dp]
            ns = np.log([1.0 / d[0] for d in data])
            ds = np.log([d[1] for d in data])
            rates[dp] = np.polyfit(ns, ds, 1)[0]
        assert rates[2] > rates[1]
        assert csv_path.exists()


FOSLS_CASES = {
    "zero": make_case("poisson-sine"),
    "constant": dataclasses.replace(make_case("poisson-sine"), alpha=2.5),
    "sine": make_case("poisson-alpha-sine"),
}


def _fosls_context(alpha, p, n):
    """Uncondensed fosls-strong context at dp = 0: its own quadrature rule
    (order p + 2) differs from the classical system's (order p + 3)."""
    case = FOSLS_CASES[alpha]
    form = make_formulation("fosls-strong", p, 0, alpha=case.alpha)
    return build_context(uniform_mesh(n), form, case, Options(condense=False)), case


class TestFoslsMonolithic:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("alpha", sorted(FOSLS_CASES))
    def test_matches_per_element_reference(self, alpha, p, n):
        ctx, case = _fosls_context(alpha, p, n)
        a = assemble_fosls_monolithic(ctx, case)
        a_ref, f_ref, free = fosls_reference(ctx.mesh, p, case)
        assert np.array_equal(ctx.solve_ids, free)
        a_ref, f_ref = a_ref[np.ix_(free, free)], f_ref[free]
        assert np.linalg.norm(a.to_dense() - a_ref) <= 1e-14 * np.linalg.norm(a_ref)
        assert np.linalg.norm(a.rhs - f_ref) <= 1e-14 * np.linalg.norm(f_ref)

    @pytest.mark.parametrize("alpha", ["zero", "sine"])
    def test_pattern_couples_element_neighbours_only(self, alpha):
        ctx, case = _fosls_context(alpha, 2, 4)
        a = assemble_fosls_monolithic(ctx, case)
        stored = a.matrix.tocoo()
        # element-column incidence: two columns couple iff they share an element
        els = np.concatenate([np.repeat(c.elements, c.free_local.size) for c in ctx.classes])
        cols = np.concatenate([ctx.solve_index[c.free_ids].ravel() for c in ctx.classes])
        inc = scipy.sparse.csr_matrix(
            (np.ones(els.size), (els, cols)), shape=(ctx.mesh.n_elements, ctx.n_solve)
        )
        ne_stored = assemble_ne(ctx)[0].matrix.tocsr()
        for pattern in ((inc.T @ inc).tocsr(), ne_stored.copy()):
            pattern.data[:] = 1.0      # stored entries, zero-valued ones included
            assert np.all(np.asarray(pattern[stored.row, stored.col]) == 1.0)
        assert stored.nnz <= ne_stored.nnz


class TestCli:
    def test_cli_converge(self, tmp_path, capsys):
        rc = cli_main([
            "converge", "--formulation", "primal-dpg", "--p", "1", "--dp", "1",
            "--refinements", "2", "--solver", "qr", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "study.csv").exists()

    def test_cli_rank_deficient_qr_leaves_empty_cells(self, tmp_path):
        """The primal DPG system at dp = 0 loses rank: its QR cells stay
        empty, the NE ones are filled and the run ends normally."""
        rc = cli_main([
            "converge", "--formulation", "primal-dpg", "--dp", "0",
            "--solver", "both", "--refinements", "3", "--out", str(tmp_path),
        ])
        assert rc == 0
        with open(tmp_path / "study.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["n"] for row in rows] == ["2", "4", "8"]
        assert all(row["err_qr"] == "" and row["err_ne"] for row in rows)

    def test_cli_context_failure_writes_rows_and_names_level(self, tmp_path, monkeypatch, capsys):
        """A context that cannot be built ends the study: the rows so far
        and an empty row for the failing level are written, exit code 1."""
        build = studies.build_context

        def failing_build(mesh, *args):
            if mesh.n == 4:
                raise linalg.NotPositiveDefinite("element Gram not positive definite")
            return build(mesh, *args)

        monkeypatch.setattr(studies, "build_context", failing_build)
        rc = cli_main([
            "converge", "--p", "1", "--solver", "both", "--refinements", "4",
            "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "n=4" in capsys.readouterr().err
        with open(tmp_path / "study.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["n"] for row in rows] == ["1", "2", "4"]
        assert rows[1]["err_qr"] and rows[1]["err_ne"]
        assert float(rows[2]["h"]) == 0.25
        assert all(rows[2][key] == "" for key in ("N", "M", "err_ne", "err_qr", "eta_total"))

    def test_cli_validation_error(self, tmp_path):
        rc = cli_main([
            "converge", "--refinements", "0", "--out", str(tmp_path),
        ])
        assert rc == 2

    def test_cli_compare_fosls_dp_list(self, tmp_path):
        rc = cli_main([
            "compare-fosls", "--p", "1", "--dp", "1,2", "--refinements", "2",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "compare_fosls.csv").exists()

    @pytest.mark.parametrize("study,dp,message", [
        ("compare-fosls", "1,-1", "dp: must be >= 0"),
        ("converge", "1,2", "dp: a list of values is for compare-fosls only"),
        ("compare-fosls", "1,x", "dp: a comma list of one or more integers required"),
    ])
    def test_cli_rejects_bad_dp_list(self, tmp_path, capsys, study, dp, message):
        """A negative or non-integer value anywhere in a --dp list, and a
        list outside compare-fosls, are configuration errors that name dp:
        exit 2, and no study runs."""
        rc = cli_main([study, "--p", "1", "--dp", dp, "--refinements", "2", "--out", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_cli_toggles(self, tmp_path):
        rc = cli_main([
            "converge", "--formulation", "fosls-strong", "--p", "1", "--dp", "1",
            "--refinements", "2", "--solver", "both", "--no-condense",
            "--out", str(tmp_path),
        ])
        assert rc == 0


    def test_every_assembly_option_has_a_flag(self):
        """Each field of assembly.Options is set by a dls flag (``--name`` or
        ``--no-name``) through the study configuration: an option that no
        flag reaches is a knob no study can turn."""
        flags = set(build_parser()._option_string_actions)
        config_fields = {f.name for f in dataclasses.fields(StudyConfig)}
        for field in dataclasses.fields(Options):
            name = field.name.replace("_", "-")
            assert {f"--{name}", f"--no-{name}"} & flags, field.name
            assert field.name in config_fields, field.name

    def test_every_study_knob_is_set_outside_the_tests(self, tmp_path, monkeypatch):
        """Each field of StudyConfig is passed by ``dls`` (``cli.main``) or
        set by a benchmark workload: a field that only tests set is a knob
        no study turns."""
        passed = set()

        def record(**kwargs):
            passed.update(kwargs)
            return StudyConfig(**kwargs)

        monkeypatch.setattr(cli, "StudyConfig", record)
        monkeypatch.setattr(cli, "run_study", lambda config: ([], tmp_path / "study.csv"))
        assert cli_main(["converge", "--out", str(tmp_path)]) == 0
        workloads = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
        set_by_workloads = set().union(*workloads.values())
        for field in dataclasses.fields(StudyConfig):
            assert field.name in passed | set_by_workloads, field.name


def test_basis_tables_are_read_through_the_channel_table(tmp_path, monkeypatch):
    """Every master basis table that a study reads, for the kernels, the
    error norms and the classical FOSLS system, is read by the formulation
    module, which owns the channels' h-scaling."""
    callers = set()

    def recorded(table):
        def wrapper(*args):
            callers.add(sys._getframe(1).f_globals["__name__"])
            return table(*args)

        return wrapper

    for name in ("w_table", "v_table", "y_table"):
        monkeypatch.setattr(basis, name, recorded(getattr(basis, name)))
    sine, default_case = make_case("poisson-alpha-sine"), studies.case_for
    monkeypatch.setattr(
        studies, "case_for",
        lambda config: (sine, 1) if config.formulation == "fosls-strong" else default_case(config),
    )
    for name in FORMULATION_NAMES:
        rows, _ = run_study(StudyConfig(
            study="acoustics" if name == "acoustics-ultraweak" else "converge", formulation=name,
            p=1, refinements=2, solvers=("ne", "qr"), out_dir=str(tmp_path),
        ))
        assert len(rows) == 2 and rows[-1].err_ne is not None and rows[-1].err_qr is not None
    rows, _ = compare_fosls(p=1, dp_list=(1,), refinements=1, out_dir=tmp_path)
    assert rows[0]["sol_dist_U"] > 0
    assert callers == {"dlsfem.formulation"}


def test_acoustics_study_complex_cond_squaring(tmp_path):
    cfg = StudyConfig(
        study="acoustics", p=1, dp=1, refinements=3, solvers=("ne", "qr"),
        out_dir=str(tmp_path),
    )
    rows, _ = run_study(cfg)
    for row in rows:
        assert 0.99 <= row.cond_a / row.cond_btilde**2 <= 1.01


class TestCondDiagnostics:
    CASES = {
        "ultraweak-p2-n8": ("ultraweak-dpg", "poisson-sine", 8),
        "acoustics-n3": ("acoustics-ultraweak", "acoustics-resonance", 3),
        "acoustics-n6": ("acoustics-ultraweak", "acoustics-resonance", 6),
        "bubnov-p2-n6": ("bubnov-galerkin", "poisson-sine10", 6),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_dense_reference(self, name):
        fname, cname, n = self.CASES[name]
        kwargs = {"omega": RESONANCE_OMEGA} if cname == "acoustics-resonance" else {}
        form = make_formulation(fname, 2, 0 if fname == "bubnov-galerkin" else 1, **kwargs)
        case = make_case(cname, **kwargs)
        mesh = uniform_mesh(n)
        build = build_square_context if form.test_conforming else build_context
        ctx = build(mesh, form, case, Options())
        a, f = assemble_ne(ctx)
        bt, lt = assemble_overdetermined(ctx)
        ref_a = linalg.condition_number(_scale_columns(a.matrix, precondition_global(a)).toarray())
        ref_b = linalg.condition_number(bt.to_dense() * precondition_global_rect(bt))
        cond_a, cond_b = _cond_diagnostics(mesh, form, case, Options(), True, True)
        # the lambda_min of either route is off by about eps ||A_s||
        tol = 100.0 * ref_a * linalg.eps(np.float64)
        assert abs(cond_a - ref_a) <= tol * ref_a
        assert abs(cond_b - ref_b) <= tol * ref_b
        reused = _cond_diagnostics(
            mesh, form, case, Options(), True, True, assembled=(ctx, a, bt)
        )
        assert reused == (cond_a, cond_b)

    @pytest.mark.parametrize("gram_scaled", [True, False])
    @pytest.mark.parametrize("condense", [True, False])
    @pytest.mark.parametrize("formulation", FORMULATION_NAMES)
    def test_ne_matrix_is_the_gram_of_btilde(self, formulation, condense, gram_scaled, monkeypatch):
        """A_s and Btilde_s* Btilde_s, the two matrices whose spectrum one
        Lanczos pair serves, agree entrywise to round-off, real and complex,
        also when the element Gram matrix is whitened unscaled."""
        if not gram_scaled:
            monkeypatch.setattr(element, "precondition_gram", lambda g, b, l: (g, b, l, np.ones(len(g))))
        study = "acoustics" if formulation == "acoustics-ultraweak" else "condition"
        cfg = StudyConfig(study=study, formulation=formulation, p=2, dp=1, condense=condense).validate()
        case, _ = case_for(cfg)
        form = _formulation_for(cfg, case)
        ctx = studies._build(uniform_mesh(4), form, case, Options(condense=condense))
        a, bt = assemble_ne(ctx)[0], assemble_overdetermined(ctx)[0]
        a_s = _scale_columns(a.matrix, precondition_global(a)).toarray()
        gram = _scale_columns(bt.gram, precondition_global_rect(bt)).toarray()
        assert np.iscomplexobj(a_s) == (formulation == "acoustics-ultraweak")
        assert np.abs(a_s - gram).max() <= 1e-12 * np.abs(a_s).max()

    def test_single_precision_reports_double_precision_cond(self, tmp_path):
        cfg = dict(
            study="converge", formulation="ultraweak-dpg", p=1, dp=1,
            refinements=2, solvers=("ne", "qr"),
        )
        single, _ = run_study(StudyConfig(precision="single", out_dir=str(tmp_path / "s"), **cfg))
        double, _ = run_study(StudyConfig(precision="double", out_dir=str(tmp_path / "d"), **cfg))
        for rs, rd in zip(single, double):
            assert rs.cond_a is not None and rs.cond_a == rd.cond_a
            assert rs.cond_btilde is not None and rs.cond_btilde == rd.cond_btilde

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_failed_assembly_leaves_cell_empty(self, tmp_path, monkeypatch, precision):
        def fail(ctx):
            raise AssemblyError("element 0: forced")

        monkeypatch.setattr(studies, "assemble_ne", fail)
        cfg = StudyConfig(
            study="converge", formulation="ultraweak-dpg", p=1, dp=1,
            refinements=2, solvers=("ne", "qr"), precision=precision,
            out_dir=str(tmp_path),
        )
        rows, _ = run_study(cfg)
        assert len(rows) == 2
        for row in rows:
            assert "forced" in row.failed["ne"]
            assert row.cond_a is None and row.err_ne is None
            assert row.cond_btilde is not None and row.err_qr is not None

    def test_not_hpd_leaves_cells_empty(self, tmp_path, monkeypatch):
        def fail(a):
            raise linalg.NotPositiveDefinite("forced")

        monkeypatch.setattr(linalg, "hpd_extreme_eigenpairs", fail)
        cfg = StudyConfig(
            study="condition", formulation="fosls-strong", p=1, dp=1,
            refinements=2, out_dir=str(tmp_path),
        )
        rows, _ = run_study(cfg)
        assert len(rows) == 2
        for row in rows:
            assert row.cond_a is None and row.cond_btilde is None
            assert row.err_ne is not None and row.err_qr is not None

    @pytest.mark.parametrize(
        "precision,limit,builds",
        [("double", 5000, 2), ("single", 5000, 4), ("single", 0, 2)],
    )
    def test_contexts_built_per_study(self, tmp_path, monkeypatch, precision, limit, builds):
        calls = []
        build = studies._build

        def counting(*args):
            calls.append(args[3].precision)
            return build(*args)

        monkeypatch.setattr(studies, "_build", counting)
        monkeypatch.setattr(studies, "COND_LIMIT", limit)
        cfg = StudyConfig(
            study="converge", formulation="ultraweak-dpg", p=1, dp=1,
            refinements=2, solvers=("ne", "qr"), precision=precision,
            out_dir=str(tmp_path),
        )
        rows, _ = run_study(cfg)
        assert len(calls) == builds
        assert all((row.cond_a is None) == (limit == 0) for row in rows)
