import numpy as np
import pytest

from dlsfem import studies
from dlsfem.cli import main as cli_main
from dlsfem.solve import ZeroSolution
from dlsfem.studies import (
    CSV_HEADER,
    ConfigError,
    StudyConfig,
    compare_fosls,
    run_study,
)


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

    def test_max_trial_dofs_stops_early(self, tmp_path):
        cfg = StudyConfig(
            study="converge", formulation="ultraweak-dpg", p=1, dp=1,
            refinements=10, solvers=("qr",), out_dir=str(tmp_path),
            max_trial_dofs=300,
        )
        rows, _ = run_study(cfg)
        assert rows[-1].n_trial >= 300
        assert rows[-2].n_trial < 300


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


class TestCli:
    def test_cli_converge(self, tmp_path, capsys):
        rc = cli_main([
            "converge", "--formulation", "primal-dpg", "--p", "1", "--dp", "1",
            "--refinements", "2", "--solver", "qr", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "study.csv").exists()

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

    def test_cli_toggles(self, tmp_path):
        rc = cli_main([
            "converge", "--formulation", "fosls-strong", "--p", "1", "--dp", "1",
            "--refinements", "2", "--solver", "both", "--no-condense",
            "--no-precondition-gram", "--no-precondition-global",
            "--out", str(tmp_path),
        ])
        assert rc == 0


def test_acoustics_study_complex_cond_squaring(tmp_path):
    cfg = StudyConfig(
        study="acoustics", p=1, dp=1, refinements=3, solvers=("ne", "qr"),
        out_dir=str(tmp_path),
    )
    rows, _ = run_study(cfg)
    for row in rows:
        assert 0.99 <= row.cond_a / row.cond_btilde**2 <= 1.01
