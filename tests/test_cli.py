"""CLI surface: schemas, exit codes, determinism of outputs."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

SMALL_CFG = {
    "k0": {"re": 2.0, "im": 0.05},
    "a": 1.0,
    "eta": {"re": 1.0, "im": -1.0},
    "theta_in_deg": 60.0,
    "numerics": {"N": 16, "tail_tol": 1e-6},
    "grids": {"n_theta": 9, "k_grid_factor": 2.0, "n_k": 5},
    "out_dir": "out",
}


@pytest.fixture()
def run_cli(cli_env):
    def run(*args, cwd):
        return subprocess.run([sys.executable, "-m", "stripscat.cli", *args],
                              capture_output=True, text=True, cwd=cwd,
                              env=cli_env)
    return run


@pytest.fixture()
def main_cli(capsys):
    """`stripscat` in this process: (exit code, stderr) of `cli.main`.  A
    usage error leaves argparse's SystemExit, which `python -m` turns into
    the exit code."""
    from stripscat import cli

    def run(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().err
    return run


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "cfg.json"
    cfg = dict(SMALL_CFG)
    cfg["out_dir"] = str(tmp_path / "out")
    p.write_text(json.dumps(cfg))
    return p


class TestSolve:
    def test_outputs_and_schema(self, tmp_path, cfg_file, main_cli):
        code, err = main_cli("solve", "--config", str(cfg_file))
        assert code == 0, err
        out = tmp_path / "out"
        header = (out / "directivity.csv").read_text().splitlines()[0]
        assert header == "theta_deg,S_re,S_im,Sa_re,Sa_im,Ss_re,Ss_im"
        header = (out / "densities.csv").read_text().splitlines()[0]
        assert header == "x,mu_re,mu_im,sigma_re,sigma_im"
        diags = json.loads((out / "diagnostics.json").read_text())
        assert set(diags) == {"antisymmetric", "symmetric", "self_convergence", "config"}
        for parity in ("antisymmetric", "symmetric"):
            assert set(diags[parity]) == {"N", "condition_estimate", "kernel_tail", "kernel_order"}
            # k0 = 2+0.05i, a = 1: 24 + 3 ceil(|k0| a) = 33, rounded up to even
            assert diags[parity]["kernel_order"] == 34
        assert set(diags["self_convergence"]) == {"value", "tol", "N2", "passed"}
        assert diags["self_convergence"]["N2"] == 2 * SMALL_CFG["numerics"]["N"]

    def test_eta_zero_kills_ss_columns(self, tmp_path, main_cli):
        cfg = dict(SMALL_CFG)
        cfg["eta"] = {"re": 0.0, "im": 0.0}
        cfg["out_dir"] = str(tmp_path / "out")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, err = main_cli("solve", "--config", str(p))
        assert code == 0, err
        rows = (tmp_path / "out" / "directivity.csv").read_text().splitlines()[1:]
        ss = np.array([[float(v) for v in row.split(",")[5:7]] for row in rows])
        assert np.max(np.abs(ss)) == 0

    def test_deterministic_rerun(self, tmp_path, cfg_file, run_cli):
        r1 = run_cli("solve", "--config", str(cfg_file), cwd=tmp_path)
        assert r1.returncode == 0, r1.stderr
        first = (tmp_path / "out" / "directivity.csv").read_bytes()
        r2 = run_cli("solve", "--config", str(cfg_file), cwd=tmp_path)
        assert r2.returncode == 0, r2.stderr
        second = (tmp_path / "out" / "directivity.csv").read_bytes()
        assert first == second

    def test_config_parse_error_exit_2(self, tmp_path, main_cli):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _ = main_cli("solve", "--config", str(p))
        assert code == 2

    # section None replaces the whole config, key None the whole section
    @pytest.mark.parametrize("section,key,value", [
        ("numerics", "N", 2),
        ("eta", "re", float("nan")),
        ("eta", "im", float("-inf")),
        (None, None, [1, 2]),
        ("grids", None, [1]),
        ("grids", "k_grid_factor", 1e400),
        ("grids", "k_grid_factor", 0.0),
        ("numerics", "N", 1025),
        # int() would truncate these to N = 64, 7 angles and one k point
        ("numerics", "N", 64.9),
        ("grids", "n_theta", 7.5),
        ("grids", "n_k", True),
    ])
    def test_invalid_values_exit_2(self, tmp_path, main_cli, section, key, value):
        cfg = json.loads(json.dumps(SMALL_CFG))
        if section is None:
            cfg = value
        elif key is None:
            cfg[section] = value
        else:
            cfg[section][key] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, err = main_cli("solve", "--config", str(p))
        assert code == 2
        assert err.startswith("config error:") and "Traceback" not in err

    def test_gain_violating_eta_rejected(self, tmp_path, main_cli):
        cfg = dict(SMALL_CFG)
        cfg["eta"] = {"re": 1.0, "im": 0.5}   # Im eta > 0: gain, rejected
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code, err = main_cli("solve", "--config", str(p))
        assert code == 2
        assert "eta" in err.lower() or "dissipation" in err.lower()


REF_CFG = dict(SMALL_CFG, numerics={"N": 64}, grids={})


def _write_cfg(tmp_path, **changes):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(REF_CFG, out_dir=str(tmp_path / "out"), **changes)))
    return p


class TestSolveVerdict:
    """`solve` reports the suite's directivity self-convergence check."""

    def test_reference_config_converged(self, tmp_path):
        from stripscat import cli
        from stripscat.verify import RunConfig, run_suite
        p = _write_cfg(tmp_path)
        assert cli.main(["solve", "--config", str(p), "--strict"]) == 0
        diags = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        report, _ = run_suite(RunConfig.from_json_file(p), "fast")
        check, = (c for c in report.checks if c.check_id == "directivity-self-convergence")
        assert diags["self_convergence"] == {"value": check.value, "tol": check.tol,
                                             "N2": 128, "passed": True}

    def test_unresolved_solve_fails_strict(self, tmp_path, caplog):
        # N = 8 at normal incidence misses the directivity by about 2e-3
        import logging
        from stripscat import cli
        p = _write_cfg(tmp_path, k0={"re": 8.0, "im": 0.0}, eta={"re": -1.0, "im": -1.0},
                       theta_in_deg=90.0, numerics={"N": 8})
        assert cli.main(["solve", "--config", str(p), "--strict"]) == 3
        conv = json.loads((tmp_path / "out" / "diagnostics.json").read_text())["self_convergence"]
        assert conv["value"] > 1e-4 and not conv["passed"]
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert cli.main(["solve", "--config", str(p)]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and warnings[0].startswith("directivity self-convergence")

    def test_zero_field_converged(self, tmp_path, main_cli):
        # eta = 0 at grazing incidence scatters nothing: S = 0 at N and 2N
        p = _write_cfg(tmp_path, eta={"re": 0.0, "im": 0.0}, theta_in_deg=0.0)
        code, err = main_cli("solve", "--config", str(p), "--strict")
        assert code == 0, err
        conv = json.loads((tmp_path / "out" / "diagnostics.json").read_text())["self_convergence"]
        assert conv["value"] == 0.0 and conv["passed"]


class TestVerify:
    def test_singular_medium_exit_3(self, tmp_path, monkeypatch, cfg_file, capsys):
        from stripscat import bie, cli
        assemble = bie._galerkin

        def degenerate(*args):
            O, edge, ker = assemble(*args)
            return np.zeros_like(O), edge, ker

        monkeypatch.setattr(bie, "_galerkin", degenerate)
        bie._operator.cache_clear()
        assert cli.main(["verify", "--config", str(cfg_file)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical failure:")
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("suite", ["fast", "full"])
    def test_small_k0_writes_a_report(self, tmp_path, main_cli, suite):
        # at k0 = 0.01 + 0.001i the sheet check classifies eta = -1 - i, whose
        # k' lies beyond 50 |k0|: a report, not a traceback
        p = _write_cfg(tmp_path, k0={"re": 0.01, "im": 0.001})
        code, err = main_cli("verify", "--suite", suite, "--config", str(p))
        assert code in (0, 1), err
        checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
        assert all(math.isfinite(c["value"]) for c in checks)
        assert next(c for c in checks if c["id"] == "deformation-declassifies")["passed"]

    def test_module_entry_point_exit_code(self, tmp_path, run_cli):
        # `python -m stripscat.cli verify` exits with the code cli.main returns
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(SMALL_CFG, k0={"re": 2.0, "im": 0.0})))
        r = run_cli("verify", "--config", str(p), cwd=tmp_path)
        assert r.returncode == 2
        assert r.stderr.count("\n") == 1 and r.stderr.startswith("config error:")


class TestLinAlgError:
    @pytest.mark.parametrize("command", ["solve", "spectra", "verify"])
    def test_exit_3(self, tmp_path, monkeypatch, cfg_file, capsys, command):
        from stripscat import cli

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", failing)
        assert cli.main([command, "--config", str(cfg_file)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("numerical failure:")
        assert not any((tmp_path / "out").glob("*.csv"))
        assert not (tmp_path / "out" / "report.json").exists()


class TestSpectra:
    def test_schema_and_residual_column(self, tmp_path, cfg_file, main_cli):
        code, err = main_cli("spectra", "--config", str(cfg_file))
        assert code == 0, err
        lines = (tmp_path / "out" / "spectra.csv").read_text().splitlines()
        cols = lines[0].split(",")
        assert cols[:2] == ["k_re", "k_im"]
        assert "res_u" in cols and "res_v" in cols
        res_u = [float(row.split(",")[cols.index("res_u")]) for row in lines[1:]]
        assert max(res_u) < 1e-3  # N=16 quick config


    def test_one_pole_warning_per_run(self, tmp_path, caplog):
        # theta_in = 90 deg puts k_* = k0 cos(theta_in) on the k grid's row k = 0
        import logging
        from stripscat import cli
        cfg = dict(SMALL_CFG, k0={"re": 2.0, "im": 0.2}, theta_in_deg=90.0,
                   out_dir=str(tmp_path / "out"))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        with caplog.at_level(logging.WARNING):
            assert cli.main(["spectra", "--config", str(p)]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].startswith("real-axis half-line transforms:") and "pole" in warnings[0]

    def test_one_strip_transform_per_family(self, cfg_file, monkeypatch):
        # F0 = P(xi) F0~ comes from the one F0~ of each family
        from stripscat import cli, spectral
        seen = []
        transform = spectral.strip_transform

        def counted(parity, a, coeffs, k):
            seen.append(parity)
            return transform(parity, a, coeffs, k)

        monkeypatch.setattr(spectral, "strip_transform", counted)
        assert cli.main(["spectra", "--config", str(cfg_file)]) == 0
        assert sorted(p.value for p in seen) == ["antisymmetric", "symmetric"]

    def test_f0_columns_are_the_bundle_values(self, tmp_path, cfg_file):
        # F0 and F0~ in spectra.csv are bitwise SpectralBundle.f0 / f0_tilde
        from stripscat import cli
        from stripscat.spectral import Scattering
        from stripscat.verify import RunConfig
        assert cli.main(["spectra", "--config", str(cfg_file)]) == 0
        with open(tmp_path / "out" / "spectra.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rc = RunConfig.from_json_file(cfg_file)
        kg = np.array([float(r["k_re"]) for r in rows])
        for fam, b in zip("UV", Scattering(rc.problem(), rc.N).bundles):
            for col, f in (("0", b.f0), ("0t", b.f0_tilde)):
                got = np.array([complex(float(r[f"{fam}{col}_re"]), float(r[f"{fam}{col}_im"]))
                                for r in rows])
                assert np.array_equal(got.view(float), f(kg).view(float))

    def test_one_exponential_table_per_density(self, cfg_file, phase_builds):
        from stripscat import cli
        assert cli.main(["spectra", "--config", str(cfg_file)]) == 0
        assert phase_builds.count == 2

    @pytest.mark.parametrize("im_k0", [1e-3, 1e-6])
    def test_small_im_k0(self, tmp_path, im_k0):
        # the cut integrals cost the same down to Im k0 = 1e-6 (the banks took
        # 8 s and 900 MiB at 1e-3), and the residuals stay where they are at 0.05
        import time
        from stripscat import cli

        def run(im):
            out = tmp_path / f"out_{im}"
            cfg = dict(SMALL_CFG, k0={"re": 2.0, "im": im}, numerics={"N": 64},
                       grids={"n_k": 41, "k_grid_factor": 3.0}, out_dir=str(out))
            p = tmp_path / f"cfg_{im}.json"
            p.write_text(json.dumps(cfg))
            t0 = time.perf_counter()
            assert cli.main(["spectra", "--config", str(p)]) == 0
            elapsed = time.perf_counter() - t0
            with open(out / "spectra.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            return elapsed, [max(float(r[c]) for r in rows) for c in ("res_u", "res_v")]

        _, ref = run(0.05)
        elapsed, res = run(im_k0)
        assert elapsed < 1.0
        assert all(r <= 2 * r0 for r, r0 in zip(res, ref))


class TestPoleWarning:
    """One pole-proximity warning per command, from the real k grid the
    command chose; the half-line evaluators themselves never log."""

    # theta_in = 90 deg puts k_* = k0 cos(theta_in) on the grids' row k = 0;
    # the reference's k_* = 1.0003 + 0.025i lies 0.025 off every real k
    @pytest.mark.parametrize("theta_in_deg,count", [(90.0, 1), (60.0, 0)],
                             ids=["normal-incidence", "reference"])
    @pytest.mark.parametrize("argv", [["spectra"], ["verify", "--suite", "fast"],
                                      ["verify", "--suite", "full"]],
                             ids=["spectra", "verify-fast", "verify-full"])
    def test_one_warning_per_command(self, tmp_path, caplog, argv, theta_in_deg, count):
        import logging
        from stripscat import cli
        p = _write_cfg(tmp_path, theta_in_deg=theta_in_deg)
        with caplog.at_level(logging.WARNING):
            assert cli.main([*argv, "--config", str(p)]) in (0, 1)
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == count
        assert all(w.startswith("real-axis half-line transforms:") and "pole" in w
                   for w in warnings)


class TestSpectralPreconditions:
    """`spectra` and `verify` need Im(k0) > 0 and eta != 0, and say so in one
    line, with no traceback, before solving."""

    @pytest.mark.parametrize("command", ["spectra", "verify"])
    @pytest.mark.parametrize("key,value", [("k0", {"re": 2.0, "im": 0.0}),
                                           ("eta", {"re": 0.0, "im": 0.0})])
    def test_config_error(self, tmp_path, main_cli, command, key, value):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(SMALL_CFG, out_dir=str(tmp_path / "out"), **{key: value})))
        code, err = main_cli(command, "--config", str(p))
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert not (tmp_path / "out").exists()       # rejected before solving


class TestSweep:
    def test_eta_sweep_toggles_deformation_flag(self, tmp_path, cfg_file, main_cli):
        code, err = main_cli("sweep", "--config", str(cfg_file), "--param", "eta_re",
                             "--values", "1.0,-1.0")
        assert code == 0, err
        lines = (tmp_path / "out" / "sweep_summary.csv").read_text().splitlines()
        cols = lines[0].split(",")
        idx = cols.index("deformation_needed")
        flags = [row.split(",")[idx] for row in lines[1:]]
        assert flags == ["0", "1"]

    def test_bad_param_exit_2(self, cfg_file, main_cli):
        code, _ = main_cli("sweep", "--config", str(cfg_file), "--param", "bogus",
                           "--values", "1.0")
        assert code == 2

    def test_forward_column_is_forward_amplitude(self, tmp_path, monkeypatch):
        # S_forward is S(theta_in + pi), the amplitude whose projection
        # energy_balance takes as the extinction
        from stripscat import cli, spectral
        from stripscat.verify import RunConfig
        cfg = dict(SMALL_CFG, numerics={"N": 64}, out_dir=str(tmp_path / "out"))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert cli.main(["sweep", "--config", str(p), "--param", "theta_in",
                         "--values", "15"]) == 0
        with open(tmp_path / "out" / "sweep_summary.csv", newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        column = complex(float(row["S_forward_re"]), float(row["S_forward_im"]))

        amplitudes = []
        forward = spectral.forward_amplitude

        def recorded(*bundles):
            amplitudes.append(forward(*bundles))
            return amplitudes[-1]

        monkeypatch.setattr(spectral, "forward_amplitude", recorded)
        eb = spectral.energy_balance(RunConfig.from_dict(dict(cfg, theta_in_deg=15.0)).problem(),
                                     N=64)
        fwd = amplitudes[0]
        assert abs(column - fwd) <= 1e-14 * abs(fwd)
        assert eb["extinction"] == -2 * np.real(np.exp(1j * np.pi / 4) * fwd)

    def test_single_value_matches_solve(self, tmp_path, cfg_file, main_cli):
        code, err = main_cli("solve", "--config", str(cfg_file))
        assert code == 0, err
        solo = (tmp_path / "out" / "directivity.csv").read_bytes()
        code, err = main_cli("sweep", "--config", str(cfg_file), "--param", "theta_in",
                             "--values", "60.0")
        assert code == 0, err
        swept = (tmp_path / "out" / "directivity_000.csv").read_bytes()
        assert solo == swept


    def test_incidence_sweep_is_one_block_solve(self, tmp_path, cfg_file, monkeypatch):
        # every theta_in value shares the medium, so each parity is solved once
        from stripscat import bie, cli
        solve_block = bie.solve_block
        calls = []

        def counted(cfg, parity, theta_in, N):
            calls.append(parity)
            return solve_block(cfg, parity, theta_in, N)

        monkeypatch.setattr(bie, "solve_block", counted)
        assert cli.main(["sweep", "--config", str(cfg_file), "--param", "theta_in",
                         "--values", "20,50,80"]) == 0
        assert sorted(p.value for p in calls) == ["antisymmetric", "symmetric"]
        with open(tmp_path / "out" / "sweep_summary.csv", newline="") as fh:
            assert [r["status"] for r in csv.DictReader(fh)] == ["ok", "ok", "ok"]

    def test_bad_value_keeps_its_own_row(self, tmp_path, cfg_file):
        # 95 deg fails its config; 30 and 60 still share one block, and their
        # files match single-value sweeps to roundoff
        from stripscat import cli

        def sweep(values, out):
            assert cli.main(["sweep", "--config", str(cfg_file), "--param", "theta_in",
                             "--values", values, "--out", str(out)]) == 0
            with open(out / "sweep_summary.csv", newline="") as fh:
                return [r["status"] for r in csv.DictReader(fh)]

        def table(path):
            with open(path, newline="") as fh:
                return np.array(list(csv.reader(fh))[1:], dtype=float)

        status = sweep("30,95,60", tmp_path / "block")
        assert status[0] == "ok" and status[1].startswith("error:") and status[2] == "ok"
        assert not (tmp_path / "block" / "directivity_001.csv").exists()
        for iv, value in ((0, "30"), (2, "60")):
            assert sweep(value, tmp_path / value) == ["ok"]
            got = table(tmp_path / "block" / f"directivity_{iv:03d}.csv")
            ref = table(tmp_path / value / "directivity_000.csv")
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_error_message_stays_one_field(self, tmp_path, cfg_file, main_cli):
        # k0a = 0 fails with "Re(k0) must be > 0, got 0j", which holds a comma
        code, err = main_cli("sweep", "--config", str(cfg_file), "--param", "k0a",
                             "--values", "0,1")
        assert code == 0, err
        with open(tmp_path / "out" / "sweep_summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [10, 10, 10]
        assert rows[1][-1].startswith("error:") and rows[2][-1] == "ok"


_NUMBER = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.integers(-10, 10 ** 6))


class TestConfigRoundtrip:
    def test_lossless_serialization(self):
        from stripscat.verify import RunConfig
        rc = RunConfig.from_dict(SMALL_CFG)
        assert RunConfig.from_dict(rc.to_dict()) == rc

    def test_retired_tail_tol_key_loads(self):
        # configs written for the half-line banks, or with the cut radius
        # factor that is now 50 |k0| everywhere, still load; the keys are ignored
        from stripscat.verify import RunConfig
        assert "tail_tol" in SMALL_CFG["numerics"]
        for factor in (50.0, 0.5, float("nan")):
            d = json.loads(json.dumps(SMALL_CFG))
            d["numerics"]["cut_radius_factor"] = factor
            rc = RunConfig.from_dict(d)
            assert rc == RunConfig.from_dict(SMALL_CFG) and rc.N == SMALL_CFG["numerics"]["N"]
            assert set(rc.to_dict()["numerics"]) == {"N"}

    def test_required_keys_only_take_the_dataclass_defaults(self):
        from stripscat.verify import RunConfig
        d = {k: SMALL_CFG[k] for k in ("k0", "a", "eta", "theta_in_deg")}
        assert RunConfig.from_dict(d) == RunConfig(2 + 0.05j, 1.0, 1 - 1j, 60.0)

    @given(k0=st.tuples(_NUMBER, _NUMBER), a=_NUMBER, eta=st.tuples(_NUMBER, _NUMBER),
           theta=_NUMBER, N=_NUMBER, factors=st.tuples(_NUMBER, _NUMBER))
    def test_from_dict_valid_or_config_error(self, k0, a, eta, theta, N, factors):
        from stripscat.cli import CONFIG_ERRORS
        from stripscat.verify import RunConfig
        d = {"k0": {"re": k0[0], "im": k0[1]}, "a": a,
             "eta": {"re": eta[0], "im": eta[1]}, "theta_in_deg": theta,
             "numerics": {"N": N, "cut_radius_factor": factors[0]},
             "grids": {"k_grid_factor": factors[1]}}
        try:
            rc = RunConfig.from_dict(d)
        except CONFIG_ERRORS:
            return
        cfg = rc.problem()
        values = [cfg.k0.real, cfg.k0.imag, cfg.a, cfg.eta.real, cfg.eta.imag, cfg.theta_in]
        assert all(math.isfinite(v) for v in values)
        assert cfg.k0.real > 0 and cfg.k0.imag >= 0 and cfg.a > 0 and cfg.eta.imag <= 0
        assert 0 <= cfg.theta_in <= np.pi / 2 + 1e-14
        assert 4 <= rc.N <= 1024
        assert math.isfinite(rc.k_grid_factor) and rc.k_grid_factor > 0
