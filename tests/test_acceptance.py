"""Acceptance suite: every exit criterion at its pinned tolerance.

Reference configuration: k0 = 2 + 0.05i, a = 1, eta = 1 - i,
theta_in = 60 deg, N = 64.  Each test prints one pass/fail line.
"""

import csv
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from stripscat.core import Parity
from stripscat.spectral import Scattering, directivity, embedding_rank_test
from stripscat.verify import RunConfig, run_suite

RC = RunConfig(2 + 0.05j, 1.0, 1 - 1j, 60.0, N=64)


@pytest.fixture(scope="module")
def full_report():
    import logging
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: warnings.append(record.getMessage())
    warnings = []
    logger = logging.getLogger("stripscat")
    logger.addHandler(handler)
    try:
        report, timings = run_suite(RC, "full")
    finally:
        logger.removeHandler(handler)
    return {c.check_id: c for c in report.checks}, timings, warnings


def _line(criterion, name, value, tol, passed):
    print("ACCEPTANCE %-2s %-42s %-4s  (%.3e vs %.1e)"
          % (criterion, name, "PASS" if passed else "FAIL", value, tol))
    assert passed, f"criterion {criterion}: {name} = {value} vs tol {tol}"


def test_criterion_1_self_convergence():
    from stripscat.bie import solve_antisymmetric, solve_symmetric
    from stripscat.spectral import SpectralBundle
    cfg = RC.problem()
    t0 = time.perf_counter()
    th = np.linspace(0.02, np.pi - 0.02, 73)
    tabs = {}
    for N in (64, 128):
        da, _ = solve_antisymmetric(cfg, N)
        ds, _ = solve_symmetric(cfg, N)
        tabs[N] = directivity(SpectralBundle(cfg, da), SpectralBundle(cfg, ds), th)
    elapsed = time.perf_counter() - t0
    val = float(np.max(np.abs(tabs[64].S - tabs[128].S)) / np.max(np.abs(tabs[128].S)))
    _line(1, "directivity self-convergence 64 vs 128", val, 1e-8, val < 1e-8)
    _line("1b", "runtime of both solves (s)", elapsed, 30.0, elapsed < 30.0)


def test_criterion_2_oracle_equivalence(full_report):
    checks, _, _ = full_report
    c = checks["directivity-oracle-equivalence"]
    _line(2, "transform vs far-field oracle", c.value, 1e-7, c.passed and c.tol <= 1e-7)


def test_criterion_3_functional_equation(full_report):
    checks, _, _ = full_report
    for pid, nm in [("functional-equation-antisymmetric", "U family"),
                    ("functional-equation-symmetric", "V family")]:
        c = checks[pid]
        _line(3, f"functional equation residual ({nm})", c.value, 1e-4,
              c.value < 1e-4)


def test_criterion_4_pole_structure(full_report):
    checks, _, _ = full_report
    for pid, nm in [("pole-residue-antisymmetric", "U+ residue"),
                    ("pole-residue-symmetric", "V+ residue")]:
        c = checks[pid]
        _line(4, f"contour residue at k_* ({nm})", c.value, 1e-4, c.value < 1e-4)
    c = checks["cauchy-rectangle-minus"]
    _line(4, "Cauchy rectangle for the minus function", c.value, 1e-6,
          c.value < 1e-6)


@pytest.mark.parametrize("parity", list(Parity))
def test_criterion_4_pole_residue_at_grazing_incidence(parity):
    # at theta_in = 90 deg, Im k_* is 3e-18: a contour whose bottom edge sat
    # at 0.3 Im k_* ran through the pole and read half the residue (0.5)
    from stripscat import verify
    ctx = verify._Ctx(RunConfig(2 + 0.05j, 1.0, 1 - 1j, 90.0, N=64))
    c = verify.check_pole_residue(ctx, parity)
    _line(4, f"contour residue at k_*, 90 deg ({parity.value})", c.value, 1e-4,
          c.passed and c.tol <= 1e-4)


# at theta_in = 0 the antisymmetric data k0 sin(theta_in) vanish, and so
# does the antisymmetric density, exactly: its checks read 0 (they read nan
# or 0.5, or raised ZeroDivisionError), and spectra's res_u reads 0 (nan)
GRAZING = {"k0": {"re": 2.0, "im": 0.05}, "a": 1.0, "eta": {"re": 1.0, "im": -1.0},
           "theta_in_deg": 0.0}
ZERO_FAMILY_CHECKS = {
    "fast": {"functional-equation-antisymmetric", "edge-exponent-antisymmetric",
             "edge-log-ratio-antisymmetric", "edge-angular-profile-antisymmetric"},
    "full": {"functional-equation-antisymmetric", "pole-residue-antisymmetric",
             "cauchy-rectangle-minus", "edge-exponent-antisymmetric",
             "edge-log-ratio-antisymmetric", "edge-angular-profile-antisymmetric",
             "growth-U0-upper-imaginary", "growth-U0-lower-imaginary",
             "growth-U+-upper-imaginary", "growth-U--lower-imaginary"},
}


def _grazing_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(GRAZING, out_dir=str(tmp_path / "out"))))
    return str(p)


@pytest.mark.parametrize("suite", ["fast", "full"])
def test_zero_antisymmetric_family_passes_verify(tmp_path, suite):
    from stripscat import cli
    assert cli.main(["verify", "--config", _grazing_config(tmp_path), "--suite", suite]) == 0
    text = (tmp_path / "out" / "report.json").read_text()
    assert "NaN" not in text
    checks = {c["id"]: c for c in json.loads(text)["checks"]}
    zero = {i for i, c in checks.items() if c["details"].get("zero_density")}
    assert zero == ZERO_FAMILY_CHECKS[suite]
    assert all(checks[i]["value"] == 0.0 for i in zero)
    if suite == "full":
        # the growth control scans V0 with its exponent one unit too tight
        assert checks["growth-negative-control"]["details"] == {"exponent": 2.0}


def test_zero_antisymmetric_family_spectra(tmp_path):
    from stripscat import cli
    assert cli.main(["spectra", "--config", _grazing_config(tmp_path)]) == 0
    with open(tmp_path / "out" / "spectra.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 41
    assert all(r["res_u"] == "0" for r in rows)
    assert np.all(np.isfinite([[float(v) for v in r.values()] for r in rows]))


def test_planted_antisymmetric_coefficient_is_judged(monkeypatch):
    # negative control: one nonzero antisymmetric coefficient at theta_in = 0
    # makes the family nonzero, and its checks judge it
    from stripscat import bie
    solve_block = bie.solve_block

    def planted(cfg, parity, theta_in, N):
        coeffs, *rest = solve_block(cfg, parity, theta_in, N)
        if parity is Parity.ANTISYMMETRIC and not np.any(theta_in):
            coeffs = coeffs.copy()
            coeffs[3] = 1e-3
        return (coeffs, *rest)

    monkeypatch.setattr(bie, "solve_block", planted)
    report, _ = run_suite(RunConfig.from_dict(GRAZING), "full")
    checks = {c.check_id: c for c in report.checks}
    assert not checks["functional-equation-antisymmetric"].passed
    assert not any("zero_density" in c.details for c in report.checks)
    assert np.all(np.isfinite([c.value for c in report.checks]))


def test_full_suite_logs_no_warning(full_report):
    # the pole-residue contour refines toward k_* by design: the suite reads
    # F+ there without the pole-proximity warning meant for a caller's own k
    _, _, warnings = full_report
    assert warnings == []


def test_criterion_5_embedding():
    cfg = RC.problem()
    incs6 = [np.deg2rad(d) for d in (15, 30, 45, 60, 75, 85)]
    kpts = np.linspace(-2.5 * abs(cfg.k0), 2.5 * abs(cfg.k0), 40)
    sc = Scattering(cfg, RC.N, incs6)
    for parity, nm in ((Parity.ANTISYMMETRIC, "antisymmetric"),
                       (Parity.SYMMETRIC, "symmetric")):
        r = embedding_rank_test(sc, parity, kpts)
        _line(5, f"embedding antisymmetry ({nm})", r["antisymmetry"], 1e-6,
              r["antisymmetry"] < 1e-6)
        _line(5, f"embedding rank-2 s3/s1, 40x6 ({nm})", r["s3_over_s1"], 1e-6,
              r["s3_over_s1"] < 1e-6)


def test_criterion_6_edge_asymptotics(full_report):
    checks, _, _ = full_report
    c = checks["edge-exponent-antisymmetric"]
    _line(6, "antisymmetric leading exponent - 0.5", c.value, 0.005, c.value < 0.005)
    c = checks["edge-constant-symmetric"]
    _line(6, "symmetric constant-term fit residual", c.value, 0.01, c.value < 0.01)
    c = checks["edge-log-ratio-antisymmetric"]
    _line(6, "antisymmetric log-coefficient ratio", c.value, 0.05, c.value < 0.05)


def test_criterion_7_growth(full_report):
    checks, _, _ = full_report
    for fam in ("U", "V"):
        for tag, ray in (("0", "upper-imaginary"), ("0", "lower-imaginary"),
                         ("+", "upper-imaginary"), ("-", "lower-imaginary")):
            c = checks[f"growth-{fam}{tag}-{ray}"]
            _line(7, f"growth {fam}{tag} along {ray}", c.value, 0.1, c.passed)
    c = checks["growth-negative-control"]
    _line(7, "negative-control exponent grows", c.value, 0.5, c.passed)


def test_criterion_8_jump_algebra(full_report):
    checks, _, _ = full_report
    for pid, nm in [("jump-determinants", "determinant identities"),
                    ("jump-roundtrip", "M inverse round trip"),
                    ("continuation-identity-antisymmetric", "continuation (antisym)"),
                    ("continuation-identity-symmetric", "continuation (sym)")]:
        c = checks[pid]
        _line(8, nm, c.value, 1e-12, c.value < 1e-12)


def test_criterion_9_sheet_logic(full_report):
    checks, _, _ = full_report
    c = checks["sheet-third-quadrant-rule"]
    _line(9, "deformation rule on 20x20 eta grid", c.value, 0.0, c.passed)
    c = checks["deformation-declassifies"]
    _line(9, "k' unphysical after deformation", c.value, 0.0, c.passed)
    c = checks["kprime-real-axis-limit"]
    _line(9, "Im eta -> 0- sends k' to the real axis", c.value, 1e-3, c.passed)


def test_criterion_10_physics(full_report):
    checks, _, _ = full_report
    c = checks["reciprocity"]
    _line(10, "reciprocity mismatch, 37x37 bistatic map", c.value, 1e-10, c.value < 1e-10)
    c = checks["energy-balance-lossless"]
    _line(10, "energy balance at Im(eta) = 0", c.value, 1e-10, c.value < 1e-10)
    c = checks["energy-balance-hard-strip"]
    _line(10, "energy balance of the hard strip", c.value, 1e-10, c.value < 1e-10)
    c = checks["energy-absorbed-positive"]
    _line(10, "absorbed power > 0 for eta = 1 - i", c.value, 0.0, c.passed)
    c = checks["eta-zero-symmetric-vanishes"]
    _line(10, "eta = 0 forces the symmetric part to 0", c.value, 1e-12, c.passed)


def test_criterion_11_determinism(tmp_path, cli_env):
    cfg = {
        "k0": {"re": 2.0, "im": 0.05}, "a": 1.0,
        "eta": {"re": 1.0, "im": -1.0}, "theta_in_deg": 60.0,
        "numerics": {"N": 64, "tail_tol": 1e-9},
        "grids": {"n_theta": 73, "k_grid_factor": 3.0, "n_k": 41},
        "out_dir": str(tmp_path / "out"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    blobs = []
    for _ in range(2):
        r = subprocess.run([sys.executable, "-m", "stripscat.cli", "verify",
                            "--config", str(p), "--suite", "fast"],
                           capture_output=True, text=True, cwd=tmp_path,
                           env=cli_env)
        assert r.returncode == 0, r.stdout + r.stderr
        blobs.append((tmp_path / "out" / "report.json").read_bytes())
    same = blobs[0] == blobs[1]
    _line(11, "two cmd_verify runs byte-identical", 0.0 if same else 1.0, 0.0, same)
