"""Command-line surface: solve, spectra, verify, sweep.

All numeric tables are CSV with 17-significant-digit fields; configs and
reports are JSON.  Angles cross the CLI boundary in degrees and are
radians internally.  Exit codes: 0 ok, 1 verification failure, 2 config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import rhstructure as rh
from .bie import SingularSystemError
from .core import Parity
from .edge import extract_c, extract_d
from .spectral import Scattering, forward_amplitude, pointwise_residual, warn_near_pole
from .verify import RunConfig, check_self_convergence, run_suite

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(_fmt(v) if isinstance(v, (float, np.floating)) else v for v in row)


# what reading and validating a config file raises for bad input (exit 2)
CONFIG_ERRORS = (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError)
# what a solve raises when its linear algebra fails (exit 3)
NUMERICAL_ERRORS = (SingularSystemError, np.linalg.LinAlgError)


def _load_config(path: str) -> RunConfig:
    try:
        return RunConfig.from_json_file(path)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _spectral_config_ok(rc: RunConfig, command: str) -> bool:
    """The spectral functions need Im(k0) > 0 (at real k0 the cut rule has no
    first panel and `xi` takes the wrong limit; ROADMAP direction 5) and
    eta != 0; report a config error if not."""
    if complex(rc.k0).imag <= 0:
        need = "Im(k0) > 0"
    elif rc.eta == 0:
        need = "eta != 0 (the V0 prefactor 1/(eta xi) is degenerate for the hard strip)"
    else:
        return True
    print(f"config error: {command} requires {need}", file=sys.stderr)
    return False


def _write_directivity(path: Path, theta, S_a, S_s) -> None:
    """directivity.csv of one incidence's S_a and S_s on theta."""
    _write_csv(path, ["theta_deg", "S_re", "S_im", "Sa_re", "Sa_im", "Ss_re", "Ss_im"],
               [(np.degrees(t), (Sa + Ss).real, (Sa + Ss).imag, Sa.real, Sa.imag,
                 Ss.real, Ss.imag) for t, Sa, Ss in zip(theta, S_a, S_s)])


def cmd_solve(args) -> int:
    rc = _load_config(args.config)
    out = Path(args.out or rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sc = Scattering(rc.problem(), rc.N)
    conv = check_self_convergence(rc, sc)
    tab = sc.directivity(rc.theta_grid())
    _write_directivity(out / "directivity.csv", tab.theta, tab.S_a, tab.S_s)

    xg = sc.cfg.a * np.cos(np.pi * (2 * np.arange(201) + 1) / 402)
    mu = sc.da(xg)
    sg = sc.ds(xg)
    _write_csv(out / "densities.csv",
               ["x", "mu_re", "mu_im", "sigma_re", "sigma_im"],
               [(x, m.real, m.imag, s.real, s.imag) for x, m, s in zip(xg, mu, sg)])

    diags = {
        "antisymmetric": asdict(sc.diag_a),
        "symmetric": asdict(sc.diag_s),
        "self_convergence": {"value": conv.value, "tol": conv.tol,
                             "N2": conv.details["N2"], "passed": conv.passed},
        "config": rc.to_dict(),
    }
    (out / "diagnostics.json").write_text(json.dumps(diags, sort_keys=True, indent=1),
                                          encoding="utf-8")
    if not conv.passed:
        logger.warning("directivity self-convergence %.2e (N = %d against %d) above %.0e;"
                       " see diagnostics.json", conv.value, rc.N, 2 * rc.N, conv.tol)
        return EXIT_NUMERICAL if args.strict else EXIT_OK
    return EXIT_OK


def cmd_spectra(args) -> int:
    rc = _load_config(args.config)
    if not _spectral_config_ok(rc, "spectra"):
        return EXIT_CONFIG
    out = Path(args.out or rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sc = Scattering(rc.problem(), rc.N)
    kg = rc.k_grid()
    warn_near_pole(sc.cfg, kg)
    header, columns = ["k_re", "k_im"], [kg, np.zeros_like(kg)]
    for fam, b in zip("UV", sc.bundles):
        fm, fp = b.f_minus(kg), b.f_plus(kg)
        # one strip transform per family: F0 = P(xi) F0~, as SpectralBundle.f0
        f0t = np.atleast_1d(b.f0_tilde(kg))
        f0 = b.prefactor(kg) * f0t
        for nm, f in (("m", fm), ("0", f0), ("p", fp), ("0t", f0t)):
            header += [f"{fam}{nm}_re", f"{fam}{nm}_im"]
            columns += [f.real, f.imag]
        header.append(f"res_{fam.lower()}")
        columns.append(pointwise_residual(fm, f0, fp))
    _write_csv(out / "spectra.csv", header, np.column_stack(columns))
    return EXIT_OK


def cmd_verify(args) -> int:
    rc = _load_config(args.config)
    if not _spectral_config_ok(rc, "verify"):
        return EXIT_CONFIG
    out = Path(args.out or rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report, timings = run_suite(rc, args.suite)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    (out / "timings.json").write_text(
        json.dumps({k: round(v, 3) for k, v in timings.items()},
                   sort_keys=True, indent=1), encoding="utf-8")
    for line in report.summary_lines():
        print(line)
    print("overall:", "PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


SWEEP_PARAMS = ("theta_in", "eta_re", "eta_im", "k0a")


def cmd_sweep(args) -> int:
    rc = _load_config(args.config)
    if args.param not in SWEEP_PARAMS:
        print(f"config error: sweep parameter must be one of {SWEEP_PARAMS}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        print(f"config error: bad --values: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not values:
        print("config error: empty --values", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out or rc.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summary = {}

    def failed(iv, exc):  # per-point failures recorded, sweep continues
        logger.warning("sweep point %s=%g failed: %s", args.param, values[iv], exc)
        summary[iv] = (values[iv], 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, f"error:{exc}")

    media = {}  # (k0, a, eta) -> [(index of the value, its ProblemConfig)]
    for iv, v in enumerate(values):
        d = rc.to_dict()
        if args.param == "theta_in":
            d["theta_in_deg"] = v
        elif args.param == "k0a":
            scale = v / (abs(complex(d["k0"]["re"], d["k0"]["im"])) * d["a"])
            d["k0"]["re"] *= scale
            d["k0"]["im"] *= scale
        else:
            d["eta"][args.param[4:]] = v          # eta_re, eta_im
        try:
            cfg = RunConfig.from_dict(d).problem()
            media.setdefault((cfg.k0, cfg.a, cfg.eta), []).append((iv, cfg))
        except Exception as exc:
            failed(iv, exc)

    # the values of one medium share one Scattering, a column per incidence
    for points in media.values():
        try:
            sc = Scattering(points[0][1], rc.N, [cfg.theta_in for _, cfg in points])
            tab, fwd = sc.directivity(rc.theta_grid()), forward_amplitude(sc)
            for j, (iv, cfg) in enumerate(points):
                _write_directivity(out / f"directivity_{iv:03d}.csv", tab.theta,
                                   tab.S_a[:, j], tab.S_s[:, j])
                c_plus = extract_c(sc.density(Parity.ANTISYMMETRIC, j), cfg, "+")
                d_plus = extract_d(sc.density(Parity.SYMMETRIC, j), cfg, "+")
                summary[iv] = (values[iv], fwd[j].real, fwd[j].imag,
                               float(np.mean(np.abs(tab.S[:, j]) ** 2)),
                               c_plus.real, c_plus.imag, d_plus.real, d_plus.imag,
                               int(rh.deformation_needed(cfg)), "ok")
        except Exception as exc:
            for iv in [iv for iv, _ in points if iv not in summary]:
                failed(iv, exc)
    _write_csv(out / "sweep_summary.csv",
               ["value", "S_forward_re", "S_forward_im", "mean_abs_S2",
                "c_plus_re", "c_plus_im", "d_plus_re", "d_plus_im",
                "deformation_needed", "status"],
               [summary[iv] for iv in range(len(values))])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stripscat",
        description="Impedance-strip diffraction: solve, spectra, verify, sweep.")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON run configuration")
    common.add_argument("--out", default=None, help="output directory (default from config)")

    p = sub.add_parser("solve", parents=[common], help="solve and write directivity/densities")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the directivity self-convergence check fails")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("spectra", parents=[common], help="tabulate the spectral families")
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("verify", parents=[common], help="run the verification suite")
    p.add_argument("--suite", choices=("fast", "full"), default="fast")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[common], help="parameter sweep")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
