"""Verification suite: every checkable identity, with machine-readable results.

Each check compares a computed residual/indicator against its pinned
tolerance and lands in a VerificationReport that serializes canonically
(fixed key order, shortest-roundtrip floats, no volatile fields) so that
identical inputs reproduce byte-identical reports.  Wall-clock timings are
returned separately and never enter the report.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rhstructure as rh
from .bie import solve_symmetric
from .core import Parity, ProblemConfig
from .edge import local_expansion_fit
from .spectral import (
    Scattering,
    cauchy_analyticity_test,
    contour_integral_rect,
    directivity_part,
    embedding_rank_test,
    energy_balance,
    farfield_oracle,
    functional_residual,
    growth_scan,
    reciprocity_check,
)


def _json_default(obj):
    """Coerce numpy scalars so reports serialize identically everywhere."""
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    value: float
    tol: float
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class RunConfig:
    """CLI-facing configuration: physics, numerics, grids, output."""

    k0: complex
    a: float
    eta: complex
    theta_in_deg: float
    N: int = 64
    n_theta: int = 73
    k_grid_factor: float = 3.0
    n_k: int = 41
    out_dir: str = "out"

    def __post_init__(self):
        if not 4 <= self.N <= 1024:
            raise ValueError(f"N must lie in [4, 1024], got {self.N}")
        if self.n_theta < 1 or self.n_k < 1:
            raise ValueError("grids must be non-empty")
        if not (np.isfinite(self.k_grid_factor) and self.k_grid_factor > 0):
            raise ValueError(f"k_grid_factor must be finite and > 0, got {self.k_grid_factor}")
        self.problem()  # validates the physical fields

    def problem(self) -> ProblemConfig:
        return ProblemConfig(self.k0, self.a, self.eta,
                             np.deg2rad(self.theta_in_deg))

    def theta_grid(self) -> np.ndarray:
        """The observation angles of directivity.csv and of the suite."""
        return np.linspace(0.02, np.pi - 0.02, self.n_theta)

    def k_grid(self, n=None) -> np.ndarray:
        """The real k grid of spectra.csv and of the suite: n (default n_k)
        points on [-k_grid_factor |k0|, k_grid_factor |k0|]."""
        kmax = self.k_grid_factor * abs(self.k0)
        return np.linspace(-kmax, kmax, n or self.n_k)

    def to_dict(self) -> dict:
        return {
            "k0": {"re": complex(self.k0).real, "im": complex(self.k0).imag},
            "a": float(self.a),
            "eta": {"re": complex(self.eta).real, "im": complex(self.eta).imag},
            "theta_in_deg": float(self.theta_in_deg),
            "numerics": {"N": self.N},
            "grids": {
                "n_theta": self.n_theta,
                "k_grid_factor": self.k_grid_factor,
                "n_k": self.n_k,
            },
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise TypeError(f"config must be a JSON object, got {type(d).__name__}")
        num = d.get("numerics", {})
        grids = d.get("grids", {})
        if not (isinstance(num, dict) and isinstance(grids, dict)):
            raise TypeError("config sections 'numerics' and 'grids' must be JSON objects")
        # only the keys present, so the dataclass holds the defaults; the
        # retired numerics keys tail_tol and cut_radius_factor are ignored
        optional = {key: conv(sec[key]) for sec, key, conv in (
            (num, "N", int), (grids, "n_theta", int), (grids, "k_grid_factor", float),
            (grids, "n_k", int), (d, "out_dir", str)) if key in sec}
        return cls(
            k0=complex(d["k0"]["re"], d["k0"]["im"]),
            a=float(d["a"]),
            eta=complex(d["eta"]["re"], d["eta"]["im"]),
            theta_in_deg=float(d["theta_in_deg"]),
            **optional,
        )

    @classmethod
    def from_json_file(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class VerificationReport:
    provenance: dict
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "passed": self.passed,
            "checks": [
                {
                    "id": c.check_id,
                    "value": c.value,
                    "tol": c.tol,
                    "passed": c.passed,
                    "details": c.details,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1,
                          default=_json_default)

    def summary_lines(self):
        for c in self.checks:
            yield "%-38s %-4s  value %.6e  tol %.1e" % (
                c.check_id, "PASS" if c.passed else "FAIL", c.value, c.tol)


class _Ctx:
    """The suite's reference solution."""

    def __init__(self, rc: RunConfig):
        self.rc = rc
        self.cfg = rc.problem()
        self.sc = Scattering(self.cfg, rc.N)

    @cached_property
    def embedding(self) -> Scattering:
        """Both parities for the embedding checks' four incidences."""
        return Scattering(self.cfg, self.rc.N, np.deg2rad([30.0, 45.0, 60.0, 75.0]))


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------
def _chk(check_id, value, tol, **details) -> CheckResult:
    return CheckResult(check_id, float(value), float(tol), bool(value <= tol),
                       details=details)


def check_self_convergence(rc: RunConfig, sc: Scattering) -> CheckResult:
    """The directivity of the solution sc at rc.N against a solve at 2 rc.N,
    on the config's theta grid: the convergence verdict of `stripscat solve`
    and of the suite.  A zero field (eta = 0 at grazing incidence) reads 0."""
    th = rc.theta_grid()
    S1 = sc.directivity(th).S
    S2 = Scattering(sc.cfg, 2 * rc.N).directivity(th).S
    val = float(np.max(np.abs(S1 - S2)) / max(np.max(np.abs(S2)), 1e-300))
    return _chk("directivity-self-convergence", val, 1e-8, N=rc.N, N2=2 * rc.N)


def check_oracle_equivalence(ctx: _Ctx) -> CheckResult:
    th = ctx.rc.theta_grid()
    S = ctx.sc.directivity(th).S
    S_or = farfield_oracle(ctx.sc.da, ctx.cfg, th) + farfield_oracle(ctx.sc.ds, ctx.cfg, th)
    val = float(np.max(np.abs(S - S_or)) / np.max(np.abs(S)))
    return _chk("directivity-oracle-equivalence", val, 1e-7)


def check_functional_equation(ctx: _Ctx, parity: Parity, n_k=None) -> CheckResult:
    ba, bs = ctx.sc.bundles
    b = ba if parity is Parity.ANTISYMMETRIC else bs
    kg = ctx.rc.k_grid(n_k)
    val = functional_residual(b, kg)
    return _chk(f"functional-equation-{parity.value}", val, 1e-4,
                k_min=float(kg[0].real), k_max=float(kg[-1].real), n_k=len(kg))


def check_pole_residue(ctx: _Ctx, parity: Parity) -> CheckResult:
    ba, bs = ctx.sc.bundles
    b = ba if parity is Parity.ANTISYMMETRIC else bs
    ks = ctx.cfg.k_star
    w = 0.35 * abs(ctx.cfg.k0)
    rect = (ks.real - w, ks.real + w, 0.3 * ks.imag, ks.imag + w)
    # F+ without the pole warning: the contour refines toward k_* by design
    loop = contour_integral_rect(lambda z: b.f_check_plus(z) + b.pole_term(z, +1), rect,
                                 refine_near=ks)
    res = loop / (2j * np.pi)
    target = b.pole_residue
    val = abs(res - target) / abs(target)
    return _chk(f"pole-residue-{parity.value}", val, 1e-4,
                residue_re=res.real, residue_im=res.imag,
                target_re=complex(target).real, target_im=complex(target).imag)


def check_cauchy_minus(ctx: _Ctx) -> CheckResult:
    ba, _ = ctx.sc.bundles
    k0 = abs(ctx.cfg.k0)
    rect = (-1.1 * k0, 1.2 * k0, -0.45 * k0, -0.3 * complex(ctx.cfg.k0).imag)
    val = cauchy_analyticity_test(lambda z: ba.f_check_minus(z) + ba.pole_term(z, -1), rect,
                                  refine_near=ctx.cfg.k_star)
    return _chk("cauchy-rectangle-minus", val, 1e-6, rect=list(rect))


def check_embedding(ctx: _Ctx, parity: Parity) -> CheckResult:
    kpts = np.linspace(-2.5 * abs(ctx.cfg.k0), 2.5 * abs(ctx.cfg.k0), 40)
    r = embedding_rank_test(ctx.embedding, parity, kpts)
    val = max(r["antisymmetry"], r["s3_over_s1"])
    return _chk(f"embedding-{parity.value}", val, 1e-6,
                antisymmetry=r["antisymmetry"], s3_over_s1=r["s3_over_s1"])


def check_edge_antisym(ctx: _Ctx):
    fit = local_expansion_fit(ctx.sc.da, ctx.cfg, "+")
    yield _chk("edge-exponent-antisymmetric", abs(fit["exponent"] - 0.5), 0.005,
               exponent=fit["exponent"])
    yield _chk("edge-log-ratio-antisymmetric", fit["log_coeff_rel_err"], 0.05,
               ratio_re=fit["log_coeff_ratio"].real, ratio_im=fit["log_coeff_ratio"].imag,
               target_re=fit["log_coeff_target"].real, target_im=fit["log_coeff_target"].imag)
    yield _chk("edge-angular-profile-antisymmetric", 1.0 - fit["angular_correlation"],
               1e-3, correlation=fit["angular_correlation"])


def check_edge_sym(ctx: _Ctx) -> CheckResult:
    fit = local_expansion_fit(ctx.sc.ds, ctx.cfg, "+")
    return _chk("edge-constant-symmetric", fit["constant_term_rel_err"], 1e-2,
                exponent=fit["exponent"])


def check_growth(ctx: _Ctx):
    ba, bs = ctx.sc.bundles
    k0a = abs(ctx.cfg.k0)
    t = np.geomspace(2 * k0a, 20 * k0a, 10)
    cases = [
        (ba, "0", "upper-imaginary"), (ba, "0", "lower-imaginary"),
        (ba, "+", "upper-imaginary"), (ba, "-", "lower-imaginary"),
        (bs, "0", "upper-imaginary"), (bs, "0", "lower-imaginary"),
        (bs, "+", "upper-imaginary"), (bs, "-", "lower-imaginary"),
    ]
    for b, which, ray in cases:
        fam = "U" if b.parity is Parity.ANTISYMMETRIC else "V"
        g = growth_scan(b, which, ray, t)
        yield _chk(f"growth-{fam}{which}-{ray}", g["slope"], 0.1,
                   exponent=g["exponent"])
    # negative control: an exponent one unit too tight must show growth
    g = growth_scan(ba, "0", "upper-imaginary", t, exponent=1.5)
    yield CheckResult("growth-negative-control", float(g["slope"]), 0.5,
                      bool(g["slope"] > 0.5), details={"exponent": 1.5})


def check_jump_algebra(ctx: _Ctx):
    cfg = ctx.cfg
    g2 = rh.build_cut(cfg, "G2", 50 * abs(cfg.k0))
    rng = np.random.default_rng(1234)
    idx = rng.integers(3, len(g2.nodes) - 1, size=100)
    det_err = 0.0
    rt_err = 0.0
    for label in ("M1", "M2", "N1", "N2"):
        for i in idx[:25]:
            k = g2.nodes[i] if label in ("M2", "N2") else -g2.nodes[i]
            x = rh.xi_left_shore(k, cfg)
            m = rh.jump_matrix(label, k, cfg)
            ref = (cfg.eta + 1j * x) / (cfg.eta - 1j * x)
            if label in ("N1", "N2"):
                ref = (cfg.eta + 1j * x) / (1j * x - cfg.eta)
            det_err = max(det_err, abs(np.linalg.det(m) - ref))
            rt_err = max(rt_err, float(np.max(np.abs(m @ np.linalg.inv(m) - np.eye(2)))))
    yield _chk("jump-determinants", det_err, 1e-12)
    yield _chk("jump-roundtrip", rt_err, 1e-12)


def check_continuation(ctx: _Ctx):
    ba, bs = ctx.sc.bundles
    g2 = rh.build_cut(ctx.cfg, "G2", 10 * abs(ctx.cfg.k0))
    ks = [g2.nodes[40], g2.nodes[120]]
    val_a = max(rh.continuation_identity_check(ba, k) for k in ks)
    val_s = max(rh.continuation_identity_check(bs, k) for k in ks)
    yield _chk("continuation-identity-antisymmetric", val_a, 1e-12)
    yield _chk("continuation-identity-symmetric", val_s, 1e-12)


def check_sheet_logic(ctx: _Ctx):
    k0 = 2 + 1e-6j
    mismatches = 0
    total = 0
    for re in np.linspace(-2, 2, 20):
        for im in np.linspace(-2.0, -0.05, 20):
            if abs(re) < 0.1:
                continue
            c = ProblemConfig(k0, 1.0, re + 1j * im, np.pi / 3)
            total += 1
            if rh.deformation_needed(c) != (rh.k_prime(c).sheet is rh.Sheet.PHYSICAL):
                mismatches += 1
    yield _chk("sheet-third-quadrant-rule", mismatches, 0, grid_points=total)

    c3 = ProblemConfig(ctx.cfg.k0, ctx.cfg.a, -1 - 1j, ctx.cfg.theta_in)
    sp = rh.k_prime_reclassified(c3)
    yield CheckResult("deformation-declassifies", 0.0, 0.0,
                      sp.sheet is rh.Sheet.UNPHYSICAL,
                      details={"k_prime_re": sp.k.real, "k_prime_im": sp.k.imag})

    c_lim = ProblemConfig(2 + 1e-6j, 1.0, -1.5 - 1e-8j, np.pi / 3)
    kp = rh.k_prime(c_lim)
    ok = abs(kp.k.imag) < 1e-3 and abs(kp.k) > abs(c_lim.k0)
    yield CheckResult("kprime-real-axis-limit", abs(kp.k.imag), 1e-3, ok,
                      details={"k_prime_re": kp.k.real})


def check_reciprocity(ctx: _Ctx) -> CheckResult:
    # the square bistatic map over the suite's angles up to 90 degrees
    th = ctx.rc.theta_grid()
    return _chk("reciprocity", reciprocity_check(ctx.cfg, th[:(len(th) + 1) // 2], N=ctx.rc.N),
                1e-10)


def check_energy(ctx: _Ctx):
    # lossless medium (Im k0 = 0): the balance then measures numerical error only
    def balance(eta):
        cfg = ProblemConfig(complex(ctx.cfg.k0.real), ctx.cfg.a, eta, ctx.cfg.theta_in)
        return energy_balance(cfg, N=ctx.rc.N)

    eb = balance(1.0)
    yield _chk("energy-balance-lossless", eb["balance_rel"], 1e-10,
               p_scat=eb["p_scat"], extinction=eb["extinction"])

    eb2 = balance(1 - 1j)
    yield CheckResult("energy-absorbed-positive", eb2["absorbed"], 0.0,
                      eb2["absorbed"] > 0,
                      details={"p_scat": eb2["p_scat"], "extinction": eb2["extinction"]})

    eb3 = balance(0.0)
    yield _chk("energy-balance-hard-strip", eb3["balance_rel"], 1e-10)


def check_eta_zero_sym(ctx: _Ctx) -> CheckResult:
    cfg0 = ProblemConfig(ctx.cfg.k0, ctx.cfg.a, 0.0, ctx.cfg.theta_in)
    ds, _ = solve_symmetric(cfg0, ctx.rc.N)
    Ss = directivity_part(Parity.SYMMETRIC, cfg0, ds.coeffs, ctx.rc.theta_grid())
    return _chk("eta-zero-symmetric-vanishes", float(np.max(np.abs(Ss))), 1e-12)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------
def run_suite(rc: RunConfig, suite: str = "full"):
    """Run the verification suite; returns (VerificationReport, timings dict)."""
    if suite not in ("fast", "full"):
        raise ValueError("suite must be 'fast' or 'full'")
    t0 = time.perf_counter()
    ctx = _Ctx(rc)
    timings = {"solve": time.perf_counter() - t0}
    plan = []
    plan.append(("self", lambda c: check_self_convergence(c.rc, c.sc)))
    plan.append(("oracle", check_oracle_equivalence))
    if suite == "full":
        plan.append(("feq-a", lambda c: check_functional_equation(c, Parity.ANTISYMMETRIC)))
        plan.append(("feq-s", lambda c: check_functional_equation(c, Parity.SYMMETRIC)))
        plan.append(("pole-a", lambda c: check_pole_residue(c, Parity.ANTISYMMETRIC)))
        plan.append(("pole-s", lambda c: check_pole_residue(c, Parity.SYMMETRIC)))
        plan.append(("cauchy", check_cauchy_minus))
    else:
        plan.append(("feq-a", lambda c: check_functional_equation(c, Parity.ANTISYMMETRIC, 9)))
        plan.append(("feq-s", lambda c: check_functional_equation(c, Parity.SYMMETRIC, 9)))
    plan.append(("emb-a", lambda c: check_embedding(c, Parity.ANTISYMMETRIC)))
    plan.append(("emb-s", lambda c: check_embedding(c, Parity.SYMMETRIC)))
    plan.append(("edge-a", check_edge_antisym))
    plan.append(("edge-s", check_edge_sym))
    if suite == "full":
        plan.append(("growth", check_growth))
        plan.append(("reciprocity", check_reciprocity))
    plan.append(("jump", check_jump_algebra))
    plan.append(("continuation", check_continuation))
    plan.append(("sheet", check_sheet_logic))
    plan.append(("energy", check_energy))
    plan.append(("eta0", check_eta_zero_sym))

    checks = []
    for name, fn in plan:
        t0 = time.perf_counter()
        out = fn(ctx)
        if isinstance(out, CheckResult):
            checks.append(out)
        else:
            checks.extend(out)
        timings[name] = time.perf_counter() - t0

    prov = {
        "config": rc.to_dict(),
        "suite": suite,
        "package": "stripscat",
    }
    return VerificationReport(prov, checks), timings
