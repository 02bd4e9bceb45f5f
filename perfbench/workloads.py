"""The four benchmark workloads: inputs, timed items, checks, negative controls.

A workload turns `--seed` into a fixed list of items.  The seed only orders
the items (and, for incidence-sweep, deals the angles into blocks), so the
set of items, the work they do and the values the checks see are the same
for every seed.  `run_item` is the timed, user-visible work; `collect`
reads its outputs back; `evaluate` judges them with criteria held here,
never with the program's own verdicts; `corruptions` returns deliberately
broken copies of the collected data that `evaluate` must reject.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stripscat import bie, cli, edge, rhstructure, spectral
from stripscat.core import ProblemConfig


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    limit: float
    ok: bool
    error: bool = True     # value is an error magnitude (enters accuracy_digits)


def _le(name, value, limit, error=True):
    value = float(value)
    return Check(name, value, limit, bool(np.isfinite(value) and value <= limit), error)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_config(path: Path, k0, eta, theta_in_deg, **grids):
    cfg = {"k0": {"re": complex(k0).real, "im": complex(k0).imag}, "a": 1.0,
           "eta": {"re": complex(eta).real, "im": complex(eta).imag},
           "theta_in_deg": theta_in_deg, "numerics": {"N": 64, "tail_tol": 1e-9},
           "grids": grids, "out_dir": str(path.parent / OUT)}
    text = json.dumps(cfg, indent=1)
    # rewriting a file written moments ago makes ext4 flush it (tens of ms)
    if not path.exists() or path.read_text(encoding="utf-8") != text:
        path.write_text(text, encoding="utf-8")
    return str(path)


# every command writes under work/OUT, which the worker deletes before each
# pass, so outputs are new files and never truncations of recent ones
OUT = "out"


def _run_cli(argv, ok_codes=(0,)):
    code = cli.main(argv)
    if code not in ok_codes:
        raise RuntimeError(f"stripscat {argv[0]} exited {code}")


# ---------------------------------------------------------------------------
class IncidenceSweep:
    """`sweep --param theta_in` over blocks of incidence angles, one medium.

    The blocks together cover every directivity-grid angle in [0, 90] deg,
    so the directivity files form the square bistatic map S(theta; theta_in).
    """

    K0, ETA, N_THETA, BLOCK = 2.0, 1 - 1j, 41, 3

    def __init__(self, seed, work: Path):
        self.work = work
        self.theta = np.linspace(0.02, np.pi - 0.02, self.N_THETA)
        self.n_half = self.N_THETA // 2 + 1           # grid angles <= 90 deg
        self.cfg_path = _write_config(work / "sweep.json", self.K0, self.ETA, 45.0,
                                      n_theta=self.N_THETA)
        order = np.random.default_rng(seed).permutation(self.n_half)
        self.items = [tuple(int(j) for j in blk) for blk in order.reshape(-1, self.BLOCK)]

    def run_item(self, block):
        vals = ",".join(repr(float(np.degrees(self.theta[j]))) for j in block)
        _run_cli(["sweep", "--config", self.cfg_path, "--param", "theta_in",
                  "--values", vals, "--out", str(self._dir(block))])

    def _dir(self, block):
        return self.work / OUT / ("block_" + "_".join(map(str, block)))

    def collect(self, done):
        n = self.N_THETA
        S = np.full((n, self.n_half), np.nan + 0j)    # S[observation, incidence]
        status_ok = True
        for block in done:
            d = self._dir(block)
            _, summary = _read_csv(d / "sweep_summary.csv")
            for iv, j in enumerate(block):
                value, status = float(summary[iv][0]), summary[iv][-1]
                status_ok &= status == "ok" and np.isclose(np.radians(value), self.theta[j],
                                                           rtol=0, atol=1e-13)
                _, rows = _read_csv(d / f"directivity_{iv:03d}.csv")
                tab = np.array(rows, dtype=float)
                status_ok &= tab.shape[0] == n and np.allclose(np.radians(tab[:, 0]), self.theta,
                                                               rtol=0, atol=1e-13)
                S[:, j] = tab[:, 1] + 1j * tab[:, 2]
        return {"S": S, "status_ok": bool(status_ok)}

    def evaluate(self, data):
        M = data["S"][:self.n_half, :]
        scale = np.max(np.abs(M))
        return [
            Check("sweep-status", 0.0 if data["status_ok"] else 1.0, 0.0,
                  data["status_ok"], error=False),
            Check("map-magnitude", float(scale), 1e-3, bool(scale > 1e-3), error=False),
            _le("reciprocity", np.max(np.abs(M - M.T)) / scale, 1e-6),
        ]

    def corruptions(self, data):
        # rows read one line off, as a header slip would give.  (A mirrored
        # observation axis is no control: S(pi - t; t') is reciprocal too.)
        return [("rows-one-line-off", dict(data, S=np.roll(data["S"], 1, axis=0)))]


# ---------------------------------------------------------------------------
class MediaSweep:
    """A new medium per item through the library.

    |k0| a from 1 to 16 at Im k0 = 0, with real, zero, fourth-quadrant and
    third-quadrant eta.  Every item needs its own kernel expansions and
    operator, so nothing is reused across items.
    """

    N = 64
    M_THETA = 256          # periodic observation grid; resolves |S|^2 for k0 a <= 16
    # (k0, a, eta, theta_in_deg)
    MEDIA = [
        (1.0, 1.0, 1.0, 60.0),
        (2.5, 1.0, 0.0, 30.0),
        (2.0, 2.0, 1 - 1j, 45.0),
        (5.5, 1.0, -1 - 1j, 75.0),
        (3.5, 2.0, 2.0, 20.0),
        (8.5, 1.0, 0.5 - 2j, 90.0),
        (10.0, 1.0, -0.5 - 1.5j, 50.0),
        (6.0, 2.0, 0.0, 65.0),
        (14.0, 1.0, 3.0, 35.0),
        (16.0, 1.0, -2 - 0.5j, 80.0),
    ]

    def __init__(self, seed, work: Path):
        order = np.random.default_rng(seed).permutation(len(self.MEDIA))
        self.items = [self.MEDIA[i] for i in order]
        th = 2 * np.pi * (np.arange(self.M_THETA) + 0.5) / self.M_THETA
        self.upper = th[: self.M_THETA // 2]          # (0, pi); the rest by reflection

    def run_item(self, medium):
        k0, a, eta, deg = medium
        cfg = ProblemConfig(complex(k0), a, complex(eta), np.radians(deg))
        da, _ = bie.solve_antisymmetric(cfg, self.N)
        ds, _ = bie.solve_symmetric(cfg, self.N)
        ba, bs = spectral.SpectralBundle(cfg, da), spectral.SpectralBundle(cfg, ds)
        tab = spectral.directivity(ba, bs, self.upper)
        fwd = spectral.directivity(ba, bs, np.array([np.pi - cfg.theta_in]))
        out = {
            "cfg": cfg, "da": da, "ds": ds, "S_a": tab.S_a, "S_s": tab.S_s,
            "fwd_a": complex(fwd.S_a[0]), "fwd_s": complex(fwd.S_s[0]),
            "edge": [edge.extract_c(da, cfg, "+"), edge.extract_c(da, cfg, "-"),
                     edge.extract_d(ds, cfg, "+"), edge.extract_d(ds, cfg, "-")],
            "deform": rhstructure.deformation_needed(cfg),
            "sheet": None,
        }
        if eta != 0:      # eta = 0 puts k' on the branch point; no sheet to classify
            out["sheet"] = rhstructure.k_prime_reclassified(cfg).sheet.value
        return out

    def collect(self, done):
        data = []
        for out in done.values():
            cfg = out["cfg"]
            oracle = (spectral.farfield_oracle(out["da"], cfg, self.upper)
                      + spectral.farfield_oracle(out["ds"], cfg, self.upper))
            circle = np.concatenate([out["S_a"] + out["S_s"], -out["S_a"] + out["S_s"]])
            data.append({k: v for k, v in out.items() if k not in ("da", "ds")}
                        | {"oracle": oracle, "S_circle": circle})
        return data

    @staticmethod
    def _one(d):
        cfg = d["cfg"]
        eta = complex(cfg.eta)
        tag = f"k0a={abs(cfg.k0) * cfg.a:g},eta={eta:g}"
        circle = d["S_circle"]        # theta in (0, pi), then 2 pi - theta in the same order
        S = circle[: len(circle) // 2]
        out = [_le(f"oracle[{tag}]", np.max(np.abs(S - d["oracle"])) / np.max(np.abs(S)), 1e-7)]
        # optical theorem from the periodic grid (trapezoid rule, spectrally exact)
        p_scat = np.mean(np.abs(circle) ** 2)
        s_fwd = -d["fwd_a"] + d["fwd_s"]                      # theta = theta_in + pi
        extinction = -2.0 * np.real(np.exp(0.25j * np.pi) * s_fwd)
        if eta.imag == 0:
            out.append(_le(f"optical-theorem[{tag}]", abs(p_scat - extinction) / abs(extinction),
                           1e-10))
        else:
            absorbed = (extinction - p_scat) / extinction
            out.append(Check(f"absorbed-positive[{tag}]", absorbed, 0.0, bool(absorbed > 0),
                             error=False))
        if eta == 0:
            out.append(_le(f"symmetric-vanishes[{tag}]", np.max(np.abs(d["S_s"])), 1e-12))
        third = eta.real < 0 and eta.imag < 0
        ok = d["deform"] == third and (eta == 0 or d["sheet"] == "unphysical")
        out.append(Check(f"sheet[{tag}]", 0.0 if ok else 1.0, 0.0, bool(ok), error=False))
        finite = bool(np.all(np.isfinite(d["edge"])))
        out.append(Check(f"edge-finite[{tag}]", 0.0 if finite else 1.0, 0.0, finite, error=False))
        return out

    def evaluate(self, data):
        return [c for d in data for c in self._one(d)]

    def corruptions(self, data):
        def each(fn):
            return [fn(dict(d)) for d in data]

        def drop_lower_half(d):
            circle = d["S_circle"].copy()
            circle[len(circle) // 2:] = 0.0
            d["S_circle"] = circle
            return d

        def drop_symmetric(d):
            d["oracle"] = d["oracle"] - (d["S_s"] if np.any(d["S_s"]) else d["S_a"])
            return d

        def wrong_sheet(d):
            d["deform"] = not d["deform"]
            return d

        return [("lower-half-of-|S|^2-dropped", each(drop_lower_half)),
                ("oracle-missing-one-parity", each(drop_symmetric)),
                ("deformation-flag-flipped", each(wrong_sheet))]


# ---------------------------------------------------------------------------
class Spectra:
    """`stripscat spectra` (n_k = 41) at k0 = 2 + i Im k0 for Im k0 in {0.4, 0.2, 0.1, 0.05}.

    The last item, the hard strip eta = 0, fails every time: cmd_spectra
    raises ZeroDivisionError from SpectralBundle.f0 for the V family.  It
    is kept and counted in `failed`.
    """

    # (Im k0, eta, theta_in_deg)
    CASES = [(0.4, 1 - 1j, 60.0), (0.2, 0.5, 30.0), (0.1, 0.5 - 2j, 75.0),
             (0.05, -1 - 1j, 45.0), (0.4, 0.0, 50.0)]
    N_K = 41

    def __init__(self, seed, work: Path):
        self.work = work
        self.cfg = {}
        for i, (im, eta, deg) in enumerate(self.CASES):
            self.cfg[i] = _write_config(work / f"spectra_{i}.json", 2.0 + 1j * im, eta, deg,
                                        n_k=self.N_K, k_grid_factor=3.0)
        self.items = [int(i) for i in np.random.default_rng(seed).permutation(len(self.CASES))]

    def run_item(self, i):
        _run_cli(["spectra", "--config", self.cfg[i], "--out", str(self.work / OUT / str(i))])

    def collect(self, done):
        data = {}
        for i in done:
            head, rows = _read_csv(self.work / OUT / str(i) / "spectra.csv")
            tab = np.array(rows, dtype=float)
            col = {h: tab[:, c] for c, h in enumerate(head)}
            fam = {}
            for F in ("U", "V"):
                fam[F] = {nm: col[f"{F}{nm}_re"] + 1j * col[f"{F}{nm}_im"]
                          for nm in ("m", "0", "p", "0t")}
            data[i] = {"k": col["k_re"] + 1j * col["k_im"], "fam": fam}
        return data

    def evaluate(self, data):
        out = []
        for i, d in sorted(data.items()):
            im, eta, _ = self.CASES[i]
            k0 = 2.0 + 1j * im
            k = d["k"]
            kmax = 3.0 * abs(k0)
            grid_ok = len(k) == self.N_K and np.allclose(k, np.linspace(-kmax, kmax, self.N_K),
                                                         rtol=0, atol=1e-12)
            out.append(Check(f"grid[{i}]", 0.0 if grid_ok else 1.0, 0.0, bool(grid_ok),
                             error=False))
            xi = 1j * np.sqrt(k * k - k0 * k0)          # principal branch, xi(0) = k0
            pref = {"U": eta - 1j * xi, "V": 1j * (eta - 1j * xi) / (eta * xi)}
            for F, f in d["fam"].items():
                scale = np.max(np.maximum(np.maximum(np.abs(f["m"]), np.abs(f["p"])),
                                          np.abs(f["0"])))
                out.append(_le(f"functional-equation-{F}[{i}]",
                               np.max(np.abs(f["m"] + f["0"] + f["p"])) / scale, 1e-4))
                out.append(_le(f"F0-prefactor-{F}[{i}]",
                               np.max(np.abs(f["0"] - pref[F] * f["0t"])) / np.max(np.abs(f["0"])),
                               1e-10))
        return out

    def corruptions(self, data):
        def flipped(F):
            bad = {}
            for i, d in data.items():
                fam = dict(d["fam"])
                fam[F] = dict(fam[F], p=-fam[F]["p"])
                bad[i] = dict(d, fam=fam)
            return bad
        return [("U-plus-sign-flipped", flipped("U")), ("V-plus-sign-flipped", flipped("V"))]


# ---------------------------------------------------------------------------
# Pinned tolerances of tests/test_acceptance.py, held here so that a report
# whose own `tol` fields were loosened still fails.  error=False marks checks
# whose value is not a numerical error of the solution: the edge fits measure
# the asymptotic model, the energy balances the medium loss at Im k0 = 1e-4,
# and the sheet checks are counts or sheet positions.
PINNED = {
    "directivity-self-convergence": (1e-8, True),
    "directivity-oracle-equivalence": (1e-7, True),
    "functional-equation-antisymmetric": (1e-4, True),
    "functional-equation-symmetric": (1e-4, True),
    "embedding-antisymmetric": (1e-6, True),
    "embedding-symmetric": (1e-6, True),
    "edge-exponent-antisymmetric": (0.005, False),
    "edge-log-ratio-antisymmetric": (0.05, False),
    # not pinned by the acceptance tests; the suite's own bound
    "edge-angular-profile-antisymmetric": (1e-3, False),
    "edge-constant-symmetric": (0.01, False),
    "jump-determinants": (1e-12, True),
    "jump-roundtrip": (1e-12, True),
    "continuation-identity-antisymmetric": (1e-12, True),
    "continuation-identity-symmetric": (1e-12, True),
    "sheet-third-quadrant-rule": (0.0, False),
    "kprime-real-axis-limit": (1e-3, False),
    "energy-balance-lossless": (1e-4, False),
    "energy-balance-hard-strip": (1e-4, False),
    "eta-zero-symmetric-vanishes": (1e-12, True),
}


class VerifyFast:
    """`stripscat verify --suite fast` on the reference configuration."""

    def __init__(self, seed, work: Path):
        self.work = work
        self.cfg_path = _write_config(work / "reference.json", 2 + 0.05j, 1 - 1j, 60.0)
        self.items = ["reference"]

    def run_item(self, _):
        # exit 1 means the suite's own verdict is FAIL; the report is judged below
        _run_cli(["verify", "--config", self.cfg_path, "--suite", "fast",
                  "--out", str(self.work / OUT)], ok_codes=(0, 1))

    def collect(self, done):
        rep = json.loads((self.work / OUT / "report.json").read_text(encoding="utf-8"))
        return {c["id"]: c for c in rep["checks"]}

    def evaluate(self, data):
        out = []
        for cid, (tol, err) in PINNED.items():
            c = data.get(cid)
            out.append(_le(cid, c["value"] if c else np.inf, tol, err))
        c = data.get("energy-absorbed-positive")
        out.append(Check("energy-absorbed-positive", c["value"] if c else -1.0, 0.0,
                         bool(c and c["value"] > 0), error=False))
        # its value is a constant 0; the sheet outcome is only in the verdict
        c = data.get("deformation-declassifies")
        out.append(Check("deformation-declassifies", 0.0, 0.0, bool(c and c["passed"]),
                         error=False))
        extra = set(data) - set(PINNED) - {"energy-absorbed-positive", "deformation-declassifies"}
        out.append(Check("no-unknown-checks", float(len(extra)), 0.0, not extra, error=False))
        return out

    def corruptions(self, data):
        worse = {k: dict(v) for k, v in data.items()}
        worse["directivity-oracle-equivalence"]["value"] *= 1e3
        missing = {k: v for k, v in data.items() if k != "functional-equation-symmetric"}
        return [("oracle-value-x1000", worse), ("check-missing", missing)]


WORKLOADS = {
    "incidence-sweep": IncidenceSweep,
    "media-sweep": MediaSweep,
    "spectra": Spectra,
    "verify-fast": VerifyFast,
}
