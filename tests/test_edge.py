"""Edge coefficient extraction and local expansion fits."""

import numpy as np
import pytest

from stripscat.bie import solve_antisymmetric, solve_symmetric, strip_trace
from stripscat.core import Parity, ProblemConfig, incident_field
from stripscat.edge import extract_c, extract_d, local_expansion_fit

K0, A, ETA, THETA = 2 + 0.05j, 1.0, 1 - 1j, np.pi / 3


class TestExtractC:
    def test_zero_density(self, ref_cfg):
        from stripscat.bie import Density
        d0 = Density(Parity.ANTISYMMETRIC, A, np.zeros(6, complex))
        assert extract_c(d0, ref_cfg, "+") == 0

    def test_against_trace_limit(self, ref_cfg, ref_solves):
        da, _, _, _ = ref_solves
        cp = extract_c(da, ref_cfg, "+")
        # Richardson on the trace limit mu/(2 sqrt(k0 rho)) with rho log rho model
        rhos = np.array([1e-4, 1e-5]) * A
        vals = np.array([strip_trace(da, ref_cfg, A - r) / np.sqrt(K0 * r)
                         for r in rhos])
        # leading correction ~ rho log rho: eliminate with two-point model
        w = rhos * np.log(rhos)
        c_extrap = (vals[1] * w[0] - vals[0] * w[1]) / (w[0] - w[1])
        assert c_extrap == pytest.approx(cp, rel=1e-4)

    def test_normal_incidence_magnitudes(self):
        cfg = ProblemConfig(K0, A, ETA, np.pi / 2)
        da, _ = solve_antisymmetric(cfg, 48)
        assert abs(extract_c(da, cfg, "+")) == pytest.approx(
            abs(extract_c(da, cfg, "-")), rel=1e-10)

    def test_refinement_invariance(self, ref_cfg):
        d64, _ = solve_antisymmetric(ref_cfg, 64)
        d128, _ = solve_antisymmetric(ref_cfg, 128)
        # limited by the stabilization of the folded edge-log amplitudes
        assert extract_c(d64, ref_cfg, "+") == pytest.approx(
            extract_c(d128, ref_cfg, "+"), rel=2e-6)


class TestExtractD:
    def test_eta_zero_incident_value(self):
        cfg = ProblemConfig(K0, A, 0.0, THETA)
        ds, _ = solve_symmetric(cfg, 32)
        for side, x in (("+", A), ("-", -A)):
            ref = complex(incident_field(cfg, Parity.SYMMETRIC, x, 0.0))
            assert extract_d(ds, cfg, side) == pytest.approx(ref, rel=1e-6)

    def test_normal_incidence_equal_sides(self):
        cfg = ProblemConfig(K0, A, ETA, np.pi / 2)
        ds, _ = solve_symmetric(cfg, 48)
        assert extract_d(ds, cfg, "+") == pytest.approx(extract_d(ds, cfg, "-"),
                                                        rel=1e-8)

    def test_extrapolation_order(self, ref_cfg, ref_solves, monkeypatch):
        # successively tighter ladders converge; the rho log rho model beats
        # naive last-point sampling by orders of magnitude
        from stripscat import edge
        _, ds, _, _ = ref_solves
        d_mid = extract_d(ds, ref_cfg, "+")
        monkeypatch.setattr(edge, "D_RHO_FACTORS", (2e-4, 1e-4, 5e-5))
        d_ref = extract_d(ds, ref_cfg, "+")
        naive = strip_trace(ds, ref_cfg, A * (1 - 1e-3)) + \
            incident_field(ref_cfg, Parity.SYMMETRIC, A * (1 - 1e-3), 0.0)
        assert abs(d_mid - d_ref) < 1e-2 * abs(complex(naive) - d_ref)

    def test_refinement_invariance(self, ref_cfg):
        d64, _ = solve_symmetric(ref_cfg, 64)
        d128, _ = solve_symmetric(ref_cfg, 128)
        assert extract_d(d64, ref_cfg, "+") == pytest.approx(
            extract_d(d128, ref_cfg, "+"), rel=1e-8)


class TestLocalFit:
    def test_antisym_exponent_and_ratio(self, ref_cfg, ref_solves):
        da, _, _, _ = ref_solves
        fit = local_expansion_fit(da, ref_cfg, "+")
        assert fit["exponent"] == pytest.approx(0.5, abs=0.005)
        assert fit["angular_correlation"] > 0.999
        assert fit["log_coeff_rel_err"] < 0.05

    def test_antisym_minus_side(self, ref_cfg, ref_solves):
        da, _, _, _ = ref_solves
        fit = local_expansion_fit(da, ref_cfg, "-")
        assert fit["exponent"] == pytest.approx(0.5, abs=0.005)
        assert fit["log_coeff_rel_err"] < 0.05

    def test_sym_constant_term(self, ref_cfg, ref_solves):
        _, ds, _, _ = ref_solves
        fit = local_expansion_fit(ds, ref_cfg, "+")
        assert fit["constant_term_rel_err"] < 0.01
        assert abs(fit["exponent"]) < 0.01

    def test_sym_rholog_matches_impedance_relation(self, ref_cfg, ref_solves):
        # the rho ln(k0 rho) cos(phi) coefficient equals -eta d / pi
        _, ds, _, _ = ref_solves
        fit = local_expansion_fit(ds, ref_cfg, "+")
        assert fit["rholog_coefficient"] == pytest.approx(
            fit["rholog_reference"], rel=0.1)

    def test_ill_conditioned_radii_rejected(self, ref_cfg, ref_solves, monkeypatch):
        from stripscat import edge
        da, _, _, _ = ref_solves
        monkeypatch.setattr(edge, "RADII_FACTORS",
                            (1e-3, 1.0000001e-3, 1.0000002e-3, 1.0000003e-3))
        with pytest.raises(ValueError):
            local_expansion_fit(da, ref_cfg, "+")


class TestMirrorRelation:
    def test_edge_coeff_mirror_magnitudes(self, ref_cfg, ref_solves):
        # the x-mirrored problem exchanges the roles of the two edges; the
        # magnitude pattern survives in the incident-phase-stripped constants
        da, _, _, _ = ref_solves
        ks, a = ref_cfg.k_star, A
        # strip the incident phases exp(-i k_* (+-a)) before comparing sides
        cp = extract_c(da, ref_cfg, "+") * np.exp(1j * ks * a)
        cm = extract_c(da, ref_cfg, "-") * np.exp(-1j * ks * a)
        assert 0.05 < abs(cp) / abs(cm) < 20  # same order once phases stripped
        # normal incidence: exact equality of stripped magnitudes
        cfgN = ProblemConfig(K0, A, ETA, np.pi / 2)
        daN, _ = solve_antisymmetric(cfgN, 48)
        dsN, _ = solve_symmetric(cfgN, 48)
        assert abs(extract_c(daN, cfgN, "+")) == pytest.approx(
            abs(extract_c(daN, cfgN, "-")), rel=1e-10)
        assert extract_d(dsN, cfgN, "+") == pytest.approx(
            extract_d(dsN, cfgN, "-"), rel=1e-8)
