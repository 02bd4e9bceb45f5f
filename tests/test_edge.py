"""Edge coefficient extraction and local expansion fits."""

import numpy as np
import pytest

from stripscat.bie import scattered_field, solve_antisymmetric, solve_symmetric
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
        # the antisymmetric strip trace is mu/2
        vals = np.array([da(A - r) / 2 / np.sqrt(K0 * r) for r in rhos])
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
        # the hard strip's symmetric density is zero: d is the incident value
        cfg = ProblemConfig(K0, A, 0.0, THETA)
        ds, _ = solve_symmetric(cfg, 32)
        for side, x in (("+", A), ("-", -A)):
            ref = complex(incident_field(cfg, Parity.SYMMETRIC, x, 0.0))
            assert extract_d(ds, cfg, side) == ref
            assert ref == np.exp(-1j * cfg.k_star * x)

    def test_normal_incidence_equal_sides(self):
        cfg = ProblemConfig(K0, A, ETA, np.pi / 2)
        ds, _ = solve_symmetric(cfg, 48)
        assert extract_d(ds, cfg, "+") == pytest.approx(extract_d(ds, cfg, "-"),
                                                        rel=1e-8)

    def test_convergence(self, ref_cfg):
        # d(N) against the N = 512 limit: the edge values converge like
        # N^-3.8 (1.3e-7 and 9.3e-9 at N = 64 and 128 on the reference); the
        # three-point trace fit that d once was stayed 6.6e-7 off at every N
        ds512, _ = solve_symmetric(ref_cfg, 512)
        for side in "+-":
            ref = _edge_limit(ds512, ref_cfg, side)
            assert abs(extract_d(ds512, ref_cfg, side) - ref) <= 1e-12 * abs(ref)
            for N, bound in ((64, 4e-7), (128, 3e-8)):
                ds, _ = solve_symmetric(ref_cfg, N)
                assert abs(extract_d(ds, ref_cfg, side) - ref) <= bound * abs(ref)


def _edge_limit(ds, cfg, side, L=10 ** 6):
    """-sigma(+-a)/(2 eta), with the folded edge-log tails beyond the stored
    coefficients summed term by term to order L from their coefficients
    2/(j(j^2-1)): a reference that shares no code with extract_d."""
    sgn = 1.0 if side == "+" else -1.0
    n = np.arange(L)
    at_edge = sgn ** n
    head = np.sum(ds.coeffs * at_edge[:len(ds.coeffs)])
    j = n[len(ds.coeffs):].astype(float)
    beta = 2.0 / (j * (j * j - 1.0))
    plain, alt = np.sum(beta), np.sum(beta * (-1.0) ** n[len(ds.coeffs):])
    ap, am = ds.aug_amp
    tails = ap * plain + am * alt if side == "+" else ap * alt + am * plain
    return -(head + tails) / (2 * cfg.eta)


class TestEdgeName:
    @pytest.mark.parametrize("fn", [extract_c, extract_d, local_expansion_fit])
    def test_bad_side_rejected(self, fn, ref_cfg, ref_solves):
        da, ds, _, _ = ref_solves
        dens = da if fn is extract_c else ds
        with pytest.raises(ValueError, match="side"):
            fn(dens, ref_cfg, "x")


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

    @pytest.mark.parametrize("parity", list(Parity))
    def test_fan_is_one_series_evaluation(self, ref_cfg, ref_solves, parity, poly_calls):
        # the 8 x 8 fan about the + edge is one series block: the density's
        # series runs once, on the fan's distinct theta nodes (15,360 of 39,040)
        from stripscat import bie, edge
        dens = ref_solves[0] if parity is Parity.ANTISYMMETRIC else ref_solves[1]
        local_expansion_fit(dens, ref_cfg, "+")
        assert len(poly_calls) == 1
        x, y = np.broadcast_arrays(*edge._edge_points(
            ref_cfg, "+", np.array(edge.RADII_FACTORS)[:, None] * A,
            np.linspace(0.12, np.pi - 0.12, edge.N_ANGLES // 2)))
        rules = [bie._strip_theta_quad(s0, np.hypot(max(abs(s0) - 1, 0), yv / A))[0]
                 for s0, yv in zip(x.ravel() / A, y.ravel())]
        nodes = np.concatenate(rules)
        assert len(poly_calls[0]) == len(np.unique(nodes)) < len(nodes) / 2
        # and the fan's field is its 64 scalar calls, bit for bit
        fan = scattered_field(dens, ref_cfg, x, y)
        ref = [[scattered_field(dens, ref_cfg, xv, yv) for xv, yv in zip(*row)]
               for row in zip(x, y)]
        assert np.array_equal(fan.view(float), np.array(ref).view(float))

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
