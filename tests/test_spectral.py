"""Spectral-function family: transforms, functional equation, directivity,
embedding, growth, contours, and the physics cross-checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripscat.bie import solve_symmetric
from stripscat.core import Parity, ProblemConfig
from stripscat.spectral import (
    Scattering,
    SpectralBundle,
    cauchy_analyticity_test,
    contour_integral_rect,
    directivity,
    directivity_full_circle,
    embedding_rank_test,
    energy_balance,
    farfield_oracle,
    functional_residual,
    growth_scan,
    real_axis_halflines,
    reciprocity_check,
)

K0, A, ETA, THETA = 2 + 0.05j, 1.0, 1 - 1j, np.pi / 3


class TestStripTransforms:
    def test_zero_density_vanishes(self, ref_cfg):
        from stripscat.bie import Density
        d0 = Density(Parity.ANTISYMMETRIC, A, np.zeros(6, complex))
        b = SpectralBundle(ref_cfg, d0)
        assert b.f0_tilde(0.7) == 0

    def test_u0_tilde_against_direct_quadrature(self, ref_cfg, ref_bundles):
        ba, bs = ref_bundles
        da = ba.density
        import scipy.integrate as si
        # U0~(0) = (1/2) int mu dx by direct quadrature on the density
        f = lambda t: da(np.array([t]))[0]
        re = si.quad(lambda t: f(t).real, -A, A, limit=200, epsabs=1e-13)[0]
        im = si.quad(lambda t: f(t).imag, -A, A, limit=200, epsabs=1e-13)[0]
        assert ba.f0_tilde(0.0) == pytest.approx((re + 1j * im) / 2, rel=1e-9)

    def test_v0_tilde_against_direct_quadrature(self, ref_cfg, ref_bundles):
        _, bs = ref_bundles
        ds = bs.density
        import scipy.integrate as si
        k = 0.8
        f = lambda t: ds(np.array([t]))[0] * np.exp(1j * k * t)
        re = si.quad(lambda t: f(t).real, -A, A, limit=300, epsabs=1e-13)[0]
        im = si.quad(lambda t: f(t).imag, -A, A, limit=300, epsabs=1e-13)[0]
        assert bs.f0_tilde(k) == pytest.approx(-(re + 1j * im) / 2, rel=1e-7)

    def test_entire_under_branch_modes(self, ref_bundles):
        # the strip transform never involves xi: a loop around the branch
        # point +k0 that crosses its cut sees no singularity in F0~, while
        # F0 = (eta - i xi) F0~ jumps across the cut
        ba, _ = ref_bundles
        rect = (1.5, 2.5, -0.45, 0.55)
        assert cauchy_analyticity_test(lambda z: np.atleast_1d(ba.f0_tilde(z)), rect) < 1e-12
        assert cauchy_analyticity_test(lambda z: np.atleast_1d(ba.f0(z)), rect) > 1e-3

    def test_f0_prefactors(self, ref_cfg, ref_bundles):
        ba, bs = ref_bundles
        from stripscat.core import xi
        k = 0.9
        x = xi(k, k0=ref_cfg.k0)
        assert ba.f0(k) == pytest.approx((ETA - 1j * x) * ba.f0_tilde(k), rel=1e-13)
        assert bs.f0(k) == pytest.approx(
            1j * (ETA - 1j * x) / (ETA * x) * bs.f0_tilde(k), rel=1e-13)


# the media of the benchmark's spectra workload (Im k0, eta, theta_in in degrees)
# and the reference configuration
SPECTRA_MEDIA = [(0.4, 1 - 1j, 60.0), (0.2, 0.5, 30.0), (0.1, 0.5 - 2j, 75.0),
                 (0.05, -1 - 1j, 45.0), (0.05, ETA, 60.0)]


class TestFunctionalEquation:
    def test_antisymmetric(self, ref_cfg, ref_bundles):
        ba, _ = ref_bundles
        kg = np.linspace(-3 * abs(K0), 3 * abs(K0), 21)
        assert functional_residual(ba, kg) < 1e-6

    def test_symmetric(self, ref_cfg, ref_bundles):
        _, bs = ref_bundles
        kg = np.linspace(-3 * abs(K0), 3 * abs(K0), 21)
        assert functional_residual(bs, kg) < 1e-6

    @pytest.mark.parametrize("parity", list(Parity))
    def test_wide_k_grid(self, ref_cfg, ref_solves, parity):
        # k_grid_factor = 50: the cut integrals hold their accuracy far out
        da, ds, _, _ = ref_solves
        b = SpectralBundle(ref_cfg, da if parity is Parity.ANTISYMMETRIC else ds)
        kg = np.linspace(-50 * abs(K0), 50 * abs(K0), 41)
        assert functional_residual(b, kg) <= 1e-7

    def test_tail_panels_matter(self, ref_cfg, ref_solves, monkeypatch):
        # negative control: the cut rule without its mapped tail s > 10^4
        # (the last three panels) leaves a residual orders above the full rule's
        from stripscat import spectral
        da, _, _, _ = ref_solves
        kg = np.linspace(-3 * abs(K0), 3 * abs(K0), 21)
        full = functional_residual(SpectralBundle(ref_cfg, da), kg)
        rule = spectral._cut_rule
        monkeypatch.setattr(spectral, "_cut_rule", lambda im_k0: [x[:-48] for x in rule(im_k0)])
        assert functional_residual(SpectralBundle(ref_cfg, da), kg) > 100 * full

    # |k0| a from the low-frequency end to the high, and Im k0 from the
    # lossy media down to 1e-6, which the cut rule covers at one cost
    @pytest.mark.parametrize("k0a", [0.05, 2.0, 16.0])
    @pytest.mark.parametrize("im_k0", [1e-6, 0.05, 0.4])
    def test_media_grid(self, k0a, im_k0):
        cfg = ProblemConfig(k0a + 1j * im_k0, A, ETA, THETA)
        kg = np.linspace(-3 * abs(cfg.k0), 3 * abs(cfg.k0), 41)
        for b in Scattering(cfg, 64).bundles:
            assert functional_residual(b, kg) <= 1e-7

    @pytest.mark.parametrize("medium", SPECTRA_MEDIA)
    def test_spectra_media(self, medium):
        im_k0, eta, deg = medium
        cfg = ProblemConfig(2 + 1j * im_k0, A, eta, np.deg2rad(deg))
        kg = np.linspace(-3 * abs(cfg.k0), 3 * abs(cfg.k0), 41)
        for b in Scattering(cfg, 64).bundles:
            assert functional_residual(b, kg) <= 1e-7

    def test_requires_decaying_tails(self, ref_solves):
        da, _, _, _ = ref_solves
        cfg0 = ProblemConfig(2 + 0j, A, ETA, THETA)
        b = SpectralBundle(cfg0, da)
        with pytest.raises(ValueError):
            b.f_check_plus(0.5)


class TestRealAxisHalflines:
    """F- and F+ of any set of bundles on a real k grid, one Cauchy-matrix
    product per side and bundle on the bundle's cached cut columns."""

    def test_one_bundle_alone_and_mixed_media(self, ref_cfg, ref_bundles):
        # each pair is the bundle's own f_minus / f_plus; bundles of other
        # media mix freely (no shared quadrature nodes)
        other = Scattering(ProblemConfig(2 + 0.4j, A, 0.5, np.deg2rad(30.0)), 32).bundles[1]
        k = np.linspace(-3 * abs(K0), 3 * abs(K0), 41)
        for bundles in ((ref_bundles[0],), (ref_bundles[1], other)):
            for b, (fm, fp) in zip(bundles, real_axis_halflines(bundles, k)):
                assert np.array_equal(fp, b.f_plus(k)) and np.array_equal(fm, b.f_minus(k))

    def test_one_exponential_table_per_residual(self, ref_cfg, ref_solves, phase_builds):
        da, _, _, _ = ref_solves
        b = SpectralBundle(ref_cfg, da)
        functional_residual(b, np.linspace(-6, 6, 21))
        functional_residual(b, np.linspace(-3, 3, 7))
        assert phase_builds.count == 1

    def test_cost_does_not_grow_as_im_k0_falls(self, ref_solves):
        # the banks' nodes grew as 1/Im k0; the cut rule and the theta table
        # are the same at every Im k0 >= 1e-6, so are the allocations
        import tracemalloc
        da, _, _, _ = ref_solves
        peaks = []
        for im_k0 in (0.4, 1e-3, 1e-6):
            cfg = ProblemConfig(2 + 1j * im_k0, A, ETA, THETA)
            b = SpectralBundle(cfg, da)
            k = np.linspace(-3 * abs(cfg.k0), 3 * abs(cfg.k0), 41)
            tracemalloc.start()
            try:
                real_axis_halflines((b,), k)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert max(peaks) <= 1.05 * min(peaks) and max(peaks) < 8 * 2 ** 20

    @pytest.mark.parametrize("im_k0", [1e-10, 1e-12])
    def test_near_pole_at_tiny_im_k0(self, ref_solves, monkeypatch, im_k0):
        # k = -Re k0 (F+check) and +Re k0 (F-check), the ends of a grid with
        # k_grid_factor = 1, lie Im k0 off the pole of the cut integrand, a
        # width sqrt(Im k0) in u = sqrt(s). Reference: 24-point panels of
        # ratio sqrt(2) down to 1e-3 sqrt(Im k0). With its first panel fixed
        # at u = 1e-4 the rule read 1.3e-11 / 1.1e-6 (antisymmetric /
        # symmetric) off at 1e-10 and 4e-8 / 4e-2 at 1e-12; now <= 8.3e-16
        from stripscat import chebkit as ck
        from stripscat import spectral
        da, ds, _, _ = ref_solves
        cfg = ProblemConfig(2 + 1j * im_k0, A, ETA, THETA)
        k = np.linspace(-abs(cfg.k0), abs(cfg.k0), 41)

        def transforms():
            return [np.concatenate([b.f_check_plus(k), b.f_check_minus(k)])
                    for b in (SpectralBundle(cfg, da), SpectralBundle(cfg, ds))]

        got = transforms()
        lo = 1e-3 * np.sqrt(im_k0)
        u, wu = ck.panels(np.concatenate([[0.0], np.geomspace(lo, 100.0, 2 * int(np.log2(100.0 / lo)) + 2)]), 24)
        v, wv = ck.panels(np.linspace(0.0, 0.01, 7), 24)
        monkeypatch.setattr(spectral, "_cut_rule", lambda _: (
            np.concatenate([u * u, v ** -2.0]), np.concatenate([2 * u * wu, 2 * wv / v ** 3])))
        for f, ref in zip(got, transforms()):
            assert np.max(np.abs(f - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestPoleStructure:
    def test_residue_antisym(self, ref_cfg, ref_bundles):
        ba, _ = ref_bundles
        ks = ref_cfg.k_star
        # (k - k_*) F+(k) -> residue along two approach directions
        for d in (1e-5, 1e-5j):
            k = ks + d
            assert (k - ks) * ba.f_plus(k) == pytest.approx(
                K0 * np.sin(THETA), rel=1e-4)

    def test_residue_sym(self, ref_cfg, ref_bundles):
        _, bs = ref_bundles
        ks = ref_cfg.k_star
        k = ks + 1e-5
        assert (k - ks) * bs.f_plus(k) == pytest.approx(1j, rel=1e-4)

    def test_contour_residue_antisym(self, ref_cfg, ref_bundles):
        ba, _ = ref_bundles
        ks = ref_cfg.k_star
        rect = (ks.real - 0.7, ks.real + 0.7, 0.3 * ks.imag, ks.imag + 0.7)
        loop = contour_integral_rect(lambda z: np.atleast_1d(ba.f_plus(z)), rect,
                                     refine_near=ks)
        assert loop == pytest.approx(2j * np.pi * K0 * np.sin(THETA), rel=1e-4)

    def test_contour_one_call_per_side(self):
        # graded panels toward a nearby pole, all of one side's nodes in one call
        pole = 0.3 + 0.05j
        calls = []

        def f(z):
            calls.append(len(z))
            return np.exp(1j * z) / (z - pole)

        loop = contour_integral_rect(f, (-1.0, 1.0, 0.0, 1.0), refine_near=pole)
        assert len(calls) == 4 and sum(calls) > 4 * 32
        assert abs(loop - 2j * np.pi * np.exp(1j * pole)) < 1e-12

    def test_one_pole_warning_per_scattering(self, ref_cfg, caplog):
        # the bundles of one Scattering share the warning's flag
        import logging
        ba, bs = Scattering(ref_cfg, 64).bundles
        k = ref_cfg.k_star + 1e-5
        with caplog.at_level(logging.WARNING, logger="stripscat.spectral"):
            ba.f_plus(k)
            bs.f_plus(k)
            ba.f_plus(k)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and warnings[0].startswith("F+ (antisymmetric):")
        # a bundle made on its own keeps its own flag
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="stripscat.spectral"):
            SpectralBundle(ref_cfg, bs.density).f_plus(k)
        assert len([r for r in caplog.records if r.levelno == logging.WARNING]) == 1

    def test_cauchy_calibration_entire(self):
        rect = (-1.0, 1.0, -1.0, 1.0)
        val = cauchy_analyticity_test(lambda z: np.exp(1j * z), rect)
        assert val < 1e-12

    def test_cauchy_minus_lower_half(self, ref_cfg, ref_bundles):
        ba, _ = ref_bundles
        rect = (-2.0, 2.2, -0.8, -0.02)
        val = cauchy_analyticity_test(lambda z: np.atleast_1d(ba.f_minus(z)), rect,
                                      refine_near=ref_cfg.k_star)
        assert val < 1e-6


class TestDirectivity:
    def test_table_sums(self, ref_bundles):
        ba, bs = ref_bundles
        th = np.linspace(0.1, np.pi - 0.1, 11)
        tab = directivity(ba, bs, th)
        assert np.allclose(tab.S, tab.S_a + tab.S_s)

    def test_normal_observation_instantiation(self, ref_cfg, ref_bundles):
        ba, bs = ref_bundles
        tab = directivity(ba, bs, np.array([np.pi / 2]))
        assert tab.S_a[0] == pytest.approx(
            np.exp(-1j * np.pi / 4) * K0 * complex(ba.f0_tilde(0.0)), rel=1e-13)

    def test_antisym_endpoint_zeros(self, ref_bundles):
        ba, bs = ref_bundles
        tab = directivity(ba, bs, np.array([1e-9, np.pi - 1e-9]))
        assert np.max(np.abs(tab.S_a)) < 1e-8

    def test_oracle_agreement(self, ref_cfg, ref_solves, ref_bundles):
        da, ds, _, _ = ref_solves
        ba, bs = ref_bundles
        th = np.linspace(0.02, np.pi - 0.02, 73)
        tab = directivity(ba, bs, th)
        S_or = farfield_oracle(da, ref_cfg, th) + farfield_oracle(ds, ref_cfg, th)
        assert np.max(np.abs(tab.S - S_or)) / np.max(np.abs(tab.S)) < 1e-7

    def test_oracle_zero_density(self, ref_cfg):
        from stripscat.bie import Density
        d0 = Density(Parity.ANTISYMMETRIC, A, np.zeros(5, complex))
        assert farfield_oracle(d0, ref_cfg, 1.0) == 0

    def test_eta_zero_kills_symmetric(self):
        cfg = ProblemConfig(K0, A, 0.0, THETA)
        ds, _ = solve_symmetric(cfg, 32)
        bs = SpectralBundle(cfg, ds)
        th = np.linspace(0.05, np.pi - 0.05, 21)
        assert np.max(np.abs(np.atleast_1d(
            bs.f0_tilde(-cfg.k0 * np.cos(th))))) < 1e-14


def _full_circle_all_angles(bundle_a, bundle_s, m=720):
    """The full-circle directivity with every one of the m angles transformed,
    the lower half at 2 pi - theta: the reference for the half-circle one."""
    th = 2 * np.pi * (np.arange(m) + 0.5) / m
    upper = th <= np.pi
    tab = directivity(bundle_a, bundle_s, np.where(upper, th, 2 * np.pi - th))
    return th, np.where(upper, tab.S_a, -tab.S_a) + tab.S_s


class TestFullCircle:
    @pytest.mark.parametrize("m", [1, 7, 8, 720, 721])
    def test_matches_all_angles(self, ref_bundles, m, monkeypatch):
        # the mirrored grid angle 2 pi (m - j - 1/2)/m and 2 pi - theta_j differ
        # by up to 2 ulp of 2 pi, over which S moves by about |k0| a ulp
        from stripscat import spectral
        monkeypatch.setattr(spectral, "FULL_CIRCLE_ANGLES", m)
        th, S = directivity_full_circle(*ref_bundles)
        th_ref, S_ref = _full_circle_all_angles(*ref_bundles, m)
        assert np.array_equal(th, th_ref)
        assert np.max(np.abs(S - S_ref)) <= 1e-15 * max(1.0, abs(K0) * A) * np.max(np.abs(S_ref))

    @pytest.mark.parametrize("m", [7, 8, 720, 721])
    def test_half_the_angles_are_transformed(self, ref_bundles, m, monkeypatch):
        from stripscat import spectral
        seen = []
        transform = spectral.strip_transform

        def counted(parity, a, coeffs, k):
            seen.append((parity, len(k)))
            return transform(parity, a, coeffs, k)

        monkeypatch.setattr(spectral, "strip_transform", counted)
        monkeypatch.setattr(spectral, "FULL_CIRCLE_ANGLES", m)
        directivity_full_circle(*ref_bundles)
        assert len(seen) == 2 and dict(seen) == dict.fromkeys(Parity, (m + 1) // 2)

    @pytest.mark.parametrize("eta", [1.0, 1 - 1j, 0.0])
    def test_energy_balance_unchanged(self, eta, monkeypatch):
        # the media of `verify`'s energy checks.  On the reference machine
        # their report.json values are bitwise those of the all-angle route;
        # the mirrored angles may move the last bit of a mean of |S|^2
        from stripscat import spectral
        cfg = ProblemConfig(2 + 0j, A, eta, THETA)
        eb = energy_balance(cfg)
        monkeypatch.setattr(spectral, "directivity_full_circle", _full_circle_all_angles)
        ref = energy_balance(cfg)
        for key in ("p_scat", "extinction", "absorbed"):
            assert eb[key] == pytest.approx(ref[key], rel=1e-15, abs=1e-15)
        assert eb["balance_rel"] == pytest.approx(ref["balance_rel"], rel=0, abs=1e-15)


class TestEmbedding:
    def test_pair_antisymmetry(self, ref_cfg):
        sc = Scattering(ref_cfg, 48, np.deg2rad([30.0, 45.0, 60.0, 75.0]))
        r = embedding_rank_test(sc, Parity.ANTISYMMETRIC, np.linspace(-4, 4, 40))
        assert r["antisymmetry"] < 1e-6
        assert r["s3_over_s1"] < 1e-6

    def test_symmetric_variant(self, ref_cfg):
        sc = Scattering(ref_cfg, 48, np.deg2rad([30.0, 45.0, 60.0, 75.0]))
        r = embedding_rank_test(sc, Parity.SYMMETRIC, np.linspace(-4, 4, 40))
        assert r["antisymmetry"] < 1e-6
        assert r["s3_over_s1"] < 1e-6

    def test_insufficient_incidences(self, ref_cfg):
        r = embedding_rank_test(Scattering(ref_cfg, 64, [0.4, 0.9]), Parity.ANTISYMMETRIC,
                                np.linspace(-2, 2, 10))
        assert r["status"] == "insufficient data"

    def test_eta_zero_degenerate(self):
        sc = Scattering(ProblemConfig(K0, A, 0.0, THETA), 16, [0.4, 0.9, 1.2])
        with pytest.raises(ZeroDivisionError):
            embedding_rank_test(sc, Parity.SYMMETRIC, np.linspace(-2, 2, 10))


class TestGrowth:
    @pytest.mark.parametrize("which,ray", [
        ("0", "upper-imaginary"), ("0", "lower-imaginary"),
        ("+", "upper-imaginary"), ("-", "lower-imaginary"),
    ])
    def test_antisym_bounded(self, ref_bundles, which, ray):
        ba, _ = ref_bundles
        t = np.geomspace(2 * abs(K0), 20 * abs(K0), 8)
        g = growth_scan(ba, which, ray, t)
        assert g["bounded"]

    def test_sym_bounded(self, ref_bundles):
        _, bs = ref_bundles
        t = np.geomspace(2 * abs(K0), 20 * abs(K0), 8)
        for which, ray in [("0", "upper-imaginary"), ("+", "upper-imaginary"),
                           ("-", "lower-imaginary")]:
            assert growth_scan(bs, which, ray, t)["bounded"]

    def test_negative_control_flags_growth(self, ref_bundles):
        ba, _ = ref_bundles
        t = np.geomspace(2 * abs(K0), 20 * abs(K0), 8)
        g = growth_scan(ba, "0", "upper-imaginary", t, exponent=1.5)
        assert not g["bounded"]
        assert g["slope"] > 0.5

    def test_wrong_ray_rejected(self, ref_bundles):
        ba, _ = ref_bundles
        with pytest.raises(ValueError):
            growth_scan(ba, "+", "lower-imaginary", np.array([5.0, 9.0]))


class TestPhysics:
    def test_reciprocity_pair(self, ref_cfg):
        assert reciprocity_check(ref_cfg, np.deg2rad([40.0, 60.0]), N=48) < 1e-10

    def test_reciprocity_trivial_pair(self, ref_cfg):
        # a one-angle map is its own transpose
        assert reciprocity_check(ref_cfg, [np.deg2rad(55)], N=32) == 0

    def test_map_columns_are_scattering_tables(self, ref_cfg):
        # column j of a block's directivity is that of the incidence theta_in[j] alone
        th = np.linspace(0.1, np.pi - 0.1, 9)
        incs = np.deg2rad([20.0, 60.0, 90.0])
        M = Scattering(ref_cfg, 48, incs).directivity(th).S
        for j, t in enumerate(incs):
            S = Scattering(ProblemConfig(K0, A, ETA, t), 48).directivity(th).S
            assert np.max(np.abs(M[:, j] - S)) < 1e-14 * np.max(np.abs(S))

    @settings(max_examples=15, deadline=None)
    @given(k0_re=st.floats(0.5, 8.0), k0_im=st.floats(0.0, 0.4),
           eta_re=st.floats(-2.0, 3.0), eta_im=st.floats(-2.0, 0.0))
    def test_map_reciprocity_and_x_parity(self, k0_re, k0_im, eta_re, eta_im):
        cfg = ProblemConfig(complex(k0_re, k0_im), A, complex(eta_re, eta_im), THETA)
        th = np.deg2rad(np.linspace(7.5, 90.0, 12))
        M = Scattering(cfg, 64, th).directivity(np.concatenate([th, np.pi - th])).S
        square = M[:12]
        assert np.max(np.abs(square - square.T)) <= 1e-9 * np.max(np.abs(square))
        # normal incidence is even in x: S(pi - theta; pi/2) = S(theta; pi/2)
        normal = M[:, -1]
        assert np.max(np.abs(normal[12:] - normal[:12])) <= 1e-13 * np.max(np.abs(normal))

    def test_reciprocity_rejects_broken_symmetric_phase(self, ref_cfg, monkeypatch):
        # negative control: a symmetric right-hand side with a wrong phase per
        # Chebyshev order gives a map that is no longer reciprocal
        from stripscat import bie
        rhs = bie._rhs

        def broken(cfg, parity, theta_in, n):
            B = rhs(cfg, parity, theta_in, n)
            return B * (1j ** np.arange(n))[:, None] if parity is Parity.SYMMETRIC else B

        monkeypatch.setattr(bie, "_rhs", broken)
        th = np.linspace(0.02, np.pi - 0.02, 73)[:37]
        assert reciprocity_check(ref_cfg, th, N=64) > 1e-3

    # lossless medium (Im k0 = 0), so the balance measures numerical error
    def test_energy_lossless(self):
        cfg = ProblemConfig(2 + 0j, A, 1.0, THETA)
        eb = energy_balance(cfg, N=48)
        assert eb["balance_rel"] < 1e-10

    def test_energy_absorbing(self):
        cfg = ProblemConfig(2 + 0j, A, 1 - 1j, THETA)
        eb = energy_balance(cfg, N=48)
        assert eb["absorbed"] > 0

    def test_energy_hard_strip(self):
        cfg = ProblemConfig(2 + 0j, A, 0.0, THETA)
        eb = energy_balance(cfg, N=48)
        assert eb["balance_rel"] < 1e-10
