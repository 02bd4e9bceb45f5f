"""Cuts, jump matrices, sheet logic, deformation."""

import numpy as np
import pytest

from stripscat import rhstructure as rh
from stripscat.core import ProblemConfig

K0, A, THETA = 2 + 0.05j, 1.0, np.pi / 3
CFG = ProblemConfig(K0, A, 1 - 1j, THETA)
CFG3 = ProblemConfig(K0, A, -1 - 1j, THETA)   # third-quadrant impedance
RADIUS = 50 * abs(K0)


class TestCuts:
    def test_first_node_is_branch_point(self):
        assert rh.build_cut(CFG, "G2", RADIUS)[0] == K0
        assert rh.build_cut(CFG, "G1", RADIUS)[0] == -K0

    def test_defining_locus(self):
        g2 = rh.build_cut(CFG, "G2", RADIUS)
        w = K0 ** 2 - g2 ** 2
        assert np.max(np.abs(w.imag)) < 1e-12
        assert np.min(w.real) >= 0

    def test_point_symmetry(self):
        g1 = rh.build_cut(CFG, "G1", RADIUS)
        g2 = rh.build_cut(CFG, "G2", RADIUS)
        assert np.max(np.abs(g1 + g2)) == 0

    def test_tends_to_positive_imaginary(self):
        g2 = rh.build_cut(CFG, "G2", RADIUS)
        tail = g2[-1]
        assert tail.imag > 0.95 * abs(tail)

    def test_near_real_limit_geometry(self):
        # Im k0 -> 0+: the locus collapses onto [0, k0] union the imaginary
        # axis (every node keeps k0^2 - k^2 real nonnegative)
        cfg = ProblemConfig(2 + 1e-9j, A, 1 - 1j, THETA)
        g2 = rh.build_cut(cfg, "G2", 10 * 2)
        dist_to_axes = np.minimum(np.abs(g2.imag), np.abs(g2.real))
        assert np.max(dist_to_axes) < 1e-3
        near_real = np.abs(g2.imag) <= np.abs(g2.real)
        assert np.max(g2[near_real].real) <= 2 + 1e-9

    def test_radius_guard(self):
        with pytest.raises(ValueError):
            rh.build_cut(CFG, "G2", 0.5 * abs(K0))


class TestJumpMatrices:
    @pytest.mark.parametrize("label,det_sign", [("M1", +1), ("M2", +1),
                                                ("N1", -1), ("N2", -1)])
    def test_determinants(self, label, det_sign):
        g2 = rh.build_cut(CFG, "G2", RADIUS)
        rng = np.random.default_rng(7)
        for i in rng.integers(2, len(g2), 25):
            k = g2[i]
            x = rh.xi_left_shore(k, CFG)
            den = (CFG.eta - 1j * x) if det_sign > 0 else (1j * x - CFG.eta)
            assert np.linalg.det(rh.jump_matrix(label, k, CFG)) == pytest.approx(
                (CFG.eta + 1j * x) / den, rel=1e-13)

    def test_structure_mirror(self):
        # M1 and M2 exchange under transposition with index swap
        k = rh.build_cut(CFG, "G2", RADIUS)[80]
        m1 = rh.jump_matrix("M1", k, CFG)
        m2 = rh.jump_matrix("M2", k, CFG)
        swap = np.array([[0, 1], [1, 0]])
        assert np.allclose(swap @ m1 @ swap, m2)

    def test_large_eta_limit_identity(self):
        cfg = ProblemConfig(K0, A, 1e9 - 1e9j, THETA)
        k = rh.build_cut(cfg, "G2", RADIUS)[50]
        assert np.max(np.abs(rh.jump_matrix("M1", k, cfg) - np.eye(2))) < 1e-8

    def test_roundtrip(self):
        k = rh.build_cut(CFG, "G2", RADIUS)[60]
        m = rh.jump_matrix("M2", k, CFG)
        assert np.max(np.abs(m @ np.linalg.inv(m) - np.eye(2))) < 1e-14

    def test_singular_jump_error(self):
        # eta ~ 0 at the branch point makes eta - i xi vanish within the
        # guard tolerance.  The cut point at s = 1e-14 rounds to exactly K0
        # in floating point, so this exercises the xi(+-k0) = 0 contract.
        cfg = ProblemConfig(K0, A, -1e-18j, THETA)
        k_near = 1j * np.sqrt((1e-14) ** 2 - K0 ** 2)
        assert k_near == K0
        with pytest.raises(rh.SingularJumpError):
            rh.jump_matrix("M1", k_near, cfg)


class TestContinuation:
    def test_identity_antisym(self, ref_bundles):
        ba, _ = ref_bundles
        g2 = rh.build_cut(CFG, "G2", 10 * abs(K0))
        for k in (g2[30], g2[150]):
            assert rh.continuation_identity_check(ba, k) < 1e-12

    def test_identity_sym(self, ref_bundles):
        _, bs = ref_bundles
        g2 = rh.build_cut(CFG, "G2", 10 * abs(K0))
        assert rh.continuation_identity_check(bs, g2[60]) < 1e-12

    def test_wrong_shore_negative_control(self, ref_bundles):
        ba, _ = ref_bundles
        k = rh.build_cut(CFG, "G2", 10 * abs(K0))[60]
        assert rh.continuation_identity_check(ba, k, wrong_shore=True) > 1e-3

    def test_wrong_jump_entry_detected(self, monkeypatch, ref_bundles):
        # the check must read the shipped jump matrices: a sign slip in the
        # lower-left entry of M2 has to show
        ba, _ = ref_bundles
        jump = rh.jump_matrix

        def wrong(label, k, cfg):
            J = jump(label, k, cfg)
            if label == "M2":
                J[1, 0] = -J[1, 0]
            return J

        monkeypatch.setattr(rh, "jump_matrix", wrong)
        g2 = rh.build_cut(CFG, "G2", 10 * abs(K0))
        for k in (g2[60], g2[150]):
            assert rh.continuation_identity_check(ba, k) > 1e-3


class TestSheetLogic:
    def test_kprime_defining_equation(self):
        from stripscat.core import xi
        for cfg in (CFG, CFG3):
            sp = rh.k_prime(cfg)
            x = xi(sp.k, k0=cfg.k0)
            sign = 1.0 if sp.sheet is rh.Sheet.PHYSICAL else -1.0
            assert cfg.eta - 1j * (sign * x) == pytest.approx(0.0, abs=1e-12)

    def test_quadrant_classification(self):
        assert rh.k_prime(CFG3).sheet is rh.Sheet.PHYSICAL
        assert rh.k_prime(CFG).sheet is rh.Sheet.UNPHYSICAL

    def test_eta_zero_collision(self):
        cfg = ProblemConfig(K0, A, 0.0, THETA)
        with pytest.raises(ValueError):
            rh.k_prime(cfg)

    def test_deformation_needed_quadrant_rule(self):
        for eta, expect in [(-1 - 1j, True), (1 - 1j, False), (-2 - 0.3j, True),
                            (0.5 - 2j, False), (1.0 + 0j, False)]:
            cfg = ProblemConfig(K0, A, eta, THETA)
            assert rh.deformation_needed(cfg) is expect

    def test_grid_rule_matches_sheet(self):
        k0 = 2 + 1e-6j
        for re in np.linspace(-2, 2, 20):
            for im in np.linspace(-2, -0.05, 20):
                if abs(re) < 0.15:
                    continue
                cfg = ProblemConfig(k0, A, re + 1j * im, THETA)
                assert rh.deformation_needed(cfg) == \
                    (rh.k_prime(cfg).sheet is rh.Sheet.PHYSICAL)

    def test_kprime_near_real_limit(self):
        cfg = ProblemConfig(2 + 1e-6j, A, -1.5 - 1e-8j, THETA)
        sp = rh.k_prime(cfg)
        assert abs(sp.k.imag) < 1e-3
        assert abs(sp.k) > abs(cfg.k0)


class TestDeformation:
    def test_endpoints_and_symmetry(self):
        # the detour keeps both ends of G2; G1 is its point reflection, so the
        # reflected lens encloses -k'
        nodes, deformed, lens = rh._deformed_g2(CFG3, RADIUS)
        assert deformed[0] == K0
        assert deformed[-1] == nodes[-1] and abs(deformed[-1]) > 0.9 * RADIUS
        assert rh._point_in_polygon(-rh.k_prime(CFG3).k, -lens)

    def test_declassification(self):
        sp = rh.k_prime_reclassified(CFG3)
        assert sp.sheet is rh.Sheet.UNPHYSICAL

    @pytest.mark.parametrize("k0", [0.001, 0.01, 0.03, 0.05, 0.1, 0.5, 2.0, 40.0])
    def test_declassification_at_every_k0(self, k0):
        # at small |k0|, k' = sqrt(k0^2 + eta^2) lies beyond 50 |k0|: the cut
        # must reach past it for the detour to rejoin it
        for eta in (-1 - 1j, -0.5 - 2j, -2 - 0.5j, -0.1 - 0.1j, -3 - 3j, -1 - 0.05j):
            cfg = ProblemConfig(complex(k0, 0.1 * k0), A, eta, THETA)
            assert rh.k_prime_reclassified(cfg).sheet is rh.Sheet.UNPHYSICAL

    def test_noop_outside_third_quadrant(self):
        # no deformation, so the principal classification stands
        assert not rh.deformation_needed(CFG)
        assert rh.k_prime_reclassified(CFG) == rh.k_prime(CFG)

    def test_sheet_flip_is_involutive(self):
        # entering and leaving the lens restores the classification:
        # two lens-membership flips cancel
        nodes, deformed, lens = rh._deformed_g2(CFG3, RADIUS)
        kp = rh.k_prime(CFG3).k
        inside = rh._point_in_polygon(kp, lens)
        far_point = kp + 10.0
        outside = rh._point_in_polygon(far_point, lens)
        assert inside and not outside
