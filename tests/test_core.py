import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stripscat.core import BranchMode, Parity, ProblemConfig, incident_field, xi
from stripscat import kernels as kn

K0 = 2 + 0.05j

# precomputed arbitrary-precision references for (i/4) H0^(1)(z) and the
# hypersingular kernel (30-digit series evaluation, frozen)
G_REF = {
    0.5: 0.11112968337667663929 + 0.23461745181020322606j,
    1.0: -0.022064241053919239496 + 0.19129942163949163786j,
    2.0: -0.1275939181624362799 + 0.055972694785308917013j,
}
K_HYPER_REF_07 = 0.32838686407473338694 + 0.37871811415717502117j  # k0=2+0.05j, r=0.7


class TestProblemConfig:
    def test_valid(self):
        cfg = ProblemConfig(K0, 1.0, 1 - 1j, np.pi / 3)
        assert cfg.k_star == pytest.approx(K0 * 0.5)

    @pytest.mark.parametrize("kwargs", [
        dict(k0=2 - 0.1j, a=1.0, eta=1 - 1j, theta_in=1.0),   # Im k0 < 0
        dict(k0=K0, a=1.0, eta=1 + 1j, theta_in=1.0),         # Im eta > 0
        dict(k0=K0, a=-1.0, eta=1 - 1j, theta_in=1.0),        # a <= 0
        dict(k0=K0, a=1.0, eta=1 - 1j, theta_in=2.5),         # theta out of range
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ProblemConfig(**kwargs)


class TestKStar:
    def test_grazing(self):
        assert ProblemConfig(K0, 1.0, 1 - 1j, np.pi / 2).k_star == pytest.approx(0.0)

    def test_normal_to_axis(self):
        assert ProblemConfig(K0, 1.0, 1 - 1j, 0.0).k_star == pytest.approx(K0)

    def test_sixty_degrees(self):
        k0 = 5 + 0.05j
        assert ProblemConfig(k0, 1.0, 1 - 1j, np.pi / 3).k_star == pytest.approx(k0 / 2)

    def test_upper_half_plane(self):
        for t in np.linspace(0, np.pi / 2, 7):
            assert ProblemConfig(K0, 1.0, 1 - 1j, t).k_star.imag >= 0


class TestXi:
    def test_value_at_origin(self):
        assert xi(0.0, k0=K0) == pytest.approx(K0, rel=1e-14)

    @given(st.floats(1e-3, 1e3), st.floats(0.0, 1e3))
    @example(K0.real, K0.imag)
    def test_branch_points_exact_zero(self, k0_re, k0_im):
        k0 = complex(k0_re, k0_im)
        for mode in BranchMode:
            assert xi(k0, mode, k0=k0) == 0, mode
            assert xi(-k0, mode, k0=k0) == 0, mode
            assert np.all(xi(np.array([k0, -k0]), mode, k0=k0) == 0), mode

    def test_near_positive_real_inside(self):
        v = xi(np.linspace(-1.8, 1.8, 11), k0=K0)
        assert np.all(v.real > 0)
        assert np.all(np.abs(v.imag) < 0.2 * np.abs(v.real))

    def test_near_positive_imag_outside(self):
        v = xi(np.array([-8.0, 5.0, 30.0]), k0=K0)
        assert np.all(v.imag > 0)
        assert np.all(np.abs(v.real) < 0.2 * np.abs(v.imag))

    def test_defining_relation(self):
        rng = np.random.default_rng(3)
        k = rng.normal(size=40) + 1j * rng.normal(size=40)
        v = xi(k, k0=K0)
        assert np.max(np.abs(v * v + k * k - K0 * K0)) < 1e-12

    def test_even_on_real_axis(self):
        for k in (0.3, 1.1, 2.7, 9.0):
            assert xi(k, k0=K0) == pytest.approx(xi(-k, k0=K0), rel=1e-14)

    def test_second_sheet_negates(self):
        rng = np.random.default_rng(4)
        k = rng.normal(size=20) + 1j * rng.normal(size=20)
        v1 = xi(k, k0=K0)
        v2 = xi(k, BranchMode.SECOND_SHEET, k0=K0)
        assert np.max(np.abs(v1 + v2)) == 0

    def test_shore_limits_differ_by_sign(self):
        # a point on the cut through +k0
        s = 1.3
        k = 1j * np.sqrt(s ** 2 - K0 ** 2)
        vl = xi(k, BranchMode.CONTINUED_UPPER, k0=K0)
        vr = xi(k, BranchMode.CONTINUED_LOWER, k0=K0)
        assert abs(vl + vr) < 1e-6 * abs(vl)
        assert abs(vl - vr) > abs(vl)


class TestIncidentField:
    CFG = ProblemConfig(K0, 1.0, 1 - 1j, np.pi / 3)

    def test_antisym_vanishes_on_axis(self):
        x = np.linspace(-3, 3, 13)
        assert np.max(np.abs(incident_field(self.CFG, Parity.ANTISYMMETRIC, x, 0.0))) == 0

    def test_sym_trace(self):
        x = np.linspace(-2, 2, 9)
        got = incident_field(self.CFG, Parity.SYMMETRIC, x, 0.0)
        assert np.allclose(got, np.exp(-1j * self.CFG.k_star * x), rtol=1e-14)

    def test_parity_in_y(self):
        x, y = 0.4, 0.9
        ua = incident_field(self.CFG, Parity.ANTISYMMETRIC, x, y)
        us = incident_field(self.CFG, Parity.SYMMETRIC, x, y)
        assert incident_field(self.CFG, Parity.ANTISYMMETRIC, x, -y) == pytest.approx(-ua)
        assert incident_field(self.CFG, Parity.SYMMETRIC, x, -y) == pytest.approx(us)

    def test_sum_restores_plane_wave(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x, y = rng.normal(), rng.normal()
            tot = (incident_field(self.CFG, Parity.ANTISYMMETRIC, x, y)
                   + incident_field(self.CFG, Parity.SYMMETRIC, x, y))
            k0 = self.CFG.k0
            ref = np.exp(-1j * k0 * (x * np.cos(self.CFG.theta_in)
                                     + y * np.sin(self.CFG.theta_in)))
            assert tot == pytest.approx(ref, rel=1e-13)


def single_kernel(k0, r):
    """(i/4) H0(k0 r) from the split P_s ln r + Q_s of stripscat.kernels."""
    r = np.asarray(r, dtype=float)
    p, q = kn.kernels(k0, r * r)[2:]
    return p * np.log(r) + q


def hyper_kernel(k0, r):
    """(i k0/4) H1(k0 r)/r from the split 1/(2 pi r^2) + P_a ln r + Q_a."""
    r = np.asarray(r, dtype=float)
    p, q = kn.kernels(k0, r * r)[:2]
    return 1 / (2 * np.pi * r * r) + p * np.log(r) + q


class TestGreenKernels:
    """The kernel splits the solvers expand reproduce the free-space kernels."""

    def test_reference_values(self):
        for r, ref in G_REF.items():
            assert single_kernel(1.0, r) == pytest.approx(ref, rel=1e-12)

    def test_complex_argument_reference(self):
        ref = -0.11386413792463552402 + 0.053224598563625973429j  # (i/4)H0(2+0.1j)
        assert single_kernel(2 + 0.1j, 1.0) == pytest.approx(ref, rel=1e-12)

    def test_hypersingular_reference(self):
        assert hyper_kernel(K0, 0.7) == pytest.approx(K_HYPER_REF_07, rel=1e-12)

    def test_small_argument_log_behavior(self):
        r = np.array([1e-7, 2e-7])
        g = single_kernel(1.0, r)
        diff = g[1] - g[0]
        assert diff == pytest.approx(-np.log(2.0) / (2 * np.pi), rel=1e-5)

    def test_radial_helmholtz_fd(self):
        # (1/r)(r u')' + k0^2 u = 0 away from the source
        k0, r, h = 1.3, 0.8, 1e-4
        u = lambda rr: single_kernel(k0, rr)
        lap = (u(r + h) - 2 * u(r) + u(r - h)) / h ** 2 + (u(r + h) - u(r - h)) / (2 * h * r)
        assert abs(lap + k0 ** 2 * u(r)) < 1e-6 * abs(k0 ** 2 * u(r))
