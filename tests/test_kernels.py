"""Kernel split consistency: singular decompositions reproduce the Hankel kernels."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stripscat import kernels as kn
from stripscat.core import Parity

K0S = [2 + 0.05j, 2 + 1e-4j, 6.0 + 0.3j]


def _hyper_kernel(k0, r):
    """The full hypersingular kernel (i k0/4) H1(k0 r)/r."""
    return 0.25j * k0 * kn.hankel1(1, k0 * r) / r


def _single_kernel(k0, r):
    """The full single-layer kernel (i/4) H0(k0 r)."""
    return 0.25j * kn.hankel1(0, k0 * r)


@pytest.mark.parametrize("k0", K0S)
def test_hypersingular_split(k0):
    r = np.array([0.05, 0.3, 1.0, 1.7, 2.0])
    lhs = _hyper_kernel(k0, r)
    p, q = kn.kernels(k0, r * r)[:2]
    rhs = 1 / (2 * np.pi * r ** 2) + p * np.log(r) + q
    assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 5e-13


@pytest.mark.parametrize("k0", K0S)
def test_single_layer_split(k0):
    r = np.array([0.05, 0.3, 1.0, 1.7, 2.0])
    lhs = _single_kernel(k0, r)
    p, q = kn.kernels(k0, r * r)[2:]
    rhs = p * np.log(r) + q
    assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 5e-13


def test_series_direct_agreement_at_crossover():
    # at |k0 r| just inside Z_SWITCH the public function takes the series
    # branch; the direct (Hankel-minus-singular) form must agree there
    k0 = 2 + 0.05j
    r = kn.Z_SWITCH / abs(k0) * (1 - 1e-9)
    pa, qa_series, ps, qs_series = kn.kernels(k0, np.array([r * r]))[:, 0]
    qa_direct = _hyper_kernel(k0, r) - 1 / (2 * np.pi * r * r) - pa * np.log(r)
    assert abs(qa_series - qa_direct) < 1e-12 * abs(qa_series)

    qs_direct = _single_kernel(k0, r) - ps * np.log(r)
    assert abs(qs_series - qs_direct) < 1e-12 * abs(qs_series)


def test_q_at_zero_is_finite_limit():
    k0 = 2 + 0.05j
    q0, qeps = kn.kernels(k0, np.array([0.0, 1e-20]))[1]
    assert q0 == pytest.approx(qeps, rel=1e-14)


def test_expansion_tail_is_negligible(ref_cfg):
    ker = kn.kernel_expansion(ref_cfg.k0, ref_cfg.a)
    assert max(ker.tail_mass(parity) for parity in Parity) < 1e-14


@given(st.floats(0.0, 1e3), st.floats(0.0, 1e2), st.floats(1e-3, 1e2))
def test_kernel_order_is_even(re_k0, im_k0, a):
    order = kn.kernel_order(complex(re_k0, im_k0), a)
    assert order % 2 == 0
    assert order >= 24 + 3 * abs(complex(re_k0, im_k0)) * a


# the media of the order rule's gauge, less those with |k0| a > 130 (cost)
_ORDER_MEDIA = [(k0, a) for k0 in (0.01, 0.1 + 0.005j, 2.0, 2 + 0.75j, 8.5, 16.0, 40 + 0.05j,
                                   64 + 0.05j, 128 + 0.05j)
                for a in (0.05, 1.0, 20.0) if abs(k0) * a <= 130]


@pytest.mark.parametrize("k0, a", _ORDER_MEDIA)
def test_kernel_order_resolves_the_kernels(k0, a):
    ker = kn.KernelExpansion(k0, a, kn.kernel_order(k0, a))
    assert max(ker.tail_mass(parity) for parity in Parity) <= 1e-15


def test_short_order_fails_the_tail_bound():
    # negative control: at k0 a = 16 order 40 reads 2e-12 (P) and 5e-11 (Q);
    # order 48 already passes, and kernel_order gives 72
    ker = kn.KernelExpansion(16.0, 1.0, 40)
    assert min(ker.tail_mass(parity) for parity in Parity) > 1e-15


def _p_antisym(k0, rho):
    """P of the hypersingular kernel, -(k0/(2 pi)) J1(k0 r)/r."""
    rho = np.asarray(rho, dtype=complex)
    z = k0 * np.sqrt(rho)
    small = np.abs(z) < 1e-6
    zs = np.where(small, 1.0, z)
    ratio = np.where(small, 0.5 - (z * z) / 16.0, kn.jv(1, zs) / zs)
    return -(k0 * k0 / (2 * np.pi)) * ratio


def _p_sym(k0, rho):
    """P of the single-layer kernel, -(1/(2 pi)) J0(k0 r)."""
    return -kn.jv(0, k0 * np.sqrt(np.asarray(rho, dtype=complex))) / (2 * np.pi)


def _q_antisym_both_branches(k0, rho):
    """q_antisym with both branches taken on the whole grid and picked by
    np.where (the reference for the per-mask evaluation)."""
    rho = np.asarray(rho, dtype=complex)
    z2q = (k0 * k0 / 4.0) * rho
    small = np.abs(z2q) <= (kn.Z_SWITCH / 2.0) ** 2
    s1 = np.zeros_like(z2q)
    s2 = np.zeros_like(z2q)
    term = np.ones_like(z2q)
    for j in range(kn._NTERMS):
        psum = -2.0 * kn.EULER_GAMMA + kn._harmonic(j) + kn._harmonic(j + 1)
        s1 += term
        s2 += term * psum
        term = term * (-z2q) / ((j + 1) * (j + 2))
    c0 = 1j * k0 * k0 / 8.0 - (k0 * k0 / (4 * np.pi)) * np.log(k0 / 2.0)
    ser = c0 * s1 + (k0 * k0 / (8 * np.pi)) * s2
    r = np.sqrt(np.where(small, 1.0, rho))
    direct = (1j * k0 / 4.0) * kn.hankel1(1, k0 * r) / r - 1.0 / (2 * np.pi * r * r) \
        - _p_antisym(k0, np.where(small, 1.0, rho)) * np.log(r)
    return np.where(small, ser, direct)


def _q_sym_both_branches(k0, rho):
    """q_sym in the same both-branch form."""
    rho = np.asarray(rho, dtype=complex)
    z2q = (k0 * k0 / 4.0) * rho
    small = np.abs(z2q) <= (kn.Z_SWITCH / 2.0) ** 2
    s1 = np.zeros_like(z2q)
    s2 = np.zeros_like(z2q)
    term = np.ones_like(z2q)
    for j in range(kn._NTERMS):
        s1 += term
        term = term * (-z2q) / ((j + 1) * (j + 1))
    term = np.ones_like(z2q)
    for j in range(1, kn._NTERMS):
        term = term * (-z2q) / (j * j)
        s2 += -term * kn._harmonic(j)
    c0 = 0.25j - (np.log(k0 / 2.0) + kn.EULER_GAMMA) / (2 * np.pi)
    ser = c0 * s1 - s2 / (2 * np.pi)
    r = np.sqrt(np.where(small, 1.0, rho))
    direct = 0.25j * kn.hankel1(0, k0 * r) - _p_sym(k0, np.where(small, 1.0, rho)) * np.log(r)
    return np.where(small, ser, direct)


# |k0| a up to 16 keeps the grid below 16384 points, 40 does not; see the
# bound below.  kernel_order is even; the class takes any order, so one case is odd
@pytest.mark.parametrize("k0a, extra", [(0.01, 0), (2.0, 0), (2.0, 1), (8.5, 0), (16.0, 0),
                                        (40.0, 0)],
                         ids=["0.01", "2.0", "2.0-odd", "8.5", "16.0", "40.0"])
@pytest.mark.parametrize("antisym", [True, False])
def test_expansion_equals_full_grid_evaluation(k0a, extra, antisym):
    from stripscat.chebkit import cheb_coeffs_2d
    k0, a = k0a * np.exp(0.025j) / 1.3, 1.3
    order = kn.kernel_order(k0, a) + extra
    pfun = _p_antisym if antisym else _p_sym
    qfun = _q_antisym_both_branches if antisym else _q_sym_both_branches
    pi_ref = cheb_coeffs_2d(lambda S, T: pfun(k0, a * a * (S - T) ** 2), order)
    q_ref = cheb_coeffs_2d(lambda S, T: qfun(k0, a * a * (S - T) ** 2), order)
    pi_hat, q_hat = kn.KernelExpansion(k0, a, order).hats[
        Parity.ANTISYMMETRIC if antisym else Parity.SYMMETRIC]
    assert np.array_equal(pi_hat, pi_ref)
    if order ** 2 < 16384:
        assert np.array_equal(q_hat, q_ref)
    else:
        # from 16384 complex points (256 KiB) NumPy evaluates `term * (-z2q)`
        # of the whole-grid series in place in the temporary, a loop that
        # rounds some products differently in the last bit
        assert np.max(np.abs(q_hat - q_ref)) <= 1e-15 * np.max(np.abs(q_ref))
