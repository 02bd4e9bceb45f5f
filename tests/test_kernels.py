"""Kernel split consistency: singular decompositions reproduce the Hankel kernels."""

import numpy as np
import pytest

from stripscat import kernels as kn

K0S = [2 + 0.05j, 2 + 1e-4j, 6.0 + 0.3j]


@pytest.mark.parametrize("k0", K0S)
def test_hypersingular_split(k0):
    r = np.array([0.05, 0.3, 1.0, 1.7, 2.0])
    lhs = kn.hyper_kernel(k0, r)
    rhs = 1 / (2 * np.pi * r ** 2) + kn.p_antisym(k0, r * r) * np.log(r) \
        + kn.q_antisym(k0, r * r)
    assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 5e-13


@pytest.mark.parametrize("k0", K0S)
def test_single_layer_split(k0):
    r = np.array([0.05, 0.3, 1.0, 1.7, 2.0])
    lhs = kn.single_kernel(k0, r)
    rhs = kn.p_sym(k0, r * r) * np.log(r) + kn.q_sym(k0, r * r)
    assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) < 5e-13


def test_series_direct_agreement_at_crossover():
    # at |k0 r| just inside Z_SWITCH the public function takes the series
    # branch; the direct (Hankel-minus-singular) form must agree there
    k0 = 2 + 0.05j
    r = kn.Z_SWITCH / abs(k0) * (1 - 1e-9)
    rho = np.array([r * r])
    qa_series = kn.q_antisym(k0, rho)[0]
    qa_direct = (kn.hyper_kernel(k0, np.array([r]))[0] - 1 / (2 * np.pi * r * r)
                 - kn.p_antisym(k0, rho)[0] * np.log(r))
    assert abs(qa_series - qa_direct) < 1e-12 * abs(qa_series)

    qs_series = kn.q_sym(k0, rho)[0]
    qs_direct = kn.single_kernel(k0, np.array([r]))[0] - kn.p_sym(k0, rho)[0] * np.log(r)
    assert abs(qs_series - qs_direct) < 1e-12 * abs(qs_series)


def test_q_at_zero_is_finite_limit():
    k0 = 2 + 0.05j
    q0 = kn.q_antisym(k0, np.array([0.0]))[0]
    qeps = kn.q_antisym(k0, np.array([1e-20]))[0]
    assert q0 == pytest.approx(qeps, rel=1e-14)


def test_expansion_tail_is_negligible(ref_cfg):
    ker = kn.kernel_expansion(ref_cfg.k0, ref_cfg.a, True, kn.kernel_order(ref_cfg.k0, ref_cfg.a))
    assert ker.tail_mass() < 1e-14


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
        - kn.p_antisym(k0, np.where(small, 1.0, rho)) * np.log(r)
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
    direct = 0.25j * kn.hankel1(0, k0 * r) - kn.p_sym(k0, np.where(small, 1.0, rho)) * np.log(r)
    return np.where(small, ser, direct)


# |k0| a up to 8.5 keeps the grid below 16384 points; see the bound below.
# The orders are even but for one: Np = N + 6 is odd for odd N
@pytest.mark.parametrize("k0a, extra", [(0.01, 0), (2.0, 0), (2.0, 1), (8.5, 0), (16.0, 0)],
                         ids=["0.01", "2.0", "2.0-odd", "8.5", "16.0"])
@pytest.mark.parametrize("antisym", [True, False])
def test_expansion_equals_full_grid_evaluation(k0a, extra, antisym):
    from stripscat.chebkit import cheb_coeffs_2d
    k0, a = k0a * np.exp(0.025j) / 1.3, 1.3
    order = kn.kernel_order(k0, a) + extra
    pfun = kn.p_antisym if antisym else kn.p_sym
    qfun = _q_antisym_both_branches if antisym else _q_sym_both_branches
    pi_ref = cheb_coeffs_2d(lambda S, T: pfun(k0, a * a * (S - T) ** 2), order)
    q_ref = cheb_coeffs_2d(lambda S, T: qfun(k0, a * a * (S - T) ** 2), order)
    ker = kn.KernelExpansion(k0, a, antisym, order)
    assert np.array_equal(ker.pi_hat, pi_ref)
    if order ** 2 < 16384:
        assert np.array_equal(ker.q_hat, q_ref)
    else:
        # from 16384 complex points (256 KiB) NumPy evaluates `term * (-z2q)`
        # of the whole-grid series in place in the temporary, a loop that
        # rounds some products differently in the last bit
        assert np.max(np.abs(ker.q_hat - q_ref)) <= 1e-15 * np.max(np.abs(q_ref))
