"""Identity checks for the Chebyshev toolkit against frozen quadrature oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stripscat import chebkit as ck

# int sqrt(1-s^2) U_n(s) e^{izs} ds, 30-digit quadrature, frozen
U_TRANSFORM_REF = {
    (0, 0.5): 1.52221761365582712 + 0.0j,
    (1, 2.0): 0.0 + 1.10846079223537834j,
    (3, 2.0): 0.0 - 0.213601407201908024j,
    (6, 10.0): -0.476572198866442167 + 0.0j,
    (2, 1.0 + 0.3j): -0.172867395164669883 - 0.104795561697161559j,
}
# int T_n(s) e^{izs}/sqrt(1-s^2) ds
T_TRANSFORM_REF = {
    (0, 0.7): 2.7683742379858222 + 0.0j,
    (4, 3.0): 0.414797622240285295 + 0.0j,
    (1, 0.5 + 0.2j): -0.286626918768878116 + 0.77251674991768886j,
}
# int T_n(s) e^{izs} ds (plain)
P_TRANSFORM_REF = {
    (2, 1.5): -0.782929194993112767 + 0.0j,
    (5, 4.0): 0.0 + 0.584718996542596799j,
}
# int ln|s - t| T_n(t) dt
LAM_PLAIN_REF = {
    (0, 0.37): -1.859791625964986,
    (1, 0.37): -0.705247977366861,
    (2, 0.37): 1.160897095376237,
    (5, 0.37): -0.562916919333486,
    (0, 1.20): 0.056493775288214,
    (1, 1.20): -0.672463039984359,
    (2, 1.20): -0.205883233515490,
    (5, 1.20): 0.121894030238419,
}


def test_u_transform():
    for (n, z), ref in U_TRANSFORM_REF.items():
        F = ck.u_transform_matrix(n + 1, np.array([z]))
        assert F[0, n] == pytest.approx(ref, abs=1e-14 + 1e-13 * abs(ref))


def test_u_transform_zero_limit():
    F = ck.u_transform_matrix(3, np.array([0.0]))
    assert F[0, 0] == pytest.approx(np.pi / 2)
    assert abs(F[0, 1]) == 0
    assert abs(F[0, 2]) == 0


def _bessel_ratio_scalar(n, z):
    """Reference: the one-order form J_{n+1}(z)/z that `bessel_ratio` broadcasts."""
    from scipy.special import jv
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-8
    zsafe = np.where(small, 1.0, z)
    out = jv(n + 1, zsafe) / zsafe
    return np.where(small, 0.5 if n == 0 else 0.0, out)


def test_bessel_ratio_broadcasts_orders():
    # one broadcast jv call: bitwise the per-order loop, the z -> 0 limit included
    z = np.array([0.0, 1e-9, 0.3, 2 + 0.05j, -16.0 + 0.4j, 40 - 0.2j])
    n = np.arange(200)
    ref = np.stack([_bessel_ratio_scalar(k, z) for k in n], axis=1)
    assert np.array_equal(ck.bessel_ratio(n, z[:, None]), ref)


def test_transform_phases_exact(monkeypatch):
    # with a real J_m(z) (jv of a complex argument is off by ~1e-14 in its
    # imaginary part at real z) both transforms are i^n times a real number,
    # exactly; 1j ** n and NumPy's complex power drift from i^n by 1e-15..1e-13
    from scipy.special import jv
    monkeypatch.setattr(ck, "jv", lambda v, z: jv(v, np.real(z)) + 0j)
    n = np.arange(1101)
    phase = np.array([1, 1j, -1, -1j])[n % 4]
    z = np.array([1150.0])
    F = ck.u_transform_matrix(len(n), z)[0]
    E = ck.plain_t_transform_matrix(len(n), z)[0]
    for G in (F, E):
        assert np.all(G != 0)
        assert np.array_equal((G * phase.conj()).imag, np.zeros(len(n)))
    mag = np.pi * (n + 1) * jv(n + 1, z[0]) / z[0]
    assert np.allclose((F * phase.conj()).real, mag, rtol=1e-12, atol=0)


def test_t_weighted_transform():
    from scipy.special import jv
    for (n, z), ref in T_TRANSFORM_REF.items():
        got = np.pi * 1j ** n * jv(n, z)
        assert got == pytest.approx(ref, rel=1e-13)


def test_plain_t_transform():
    for (n, z), ref in P_TRANSFORM_REF.items():
        E = ck.plain_t_transform_matrix(n + 1, np.array([z]))
        assert E[0, n] == pytest.approx(ref, abs=1e-13)


def _plain_t_moment(j):
    """int T_j ds, one moment (the reference for `chebkit.plain_t_moments`)."""
    return 0.0 if j % 2 == 1 else 2.0 / (1 - j * j)


def test_plain_t_transform_moment_table():
    # the moment table is c3_matrix: bitwise the per-entry double loop
    from scipy.special import jv
    z = np.array([0.3, 2 + 0.05j, 16.0, 40 - 0.2j])
    nmax = 70
    mmax = int(np.max(np.abs(z))) + 48
    m = np.arange(mmax + 1)
    C = np.zeros((mmax + 1, nmax))
    for mm in range(mmax + 1):
        for n in range(nmax):
            C[mm, n] = 0.5 * (_plain_t_moment(mm + n) + _plain_t_moment(abs(mm - n)))
    wts = np.where(m == 0, 1.0, 2.0) * (1j ** m)
    ref = (jv(m[None, :], z[:, None]) * wts[None, :]) @ C
    assert np.array_equal(ck.plain_t_transform_matrix(nmax, z), ref)


def test_log_point_plain_t():
    for (n, s), ref in LAM_PLAIN_REF.items():
        lam = ck.log_point_plain_t(n + 1, np.array([s]))
        assert lam[0, n] == pytest.approx(ref, abs=1e-12)


def test_w_matrix_against_quadrature():
    s, w = ck.gauss_cheb2(300)
    W = ck.w_matrix(5, 8)
    for m in range(5):
        um = ck.eval_series(np.eye(5)[m], s, "U")
        for p in range(8):
            tp = ck.eval_series(np.eye(8)[p], s, "T")
            assert W[m, p] == pytest.approx(np.sum(w * um * tp).real, abs=1e-12)


def test_mass2_matches_double_loop():
    # the vectorised tables (mass2, C3 and the moments) are bitwise the
    # per-entry double loops, at the operator's N = 64 shape among others
    for nrow, ncol in [(66, 192), (1, 1), (5, 300), (187, 7)]:
        mass2, c3 = np.zeros((nrow, ncol)), np.zeros((nrow, ncol))
        for m in range(nrow):
            for q in range(ncol):
                mass2[m, q] = 0.5 * (_plain_t_moment(abs(m - q)) - _plain_t_moment(m + q + 2))
                c3[m, q] = 0.5 * (_plain_t_moment(m + q) + _plain_t_moment(abs(m - q)))
        assert np.array_equal(ck.mass2_matrix(nrow, ncol), mass2)
        assert np.array_equal(ck.c3_matrix(nrow, ncol), c3)
        J = ck.plain_t_moments(nrow + ncol)
        assert np.array_equal(J, [_plain_t_moment(j) for j in range(nrow + ncol)])


def _pv_t_over_linear_loop(nmax, s):
    """`chebkit.pv_t_over_linear` with one moment per order (the reference)."""
    R = np.zeros((len(s), nmax))
    R[:, 0] = np.log(np.abs((1 - s) / (1 + s)))
    if nmax > 1:
        R[:, 1] = 2.0 + s * R[:, 0]
    for p in range(1, nmax - 1):
        R[:, p + 1] = 2 * s * R[:, p] - R[:, p - 1] + 2 * _plain_t_moment(p)
    return R


def _log_point_plain_t_loop(nmax, s):
    """`chebkit.log_point_plain_t` one column per order (the reference)."""
    R = _pv_t_over_linear_loop(nmax + 2, s)
    out = np.zeros((len(s), nmax))
    l1 = np.log(np.abs(s - 1.0))
    l2 = np.log(np.abs(s + 1.0))
    for n in range(nmax):
        if n == 0:
            out[:, 0] = l1 - (-1.0) * l2 - R[:, 1]
        elif n == 1:
            out[:, 1] = 0.5 * l1 - 0.5 * l2 - 0.25 * (R[:, 2] + R[:, 0])
        else:
            ap = 0.5 / (n + 1)
            am = 0.5 / (n - 1)
            A1 = ap - am
            Am1 = ap * (-1.0) ** (n + 1) - am * (-1.0) ** (n - 1)
            out[:, n] = A1 * l1 - Am1 * l2 - (ap * R[:, n + 1] - am * R[:, n - 1])
    return out


# points inside and outside [-1, 1]; the log terms are infinite at s = +-1
_log_points = arrays(float, st.integers(1, 8),
                     elements=st.floats(-3.0, 3.0).filter(lambda v: abs(v) != 1.0))


@settings(max_examples=60, deadline=None)
@given(nmax=st.integers(1, 300), s=_log_points)
def test_log_point_plain_t_is_the_loop(nmax, s):
    assert np.array_equal(ck.pv_t_over_linear(nmax, s), _pv_t_over_linear_loop(nmax, s))
    assert np.array_equal(ck.log_point_plain_t(nmax, s), _log_point_plain_t_loop(nmax, s))


def test_mass2_and_c3():
    xg, wg = np.polynomial.legendre.leggauss(220)
    M2 = ck.mass2_matrix(5, 7)                     # rectangular, as the operator uses it
    C3 = ck.c3_matrix(5, 5)
    for m in range(5):
        um = ck.eval_series(np.eye(5)[m], xg, "U")
        tm = ck.eval_series(np.eye(5)[m], xg, "T")
        for n in range(7):
            un = ck.eval_series(np.eye(7)[n], xg, "U")
            assert M2[m, n] == pytest.approx(
                np.sum(wg * (1 - xg ** 2) * um * un).real, abs=1e-12)
        for n in range(5):
            tn = ck.eval_series(np.eye(5)[n], xg, "T")
            assert C3[m, n] == pytest.approx(np.sum(wg * tm * tn).real, abs=1e-12)


def test_cheb2d_roundtrip():
    f = lambda S, T: np.exp(0.6 * S * T) + np.sin(S - T)
    C = ck.cheb_coeffs_2d(f, 48)
    rng = np.random.default_rng(11)
    for _ in range(6):
        s, t = rng.uniform(-1, 1, 2)
        Ts = np.cos(np.arange(48) * np.arccos(s))
        Tt = np.cos(np.arange(48) * np.arccos(t))
        assert Ts @ C @ Tt == pytest.approx(f(s, t), rel=1e-13)


@pytest.mark.parametrize("M", [1, 2, 7, 48, 72, 73, 185])
def test_cheb2d_grid_is_antisymmetric(M):
    # s[M-1-i] = -s[i] bitwise, so the kernel factors of (s - t)^2 take the
    # same values at (i, j) and (M-1-i, M-1-j)
    seen = []
    ck.cheb_coeffs_2d(lambda S, T: seen.append((S, T)) or S * T, M)
    S, T = seen[0]
    s = S[:, 0]
    assert np.array_equal(S, np.broadcast_to(s[:, None], (M, M)))
    assert np.array_equal(T, S.T)
    assert np.array_equal(s[::-1], -s)
    if M % 2:
        assert s[M // 2] == 0.0
    assert np.max(np.abs(s - np.cos((2 * np.arange(M) + 1) * np.pi / (2 * M)))) <= 1e-15


def test_edge_log_t_coeffs():
    b = ck.edge_log_t_coeffs(400)
    s = np.linspace(-0.999, 0.999, 41)
    got = ck.eval_series(b, s, "T").real
    ref = (1 - s) * np.log(1 - s)
    assert np.max(np.abs(got - ref)) < 1e-6  # truncation tail ~ 2/N^2
    # closed-form decay 2/(j(j^2-1))
    j = np.arange(10, 390)
    assert np.allclose(b[10:390], 2.0 / (j * (j ** 2 - 1)), rtol=1e-10)


def test_theta_graded_resolves_near_singularity():
    # integral of sqrt(1-t^2)/((s0-t)^2+eps^2)-type sharp feature
    s0, eps = 1.0005, 5e-4
    th, w = ck.theta_graded(s0 - 1.0)
    tau = np.cos(th)
    val = np.sum(w * np.sin(th) ** 2 / ((s0 - tau) ** 2 + eps ** 2))
    import scipy.integrate as si
    ref = si.quad(lambda t: np.sqrt(1 - t * t) / ((s0 - t) ** 2 + eps ** 2), -1, 1,
                  points=[1.0 - 5e-4], limit=400)[0]
    assert val == pytest.approx(ref, rel=1e-9)


def test_panels_match_per_panel_rule():
    # the loop every quadrature builder used before the shared helper: same bits
    breaks = [0.0, 1e-5, 3e-3, 0.25, 1.0, np.pi]
    xg, wg = np.polynomial.legendre.leggauss(7)
    nodes = np.concatenate([lo + (xg + 1) / 2 * (hi - lo) for lo, hi in zip(breaks, breaks[1:])])
    wts = np.concatenate([wg * (hi - lo) / 2 for lo, hi in zip(breaks, breaks[1:])])
    x, w = ck.panels(breaks, 7)
    assert np.array_equal(x, nodes) and np.array_equal(w, wts)
    assert np.sum(w) == pytest.approx(np.pi, rel=1e-15)


@pytest.mark.parametrize("n", [7, 16, 20, 32, 256])
def test_gauss_legendre_is_leggauss_memoized_read_only(n):
    xg, wg = ck.gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(xg, ref_x) and np.array_equal(wg, ref_w)
    again = ck.gauss_legendre(n)
    assert again[0] is xg and again[1] is wg
    for arr in (xg, wg):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _complex_recurrence(coef, s, kind):
    """The series evaluator before the real-arithmetic one: the three-term
    recurrence on complex arrays, kept as the bitwise reference."""
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape, dtype=complex)
    um2 = np.ones_like(s, dtype=complex)
    um1 = (2.0 * s if kind == "U" else s) + 0j
    for n, c in enumerate(coef):
        if n == 0:
            out += c * um2
        elif n == 1:
            out += c * um1
        else:
            un = 2 * s * um1 - um2
            out += c * un
            um2, um1 = um1, un
    return out


def _basis_long_double(nmax, s, kind):
    """T_n(s) = cos(n t) or U_n(s) = sin((n+1) t)/sin(t), s = cos(t), in long
    double, rows n < nmax.  Negative s is reflected (T_n and U_n have the
    parity of n), so t stays in [0, pi/2] where sin(t) loses no digits."""
    r = np.abs(s).astype(np.longdouble)
    t = np.arccos(r)
    n = np.arange(nmax)[:, None]
    if kind == "T":
        B = np.cos(n * t)
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            B = np.where(r == 1, n + 1, np.sin((n + 1) * t) / np.sin(t))
    return B * np.where(s < 0, (-1.0) ** n, 1.0)


def _long_double_sum(coef, B):
    """sum_n coef[n] B[n] in long double, rounded to complex128."""
    re = coef.real.astype(np.longdouble) @ B
    im = coef.imag.astype(np.longdouble) @ B
    return re.astype(float) + 1j * im.astype(float)


_coeffs = arrays(complex, st.integers(0, 300),
                 elements=st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                             allow_infinity=False))
_points = arrays(float, st.integers(1, 12), elements=st.floats(-1.0, 1.0))


class TestSeriesEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(coef=_coeffs, s=_points, kind=st.sampled_from("TU"))
    def test_bitwise_the_complex_recurrence(self, coef, s, kind):
        got = ck.eval_series(coef, s, kind)
        ref = _complex_recurrence(coef, s, kind)
        assert got.shape == ref.shape and got.dtype == complex
        assert np.array_equal(got.view(float), ref.view(float))

    @settings(max_examples=60, deadline=None)
    @given(coef=_coeffs, s=_points)
    def test_t_series_matches_chebval(self, coef, s):
        # chebval in long double: its Clenshaw sum loses up to 3e-13 of
        # sum |c_n| in double next to s = +-1 at 300 terms.  A trailing zero
        # coefficient serves the empty series, which chebval rejects.
        c = np.append(coef, 0).astype(np.clongdouble)
        ref = np.polynomial.chebyshev.chebval(s.astype(np.longdouble), c)
        err = np.max(np.abs(ck.eval_series(coef, s, "T") - ref.astype(complex)))
        assert err <= 1e-13 * np.sum(np.abs(coef))
        # and the closed form cos(n t)
        ref = _long_double_sum(coef, _basis_long_double(len(coef), s, "T"))
        err = np.max(np.abs(ck.eval_series(coef, s, "T") - ref))
        assert err <= 1e-13 * np.sum(np.abs(coef))

    @settings(max_examples=60, deadline=None)
    @given(coef=_coeffs, s=_points)
    def test_u_series_matches_closed_form(self, coef, s):
        # the forward recurrence for U_n loses digits like (n+1)^2 next to
        # s = +-1, where U_n(s) -> (+-1)^n (n+1): 1.4e-12 (n+1) at n = 299,
        # s = 1 - 2^-53.  The bound is 1e-13 per unit of |c_n| (n+1)^2.
        ref = _long_double_sum(coef, _basis_long_double(len(coef), s, "U"))
        err = np.max(np.abs(ck.eval_series(coef, s, "U") - ref))
        assert err <= 1e-13 * np.sum(np.abs(coef) * np.arange(1, len(coef) + 1) ** 2)

    def test_u_bound_is_attained_near_the_edge(self):
        # the (n+1)^2 allowance is needed: a single order-299 term at
        # s = 1 - 2^-53 is off by more than 1e-13 (n+1), inside 1e-13 (n+1)^2
        c = np.zeros(300)
        c[299] = 1.0
        s = np.array([np.nextafter(1.0, 0.0)])
        err = abs(ck.eval_series(c, s, "U")[0] - float(_basis_long_double(300, s, "U")[299, 0]))
        assert 1e-13 * 300 < err <= 1e-13 * 300 ** 2

    def test_empty_and_scalar(self):
        assert ck.eval_series([], 0.3, "U") == 0
        assert ck.eval_series(np.array([1.5 - 2j]), np.array(0.3), "T").shape == ()
