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


def test_u_transform():
    for (n, z), ref in U_TRANSFORM_REF.items():
        F = ck.fourier_image("U", n + 1, np.array([z]))
        assert F[0, n] == pytest.approx(ref, abs=1e-14 + 1e-13 * abs(ref))


def test_u_transform_zero_limit():
    F = ck.fourier_image("U", 3, np.array([0.0]))
    assert F[0, 0] == pytest.approx(np.pi / 2)
    assert abs(F[0, 1]) == 0
    assert abs(F[0, 2]) == 0


# the points of the closed-form comparison.  Below |z| = 1e-8 the U image
# was once cut to its z -> 0 limit, off by 5e-10 of the row at z = 1e-9
IMAGE_Z = [0.0, 1e-9, -1e-9, 5e-9, 0.3, 2 + 0.05j, 16 + 0.4j, 40 - 0.2j, 40j, -40j, -48.0]


def _image_closed_form(kind, nmax, z):
    """Reference: the image of each order n < nmax, one order at a time.

    U: pi i^n (n+1) J_{n+1}(z)/z (pi/2 at n = 0, 0 above, at z = 0);
    V: pi i^n J_n(z);
    T: the Jacobi-Anger series sum_m eps_m i^m J_m(z) int T_m T_n ds, cut at
       m = |z| + 96 and summed per order with the moments of `_plain_t_moment`.
    Below |z| = 1e-8 the Bessel values come from mpmath: scipy's J_1(1e-9)
    is off by 1.2e-15 relative, more than the bound there.
    """
    import mpmath
    from scipy.special import jv
    mcut = int(abs(z)) + 97
    m = np.arange(max(nmax + 1, mcut))
    if abs(z) < 1e-8:
        J = np.array([complex(mpmath.besselj(int(k), mpmath.mpc(z))) for k in m])
    else:
        J = jv(m, z)
    phase = np.array([1, 1j, -1, -1j])[m % 4]
    eps = np.where(m == 0, 1.0, 2.0)
    out = np.zeros(nmax, dtype=complex)
    for n in range(nmax):
        if kind == "U":
            out[n] = (np.pi / 2 if n == 0 else 0.0) if z == 0 else np.pi * phase[n] * (n + 1) * J[n + 1] / z
        elif kind == "V":
            out[n] = np.pi * phase[n] * J[n]
        else:
            mom = [0.5 * (_plain_t_moment(k + n) + _plain_t_moment(abs(k - n))) for k in range(mcut)]
            out[n] = np.sum(eps[:mcut] * phase[:mcut] * J[:mcut] * mom)
    return out


@pytest.mark.parametrize("kind", ["U", "T", "V"])
def test_fourier_image_matches_closed_forms(kind):
    nmax = 193
    F = ck.fourier_image(kind, nmax, np.array(IMAGE_Z))
    for z, row in zip(IMAGE_Z, F):
        ref = _image_closed_form(kind, nmax, complex(z))
        tol = 1e-15 if 0 < abs(z) < 1e-8 else 1e-14
        assert np.max(np.abs(row - ref)) <= tol * np.max(np.abs(ref)), z


def test_fourier_images_share_one_row(monkeypatch):
    # every family of one call is bitwise its one-family image, from one jv row
    z = np.array([0.3, 2 + 0.05j, 16.0, 40 - 0.2j])
    families = [("U", 70), ("T", 66), ("V", 9)]
    ref = [ck.fourier_image(kind, nmax, z) for kind, nmax in families]
    rows = []
    jv = ck.jv
    monkeypatch.setattr(ck, "jv", lambda v, x: rows.append(1) or jv(v, x))
    got = ck.fourier_images(families, z)
    assert len(rows) == 1
    assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def test_transform_phases_exact(monkeypatch):
    # with a real J_m(z) (jv of a complex argument is off by ~1e-14 in its
    # imaginary part at real z) both transforms are i^n times a real number,
    # exactly; 1j ** n and NumPy's complex power drift from i^n by 1e-15..1e-13
    from scipy.special import jv
    monkeypatch.setattr(ck, "jv", lambda v, z: jv(v, np.real(z)) + 0j)
    n = np.arange(1101)
    phase = np.array([1, 1j, -1, -1j])[n % 4]
    z = np.array([1150.0])
    F = ck.fourier_image("U", len(n), z)[0]
    E = ck.fourier_image("T", len(n), z)[0]
    for G in (F, E):
        assert np.all(G != 0)
        assert np.array_equal((G * phase.conj()).imag, np.zeros(len(n)))
    # near the zeros of J_{n+1} the sum J_n + J_{n+2} agrees only to its
    # absolute error, so the magnitude is held on the row's scale
    mag = np.pi * (n + 1) * jv(n + 1, z[0]) / z[0]
    assert np.max(np.abs((F * phase.conj()).real - mag)) <= 1e-12 * np.max(np.abs(mag))


def test_t_weighted_transform():
    for (n, z), ref in T_TRANSFORM_REF.items():
        got = ck.fourier_image("V", n + 1, np.array([z]))[0, n]
        assert got == pytest.approx(ref, rel=1e-13)


def test_plain_t_transform():
    for (n, z), ref in P_TRANSFORM_REF.items():
        E = ck.fourier_image("T", n + 1, np.array([z]))
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
    assert np.array_equal(ck.fourier_image("T", nmax, z), ref)


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


def _edge_log_t_coeffs_loop(nmax):
    """Reference: the T-coefficients of (1-s) ln(1-s) summed order by order
    from ln(1-s) = -ln2 - 2 sum_r T_r/r and (1-s)T_r = T_r - (T_{r+1}+T_{|r-1|})/2."""
    b = np.zeros(nmax)
    b[0] -= np.log(2)
    if nmax > 1:
        b[1] += np.log(2)
    for r in range(1, nmax + 2):
        c = -2.0 / r
        if r < nmax:
            b[r] += c
        if r + 1 < nmax:
            b[r + 1] -= c / 2
        j = abs(r - 1)
        if j < nmax:
            b[j] -= c / 2
    return b


@pytest.mark.parametrize("nmax", [1, 2, 3, 5, 67, 195, 227, 1027])
def test_edge_log_t_coeffs_closed_form_is_the_loop(nmax):
    b = ck.edge_log_t_coeffs(nmax)
    ref = _edge_log_t_coeffs_loop(nmax)
    assert b.shape == ref.shape
    assert np.array_equal(b, ref)


@pytest.mark.parametrize("kind", ["T", "U"])
@pytest.mark.parametrize("M", [2, 3, 64, 160, 192, 300])
def test_edge_log_tail_sums(kind, M):
    # the closed-form tails beyond M equal the coefficient table's partial
    # sums: tail(M) - tail(L) is the sum over M <= n < L, and tail(L) -> 0
    L = M + 5000
    b = ck.edge_log_t_coeffs(L + 3)
    n = np.arange(L)
    if kind == "T":
        e, at_one = b[:L], 1.0
    else:                       # U coefficients, from T_n = (U_n - U_{n-2})/2
        e, at_one = np.concatenate([[b[0] - b[2] / 2], 0.5 * (b[1:L] - b[3:L + 2])]), n + 1.0
    for alternating in (False, True):
        w = at_one * (-1.0) ** n if alternating else at_one
        tail = ck.edge_log_tail_sum(kind, M, alternating)
        rest = ck.edge_log_tail_sum(kind, L, alternating)
        assert tail - rest == pytest.approx(np.sum((w * e)[M:]), abs=1e-14)
        assert abs(rest) <= 1e-6


def test_graded_panels_resolve_near_singularity():
    # integral of sqrt(1-t^2)/((s0-t)^2+eps^2)-type sharp feature, on the
    # layout of the field rule beyond an edge: graded toward theta = 0 from
    # a power of two near sqrt(s0 - 1)/4
    s0, eps = 1.0005, 5e-4
    th_min = 2.0 ** np.floor(np.log2(0.25 * np.sqrt(s0 - 1.0)))
    th, w = ck.graded_panels(0.0, np.pi, [(0.0, th_min)], 20)
    tau = np.cos(th)
    val = np.sum(w * np.sin(th) ** 2 / ((s0 - tau) ** 2 + eps ** 2))
    import scipy.integrate as si
    ref = si.quad(lambda t: np.sqrt(1 - t * t) / ((s0 - t) ** 2 + eps ** 2), -1, 1,
                  points=[1.0 - 5e-4], limit=400)[0]
    assert val == pytest.approx(ref, rel=1e-9)


def test_graded_panels_layouts():
    # the breaks of the package's graded layouts, written out
    lad = 2.0 ** -np.arange(10, 0, -1)
    x, w = ck.graded_panels(-1.0, 1.0, [(-1.0, 2.0 ** -10), (1.0, 2.0 ** -10)], 24)
    ref = ck.panels(np.concatenate([[-1.0], -1 + lad, [0.0], 1 - lad[::-1], [1.0]]), 24)
    assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])
    # the ladder stops below hi - lo; the centre's break is kept
    x, w = ck.graded_panels(0.0, np.pi, [(1.0, 0.25), (0.0, 0.5)], 4)
    ref = ck.panels([0.0, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, np.pi], 4)
    assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])
    # beyond the ladder, equal panels no wider than `widest`
    x, w = ck.graded_panels(0.0, np.pi, [(0.0, 2.0 ** -5)], 16, widest=0.1)
    ref = ck.panels(np.concatenate([[0.0, 2.0 ** -5], np.linspace(2.0 ** -4, np.pi, 32)]), 16)
    assert np.array_equal(x, ref[0]) and np.array_equal(w, ref[1])
    # a width past hi - lo adds no break: the rule still ends at hi
    for h in (4.0, 16.0):
        x, w = ck.graded_panels(0.0, np.pi, [(0.0, h)], 20)
        assert np.array_equal(x, ck.panels([0.0, np.pi], 20)[0])


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-10.0, 10.0), length=st.floats(1e-3, 10.0),
       points=st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-12.0, 2.0)), max_size=3),
       n=st.integers(1, 8), widest=st.none() | st.floats(1e-3, 2.0))
def test_graded_panels_properties(lo, length, points, n, widest):
    # centres from below lo to past hi, widths 1e-12 to 100 (h >= hi - lo
    # included), relative to [lo, hi]
    hi = lo + length
    pts = [(lo + u * length, 10.0 ** e) for u, e in points]
    cap = np.inf if widest is None else widest * length
    x, w = ck.graded_panels(lo, hi, pts, n, widest=cap)
    assert np.all((lo <= x) & (x <= hi))
    assert np.sum(w) == pytest.approx(hi - lo, rel=1e-14)
    # a panel's width is a difference of breaks, each rounded on the scale of |lo|, |hi|
    slack = 4 * np.finfo(float).eps * max(abs(lo), abs(hi))
    assert np.all(np.sum(w.reshape(-1, n), axis=1) <= cap * (1 + 1e-14) + slack)


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
# coefficients of magnitude 5e-324 give errors of one subnormal ulp, while
# the relative bounds 1e-13 sum|c_n| underflow to 0
_SUBNORMAL_FLOOR = 4 * np.finfo(float).smallest_subnormal


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
        assert err <= 1e-13 * np.sum(np.abs(coef)) + _SUBNORMAL_FLOOR
        # and the closed form cos(n t)
        ref = _long_double_sum(coef, _basis_long_double(len(coef), s, "T"))
        err = np.max(np.abs(ck.eval_series(coef, s, "T") - ref))
        assert err <= 1e-13 * np.sum(np.abs(coef)) + _SUBNORMAL_FLOOR

    @settings(max_examples=60, deadline=None)
    @given(coef=_coeffs, s=_points)
    def test_u_series_matches_closed_form(self, coef, s):
        # the forward recurrence for U_n loses digits like (n+1)^2 next to
        # s = +-1, where U_n(s) -> (+-1)^n (n+1): 1.4e-12 (n+1) at n = 299,
        # s = 1 - 2^-53.  The bound is 1e-13 per unit of |c_n| (n+1)^2.
        ref = _long_double_sum(coef, _basis_long_double(len(coef), s, "U"))
        err = np.max(np.abs(ck.eval_series(coef, s, "U") - ref))
        assert err <= (1e-13 * np.sum(np.abs(coef) * np.arange(1, len(coef) + 1) ** 2)
                       + _SUBNORMAL_FLOOR)

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
