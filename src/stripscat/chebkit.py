"""Chebyshev polynomial machinery shared by the solvers and spectral layer.

Conventions on the reference interval [-1, 1], weight w(s) = 1 - s^2:

* second kind:  int sqrt(w) U_m U_n ds = (pi/2) delta_mn
* first kind:   int T_m T_n / sqrt(w) ds = (pi/2) delta_mn (1 + delta_m0)
* log kernel:   ln|s-t| = -ln 2 - 2 sum_{r>=1} T_r(s) T_r(t)/r
* Fourier images: Jacobi-Anger, e^{izs} = sum_m eps_m i^m J_m(z) T_m(s)
  (eps_0 = 1, else 2; DLMF 10.12.3), makes int f_n(s) e^{izs} ds the row
  eps_m i^m J_m(z), cut at m = |z| + 48 where J_m(z) is below roundoff,
  times the family's moments int f_n T_m ds: W^T for sqrt(w) U_n, giving
  (pi/2) i^n (J_n + J_{n+2}) = pi i^n (n+1) J_{n+1}(z)/z; C3 for T_n; V for
  T_n/sqrt(w), giving pi i^n J_n(z).

All "closed-form" matrices below are exact rational/pi expressions derived
from these identities; they carry the singular (hypersingular / log) parts
of the layer operators so that only entire kernels are ever quadratured.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.fft import dct
from scipy.special import jv


# ---------------------------------------------------------------------------
# nodes and polynomial evaluation
# ---------------------------------------------------------------------------
def gauss_cheb2(n: int):
    """Nodes/weights for int_{-1}^{1} sqrt(1-s^2) f(s) ds."""
    j = np.arange(1, n + 1)
    s = np.cos(j * np.pi / (n + 1))
    w = (np.pi / (n + 1)) * np.sin(j * np.pi / (n + 1)) ** 2
    return s, w


def eval_series(coef: np.ndarray, s, kind: str):
    """sum_n coef[n] U_n(s) (kind "U") or T_n(s) (kind "T") by the three-term
    recurrence.

    U_n(s) and T_n(s) are real for real s, so the recurrence runs in real
    arithmetic and the real and imaginary parts of the coefficients are
    accumulated apart, side by side in one array.  The result is bitwise the
    complex recurrence's: c (x + 0j) = c.real x + i c.imag x exactly.
    """
    s = np.asarray(s, dtype=float)
    c = np.asarray(coef, dtype=complex)
    parts = np.stack([c.real, c.imag], axis=1).reshape((len(c), 2) + (1,) * s.ndim)
    acc = np.zeros((2,) + s.shape)
    s2 = 2 * s
    prev, cur = np.ones_like(s), (s2 if kind == "U" else s)
    for n in range(len(c)):
        if n >= 2:
            prev, cur = cur, s2 * cur - prev
        acc += parts[n] * (prev if n == 0 else cur)
    out = np.empty(s.shape, dtype=complex)
    out.real, out.imag = acc
    return out


# ---------------------------------------------------------------------------
# Fourier images of the weighted bases
# ---------------------------------------------------------------------------
def i_pow(n) -> np.ndarray:
    """i^n for integer n, exact.  Python's 1j ** n and NumPy's complex power
    stop multiplying by repeated squaring past n = 100 and are off by up to
    1e-13 relative near n = 1000."""
    return np.array([1, 1j, -1, -1j])[np.asarray(n) % 4]


def plain_t_moments(n: int) -> np.ndarray:
    """J[j] = int_{-1}^{1} T_j(s) ds for j < n: 2/(1 - j^2) at even j, 0 at odd j."""
    J = np.zeros(n)
    j = np.arange(0, n, 2)
    J[::2] = 2.0 / (1 - j * j)
    return J


def fourier_images(families, z) -> list:
    """[F for (kind, nmax) in families], F[i, n] = int f_n(s) e^{i z_i s} ds,
    n < nmax, for the family f_n of `kind`: "U" sqrt(w) U_n, "T" T_n,
    "V" T_n/sqrt(w).

    One Jacobi-Anger row eps_m i^m J_m(z_i), m <= max|z| + 48, serves every
    family: it is multiplied by each family's T-moments (the module
    docstring)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    mmax = int(np.max(np.abs(z))) + 48
    m = np.arange(mmax + 1)
    row = jv(m[None, :], z[:, None]) * (np.where(m == 0, 1.0, 2.0) * i_pow(m))
    return [row @ (w_matrix(nmax, mmax + 1).T if kind == "U" else
                   c3_matrix(mmax + 1, nmax) if kind == "T" else v_matrix(mmax + 1, nmax))
            for kind, nmax in families]


def fourier_image(kind: str, nmax: int, z) -> np.ndarray:
    """The one-family case of `fourier_images`."""
    return fourier_images([(kind, nmax)], z)[0]


# ---------------------------------------------------------------------------
# closed-form coupling matrices
# ---------------------------------------------------------------------------
def w_matrix(nrow: int, ncol: int) -> np.ndarray:
    """W[m, p] = int sqrt(w) U_m T_p ds = (pi/4)[(1+d_p0) d_mp - d_{m+2,p}]."""
    return (np.pi / 4) * (np.eye(nrow, ncol) * np.where(np.arange(ncol) == 0, 2.0, 1.0)
                          - np.eye(nrow, ncol, 2))


def v_matrix(nrow: int, ncol: int) -> np.ndarray:
    """V[m, p] = int T_m T_p / sqrt(w) ds = (pi/2)(1+d_m0) d_mp."""
    return np.eye(nrow, ncol) * np.where(np.arange(ncol) == 0, np.pi, np.pi / 2)


def c3_matrix(nrow: int, ncol: int) -> np.ndarray:
    """C3[p, n] = int_{-1}^{1} T_p T_n ds = (J(p+n) + J(|p-n|))/2."""
    J = plain_t_moments(nrow + ncol + 1)
    p = np.arange(nrow)[:, None]
    n = np.arange(ncol)[None, :]
    return 0.5 * (J[p + n] + J[np.abs(p - n)])


def mass2_matrix(nrow: int, ncol: int) -> np.ndarray:
    """M[m, n] = int_{-1}^{1} (1-s^2) U_m U_n ds = (J(|m-n|) - J(m+n+2))/2, rectangular."""
    J = plain_t_moments(nrow + ncol + 1)
    m = np.arange(nrow)[:, None]
    n = np.arange(ncol)[None, :]
    return 0.5 * (J[np.abs(m - n)] - J[m + n + 2])


# ---------------------------------------------------------------------------
# Chebyshev coefficient extraction (DCT on the roots grid)
# ---------------------------------------------------------------------------
def cheb_coeffs_2d(f, M: int) -> np.ndarray:
    """C[p, q] with f(s, t) ~ sum C[p,q] T_p(s) T_q(t), roots grid of size M.

    f may return a stack of grids (shape (..., M, M)); each gets its C.  The
    transforms overwrite f's result, so f returns a new array."""
    # the roots, exactly antisymmetric: s[M-1-i] = -s[i], 0 in the middle of an odd M
    h = np.cos((2 * np.arange(M // 2) + 1) * np.pi / (2 * M))
    s = np.concatenate([h, np.zeros(M % 2), -h[::-1]])
    S, T = np.meshgrid(s, s, indexing="ij")
    F = np.asarray(f(S, T), dtype=complex)
    C = dct(dct(F, type=2, axis=-2, overwrite_x=True), type=2, axis=-1, overwrite_x=True)
    C /= M * M
    C[..., 0, :] *= 0.5
    C[..., :, 0] *= 0.5
    return C


# ---------------------------------------------------------------------------
# edge-log expansions
# ---------------------------------------------------------------------------
def edge_log_t_coeffs(nmax: int) -> np.ndarray:
    """T-coefficients of (1-s) ln(1-s) on [-1, 1] (exact).

    From ln(1-s) = -ln2 - 2 sum_r T_r/r and (1-s)T_r = T_r - (T_{r+1}+T_{|r-1|})/2:
    b_0 = 1 - ln2, b_1 = ln2 - 3/2 and b_j = 1/(j-1) - 2/j + 1/(j+1) =
    2/(j(j^2-1)) for j >= 2, so the coefficients decay like 2/j^3.  The
    mirror function (1+s)ln(1+s) has coefficients (-1)^j times these.
    """
    j = np.arange(2, nmax)
    head = [1.0 - np.log(2), (np.log(2) - 2.0) + 0.5]
    return np.concatenate([head, (1 / (j - 1) - 2 / j) + 1 / (j + 1)])[:nmax]


def _alt_harmonic_tail(m: int) -> float:
    """T(m) = sum_{j>=m} (-1)^j / j (exact, via digamma)."""
    from scipy.special import psi
    return (-1.0) ** m * 0.5 * (psi((m + 1) / 2.0) - psi(m / 2.0))


def edge_log_tail_sum(kind: str, n_from: int, alternating: bool) -> float:
    """sum_{n>=n_from} (+-1)^n f_n(1) e_n: the value at s = 1 (plain) or
    s = -1 (alternating) of the tail beyond n_from >= 2 of the expansion e_n
    of (1-s)ln(1-s) in the family f_n of `kind`, T_n (f_n(1) = 1) or U_n
    (f_n(1) = n+1).  It completes edge values of densities that fold the
    edge-log expansion into a truncated coefficient vector.  For n >= 2,
    e_n = 2/(n(n^2-1)) = 1/(n-1) - 2/n + 1/(n+1) (T) and (n+1) e_n =
    1/(n(n-1)) - 1/((n+2)(n+3)) (U): the plain sums telescope, and the
    alternating ones are digamma tails."""
    n, h = max(int(n_from), 2), _alt_harmonic_tail
    if kind == "T":
        return -h(n - 1) - 2 * h(n) - h(n + 1) if alternating else 1.0 / (n * (n - 1))
    if alternating:
        return (-h(n - 1) - h(n)) - (h(n + 2) + h(n + 3))
    return 1.0 / (n - 1) - 1.0 / (n + 2)


# ---------------------------------------------------------------------------
# Gauss-Legendre panels
# ---------------------------------------------------------------------------
@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1]: (nodes, weights), computed
    once per n and returned read-only.  The package's one source of the rule."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def panels(breaks, n: int):
    """Gauss-Legendre rule with n nodes on each panel [breaks[i], breaks[i+1]].

    Returns (nodes, weights), panel after panel.
    """
    xg, wg = gauss_legendre(n)
    b = np.asarray(breaks, dtype=float)
    lo, hi = b[:-1, None], b[1:, None]
    return (lo + (xg + 1) / 2 * (hi - lo)).ravel(), (wg * (hi - lo) / 2).ravel()


def graded_panels(lo: float, hi: float, points, n: int, widest: float = np.inf):
    """Gauss-Legendre rule with n nodes a panel on [lo, hi], graded toward
    the points (c, h), h > 0: the package's one graded layout.

    The breaks are lo, hi, and for each (c, h) the point c itself and
    c -+ h 2^j while h 2^j < min(hi - lo, widest).  A break within 1e-12 of
    an end or of the previous break is dropped, so every break lies in
    [lo, hi].  A gap still wider than `widest` is then split into equal
    panels.  Returns (nodes, weights), panel after panel.
    """
    tol = 1e-12
    top = min(hi - lo, widest)
    inner_lo, inner_hi = lo + tol, hi - tol
    breaks = {lo, hi}
    for c, h in points:
        cand = [c]
        t = h
        while t < top:
            cand += (c - t, c + t)
            t *= 2.0
        breaks.update(x for x in cand if inner_lo < x < inner_hi)
    b = sorted(breaks)
    # plain floats: NumPy's per-call cost outweighs these few dozen breaks
    b = b[:1] + [y for x, y in zip(b, b[1:]) if y - x > tol]
    if widest < np.inf:
        b = np.concatenate([b[:1]] + [np.linspace(x0, x1, int(np.ceil((x1 - x0) / widest)) + 1)[1:]
                              for x0, x1 in zip(b, b[1:])])
    return panels(b, n)
