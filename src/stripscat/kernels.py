"""Singularity splits of the layer kernels.

Both layer kernels are decomposed, with rho = r^2, as

    hypersingular:  (i k0/4) H1(k0 r)/r = 1/(2 pi r^2) + P_a(rho) ln r + Q_a(rho)
    single layer:   (i/4) H0(k0 r)      =                P_s(rho) ln r + Q_s(rho)

with P_*, Q_* entire functions of rho.  The singular pieces act on the
Chebyshev bases in closed form (see chebkit); P and Q are expanded in a
bivariate Chebyshev series on the strip square and never quadratured near
their (removable) diagonal.

Q is evaluated by its power series for |k0 r| <= Z_SWITCH and from the
Hankel function directly above (where the subtraction of the singular
parts is benign); the two paths agree to ~1e-13 at the switch radius.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import hankel1, jv

from .chebkit import cheb_coeffs_2d

EULER_GAMMA = 0.5772156649015328606
Z_SWITCH = 6.0
_NTERMS = 42


class _Memos(dict):
    """The package's memoized builders by name.  `clear()` empties every memo
    and keeps the registry: perfbench/worker.py empties the module dicts
    named *CACHE* before each pass, so each pass starts as cold as a fresh
    process."""

    def clear(self):
        for cached in self.values():
            cached.cache_clear()


MEMO_CACHE = _Memos()


def memo(fn):
    """fn behind `functools.lru_cache(maxsize=32)`, listed in MEMO_CACHE."""
    MEMO_CACHE[f"{fn.__module__}.{fn.__qualname__}"] = cached = lru_cache(maxsize=32)(fn)
    return cached


def _harmonic(n: int) -> float:
    return sum(1.0 / i for i in range(1, n + 1))


def p_antisym(k0: complex, rho: np.ndarray) -> np.ndarray:
    """Coefficient of ln r in the hypersingular kernel: -(k0/(2 pi)) J1(k0 r)/r."""
    rho = np.asarray(rho, dtype=complex)
    z = k0 * np.sqrt(rho)
    small = np.abs(z) < 1e-6
    zs = np.where(small, 1.0, z)
    ratio = np.where(small, 0.5 - (z * z) / 16.0, jv(1, zs) / zs)
    return -(k0 * k0 / (2 * np.pi)) * ratio


def q_antisym(k0: complex, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Smooth part of the hypersingular kernel; `p` is p_antisym(k0, rho),
    which the direct branch needs and the caller has already evaluated."""
    rho = np.asarray(rho, dtype=complex)
    out = np.empty(rho.shape, dtype=complex)
    small = np.abs((k0 * k0 / 4.0) * rho) <= (Z_SWITCH / 2.0) ** 2

    # series branch
    z2q = (k0 * k0 / 4.0) * rho[small]
    s1 = np.zeros_like(z2q)
    s2 = np.zeros_like(z2q)
    term = np.ones_like(z2q)
    for j in range(_NTERMS):
        psum = -2.0 * EULER_GAMMA + _harmonic(j) + _harmonic(j + 1)
        s1 += term
        s2 += term * psum
        term = term * (-z2q) / ((j + 1) * (j + 2))
    c0 = 1j * k0 * k0 / 8.0 - (k0 * k0 / (4 * np.pi)) * np.log(k0 / 2.0)
    out[small] = c0 * s1 + (k0 * k0 / (8 * np.pi)) * s2

    # direct branch
    big = rho[~small]
    r = np.sqrt(big)
    out[~small] = (1j * k0 / 4.0) * hankel1(1, k0 * r) / r - 1.0 / (2 * np.pi * r * r) \
        - np.asarray(p)[~small] * np.log(r)
    return out


def p_sym(k0: complex, rho: np.ndarray) -> np.ndarray:
    """Coefficient of ln r in the single-layer kernel: -(1/(2 pi)) J0(k0 r)."""
    rho = np.asarray(rho, dtype=complex)
    return -jv(0, k0 * np.sqrt(rho)) / (2 * np.pi)


def q_sym(k0: complex, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Smooth part of the single-layer kernel; `p` is p_sym(k0, rho), which
    the direct branch needs and the caller has already evaluated."""
    rho = np.asarray(rho, dtype=complex)
    out = np.empty(rho.shape, dtype=complex)
    small = np.abs((k0 * k0 / 4.0) * rho) <= (Z_SWITCH / 2.0) ** 2

    z2q = (k0 * k0 / 4.0) * rho[small]
    s1 = np.zeros_like(z2q)
    s2 = np.zeros_like(z2q)
    term = np.ones_like(z2q)
    for j in range(_NTERMS):
        s1 += term
        term = term * (-z2q) / ((j + 1) * (j + 1))
    term = np.ones_like(z2q)
    for j in range(1, _NTERMS):
        term = term * (-z2q) / (j * j)
        s2 += -term * _harmonic(j)          # (-1)^{j+1} H_j z2q^j / (j!)^2
    c0 = 0.25j - (np.log(k0 / 2.0) + EULER_GAMMA) / (2 * np.pi)
    out[small] = c0 * s1 - s2 / (2 * np.pi)

    big = rho[~small]
    r = np.sqrt(big)
    out[~small] = 0.25j * hankel1(0, k0 * r) - np.asarray(p)[~small] * np.log(r)
    return out


def _symmetric_grid(pfun, qfun, k0: complex, a: float):
    """f(S, T) = [P, Q](a^2 (S - T)^2) on the roots grid, stacked, evaluated
    on the quarter i <= j, i + j <= M - 1 and copied to its three images: the
    grid is exactly antisymmetric, s[M-1-i] = -s[i], so (s_i - s_j)^2 is
    exactly invariant under i <-> j and (i, j) -> (M-1-i, M-1-j).  Q's direct
    branch takes the P values of the same points."""
    def f(S, T):
        M = S.shape[0]
        i, j = np.triu_indices(M)
        i, j = i[i + j <= M - 1], j[i + j <= M - 1]
        rho = a * a * (S[i, j] - T[i, j]) ** 2
        p = pfun(k0, rho)
        F = np.empty((2,) + S.shape, dtype=complex)
        F[:, i, j] = F[:, j, i] = p, qfun(k0, rho, p)
        F[:, M - 1 - i, M - 1 - j] = F[:, M - 1 - j, M - 1 - i] = F[:, i, j]
        return F
    return f


class KernelExpansion:
    """Bivariate Chebyshev data of the P/Q kernel factors on the strip square.

    For the scaled variables s = x/a, t = x'/a the factors P(a^2 (s-t)^2)
    and Q(a^2 (s-t)^2) are entire; `pi_hat` and `q_hat` are their T_p(s)T_q(t)
    coefficient matrices on a roots grid of size `order`.
    """

    def __init__(self, k0: complex, a: float, parity_antisym: bool, order: int):
        self.k0 = k0
        self.a = a
        self.order = order
        funs = (p_antisym, q_antisym) if parity_antisym else (p_sym, q_sym)
        self.pi_hat, self.q_hat = cheb_coeffs_2d(_symmetric_grid(*funs, k0, a), order)

    def tail_mass(self) -> float:
        """Relative magnitude of the trailing coefficient block (resolution check)."""
        m = self.order
        tail = max(np.max(np.abs(self.pi_hat[m - 4:, :])), np.max(np.abs(self.pi_hat[:, m - 4:])),
                   np.max(np.abs(self.q_hat[m - 4:, :])), np.max(np.abs(self.q_hat[:, m - 4:])))
        base = max(np.max(np.abs(self.pi_hat)), np.max(np.abs(self.q_hat)))
        return float(tail / base)


def kernel_order(k0: complex, a: float) -> int:
    """DCT resolution adequate for the entire kernel factors (type ~ 2 k0 a)."""
    return int(max(72, 24 + 10 * np.ceil(abs(k0) * a)))


@memo
def kernel_expansion(k0: complex, a: float, parity_antisym: bool, order: int) -> KernelExpansion:
    """Memoized KernelExpansion (the DCTs are reused heavily downstream)."""
    return KernelExpansion(k0, a, parity_antisym, order)
