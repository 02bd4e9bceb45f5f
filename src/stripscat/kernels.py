"""Singularity splits of the layer kernels.

Both layer kernels are decomposed, with rho = r^2, as

    hypersingular:  (i k0/4) H1(k0 r)/r = 1/(2 pi r^2) + P_a(rho) ln r + Q_a(rho)
    single layer:   (i/4) H0(k0 r)      =                P_s(rho) ln r + Q_s(rho)

with P_*, Q_* entire functions of rho.  The singular pieces act on the
Chebyshev bases in closed form (see chebkit); P and Q are expanded in a
bivariate Chebyshev series on the strip square and never quadratured near
their (removable) diagonal.

Both kernels are Bessel functions of the same z = k0 r, so `kernels`
evaluates the four factors in one pass, and one `kernel_expansion` per
medium holds both parities' expansions.  Q is evaluated by its power series
for |k0 r| <= Z_SWITCH and from the Hankel function directly above (where
the subtraction of the singular parts is benign); the two paths agree to
~1e-13 at the switch radius.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import hankel1, jv

from .chebkit import cheb_coeffs_2d
from .core import Parity

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


# H_0 .. H_{_NTERMS}, the same left-to-right sums as `_harmonic`
_HARMONIC = tuple(_harmonic(j) for j in range(_NTERMS + 1))


def kernels(k0: complex, rho: np.ndarray) -> np.ndarray:
    """P and Q of both kernels at rho = r^2, stacked as (P_a, Q_a, P_s, Q_s).

    P_a = -(k0/(2 pi)) J1(k0 r)/r and P_s = -(1/(2 pi)) J0(k0 r) are the
    coefficients of ln r.  Both Q take their power series where
    |k0 r| <= Z_SWITCH and the Hankel function less the singular parts
    elsewhere, at the same z = k0 r."""
    rho = np.asarray(rho, dtype=complex)
    z = k0 * np.sqrt(rho)
    out = np.empty((4,) + rho.shape, dtype=complex)
    tiny = np.abs(z) < 1e-6
    zs = np.where(tiny, 1.0, z)
    # a named array: NumPy scales a large temporary in place, which rounds
    # some products differently in the last bit
    ratio = np.where(tiny, 0.5 - (z * z) / 16.0, jv(1, zs) / zs)
    out[0] = -(k0 * k0 / (2 * np.pi)) * ratio
    out[2] = -jv(0, z) / (2 * np.pi)
    small = np.abs((k0 * k0 / 4.0) * rho) <= (Z_SWITCH / 2.0) ** 2

    # series branch: term_a runs through (-z2q)^j / (j! (j+1)!), term_s
    # through (-z2q)^j / (j!)^2
    z2q = (k0 * k0 / 4.0) * rho[small]
    sa1, sa2, ss1, ss2 = (np.zeros_like(z2q) for _ in range(4))
    term_a = term_s = np.ones_like(z2q)
    for j in range(_NTERMS):
        sa1 += term_a
        sa2 += term_a * (-2.0 * EULER_GAMMA + _HARMONIC[j] + _HARMONIC[j + 1])
        term_a = term_a * (-z2q) / ((j + 1) * (j + 2))
        ss1 += term_s
        ss2 += -term_s * _HARMONIC[j]          # (-1)^{j+1} H_j z2q^j / (j!)^2
        term_s = term_s * (-z2q) / ((j + 1) * (j + 1))
    c0 = 1j * k0 * k0 / 8.0 - (k0 * k0 / (4 * np.pi)) * np.log(k0 / 2.0)
    out[1, small] = c0 * sa1 + (k0 * k0 / (8 * np.pi)) * sa2
    c0 = 0.25j - (np.log(k0 / 2.0) + EULER_GAMMA) / (2 * np.pi)
    out[3, small] = c0 * ss1 - ss2 / (2 * np.pi)

    # Hankel branch
    big = ~small
    r, zb = np.sqrt(rho[big]), z[big]
    lr = np.log(r)
    out[1, big] = (1j * k0 / 4.0) * hankel1(1, zb) / r - 1.0 / (2 * np.pi * r * r) \
        - out[0, big] * lr
    out[3, big] = 0.25j * hankel1(0, zb) - out[2, big] * lr
    return out


def _symmetric_grid(k0: complex, a: float):
    """f(S, T) = kernels(k0, a^2 (S - T)^2) on the roots grid, a (4, M, M)
    stack, evaluated on the quarter i <= j, i + j <= M - 1 and copied to its
    three images: the grid is exactly antisymmetric, s[M-1-i] = -s[i], so
    (s_i - s_j)^2 is exactly invariant under i <-> j and
    (i, j) -> (M-1-i, M-1-j)."""
    def f(S, T):
        M = S.shape[0]
        i, j = np.triu_indices(M)
        i, j = i[i + j <= M - 1], j[i + j <= M - 1]
        # evaluated before F exists, so its temporaries and F never coexist
        K = kernels(k0, a * a * (S[i, j] - T[i, j]) ** 2)
        F = np.empty((4,) + S.shape, dtype=complex)
        F[:, i, j] = F[:, j, i] = K
        F[:, M - 1 - i, M - 1 - j] = F[:, M - 1 - j, M - 1 - i] = K
        return F
    return f


class KernelExpansion:
    """Bivariate Chebyshev data of both kernels' P/Q factors on the strip square.

    For the scaled variables s = x/a, t = x'/a the factors P(a^2 (s-t)^2)
    and Q(a^2 (s-t)^2) are entire; `hats[parity]` holds that parity's
    kernel's (pi_hat, q_hat), their T_p(s)T_q(t) coefficient matrices on a
    roots grid of size `order`.
    """

    def __init__(self, k0: complex, a: float, order: int):
        self.order = order
        pa, qa, ps, qs = cheb_coeffs_2d(_symmetric_grid(k0, a), order)
        self.hats = {Parity.ANTISYMMETRIC: (pa, qa), Parity.SYMMETRIC: (ps, qs)}

    def tail_mass(self, parity: Parity) -> float:
        """Relative magnitude of one parity's trailing coefficient block
        (resolution check)."""
        m, hats = self.order, self.hats[parity]
        tail = max(max(np.max(np.abs(C[m - 4:])), np.max(np.abs(C[:, m - 4:]))) for C in hats)
        return float(tail / max(np.max(np.abs(C)) for C in hats))


def kernel_order(k0: complex, a: float) -> int:
    """The DCT order of the kernel factors, 24 + 3 ceil(c) rounded up to even,
    c = |k0| a.

    In each of s and t the factors are entire of exponential type c (they
    behave like e^{i k0 a s}), so the Bernstein-ellipse bound at rho = 2n/c
    puts their order-n Chebyshev coefficients below 2 e^{c^2/4n} (e c/2n)^n
    of their size.  The tail block `tail_mass` reads starts at n = order - 4
    >= 3c + 20, where the bound is below 1e-24 for every c (its largest,
    5e-25, is at c = 4): the coefficients reach roundoff well before it.
    The order is even, so the odd-(p + q) coefficients vanish exactly."""
    order = 24 + 3 * int(np.ceil(abs(k0) * a))
    return order + order % 2


@memo
def kernel_expansion(k0: complex, a: float) -> KernelExpansion:
    """The memoized KernelExpansion of one medium at `kernel_order(k0, a)`:
    both parities' operators at every N share it."""
    return KernelExpansion(k0, a, kernel_order(k0, a))
