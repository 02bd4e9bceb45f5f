"""Half-line spectral functions, directivity, and the identity checks.

For a solved antisymmetric density the bundle exposes (with k_* = k0 cos
theta_in and xi the principal branch root):

    U0~(k) = (1/2) int mu e^{ikx} dx                  (entire, Bessel form)
    U0(k)  = (eta - i xi(k)) U0~(k)
    U+(k)  = int_a^inf  du/dy e^{ikx} dx + k0 sin(theta_in)/(k-k_*) e^{+i(k-k_*)a}
    U-(k)  = int_-inf^-a du/dy e^{ikx} dx - k0 sin(theta_in)/(k-k_*) e^{-i(k-k_*)a}

and these satisfy U- + U0 + U+ = 0 on the real axis.  The symmetric family
V uses the off-strip trace instead of the normal derivative, pole residue i,
and V0 = i (eta - i xi)/(eta xi) * V0~ with V0~(k) = -(1/2) int sigma e^{ikx} dx.

Directivity (far-field coefficient of e^{i k0 r}/sqrt(2 pi k0 r)):

    S_a(theta) = e^{-i pi/4} k0 sin(theta) U0~(-k0 cos theta)
    S_s(theta) = -i e^{-i pi/4}            V0~(-k0 cos theta)

These prefactors are fixed by matching the stationary-phase far field of
the layer potentials (verified against direct large-r evaluation,
reciprocity, and the power balance).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import chebkit as ck
from .bie import (
    Density,
    off_strip_normal_derivative,
    off_strip_trace,
    solve_antisymmetric,
    solve_block,
    solve_symmetric,
)
from .core import Parity, ProblemConfig, xi

logger = logging.getLogger(__name__)

POLE_EXCLUSION_FACTOR = 1e-2
# the truncation tolerance of the half-line banks
DEFAULT_TAIL_TOL = 1e-9


def _xi(k, k0):
    return xi(k, k0=k0)


def xi_prefactor(parity: Parity, eta: complex, x):
    """P(xi) of F0 = P(xi) F0~: eta - i xi (U family) or i (eta - i xi)/(eta xi) (V)."""
    if parity is Parity.ANTISYMMETRIC:
        return eta - 1j * x
    if eta == 0:
        raise ZeroDivisionError("V0 prefactor degenerate at eta = 0")
    return 1j * (eta - 1j * x) / (eta * x)


def _phase(k: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """E[i, j] = exp(i k_i x_j), built in place: one len(k) x len(xs) complex array."""
    E = np.outer(np.asarray(k, dtype=complex), xs)
    E *= 1j
    return np.exp(E, out=E)


def strip_transform(parity: Parity, a: float, coeffs: np.ndarray, k: np.ndarray) -> np.ndarray:
    """U0~(k) (antisymmetric) or V0~(k) (symmetric) of a coefficient vector,
    or of a block with one density per column; entire in k."""
    if parity is Parity.ANTISYMMETRIC:
        return 0.5 * a * a * (ck.u_transform_matrix(len(coeffs), k * a) @ coeffs)
    return -0.5 * a * (ck.plain_t_transform_matrix(len(coeffs), k * a) @ coeffs)


# ---------------------------------------------------------------------------
# spectral bundle
# ---------------------------------------------------------------------------
@dataclass
class SpectralBundle:
    """Evaluators for one parity's spectral function family.

    Semi-infinite integrals are truncated where the integrand envelope
    e^{-(Im k0 + min Im k)(x - a)} falls below `tail_tol`; the boundary
    data is cached per truncation bank so grids of k share one evaluation.
    """

    cfg: ProblemConfig
    density: Density
    tail_tol: float = DEFAULT_TAIL_TOL
    _banks: dict = field(default_factory=dict, repr=False)
    # [warned]: the pole-proximity warning's flag, one list shared by the
    # bundles of a `Scattering`, so that they warn once between them
    _pole_warned: list = field(default_factory=lambda: [False], repr=False)

    @property
    def parity(self) -> Parity:
        return self.density.parity

    @property
    def pole_residue(self) -> complex:
        if self.parity is Parity.ANTISYMMETRIC:
            return self.cfg.k0 * np.sin(self.cfg.theta_in)
        return 1j

    # -- entire strip transform ------------------------------------------
    def f0_tilde(self, k):
        """U0~(k) (antisymmetric) or V0~(k) (symmetric); entire in k."""
        karr = np.atleast_1d(np.asarray(k, dtype=complex))
        out = strip_transform(self.parity, self.cfg.a, self.density.coeffs, karr)
        return out if np.ndim(k) else complex(out[0])

    def prefactor(self, k) -> np.ndarray:
        """P(xi(k)) of F0 = P(xi) F0~, on an array of k."""
        karr = np.atleast_1d(np.asarray(k, dtype=complex))
        return xi_prefactor(self.parity, self.cfg.eta, _xi(karr, self.cfg.k0))

    def f0(self, k):
        """U0(k) or V0(k): the strip transform with its xi prefactor."""
        karr = np.atleast_1d(np.asarray(k, dtype=complex))
        out = self.prefactor(karr) * np.atleast_1d(self.f0_tilde(karr))
        return out if np.ndim(k) else complex(out[0])

    # -- half-line transforms ----------------------------------------------
    def _boundary_data(self, x: np.ndarray) -> np.ndarray:
        """d u_a/dy (x,+0) (antisym) or u_s(x,0) (sym) for |x| > a, vectorized."""
        if self.parity is Parity.ANTISYMMETRIC:
            return off_strip_normal_derivative(self.density, self.cfg, x)
        return off_strip_trace(self.density, self.cfg, x)

    _IM_BUCKETS = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 1e9)

    def _bank(self, re_max: float, im_floor: float):
        """Quadrature bank (xs, W) for int_a^X g(+-x) e^{+-ikx} dx.

        W has the columns [w g(x), conj(w g(-x))] on the nodes xs in
        [a, X], so with E(k) = exp(i k xs): F+check(k) = E(k) W[:, 0] and
        F-check(k) = conj(E(conj k) W[:, 1]).

        Banks are keyed by conservative buckets of the phase rate and decay
        rate so that grids, contour panels, and ray scans reuse them: the
        truncation X comes from the bucket's slow edge, the initial panel
        size from its fast edge.
        """
        im_k0 = complex(self.cfg.k0).imag
        if im_k0 + im_floor <= 0:
            raise ValueError(
                f"tail integral not decaying: Im k0 = {im_k0}"
                f" with Im k down to {im_floor}"
            )
        re_key = float(np.ceil(max(abs(re_max), 1.0)))
        if im_floor <= 0:
            key = (re_key, round(float(im_floor), 9))
            rate_lo = rate_hi = im_k0 + im_floor
        else:
            j = int(np.searchsorted(self._IM_BUCKETS, im_floor, side="right") - 1)
            key = (re_key, f"b{j}")
            rate_lo = im_k0 + self._IM_BUCKETS[j]
            rate_hi = im_k0 + self._IM_BUCKETS[j + 1]
        if key in self._banks:
            return self._banks[key]
        a = self.cfg.a
        k0 = complex(self.cfg.k0)
        X = a + np.log(1.0 / self.tail_tol) / rate_lo
        hmax = np.pi / (abs(k0.real) + re_key + 1.0)
        h0 = min(hmax, max(3.0 / (1.0 + min(rate_hi, 1e3)), 1e-3))
        xg, wg = ck.gauss_legendre(16)

        # first panel [a, a+h0] via x = a + u^2 (integrable 1/sqrt edge data),
        # then panels growing geometrically up to hmax
        uq = np.sqrt(h0) * (xg + 1) / 2
        breaks = [a + h0]
        h = h0
        while breaks[-1] < X:
            h = min(1.6 * h, hmax)
            breaks.append(min(breaks[-1] + h, X))
        xp, wp = ck.panels(breaks, 16)
        xs = np.concatenate([a + uq ** 2, xp])
        ws = np.concatenate([np.sqrt(h0) / 2 * wg * 2 * uq, wp])
        # both sides in one off-strip pass: the mirror nodes share |x|
        g = self._boundary_data(np.concatenate([xs, -xs]))
        # column-major: each W[:, j] is a contiguous vector for the products
        W = np.empty((2, len(xs)), dtype=complex).T
        W[:, 0] = ws * g[:len(xs)]
        W[:, 1] = np.conj(ws * g[len(xs):])
        self._banks[key] = (xs, W)
        return xs, W

    def f_check_plus(self, k):
        """Truncated transform of the off-strip data on x > a."""
        karr = np.atleast_1d(np.asarray(k, dtype=complex))
        xs, W = self._bank(float(np.max(np.abs(karr.real))), float(np.min(karr.imag)))
        out = _phase(karr, xs) @ W[:, 0]
        return out if np.ndim(k) else complex(out[0])

    def f_check_minus(self, k):
        """Truncated transform of the off-strip data on x < -a."""
        karr = np.atleast_1d(np.asarray(k, dtype=complex))
        xs, W = self._bank(float(np.max(np.abs(karr.real))), float(np.min(-karr.imag)))
        out = np.conj(_phase(np.conj(karr), xs) @ W[:, 1])
        return out if np.ndim(k) else complex(out[0])

    def _pole_term(self, karr, side: int):
        """The k_* pole term of F+ (side +1) or F- (side -1): F = Fcheck + term."""
        ks = self.cfg.k_star
        phase = np.exp(side * 1j * (karr - ks) * self.cfg.a)
        return side * self.pole_residue / (karr - ks) * phase

    def f_plus(self, k):
        """U+(k) or V+(k): upper-half-plane function with the k_* pole."""
        karr = np.atleast_1d(np.asarray(k, dtype=complex))
        _warn_near_pole((self,), karr, f"F+ ({self.parity.value})")
        out = np.atleast_1d(self.f_check_plus(karr)) + self._pole_term(karr, +1)
        return out if np.ndim(k) else complex(out[0])

    def f_minus(self, k):
        """U-(k) or V-(k): lower-half-plane function."""
        karr = np.atleast_1d(np.asarray(k, dtype=complex))
        _warn_near_pole((self,), karr, f"F- ({self.parity.value})")
        out = np.atleast_1d(self.f_check_minus(karr)) + self._pole_term(karr, -1)
        return out if np.ndim(k) else complex(out[0])


def _warn_near_pole(bundles, karr, stage: str) -> None:
    """Log once per set of bundles that `stage` evaluates within the pole
    exclusion radius of k_*; the bundles of one `Scattering` share the flag."""
    cfg = bundles[0].cfg
    r = POLE_EXCLUSION_FACTOR * abs(cfg.k0)
    if not all(b._pole_warned[0] for b in bundles) and np.any(np.abs(karr - cfg.k_star) < r):
        for b in bundles:
            b._pole_warned[0] = True
        logger.warning("%s: k within %.3g of the pole k_* = %s", stage, r, cfg.k_star)


def real_axis_halflines(bundles, k) -> list:
    """[(F-(k), F+(k)) of each bundle] on a real k grid, from one phase matrix.

    For real k, E(conj k) = E(k), so one E = exp(i k xs) and one product
    with the stacked bank columns serve both sides of every bundle.  The
    bundles must share their bank nodes, as the two parities of one
    `Scattering` do (one cfg and tail_tol).  Complex k needs E(k) and
    E(conj k) apart: use f_plus / f_minus.
    """
    karr = np.atleast_1d(np.asarray(k))
    if np.iscomplexobj(karr):
        if np.any(karr.imag != 0):
            raise ValueError("real_axis_halflines takes real k; use f_plus / f_minus")
        karr = karr.real
    banks = [b._bank(float(np.max(np.abs(karr))), 0.0) for b in bundles]
    xs = banks[0][0]
    if not all(np.array_equal(xs, x) for x, _ in banks[1:]):
        raise ValueError("bundles do not share their bank nodes")
    _warn_near_pole(bundles, karr, "real-axis half-line transforms")
    P = _phase(karr, xs) @ np.hstack([W for _, W in banks])
    return [(np.conj(P[:, 2 * i + 1]) + b._pole_term(karr, -1),
             P[:, 2 * i] + b._pole_term(karr, +1)) for i, b in enumerate(bundles)]


def functional_residual(bundle: SpectralBundle, k_grid) -> float:
    """max_k |F-(k) + F0(k) + F+(k)| / max(|F-|, |F0|, |F+|) on a real grid."""
    (fm, fp), = real_axis_halflines((bundle,), k_grid)
    f0 = bundle.f0(k_grid)
    scale = np.maximum(np.maximum(np.abs(fp), np.abs(fm)), np.abs(f0))
    return float(np.max(np.abs(fp + fm + f0) / np.max(scale)))


# ---------------------------------------------------------------------------
# directivity
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DirectivityTable:
    theta: np.ndarray
    S_a: np.ndarray
    S_s: np.ndarray
    cfg: ProblemConfig

    @property
    def S(self) -> np.ndarray:
        return self.S_a + self.S_s


def directivity_part(parity: Parity, cfg: ProblemConfig, coeffs: np.ndarray, theta) -> np.ndarray:
    """S_a or S_s on theta in [0, pi] of a coefficient vector, or of a block
    with one incidence per column (rows theta): the one place the far-field
    normalisation is written."""
    th = np.asarray(theta, dtype=float)
    k0 = cfg.k0
    k = np.atleast_1d(np.asarray(-k0 * np.cos(th), dtype=complex))
    f0t = strip_transform(parity, cfg.a, coeffs, k)
    if np.ndim(coeffs) == 2:
        th = th[:, None]
    if parity is Parity.ANTISYMMETRIC:
        return np.exp(-1j * np.pi / 4) * k0 * np.sin(th) * f0t
    return -1j * np.exp(-1j * np.pi / 4) * f0t


def directivity(bundle_a: SpectralBundle, bundle_s: SpectralBundle, theta_grid) -> DirectivityTable:
    """Directivity table on theta in (0, pi) from the entire transforms."""
    if bundle_a.cfg != bundle_s.cfg:
        raise ValueError("bundles must share one ProblemConfig")
    th = np.asarray(theta_grid, dtype=float)
    cfg = bundle_a.cfg
    S_a, S_s = (directivity_part(b.parity, cfg, b.density.coeffs, th) for b in (bundle_a, bundle_s))
    return DirectivityTable(th, S_a, S_s, cfg)


def bistatic_map(cfg: ProblemConfig, theta, theta_in, N: int = 64) -> np.ndarray:
    """M[i, j] = S(theta[i]; theta_in[j]) on the medium of cfg.

    Every incidence is a right-hand-side column of one block solve per
    parity (`bie.solve_block`); cfg.theta_in is not used.
    """
    return sum(directivity_part(parity, cfg, solve_block(cfg, parity, theta_in, N)[0], theta)
               for parity in Parity)


class Scattering:
    """Both parities solved for one configuration: the densities, their
    diagnostics and their spectral bundles (whose banks are built on first use).

    This is the one place where the antisymmetric and symmetric solutions
    of one incidence are paired.  `tail_tol` is the bundles' truncation
    tolerance.
    """

    def __init__(self, cfg: ProblemConfig, N: int = 64, tail_tol: float = DEFAULT_TAIL_TOL):
        self.cfg = cfg
        self.da, self.diag_a = solve_antisymmetric(cfg, N)
        self.ds, self.diag_s = solve_symmetric(cfg, N)
        warned = [False]
        self.bundles = (SpectralBundle(cfg, self.da, tail_tol, _pole_warned=warned),
                        SpectralBundle(cfg, self.ds, tail_tol, _pole_warned=warned))

    def directivity(self, theta_grid) -> DirectivityTable:
        return directivity(*self.bundles, theta_grid)


def directivity_full_circle(bundle_a: SpectralBundle, bundle_s: SpectralBundle, m: int = 720):
    """S on a uniform grid over (0, 2pi), from the ceil(m/2) grid angles in
    (0, pi] and the parity reflections S_a(2pi - t) = -S_a(t), S_s(2pi - t) =
    S_s(t): grid angle m - 1 - j is the mirror image of grid angle j."""
    th = 2 * np.pi * (np.arange(m) + 0.5) / m
    h = (m + 1) // 2
    tab = directivity(bundle_a, bundle_s, th[:h])
    return th, np.concatenate([tab.S, (tab.S_s - tab.S_a)[:m - h][::-1]])


def farfield_oracle(dens: Density, cfg: ProblemConfig, theta) -> np.ndarray | complex:
    """Independent directivity from plane-wave-weighted density integrals.

    Uses quadrature of the density against e^{-i k0 cos(theta) t} with the
    stationary-phase constants of the layer potentials; shares no code with
    the Bessel-image route in `directivity`.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    a, k0 = cfg.a, cfg.k0
    kc = k0 * np.cos(th)
    if dens.parity is Parity.ANTISYMMETRIC:
        tq, wq = ck.gauss_cheb2(4 * max(len(dens.coeffs), 64))
        P = dens.poly(tq)
        I = np.exp(-1j * np.outer(kc, a * tq)) @ (wq * P) * a * a
        out = np.exp(-1j * np.pi / 4) * k0 * np.sin(th) * 0.5 * I
    else:
        # sigma is bounded with edge-log corrections: edge-graded panels
        xs, ws = _edge_graded_unit(10, 24)
        P = dens.poly(xs)
        I = np.exp(-1j * np.outer(kc, a * xs)) @ (ws * P) * a
        out = -1j * np.exp(-1j * np.pi / 4) * (-0.5) * I
    return out if np.ndim(theta) else complex(out[0])


def _edge_graded_unit(nlev: int, nper: int):
    """Panels on [-1, 1] geometrically refined toward both endpoints."""
    edges = [0.0]
    t = 2.0 ** (-nlev)
    while t < 1.0:
        edges.append(t)
        t *= 2
    edges.append(1.0)
    be = np.array(edges)
    segs = np.sort(np.unique(np.concatenate([-1 + be, 1 - be])))
    return ck.panels(segs, nper)


# ---------------------------------------------------------------------------
# embedding checks
# ---------------------------------------------------------------------------
def embedding_rank_test(cfg: ProblemConfig, parity: Parity, incidences, k_points, N: int = 64):
    """Pair antisymmetry and sigma3/sigma1 of the embedding kernels of one medium.

    W(k; kappa) = (k - kappa) F0~(k; kappa) / C for the incidence with
    k_* = kappa, where C = xi(kappa) for the antisymmetric family and i*eta
    for the symmetric one.  With these normalizations P[i, j] = W(kappa_i;
    kappa_j) is antisymmetric and W on a k grid has separable rank 2.  All
    incidences come from one block solve.
    """
    theta_in = np.asarray(list(incidences), dtype=float)
    if len(theta_in) < 3:
        return {"status": "insufficient data", "n_incidences": len(theta_in)}
    if parity is Parity.SYMMETRIC and cfg.eta == 0:
        raise ZeroDivisionError("symmetric embedding kernel degenerate at eta = 0")
    kap = cfg.k0 * np.cos(theta_in)
    fac = _xi(kap, cfg.k0) if parity is Parity.ANTISYMMETRIC else 1j * cfg.eta
    k = np.concatenate([np.asarray(k_points, dtype=complex), kap])
    coeffs = solve_block(cfg, parity, theta_in, N)[0]
    W = (k[:, None] - kap) * strip_transform(parity, cfg.a, coeffs, k) / fac
    W, P = W[:-len(kap)], W[-len(kap):]

    sv = np.linalg.svd(W, compute_uv=False)
    off = ~np.eye(len(kap), dtype=bool)
    return {
        "status": "ok",
        "antisymmetry": float(np.max(np.abs(P + P.T)[off]) / np.max(np.abs(P)[off])),
        "s3_over_s1": float(sv[2] / sv[0]),
    }


# ---------------------------------------------------------------------------
# growth scans along imaginary rays
# ---------------------------------------------------------------------------
GROWTH_EXPONENT = {Parity.ANTISYMMETRIC: 0.5, Parity.SYMMETRIC: 1.0}


def growth_scan(bundle: SpectralBundle, which: str, ray: str, t_grid,
                exponent: float | None = None):
    """Compensated magnitude of U0/U+/U- (or V...) along k = +- i t.

    The a-priori envelopes are |k|^{-p} e^{+- i k a} with p = 1/2 for the
    antisymmetric family and p = 1 for the symmetric one; `exponent`
    overrides p (negative-control use).  Returns the dict with the
    compensated magnitudes and the log-log slope beyond t = 2|k0|.
    """
    p = GROWTH_EXPONENT[bundle.parity] if exponent is None else float(exponent)
    t = np.asarray(t_grid, dtype=float)
    a = bundle.cfg.a
    if which == "0":
        k = 1j * t if ray == "upper-imaginary" else -1j * t
        vals = np.abs(np.atleast_1d(bundle.f0(k)))
        comp = vals * t ** p * np.exp(-t * a)
    elif which == "+":
        if ray != "upper-imaginary":
            raise ValueError("F+ is only regular along the upper ray")
        vals = np.abs(np.array([bundle.f_plus(1j * tt) for tt in t]))
        comp = vals * t ** p * np.exp(t * a)
    elif which == "-":
        if ray != "lower-imaginary":
            raise ValueError("F- is only regular along the lower ray")
        vals = np.abs(np.array([bundle.f_minus(-1j * tt) for tt in t]))
        comp = vals * t ** p * np.exp(t * a)
    else:
        raise ValueError(f"unknown function tag {which!r}")

    mask = t >= 2 * abs(bundle.cfg.k0)
    lt = np.log(t[mask])
    lm = np.log(np.maximum(comp[mask], 1e-300))
    slope = float(np.polyfit(lt, lm, 1)[0])
    return {
        "t": t,
        "compensated": comp,
        "slope": slope,
        "bounded": slope <= 0.1,
        "exponent": p,
    }


# ---------------------------------------------------------------------------
# Cauchy / contour machinery
# ---------------------------------------------------------------------------
def contour_integral_rect(f, rect, n_per_side: int = 32, refine_near=None) -> complex:
    """Counterclockwise contour integral of f over the rectangle
    [re0, re1] x [im0, im1].

    With `refine_near` set to a pole location, each side's panels grade
    geometrically toward the pole's parameter projection so nearby simple
    poles are integrated to full accuracy.
    """
    re0, re1, im0, im1 = rect
    total = 0j
    corners = [re0 + 1j * im0, re1 + 1j * im0, re1 + 1j * im1, re0 + 1j * im1]
    for z0, z1 in zip(corners, corners[1:] + corners[:1]):
        d = z1 - z0
        lateral = np.inf if refine_near is None else abs(np.imag((refine_near - z0) / d))
        if refine_near is None or lateral > 0.3:
            breaks = np.array([0.0, 1.0])
        else:
            tstar = float(np.clip(np.real((refine_near - z0) / d), 0.0, 1.0))
            tmin = max(lateral / 4.0, 1e-6)
            lad = [tmin]
            while lad[-1] < 1.0:
                lad.append(lad[-1] * 2.0)
            lad = np.array(lad)
            breaks = np.unique(np.clip(np.concatenate(
                [[0.0, 1.0, tstar], tstar + lad, tstar - lad]), 0.0, 1.0))
            breaks = breaks[np.concatenate([[True], np.diff(breaks) >= 1e-15])]
        tq, wq = ck.panels(breaks, n_per_side)
        total += d * np.sum(wq * np.atleast_1d(f(z0 + tq * d)))
    return complex(total)


def cauchy_analyticity_test(f, rect, n_per_side: int = 32, refine_near=None) -> float:
    """|contour integral| / (perimeter * max |f|) over the rectangle boundary."""
    re0, re1, im0, im1 = rect
    loop = contour_integral_rect(f, rect, n_per_side, refine_near=refine_near)
    xg, _ = ck.gauss_legendre(n_per_side)
    samples = []
    corners = [re0 + 1j * im0, re1 + 1j * im0, re1 + 1j * im1, re0 + 1j * im1]
    for z0, z1 in zip(corners, corners[1:] + corners[:1]):
        zq = (z0 + z1) / 2 + (z1 - z0) / 2 * xg
        samples.append(np.max(np.abs(np.atleast_1d(f(zq)))))
    perim = 2 * (re1 - re0) + 2 * (im1 - im0)
    return abs(loop) / (perim * max(samples))


# ---------------------------------------------------------------------------
# physics cross-checks
# ---------------------------------------------------------------------------
def reciprocity_check(cfg: ProblemConfig, theta, N: int = 64) -> float:
    """max |M - M^T| / max |M| of the square bistatic map M[i, j] = S(theta_i; theta_j)."""
    M = bistatic_map(cfg, theta, theta, N)
    return float(np.max(np.abs(M - M.T)) / max(np.max(np.abs(M)), 1e-300))


def forward_amplitude(bundle_a: SpectralBundle, bundle_s: SpectralBundle) -> complex:
    """S(theta_in + pi), the forward direction, reflected into (0, pi) by
    S_a(2pi - t) = -S_a(t), S_s(2pi - t) = S_s(t)."""
    fwd = directivity(bundle_a, bundle_s, [2 * np.pi - (bundle_a.cfg.theta_in + np.pi)])
    return complex(-fwd.S_a[0] + fwd.S_s[0])


def energy_balance(cfg: ProblemConfig, N: int = 64, m_theta: int = 720):
    """Scattered power, extinction, and absorbed power in the S-convention.

    P_scat = (1/2pi) int_0^{2pi} |S|^2 dtheta,
    extinction = -2 Re[e^{i pi/4} S(theta_in + pi)]  (forward direction),
    absorbed = extinction - P_scat.
    """
    ba, bs = Scattering(cfg, N).bundles
    th, S = directivity_full_circle(ba, bs, m_theta)
    p_scat = float(np.mean(np.abs(S) ** 2))
    extinction = float(-2 * np.real(np.exp(1j * np.pi / 4) * forward_amplitude(ba, bs)))
    return {
        "p_scat": p_scat,
        "extinction": extinction,
        "absorbed": extinction - p_scat,
        "balance_rel": abs(p_scat - extinction) / max(abs(extinction), 1e-300),
    }
