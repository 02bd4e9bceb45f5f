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
from dataclasses import dataclass, field, replace

import numpy as np

from . import bie
from . import chebkit as ck
from .bie import Density, SolveDiagnostics
from .core import Parity, ProblemConfig, xi

logger = logging.getLogger(__name__)

POLE_EXCLUSION_FACTOR = 1e-2


def xi_prefactor(parity: Parity, eta: complex, x):
    """P(xi) of F0 = P(xi) F0~: eta - i xi (U family) or i (eta - i xi)/(eta xi) (V)."""
    if parity is Parity.ANTISYMMETRIC:
        return eta - 1j * x
    if eta == 0:
        raise ZeroDivisionError("V0 prefactor degenerate at eta = 0")
    return 1j * (eta - 1j * x) / (eta * x)


def strip_transform(parity: Parity, a: float, coeffs: np.ndarray, k: np.ndarray) -> np.ndarray:
    """U0~(k) (antisymmetric) or V0~(k) (symmetric) of a coefficient vector,
    or of a block with one density per column; entire in k."""
    if parity is Parity.ANTISYMMETRIC:
        return 0.5 * a * a * (ck.u_transform_matrix(len(coeffs), k * a) @ coeffs)
    return -0.5 * a * (ck.plain_t_transform_matrix(len(coeffs), k * a) @ coeffs)


# ---------------------------------------------------------------------------
# half-line transforms as integrals along the branch cut from k0
# ---------------------------------------------------------------------------
def _cut_rule(im_k0: float):
    """Nodes s and weights of int_0^inf ds along the cut lambda = k0 + i s.

    s = u^2 on [0, u0] and on geometric u-panels of ratio about 2 from u0 up
    to U = 100, which carry the s^{-1/2} end point of the symmetric
    integrand and the near pole of 1/(lambda + k) at k = -Re k0: it lies a
    distance Im k0 off the cut, width sqrt(Im k0) in u, so u0 =
    min(1e-4, 0.1 sqrt(Im k0)) and the panels grow as log(1/Im k0) below
    Im k0 = 1e-6 (20 panels above).  The tail u > U is s = 1/v^2 on three
    panels of (0, 1/U], where the integrands are analytic in v (G(s)
    expands in powers of s^{-1/2}), so its s^{-3/2} decay costs no
    truncation.  16 Gauss points a panel, 384 nodes for Im k0 >= 1e-6.
    """
    u0 = min(1e-4, 0.1 * np.sqrt(im_k0))
    n = 20 + int(np.ceil(np.log10(1e-4 / u0) / 0.3))
    u, wu = ck.panels(np.concatenate([[0.0], np.geomspace(u0, 100.0, n + 1)]), 16)
    v, wv = ck.panels(np.linspace(0.0, 0.01, 4), 16)
    return np.concatenate([u * u, v ** -2.0]), np.concatenate([2 * u * wu, 2 * wv / v ** 3])


@dataclass
class SpectralBundle:
    """Evaluators for one parity's spectral function family.

    The half-line transforms are integrals along the vertical branch cut
    lambda = k0 + i s, s >= 0, of the layer potential's spectral form:

        F+check(k) = (i e^{ika}/4pi)  int_0^inf G+(s) J(s) / (lambda + k) ds
        F-check(k) = (i e^{-ika}/4pi) int_0^inf G-(s) J(s) / (lambda - k) ds

    with G+-(s) = int rho(t) e^{i lambda (a -+ t)} dt, J = 2 xi_c
    (antisymmetric) or 2/xi_c (symmetric) and xi_c = sqrt(s) sqrt(s - 2i k0),
    the jump of xi across the cut.  With t = +-a cos(theta) both sides share
    a -+ t = d(theta), so one real table exp(-s d) gives G+ and G- of the
    density; the bundle caches the weighted columns, and any set of k costs
    one Cauchy-matrix product.  The integrals continue F+check analytically
    to the plane cut along k = -k0 - i s (F-check along k0 + i s).  They
    converge at real k0 too, but the bundle needs Im k0 > 0: the cut rule's
    first panel width u0 is 0 there, and `core.xi` takes the wrong limit
    (ROADMAP direction 5).
    """

    cfg: ProblemConfig
    density: Density
    # [warned]: the pole-proximity warning's flag, one list shared by the
    # bundles of a `Scattering`, so that they warn once between them
    _pole_warned: list = field(default_factory=lambda: [False], repr=False)
    # (lambda, W): the cut nodes and the columns (i/4pi) w J G+ and (i/4pi) w J G-
    _cut: tuple | None = field(default=None, repr=False)

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
        return xi_prefactor(self.parity, self.cfg.eta, xi(karr, k0=self.cfg.k0))

    def f0(self, k):
        """U0(k) or V0(k): the strip transform with its xi prefactor."""
        karr = np.atleast_1d(np.asarray(k, dtype=complex))
        out = self.prefactor(karr) * np.atleast_1d(self.f0_tilde(karr))
        return out if np.ndim(k) else complex(out[0])

    # -- half-line transforms ----------------------------------------------
    def _cut_columns(self):
        """(lambda, W) on the cut nodes, built on first use."""
        if self._cut is None:
            a, k0 = self.cfg.a, complex(self.cfg.k0)
            if k0.imag <= 0:
                raise ValueError(f"half-line transforms need Im k0 > 0, got k0 = {k0}")
            c = self.density.coeffs
            s, ws = _cut_rule(k0.imag)
            # e^{-s d} with d = 2a sin^2(theta/2) concentrates within
            # 1/sqrt(s a) of theta = 0: panels halve toward 0 down to
            # 0.25/sqrt(s_max a).  The density's series and e^{i k0 d} turn
            # at most len(c) + |k0| a radians per radian of theta, which
            # bounds the panel width elsewhere.
            th, w = ck.graded_panels(0.0, np.pi, [(0.0, 0.25 / np.sqrt(s.max() * a))], 16,
                                     widest=min(0.1, 20.0 / (len(c) + abs(k0) * a)))
            d = 2 * a * np.sin(th / 2) ** 2
            antisym = self.parity is Parity.ANTISYMMETRIC
            # dt = a sin(theta) dtheta; mu carries a further a sin(theta)
            w = w * (a * np.sin(th)) ** 2 if antisym else w * a * np.sin(th)
            P = self.density.poly(np.concatenate([np.cos(th), -np.cos(th)])).reshape(2, -1)
            V = np.ascontiguousarray((w * np.exp(1j * k0 * d) * P).T)
            # G+ and G- as real products: V's real and imaginary parts are its float view
            G = (np.exp(-np.outer(s, d)) @ V.view(float)).view(complex)
            xi_c = np.sqrt(s) * np.sqrt(s - 2j * k0)
            J = 2.0 * xi_c if antisym else 2.0 / xi_c
            self._cut = (k0 + 1j * s, (1j / (4 * np.pi)) * (ws * J)[:, None] * G)
        return self._cut

    def f_check_plus(self, k):
        """The transform of the off-strip data on x > a, as a cut integral."""
        karr = np.atleast_1d(np.asarray(k, dtype=complex))
        lam, W = self._cut_columns()
        out = np.exp(1j * self.cfg.a * karr) * ((1.0 / (lam + karr[:, None])) @ W[:, 0])
        return out if np.ndim(k) else complex(out[0])

    def f_check_minus(self, k):
        """The transform of the off-strip data on x < -a, as a cut integral."""
        karr = np.atleast_1d(np.asarray(k, dtype=complex))
        lam, W = self._cut_columns()
        out = np.exp(-1j * self.cfg.a * karr) * ((1.0 / (lam - karr[:, None])) @ W[:, 1])
        return out if np.ndim(k) else complex(out[0])

    def pole_term(self, k, side: int):
        """The k_* pole term of F+ (side +1) or F- (side -1): F = Fcheck + term."""
        karr = np.asarray(k, dtype=complex)
        ks = self.cfg.k_star
        phase = np.exp(side * 1j * (karr - ks) * self.cfg.a)
        return side * self.pole_residue / (karr - ks) * phase

    def f_plus(self, k):
        """U+(k) or V+(k): upper-half-plane function with the k_* pole."""
        karr = np.atleast_1d(np.asarray(k, dtype=complex))
        _warn_near_pole((self,), karr, f"F+ ({self.parity.value})")
        out = np.atleast_1d(self.f_check_plus(karr)) + self.pole_term(karr, +1)
        return out if np.ndim(k) else complex(out[0])

    def f_minus(self, k):
        """U-(k) or V-(k): lower-half-plane function."""
        karr = np.atleast_1d(np.asarray(k, dtype=complex))
        _warn_near_pole((self,), karr, f"F- ({self.parity.value})")
        out = np.atleast_1d(self.f_check_minus(karr)) + self.pole_term(karr, -1)
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
    """[(F-(k), F+(k)) of each bundle] on a real k grid, with one
    pole-proximity warning between the bundles."""
    karr = np.atleast_1d(np.asarray(k, dtype=complex))
    _warn_near_pole(bundles, karr, "real-axis half-line transforms")
    return [(b.f_check_minus(karr) + b.pole_term(karr, -1),
             b.f_check_plus(karr) + b.pole_term(karr, +1)) for b in bundles]


def pointwise_residual(fm, f0, fp) -> np.ndarray:
    """|F-(k) + F0(k) + F+(k)| / max(|F-|, |F0|, |F+|) at each k of a grid,
    the maximum taken over the grid."""
    scale = np.maximum(np.maximum(np.abs(fp), np.abs(fm)), np.abs(f0))
    return np.abs(fp + fm + f0) / np.max(scale)


def functional_residual(bundle: SpectralBundle, k_grid) -> float:
    """The largest `pointwise_residual` on a real grid."""
    (fm, fp), = real_axis_halflines((bundle,), k_grid)
    return float(np.max(pointwise_residual(fm, bundle.f0(k_grid), fp)))


# ---------------------------------------------------------------------------
# directivity
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DirectivityTable:
    theta: np.ndarray
    S_a: np.ndarray
    S_s: np.ndarray

    @property
    def S(self) -> np.ndarray:
        return self.S_a + self.S_s


def directivity_part(parity: Parity, cfg: ProblemConfig, coeffs: np.ndarray, theta) -> np.ndarray:
    """S_a or S_s on theta in [0, pi] of a coefficient vector, or of a block
    with one incidence per column (rows theta): the one place the far-field
    normalisation is written."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    k0 = cfg.k0
    k = np.asarray(-k0 * np.cos(th), dtype=complex)
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
    return DirectivityTable(th, *(directivity_part(b.parity, b.cfg, b.density.coeffs, th)
                                  for b in (bundle_a, bundle_s)))


class Scattering:
    """Both parities solved on the medium and strip of cfg for a block of
    incidences theta_in (default cfg.theta_in): one `bie.solve_block` per
    parity, whose coefficient columns are the incidences.

    This is the one place where the antisymmetric and symmetric solutions
    are paired.  A sequence theta_in gives a directivity column per
    incidence, a scalar one vector.  `cfg` carries the first incidence, and
    `da`, `ds`, their diagnostics and their spectral bundles (whose cut
    columns are built on first use) belong to it.
    """

    def __init__(self, cfg: ProblemConfig, N: int = 64, theta_in=None):
        th = cfg.theta_in if theta_in is None else theta_in
        self.theta_in = np.atleast_1d(np.asarray(th, dtype=float))
        # a scalar incidence reads column 0 of each table, a block all columns
        self._cols = 0 if np.ndim(th) == 0 else slice(None)
        self.cfg = replace(cfg, theta_in=float(self.theta_in[0]))
        # parity -> (coeffs, aug_amp, condition, kernel_tail)
        self.blocks = {p: bie.solve_block(self.cfg, p, self.theta_in, N) for p in Parity}
        self.diag_a, self.diag_s = (SolveDiagnostics(N, *self.blocks[p][2:]) for p in Parity)
        self.da, self.ds = (self.density(p) for p in Parity)
        warned = [False]
        self.bundles = tuple(SpectralBundle(self.cfg, d, _pole_warned=warned)
                             for d in (self.da, self.ds))

    def density(self, parity: Parity, j: int = 0) -> Density:
        """The density of incidence theta_in[j]."""
        coeffs, amp = self.blocks[parity][:2]
        return Density(parity, self.cfg.a, coeffs[:, j],
                       aug_amp=(complex(amp[0, j]), complex(amp[1, j])))

    def directivity(self, theta_grid) -> DirectivityTable:
        """S_a and S_s on theta_grid, one product per parity for every incidence."""
        th = np.asarray(theta_grid, dtype=float)
        return DirectivityTable(th, *(directivity_part(p, self.cfg, c, th)[:, self._cols]
                                      for p, (c, *_) in self.blocks.items()))


FULL_CIRCLE_ANGLES = 720


def directivity_full_circle(bundle_a: SpectralBundle, bundle_s: SpectralBundle):
    """S on `energy_balance`'s uniform grid of m = FULL_CIRCLE_ANGLES angles
    over (0, 2pi), from the ceil(m/2) grid angles in (0, pi] and the parity
    reflections S_a(2pi - t) = -S_a(t), S_s(2pi - t) = S_s(t): grid angle
    m - 1 - j is the mirror image of grid angle j."""
    m = FULL_CIRCLE_ANGLES
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
        xs, ws = ck.graded_panels(-1.0, 1.0, [(-1.0, 2.0 ** -10), (1.0, 2.0 ** -10)], 24)
        P = dens.poly(xs)
        I = np.exp(-1j * np.outer(kc, a * xs)) @ (ws * P) * a
        out = -1j * np.exp(-1j * np.pi / 4) * (-0.5) * I
    return out if np.ndim(theta) else complex(out[0])


# ---------------------------------------------------------------------------
# embedding checks
# ---------------------------------------------------------------------------
def embedding_rank_test(sc: Scattering, parity: Parity, k_points):
    """Pair antisymmetry and sigma3/sigma1 of the embedding kernels of the
    block of incidences of sc.

    W(k; kappa) = (k - kappa) F0~(k; kappa) / C for the incidence with
    k_* = kappa, where C = xi(kappa) for the antisymmetric family and i*eta
    for the symmetric one.  With these normalizations P[i, j] = W(kappa_i;
    kappa_j) is antisymmetric and W on a k grid has separable rank 2.
    """
    cfg, theta_in = sc.cfg, sc.theta_in
    if len(theta_in) < 3:
        return {"status": "insufficient data", "n_incidences": len(theta_in)}
    if parity is Parity.SYMMETRIC and cfg.eta == 0:
        raise ZeroDivisionError("symmetric embedding kernel degenerate at eta = 0")
    kap = cfg.k0 * np.cos(theta_in)
    fac = xi(kap, k0=cfg.k0) if parity is Parity.ANTISYMMETRIC else 1j * cfg.eta
    k = np.concatenate([np.asarray(k_points, dtype=complex), kap])
    W = (k[:, None] - kap) * strip_transform(parity, cfg.a, sc.blocks[parity][0], k) / fac
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
        vals = np.abs(bundle.f_plus(1j * t))
        comp = vals * t ** p * np.exp(t * a)
    elif which == "-":
        if ray != "lower-imaginary":
            raise ValueError("F- is only regular along the lower ray")
        vals = np.abs(bundle.f_minus(-1j * t))
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
def contour_integral_rect(f, rect, refine_near=None) -> complex:
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
        grade = []
        if lateral <= 0.3:
            tstar = float(np.clip(np.real((refine_near - z0) / d), 0.0, 1.0))
            grade = [(tstar, max(lateral / 4.0, 1e-6))]
        tq, wq = ck.graded_panels(0.0, 1.0, grade, 32)
        total += d * np.sum(wq * np.atleast_1d(f(z0 + tq * d)))
    return complex(total)


def cauchy_analyticity_test(f, rect, refine_near=None) -> float:
    """|contour integral| / (perimeter * max |f|) over the rectangle boundary."""
    re0, re1, im0, im1 = rect
    loop = contour_integral_rect(f, rect, refine_near=refine_near)
    xg, _ = ck.gauss_legendre(32)
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
    """max |M - M^T| / max |M| of the square bistatic map M[i, j] = S(theta_i; theta_j),
    the directivity of the incidences theta on the medium of cfg."""
    M = Scattering(cfg, N, theta).directivity(theta).S
    return float(np.max(np.abs(M - M.T)) / max(np.max(np.abs(M)), 1e-300))


def forward_amplitude(sc: Scattering):
    """S(theta_in + pi) of each incidence of sc (a number for a scalar
    incidence), the forward direction, reflected into (0, pi) by
    S_a(2pi - t) = -S_a(t), S_s(2pi - t) = S_s(t)."""
    fwd = sc.directivity(2 * np.pi - (sc.theta_in + np.pi))
    S = -fwd.S_a + fwd.S_s
    return complex(S[0]) if S.ndim == 1 else np.diagonal(S)


def energy_balance(cfg: ProblemConfig, N: int = 64):
    """Scattered power, extinction, and absorbed power in the S-convention.

    P_scat = (1/2pi) int_0^{2pi} |S|^2 dtheta,
    extinction = -2 Re[e^{i pi/4} S(theta_in + pi)]  (forward direction),
    absorbed = extinction - P_scat.
    """
    sc = Scattering(cfg, N)
    th, S = directivity_full_circle(*sc.bundles)
    p_scat = float(np.mean(np.abs(S) ** 2))
    extinction = float(-2 * np.real(np.exp(1j * np.pi / 4) * forward_amplitude(sc)))
    return {
        "p_scat": p_scat,
        "extinction": extinction,
        "absorbed": extinction - p_scat,
        "balance_rel": abs(p_scat - extinction) / max(abs(extinction), 1e-300),
    }
