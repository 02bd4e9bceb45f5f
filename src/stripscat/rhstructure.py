"""Cuts, shore-tracked jump matrices, zero locus, and cut deformation.

The two branch cuts of xi(k) = sqrt(k0^2 - k^2) used here are the value
curves {k : k0^2 - k^2 real >= 0}: one leaves +k0 and tends to +i*inf, the
other is its point reflection through the origin.  Walking a cut from its
branch point outward, 2x2 jump matrices relate the solution row vectors on
the right shore to those on the left shore:

    M1 = [[1, 2 i xi/(eta - i xi)], [0, (eta + i xi)/(eta - i xi)]]
    M2 = [[(eta + i xi)/(eta - i xi), 0], [2 i xi/(eta - i xi), 1]]

for the antisymmetric family and

    N1 = [[1, -2 eta/(eta - i xi)], [0, (eta + i xi)/(i xi - eta)]]
    N2 = [[(eta + i xi)/(i xi - eta), 0], [-2 eta/(eta - i xi), 1]]

for the symmetric one, with xi evaluated on the left shore.

The function eta - i*xi(k) vanishes at k' = sqrt(k0^2 + eta^2) on exactly
one sheet of the square-root surface; the zeros sit on the physical sheet
precisely when eta lies in the open third quadrant, in which case the cuts
are deformed (endpoints fixed, central symmetry kept) until k' is no
longer on the physical sheet.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import BranchMode, Parity, ProblemConfig, xi
from .spectral import xi_prefactor


class SingularJumpError(ValueError):
    """eta - i xi(k) vanishes at the requested evaluation point."""


class DeformationError(RuntimeError):
    """The constructed detour failed to declassify the zeros of eta - i xi."""


class Sheet(enum.Enum):
    PHYSICAL = "physical"
    UNPHYSICAL = "unphysical"


@dataclass(frozen=True)
class SheetPoint:
    k: complex
    sheet: Sheet


def _cut_param(cfg: ProblemConfig, s: np.ndarray) -> np.ndarray:
    """G2 parametrization k(s) = i sqrt(s^2 - k0^2); k(0) = k0, k -> +i inf."""
    return 1j * np.sqrt(np.asarray(s, dtype=complex) ** 2 - complex(cfg.k0) ** 2)


def _cut_sgrid(cfg: ProblemConfig, radius: float, n: int) -> np.ndarray:
    k0a = abs(cfg.k0)
    if radius <= k0a:
        raise ValueError("cut radius must exceed |k0|")
    smax = np.sqrt(radius ** 2 + abs(complex(cfg.k0) ** 2))
    n_geo = n // 3
    geo = k0a * np.geomspace(1e-4, 1.0, n_geo)
    lin = np.linspace(k0a, smax, n - n_geo - 1)
    return np.concatenate([[0.0], geo, lin[1:]])


def build_cut(cfg: ProblemConfig, which: str, radius: float) -> np.ndarray:
    """Cut polyline of 400 nodes from +-k0 to the truncation radius, in
    order from the branch point outward.

    Node density grows near the branch point (geometric parameter ladder);
    every node satisfies the defining locus Im(k0^2 - k^2) = 0,
    Re(k0^2 - k^2) >= 0 exactly.
    """
    if which not in ("G1", "G2"):
        raise ValueError("which must be 'G1' or 'G2'")
    s = _cut_sgrid(cfg, radius, 400)
    nodes = _cut_param(cfg, s)
    return -nodes if which == "G1" else nodes


def xi_left_shore(k, cfg: ProblemConfig):
    """xi on the left shore of the cut through k (walking from +-k0 outward)."""
    return xi(k, BranchMode.CONTINUED_UPPER, k0=cfg.k0)


_LABELS = ("M1", "M2", "N1", "N2")


def jump_matrix(label: str, k: complex, cfg: ProblemConfig) -> np.ndarray:
    """2x2 jump matrix at k on its contour, left-shore xi convention."""
    if label not in _LABELS:
        raise ValueError(f"label must be one of {_LABELS}")
    eta = cfg.eta
    x = xi_left_shore(k, cfg)
    den = eta - 1j * x
    if abs(den) < 1e-12 * max(1.0, abs(eta), abs(x)):
        raise SingularJumpError(f"eta - i xi vanishes at k = {k}")
    if label == "M1":
        return np.array([[1.0, 2j * x / den], [0.0, (eta + 1j * x) / den]], dtype=complex)
    if label == "M2":
        return np.array([[(eta + 1j * x) / den, 0.0], [2j * x / den, 1.0]], dtype=complex)
    if label == "N1":
        return np.array([[1.0, -2 * eta / den], [0.0, (eta + 1j * x) / (1j * x - eta)]],
                        dtype=complex)
    return np.array([[(eta + 1j * x) / (1j * x - eta), 0.0], [-2 * eta / den, 1.0]],
                    dtype=complex)


def continuation_identity_check(bundle, k_on_g2: complex, *, wrong_shore: bool = False) -> float:
    """Residual of the shore relation generating the second-column jump.

    From the functional equation, on G2 the minus function continues as
    F-_L = -F+ - P(xi_L) F0~ and F-_R = -F+ - P(xi_R) F0~ with xi_R = -xi_L,
    where P is the parity's xi prefactor.  The relation
    F-_R = J[0,0] F-_L + J[1,0] F+ with J = M2 (antisymmetric) or N2
    (symmetric) leaves the residual (J[0,0] - J[1,0] - 1) F+ +
    (J[0,0] P(xi_L) - P(xi_R)) F0~, which vanishes for every F+ and F0~
    exactly when both coefficients do.  Returns the larger of the first
    coefficient and the second relative to |P|; `wrong_shore` deliberately
    breaks xi_R = -xi_L (negative control).
    """
    cfg = bundle.cfg
    J = jump_matrix("M2" if bundle.parity is Parity.ANTISYMMETRIC else "N2", k_on_g2, cfg)
    xl = xi_left_shore(k_on_g2, cfg)
    # flipping both shores together would cancel, so the control breaks only one
    xr = xl if wrong_shore else -xl
    pref_l = xi_prefactor(bundle.parity, cfg.eta, xl)
    pref_r = xi_prefactor(bundle.parity, cfg.eta, xr)
    coeff_fp = J[0, 0] - J[1, 0] - 1.0
    coeff_f0t = J[0, 0] * pref_l - pref_r
    return float(max(abs(coeff_fp),
                     abs(coeff_f0t) / max(abs(pref_l), abs(pref_r), 1e-300)))


def k_prime(cfg: ProblemConfig) -> SheetPoint:
    """Zero k' = sqrt(k0^2 + eta^2) of eta - i xi with its sheet classification.

    The zeros lie on the physical sheet iff the principal branch satisfies
    xi(k') = -i eta there; otherwise they live on the second sheet.
    """
    if cfg.eta == 0:
        raise ValueError("eta = 0 collides k' with the branch point k0")
    kp = np.sqrt(complex(cfg.k0) ** 2 + complex(cfg.eta) ** 2)
    x = xi(kp, k0=cfg.k0)
    target = -1j * cfg.eta
    on_phys = abs(x - target) <= 1e-8 * max(abs(x), abs(target))
    return SheetPoint(kp, Sheet.PHYSICAL if on_phys else Sheet.UNPHYSICAL)


def deformation_needed(cfg: ProblemConfig) -> bool:
    """True exactly when eta lies in the open third quadrant."""
    eta = complex(cfg.eta)
    return eta.real < 0 and eta.imag < 0


def _point_in_polygon(z: complex, poly: np.ndarray) -> bool:
    """Even-odd rule for a closed polygon given as complex vertices."""
    x, y = z.real, z.imag
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i].real, poly[i].imag
        x2, y2 = poly[(i + 1) % n].real, poly[(i + 1) % n].imag
        if (y1 > y) != (y2 > y):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if xc > x:
                inside = not inside
    return inside


def _deformed_g2(cfg: ProblemConfig, radius: float):
    """Original and detoured G2 node sets plus the lens polygon between them.

    The first stretch of the cut is replaced by an arc winding around k'
    (radii interpolating between the endpoint distances); the sweep
    direction is fixed by requiring the lens between old and new pieces to
    enclose k'.
    """
    nodes = build_cut(cfg, "G2", radius)
    kp = k_prime(cfg).k
    dist0 = abs(nodes[0] - kp)

    # rejoin index: first node at a comfortable distance beyond k'
    i_join = None
    for i in range(2, len(nodes)):
        if abs(nodes[i] - kp) >= 2.5 * dist0:
            i_join = i
            break
    if i_join is None:
        raise DeformationError("cut truncation radius too small to detour around k'")

    p0, p1 = nodes[0], nodes[i_join]
    r0, r1 = abs(p0 - kp), abs(p1 - kp)
    phi0, phi1 = np.angle(p0 - kp), np.angle(p1 - kp)
    n_arc = 80
    for sweep_sign in (1.0, -1.0):
        dphi = (phi1 - phi0) % (2 * np.pi)
        if sweep_sign < 0:
            dphi = dphi - 2 * np.pi
        t = np.linspace(0.0, 1.0, n_arc + 2)[1:-1]
        arc = kp + (r0 * (1 - t) + r1 * t) * np.exp(1j * (phi0 + dphi * t))
        deformed = np.concatenate([[p0], arc, nodes[i_join:]])
        lens = np.concatenate([nodes[:i_join + 1], deformed[:n_arc + 2][::-1]])
        if _point_in_polygon(kp, lens):
            return nodes, deformed, lens
    raise DeformationError("no detour arc encloses k'")


def k_prime_reclassified(cfg: ProblemConfig) -> SheetPoint:
    """Sheet of the zero pair +-k' relative to the deformed cut layout.

    Crossing into a deformation lens flips the sheet relative to the
    principal classification (the lens interior is reached by crossing the
    retired piece of the original cut).  The cut is truncated at 50 |k0|,
    or at 4 |k'| where k' lies beyond that (small |k0|), so that the detour
    can rejoin it beyond k'.
    """
    base = k_prime(cfg)
    if not deformation_needed(cfg):
        return base
    nodes, deformed, lens = _deformed_g2(cfg, max(50 * abs(cfg.k0), 4 * abs(base.k)))
    flip = _point_in_polygon(base.k, lens) or _point_in_polygon(-base.k, -lens)
    if not flip:
        raise DeformationError("k' not enclosed by the deformation lens")
    new = Sheet.UNPHYSICAL if base.sheet is Sheet.PHYSICAL else Sheet.PHYSICAL
    return SheetPoint(base.k, new)
