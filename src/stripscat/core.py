"""Problem configuration, branch-tracked square root, incident fields.

Scattering scenario: the segment y = 0, -a < x < a carries impedance
boundary conditions +-du/dy(x, +-0) = eta * u(x, +-0) in a 2D Helmholtz
medium with wavenumber k0 (Im k0 >= 0, limiting absorption).  The incident
plane wave is

    u_in(x, y) = exp(-i k0 (x cos(theta_in) + y sin(theta_in))),

split into an antisymmetric and a symmetric part about y = 0.

The square root xi(k) = sqrt(k0^2 - k^2) is branch-tracked explicitly:
the principal branch takes the value k0 at k = 0, is close to positive
real for real |k| < Re k0 and close to positive imaginary for
real |k| > Re k0.  Its branch cuts are the curves on which k0^2 - k^2 is
real nonnegative (one from +k0 and one from -k0, heading to +-i*infinity).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Parity(enum.Enum):
    """Symmetry class of a field or density about y = 0."""

    ANTISYMMETRIC = "antisymmetric"
    SYMMETRIC = "symmetric"


class BranchMode(enum.Enum):
    """Which determination of xi(k) = sqrt(k0^2 - k^2) is evaluated.

    PRINCIPAL         -- sheet containing xi(0) = k0, cut along the curves
                         where k0^2 - k^2 >= 0 (the two half-line value
                         curves of the square root for real k).
    SECOND_SHEET      -- negative of the principal value.
    CONTINUED_UPPER   -- one-sided limit from the upper/left shore when k
                         lies on a cut (continuation path passing left of
                         the cut, as seen walking from the branch point).
    CONTINUED_LOWER   -- one-sided limit from the other shore.
    """

    PRINCIPAL = "real-axis-principal"
    CONTINUED_UPPER = "continued-to-upper"
    CONTINUED_LOWER = "continued-to-lower"
    SECOND_SHEET = "second-sheet"


@dataclass(frozen=True)
class ProblemConfig:
    """Physical scenario for the impedance-strip problem.

    Parameters
    ----------
    k0 : complex
        Wavenumber, Im(k0) >= 0.  The spectral functions need Im(k0) > 0:
        at real k0 the cut rule has no first panel and `xi` takes the wrong
        limit (ROADMAP direction 5).
    a : float
        Strip half-length, a > 0.  The strip is -a < x < a, y = 0.
    eta : complex
        Impedance parameter, Im(eta) <= 0 (energy dissipation condition).
        eta = 0 is a hard strip.
    theta_in : float
        Incidence angle, 0 <= theta_in <= pi/2 (radians).
    """

    k0: complex
    a: float
    eta: complex
    theta_in: float

    def __post_init__(self) -> None:
        k0 = complex(self.k0)
        if not np.isfinite([k0.real, k0.imag]).all():
            raise ValueError("k0 must be finite")
        if k0.imag < 0:
            raise ValueError(f"Im(k0) must be >= 0 (limiting absorption), got {k0}")
        if k0.real <= 0:
            raise ValueError(f"Re(k0) must be > 0, got {k0}")
        eta = complex(self.eta)
        if not np.isfinite([eta.real, eta.imag]).all():
            raise ValueError(f"eta must be finite, got {eta}")
        if eta.imag > 0:
            raise ValueError(
                f"Im(eta) must be <= 0 (dissipation condition), got {self.eta}"
            )
        if not 0 < self.a < np.inf:
            raise ValueError(f"half-length a must be finite and > 0, got {self.a}")
        if not 0.0 <= self.theta_in <= np.pi / 2 + 1e-14:
            raise ValueError(
                f"theta_in must lie in [0, pi/2], got {self.theta_in}"
            )

    @property
    def k_star(self) -> complex:
        """Pole location k0*cos(theta_in) of the '+' spectral functions."""
        return complex(self.k0) * np.cos(self.theta_in)


def xi(k, mode: BranchMode = BranchMode.PRINCIPAL, *, k0: complex) -> np.ndarray | complex:
    """Branch-tracked square root xi(k) = sqrt(k0^2 - k^2).

    The principal determination is computed as i*sqrt(k^2 - k0^2) with the
    principal complex square root; this places the cuts exactly on the
    curves where k0^2 - k^2 is real nonnegative and gives xi(0) = k0,
    near-positive-real values for real |k| < Re k0 and near-positive-
    imaginary values for real |k| > Re k0.

    For k on a cut, CONTINUED_UPPER / CONTINUED_LOWER select the one-sided
    limits (implemented by an infinitesimal lateral offset of k off the
    cut); SECOND_SHEET negates the principal value.  Branch points +-k0
    return exactly 0 in every mode.
    """
    karr = np.asarray(k, dtype=complex)
    scalar = karr.ndim == 0
    # taken before any shore offset, which would move k off the branch point
    at_branch_point = (karr == k0) | (karr == -k0)

    if mode in (BranchMode.CONTINUED_UPPER, BranchMode.CONTINUED_LOWER):
        karr = _offset_off_cut(karr, k0, mode)

    val = 1j * np.sqrt(karr * karr - k0 * k0)
    val = np.where(at_branch_point, 0.0, val)
    if mode == BranchMode.SECOND_SHEET:
        val = -val
    return complex(val) if scalar else val


def _offset_off_cut(k: np.ndarray, k0: complex, mode: BranchMode) -> np.ndarray:
    """Nudge points laterally off the nearest cut for one-sided limits.

    Both cuts are parametrized by k(s) = +-i*sqrt(s^2 - k0^2), s >= 0, and
    have tangent dk/ds = -s/k there.  CONTINUED_UPPER is the left-shore
    limit (offset by +i times the unit tangent), CONTINUED_LOWER the right
    shore.  Only meaningful away from the branch points.
    """
    s = np.abs(np.sqrt(k0 * k0 - k * k))
    t = np.where(np.abs(k) > 0, -s / np.where(k == 0, 1.0, k), -1.0)
    t = np.where(np.abs(t) > 0, t / np.where(np.abs(t) == 0, 1.0, np.abs(t)), 1.0)
    eps = 1e-9 * max(1.0, abs(k0))
    side = 1j if mode == BranchMode.CONTINUED_UPPER else -1j
    return k + eps * side * t


def incident_field(cfg: ProblemConfig, parity: Parity, x, y):
    """Symmetrized incident wave u_in_a or u_in_s at (x, y).

    The antisymmetric part is -i*exp(-i k_* x)*sin(k0 sin(theta_in) y)
    (odd in y, vanishing on y = 0); the symmetric part is
    exp(-i k_* x)*cos(k0 sin(theta_in) y).  Their sum restores the plane
    wave exp(-i k0 (x cos(theta_in) + y sin(theta_in))).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k0 = complex(cfg.k0)
    ky = k0 * np.sin(cfg.theta_in)
    carrier = np.exp(-1j * cfg.k_star * x)
    if parity is Parity.ANTISYMMETRIC:
        return -1j * carrier * np.sin(ky * y)
    return carrier * np.cos(ky * y)
