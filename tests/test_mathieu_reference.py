"""The solver against the exact separable solution of the hard and soft strips.

For a real wavenumber the strip |x| < a, y = 0 separates in elliptic
coordinates (Morse & Rubenstein, Phys. Rev. 54, 895 (1938)).  With
q = (k0 a/2)^2, C = -4 e^{-i pi/4} and the angle functions taken at the
incidence's reverse direction theta_in + pi, the far-field coefficients are

    hard strip (eta = 0, S_a):     C sum_{m>=1} se_m(theta_in+pi) se_m(theta) R_m,
                                   R_m = Ms1_m'/(Ms1_m' + i Ms2_m')  at xi = 0;
    soft strip (eta -> inf, S_s):  C sum_{m>=0} ce_m(theta_in+pi) ce_m(theta) R_m,
                                   R_m = Mc1_m/(Mc1_m + i Mc2_m)     at xi = 0,

cut at M = floor(k0 a) + 25 terms.  scipy's Mathieu functions take their
angle in degrees.  Above k0 a of about 17 scipy's radial functions lose
accuracy, so the grid stops at 16; eta = 1e15 stands for the soft strip,
whose S_s differs from the limit by O(1/eta).
"""

import copy

import numpy as np
import pytest
from scipy.special import (
    mathieu_cem,
    mathieu_modcem1,
    mathieu_modcem2,
    mathieu_modsem1,
    mathieu_modsem2,
    mathieu_sem,
)

from stripscat import bie, kernels
from stripscat.core import ProblemConfig
from stripscat.spectral import Scattering

C = -4 * np.exp(-0.25j * np.pi)
THETA = np.linspace(0.05, np.pi - 0.05, 37)
THETA_IN = np.deg2rad([30.0, 60.0, 90.0])
# strip -> (eta, worst error over the grid in units of max|S|)
STRIPS = {"hard": (0.0, 2e-14), "soft": (1e15, 3e-14)}


def exact(strip: str, k0a: float) -> np.ndarray:
    """The Mathieu series of one strip, rows THETA, columns THETA_IN."""
    q = (k0a / 2) ** 2
    deg, deg_in = np.rad2deg(THETA), np.rad2deg(THETA_IN + np.pi)
    S = np.zeros((len(THETA), len(THETA_IN)), dtype=complex)
    for m in range(1 if strip == "hard" else 0, int(np.floor(k0a)) + 26):
        if strip == "hard":
            ang, ang_in = mathieu_sem(m, q, deg)[0], mathieu_sem(m, q, deg_in)[0]
            r1, r2 = mathieu_modsem1(m, q, 0.0)[1], mathieu_modsem2(m, q, 0.0)[1]
        else:
            ang, ang_in = mathieu_cem(m, q, deg)[0], mathieu_cem(m, q, deg_in)[0]
            r1, r2 = mathieu_modcem1(m, q, 0.0)[0], mathieu_modcem2(m, q, 0.0)[0]
        S += C * np.outer(ang, ang_in) * (r1 / (r1 + 1j * r2))
    return S


def error(strip: str, k0a: float) -> float:
    """max |S - exact| / max |exact| of the strip's parity at N = 64."""
    eta = STRIPS[strip][0]
    tab = Scattering(ProblemConfig(k0a, 1.0, eta, THETA_IN[0]), 64, THETA_IN).directivity(THETA)
    ref = exact(strip, k0a)
    S = tab.S_a if strip == "hard" else tab.S_s
    return float(np.max(np.abs(S - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("strip", list(STRIPS))
@pytest.mark.parametrize("k0a", [0.5, 1, 2, 4, 8, 12, 16])
def test_directivity_matches_mathieu_series(strip, k0a):
    assert error(strip, k0a) <= STRIPS[strip][1]


@pytest.fixture()
def planted(monkeypatch):
    """Plants a defect (a monkeypatch) on fresh memos and leaves none behind."""
    kernels.MEMO_CACHE.clear()
    yield monkeypatch
    monkeypatch.undo()
    kernels.MEMO_CACHE.clear()


@pytest.mark.parametrize("strip", list(STRIPS))
def test_scaled_q_hat_is_seen(planted, strip):
    expansion = bie.kernel_expansion

    def scaled(k0, a):
        bad = copy.copy(expansion(k0, a))
        bad.hats = {p: (pi, q * (1 + 1e-6)) for p, (pi, q) in bad.hats.items()}
        return bad

    planted.setattr(bie, "kernel_expansion", scaled)
    assert error(strip, 2.0) > 1e-7


def test_scaled_edge_tail_columns_are_seen_on_the_soft_strip(planted):
    # the hard strip's S_a cannot see this defect (its error stays at roundoff)
    operator = bie._operator

    def scaled(k0, a, eta, parity, N):
        A, *rest = operator(k0, a, eta, parity, N)
        A = A.copy()
        A[:, N:] *= 1.01
        return (A, *rest)

    planted.setattr(bie, "_operator", scaled)
    assert error("soft", 2.0) > 1e-7
