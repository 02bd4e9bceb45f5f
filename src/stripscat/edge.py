"""Edge-expansion extraction and verification.

The total antisymmetric field behaves near an edge like

    u = c (k0 rho)^{1/2} sin(phi/2)
        - (2 c eta)/(3 pi k0) (k0 rho)^{3/2} [phi cos(3 phi/2)
                                              + ln(k0 rho) sin(3 phi/2)] + ...

with the local angle phi measured from the strip continuation (phi = 0 on
y = 0 beyond the edge, faces at phi = +-pi).  The total symmetric field is

    u = d - (eta d/pi) rho ln(k0 rho) cos(phi) + F rho phi sin(phi) + ...

The leading constants c_+-, d_+- follow in closed form from the densities'
edge values: the antisymmetric strip trace is mu/2, so
c = lim mu/(2 sqrt(k0 rho)); the impedance condition makes the symmetric
density the total trace, sigma = -2 eta u, so d = -sigma(+-a)/(2 eta).
`local_expansion_fit` instead samples the actual field on polar fans and
fits the expansions blind, recovering the leading exponent, the angular
profile, and the second-order/leading coefficient ratio (-2 eta/(3 pi k0)
in the antisymmetric case).
"""

from __future__ import annotations

import numpy as np

from .bie import Density, scattered_field
from .chebkit import edge_log_tail_sum
from .core import Parity, ProblemConfig, incident_field

# the radii of local_expansion_fit's polar fans, in units of a, and the
# number of fan angles over (-pi, pi)
RADII_FACTORS = tuple(np.geomspace(1e-3, 3e-2, 8))
N_ANGLES = 16


def _edge_sign(side: str) -> float:
    """+1 for the edge x = a ("+"), -1 for x = -a ("-"); any other side is an error."""
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    return 1.0 if side == "+" else -1.0


def _edge_value(dens: Density, side: str) -> complex:
    """The density's Chebyshev sum at s = +-1, P(+-1) = sum coeffs[n] f_n(+-1)
    with U_n(+-1) = (+-1)^n (n+1) or T_n(+-1) = (+-1)^n, plus the exact
    remainders of the folded edge-log tails beyond the stored coefficients
    (`chebkit.edge_log_tail_sum`)."""
    plus = _edge_sign(side) > 0
    kind = "U" if dens.parity is Parity.ANTISYMMETRIC else "T"
    n = np.arange(len(dens.coeffs))
    sgn = 1.0 if plus else (-1.0) ** n
    val = np.sum(dens.coeffs * sgn * (n + 1 if kind == "U" else 1.0))
    ap, am = dens.aug_amp
    # the tail of (1 - s)ln(1 - s) is plain at s = 1, alternating at s = -1
    t_ap, t_am = (edge_log_tail_sum(kind, len(n), alt) for alt in (not plus, plus))
    return val + (ap * t_ap + am * t_am)


def extract_c(dens_a: Density, cfg: ProblemConfig, side: str) -> complex:
    """Leading antisymmetric edge coefficient c_side, analytically from the basis.

    c = lim mu(x) / (2 sqrt(k0 (a -+ x))); since mu = sqrt(a^2-x^2) times the
    Chebyshev sum, the limit is sqrt(2a) * P(+-1) / (2 sqrt(k0)).
    """
    if dens_a.parity is not Parity.ANTISYMMETRIC:
        raise ValueError("extract_c needs the antisymmetric density")
    pval = _edge_value(dens_a, side)
    return complex(np.sqrt(2 * cfg.a) * pval / (2 * np.sqrt(complex(cfg.k0))))


def extract_d(dens_s: Density, cfg: ProblemConfig, side: str) -> complex:
    """Symmetric edge constant d_side, the total field at the edge x = +-a.

    The impedance condition makes the density the total strip trace,
    sigma = -2 eta u_total, so d = -sigma(+-a)/(2 eta).  At eta = 0 the
    density vanishes and d is the incident value e^{-+i k_* a}.
    """
    if dens_s.parity is not Parity.SYMMETRIC:
        raise ValueError("extract_d needs the symmetric density")
    x = _edge_sign(side) * cfg.a
    if cfg.eta == 0:
        return complex(incident_field(cfg, Parity.SYMMETRIC, x, 0.0))
    return complex(-_edge_value(dens_s, side) / (2 * cfg.eta))


def _total_field(dens: Density, cfg: ProblemConfig, x, y):
    return scattered_field(dens, cfg, x, y) + incident_field(cfg, dens.parity, x, y)


def _edge_points(cfg: ProblemConfig, side: str, rho: float, phi: np.ndarray):
    """Map local polar (rho, phi in (0, pi)) to (x, y); phi = 0 points off-strip."""
    return _edge_sign(side) * (cfg.a + rho * np.cos(phi)), rho * np.sin(phi)


def local_expansion_fit(dens: Density, cfg: ProblemConfig, side: str = "+") -> dict:
    """Blind least-squares fit of the edge expansion to sampled total fields.

    Samples the total field on polar fans around the chosen edge, extending
    to phi in (pi, 2 pi) by the parity reflection.  Reports the fitted
    leading exponent, the angular correlation with the leading profile, the
    second-order coefficient ratio (antisymmetric), or the constant-term
    consistency (symmetric).
    """
    a, k0, eta = cfg.a, cfg.k0, cfg.eta
    radii = np.asarray(RADII_FACTORS, dtype=float) * a
    phi_up = np.linspace(0.12, np.pi - 0.12, N_ANGLES // 2)
    phis = np.concatenate([-phi_up[::-1], phi_up])
    # every fan in one field evaluation: row i is the fan at radii[i]
    fans = _total_field(dens, cfg, *_edge_points(cfg, side, radii[:, None], phi_up))
    samples = []
    for rho, u_up in zip(radii, fans):
        # extend to phi in (-pi, 0) by the y-parity of the field
        if dens.parity is Parity.ANTISYMMETRIC:
            u_dn = -u_up[::-1]
        else:
            u_dn = u_up[::-1]
        samples.append((rho, phis, np.concatenate([u_dn, u_up])))

    if dens.parity is Parity.ANTISYMMETRIC:
        prof = lambda p: np.sin(p / 2)
    else:
        prof = lambda p: np.ones_like(p)

    # per-radius projection on the leading angular profile -> exponent fit
    amps = []
    corrs = []
    for rho, phis, u in samples:
        pv = prof(phis)
        amps.append(np.vdot(pv, u) / np.vdot(pv, pv))
        corrs.append(abs(np.vdot(pv, u)) / (np.linalg.norm(pv) * np.linalg.norm(u)))
    amps = np.array(amps)
    slope, _ = np.polyfit(np.log(radii), np.log(np.maximum(np.abs(amps), 1e-300)), 1)

    # full model fit; each order carries its free homogeneous companion so
    # the logarithm coefficients are recovered without bias
    rows = []
    rhs = []
    for rho, phis, u in samples:
        if dens.parity is Parity.ANTISYMMETRIC:
            f1 = (complex(k0) * rho) ** 0.5 * np.sin(phis / 2)
            f2 = (complex(k0) * rho) ** 1.5 * phis * np.cos(3 * phis / 2)
            f3 = (complex(k0) * rho) ** 1.5 * np.log(complex(k0) * rho) * np.sin(3 * phis / 2)
            f4 = (complex(k0) * rho) ** 1.5 * np.sin(3 * phis / 2)
        else:
            f1 = np.ones_like(phis, dtype=complex)
            f2 = rho * np.log(complex(k0) * rho) * np.cos(phis)
            f3 = rho * phis * np.sin(phis)
            f4 = rho * np.cos(phis) + 0j
        rows.append(np.column_stack([f1, f2, f3, f4]))
        rhs.append(u)
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    cond = np.linalg.cond(A)
    if cond > 1e9:
        raise ValueError(f"ill-conditioned edge fit (condition {cond:.2e}); spread the radii")
    coef = np.linalg.lstsq(A, b, rcond=None)[0]

    out = {
        "side": side,
        "parity": dens.parity.value,
        "exponent": float(slope),
        # leading-order property: assessed at the innermost radius, where
        # the higher-order terms are negligible
        "angular_correlation": float(corrs[int(np.argmin(radii))]),
    }
    if dens.parity is Parity.ANTISYMMETRIC:
        target = -2 * eta / (3 * np.pi * k0)
        ratio = coef[2] / coef[0]
        out["log_coeff_ratio"] = complex(ratio)
        out["log_coeff_target"] = complex(target)
        out["log_coeff_rel_err"] = float(abs(ratio - target) / abs(target))
    else:
        d_ref = extract_d(dens, cfg, side)
        out["constant_term_rel_err"] = float(abs(coef[0] - d_ref) / abs(d_ref))
        out["rholog_coefficient"] = complex(coef[1])
        out["rholog_reference"] = complex(-eta * d_ref / np.pi)
    return out
