"""Boundary-integral solvers for the two mixed half-plane problems.

Antisymmetric part (field odd in y): double-layer ansatz

    u_a(x, y) = int_{-a}^{a} mu(t) dG/dy'(x, y; t, 0) dt,

which vanishes on y = 0 off the strip by construction; the impedance
condition becomes the hypersingular equation

    (T mu)(x) - (eta/2) mu(x) = i k0 sin(theta_in) e^{-i k_* x},  |x| < a,

with mu = 2 u_a(x, +0).  mu is discretized in the edge-weighted basis
mu(x) = sqrt(a^2 - x^2) sum b_n U_n(x/a), which carries the sqrt edge
vanishing exactly; Galerkin testing uses the same family.

Symmetric part (field even in y): single-layer ansatz u_s = int sigma G dt,
whose normal derivative vanishes off the strip by construction; the
impedance condition becomes the second-kind equation

    -sigma(x)/2 - eta (S sigma)(x) = eta e^{-i k_* x},  |x| < a,

with sigma = -2 du_s/dy(x, +0) = -2 eta u_total on the strip.  Because the
impedance condition pins the normal derivative to eta times the (bounded)
total trace, sigma is bounded at the edges with a rho*log(rho) correction;
it is discretized as sigma(x) = sum c_n T_n(x/a) augmented by the two
edge functions (1 -+ x/a) ln(1 -+ x/a) whose Chebyshev tails are attached
as two extra solution columns.  Galerkin testing uses T_m/sqrt(1-s^2).

All singular kernel parts act analytically on these bases (chebkit); only
entire kernel factors are expanded numerically (kernels.KernelExpansion),
so both discretizations converge spectrally down to the rho^2 log^2 rho
edge floor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import hankel1, jv

from . import chebkit as ck
from .core import Parity, ProblemConfig
from .kernels import hyper_kernel, kernel_expansion, kernel_order, single_kernel

logger = logging.getLogger(__name__)

# the coefficient-tail target of a solve and the truncation tolerance of the
# half-line banks
DEFAULT_TAIL_TOL = 1e-9


class SingularSystemError(RuntimeError):
    """Raised when the Galerkin system is numerically singular."""


@dataclass(frozen=True)
class Density:
    """Boundary density in its edge-adapted Chebyshev representation.

    antisymmetric: mu(x) = sqrt(a^2 - x^2) * sum_n coeffs[n] U_n(x/a)
    symmetric:     sigma(x) = sum_n coeffs[n] T_n(x/a)
                   (bounded edges; the rho log rho edge behaviour is folded
                   into the trailing coefficients)
    """

    parity: Parity
    a: float
    coeffs: np.ndarray
    # amplitudes of the two edge-log tail series folded into coeffs
    # (in the raw (1 -+ s)ln(1 -+ s) coefficient scale); lets edge limits
    # correct for the truncation of those slowly-decaying tails
    aug_amp: tuple = (0.0, 0.0)

    def poly(self, s):
        """The Chebyshev sum at scaled coordinate s = x/a."""
        kind = "U" if self.parity is Parity.ANTISYMMETRIC else "T"
        return ck.eval_series(self.coeffs, s, kind)

    def __call__(self, x):
        """Density value at physical coordinate x, |x| <= a."""
        x = np.asarray(x, dtype=float)
        s = x / self.a
        if self.parity is Parity.ANTISYMMETRIC:
            return np.sqrt(np.maximum(self.a ** 2 - x * x, 0.0)) * self.poly(s)
        return self.poly(s)


@dataclass(frozen=True)
class SolveDiagnostics:
    N: int
    tail_decay: float
    condition_estimate: float
    tail_converged: bool
    kernel_tail: float


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------
def _log_sum_rect(Lbig: np.ndarray, Rbig: np.ndarray, Pi: np.ndarray, rmax: int) -> np.ndarray:
    """-2 sum_r (1/r) Phi_L^(r) Pi Phi_R^(r)T.

    Phi^(r) = B E_r, where E_r[j, p] = (d_{j,p+r} + d_{j,|p-r|})/2 encodes the
    product T_p T_r = (T_{p+r} + T_{|p-r|})/2 against the row family whose
    banded orthogonality matrix is B (W for the sqrt(w) U family, V for
    T/sqrt(w), C3 for plain T).  The sum is Lbig C Rbig^T with
    C = -2 sum_r (1/r) E_r Pi E_r^T, of which only the rows that meet a
    nonzero column of Lbig are formed, by slice-adds of Pi.
    """
    Np = Pi.shape[0]
    nL = int(np.flatnonzero(Lbig.any(axis=0))[-1]) + 1
    C = np.zeros((nL, Lbig.shape[1]), dtype=complex)
    Y = np.empty((nL, Np), dtype=complex)
    for r in range(1, rmax + 1):
        # Y = (E_r Pi)[:nL]: row i takes Pi[i - r] and Pi[p] for |p - r| = i
        Y[:] = 0.0
        n = min(nL - r, Np)
        if n > 0:
            Y[r:r + n] += Pi[:n]
        n = min(nL, Np - r)
        if n > 0:
            Y[:n] += Pi[r:r + n]
        lo, hi = max(1, r - Np + 1), min(nL, r + 1)
        if hi > lo:
            Y[lo:hi] += Pi[r - hi + 1:r - lo + 1][::-1]
        # C += -(2/r) (Y/2) E_r^T: column q of Y goes to columns q + r and |q - r|
        Y *= -0.5 / r
        C[:, r:r + Np] += Y
        if r < Np:
            C[:, :Np - r] += Y[:, r:]
        m = min(r, Np)
        C[:, r - m + 1:r + 1] += Y[:, m - 1::-1]
    return Lbig[:, :nL] @ C @ Rbig.T


def _galerkin(cfg: ProblemConfig, parity: Parity, Ntest: int, Ntr: int):
    """The Galerkin matrix of one parity's boundary operator.

    Both parities are static + c (L K R^T + log sum), with the kernel's
    smooth part K = (ln a - ln 2) Pi + Q and the log-kernel sum of
    `_log_sum_rect`; L and R are the test and trial families' coupling to
    T_p.  Only the data differ:

    antisymmetric: test sqrt(w)U_m, trial sqrt(a^2-x^2)U_n(x/a); L = R = W,
                   c = a^3, static = diag(-a pi (n+1)/4) - (eta/2) a^2 mass2;
    symmetric:     test T_m/sqrt(w), trial T_n(x/a); L = V (the diagonal
                   T orthogonality), R = C3^T, c = -eta a^2, static = -(a/2) V.

    Returns the Ntest x Ntr matrix, the trial family's coefficients of the
    edge function (1 - s) ln(1 - s), and the kernel expansion.
    """
    k0, a, eta = cfg.k0, cfg.a, cfg.eta
    antisym = parity is Parity.ANTISYMMETRIC
    Np = max(kernel_order(k0, a), Ntest + 4)
    ker = kernel_expansion(k0, a, antisym, Np)
    rmax = min(Ntest, Ntr) + Np + 2
    big = Np + rmax + 3
    n = np.arange(Ntest)
    static = np.zeros((Ntest, Ntr), dtype=complex)
    beta = ck.edge_log_t_coeffs(Ntr + 3)
    if antisym:
        L, R, c = ck.w_matrix(Ntest, big), ck.w_matrix(Ntr, big), a ** 3
        static[n, n] = -a * np.pi * (n + 1) / 4.0
        static -= (eta / 2.0) * a * a * ck.mass2_matrix(Ntest, Ntr)
        # U coefficients, from T_n = (U_n - U_{n-2})/2
        edge = np.concatenate([[beta[0] - beta[2] / 2], 0.5 * (beta[1:Ntr] - beta[3:Ntr + 2])])
    else:
        L, R, c = np.zeros((Ntest, big)), ck.c3_matrix(big, Ntr).T, -eta * a * a
        L[n, n] = np.where(n == 0, np.pi, np.pi / 2)
        static[n, n] = -0.5 * a * L[n, n]
        edge = beta[:Ntr]
    K = (np.log(a) - np.log(2.0)) * ker.pi_hat + ker.q_hat
    O = static + c * (L[:, :Np] @ K @ R[:, :Np].T + _log_sum_rect(L, R, ker.pi_hat, rmax))
    return O, edge, ker


def _edge_tails(edge: np.ndarray, N: int):
    """Unit-normalized trailing parts (orders >= N) of the edge-log functions
    (1 -+ s) ln(1 -+ s), from the trial family's coefficients `edge` of
    (1 - s) ln(1 - s) (the mirror function's are (-1)^n times them), and
    their normalization factors."""
    plus = edge.copy()
    minus = edge * (-1.0) ** np.arange(len(edge))
    plus[:N] = 0.0
    minus[:N] = 0.0
    norm_p, norm_m = np.linalg.norm(plus), np.linalg.norm(minus)
    return plus / norm_p, minus / norm_m, norm_p, norm_m


def _rhs(cfg: ProblemConfig, parity: Parity, theta_in, Ntest: int) -> np.ndarray:
    """Right-hand sides of one parity for every incidence: column j projects
    the plane-wave data at theta_in[j] on the Ntest test functions.

    The data are i k0 sin(theta_in) e^{-i k_* x} (antisymmetric, against
    sqrt(w)U_m) and eta e^{-i k_* x} (symmetric, against T_m/sqrt(w)), so
    both are the transforms listed in chebkit, at z = -k_* a.
    """
    theta_in = np.asarray(theta_in, dtype=float)
    z = -complex(cfg.k0) * np.cos(theta_in) * cfg.a
    if parity is Parity.ANTISYMMETRIC:
        return (1j * cfg.k0 * np.sin(theta_in) * cfg.a) * ck.u_transform_matrix(Ntest, z).T
    m = np.arange(Ntest)[:, None]
    return cfg.eta * cfg.a * np.pi * ck.i_pow(m) * jv(m, z)


# (k0, a, eta, parity, N) -> (augmented matrix, condition estimate, edge-tail
# vectors with their norms, kernel tail mass).  The operator does not depend
# on the incidence angle, so every incidence on one medium reuses the entry.
_OPERATOR_CACHE: dict = {}


def _operator(cfg: ProblemConfig, parity: Parity, N: int):
    key = (complex(cfg.k0), float(cfg.a), complex(cfg.eta), parity, N)
    entry = _OPERATOR_CACHE.get(key)
    if entry is None:
        O, edge, ker = _galerkin(cfg, parity, N + 2, max(192, N + 96))
        tails = _edge_tails(edge, N)
        A = np.column_stack([O[:, :N], O @ tails[0], O @ tails[1]])
        cond = float(np.linalg.cond(A))
        if not np.isfinite(cond) or cond > 1e13:
            raise SingularSystemError(f"{parity.value} system condition {cond:.2e}")
        if len(_OPERATOR_CACHE) > 32:
            _OPERATOR_CACHE.clear()
        entry = _OPERATOR_CACHE[key] = (A, cond, tails, ker.tail_mass())
    return entry


def solve_block(cfg: ProblemConfig, parity: Parity, theta_in, N: int):
    """Solve one parity for every incidence theta_in on the medium of cfg.

    Returns (coeffs, aug_amp, condition, kernel_tail): column j of coeffs
    and of aug_amp belongs to theta_in[j].  The operator does not depend on
    the incidence, so the right-hand sides are the columns of one block and
    the system is solved once.  The solution's last two rows are the
    amplitudes of the unit-normalized edge-log tails; they are folded into
    one long coefficient vector per column.
    """
    if N < 4:
        raise ValueError("N must be >= 4")
    A, cond, (vp, vm, norm_p, norm_m), ker_tail = _operator(cfg, parity, N)
    sol = np.linalg.solve(A, _rhs(cfg, parity, theta_in, N + 2))
    coeffs = np.zeros((len(vp), sol.shape[1]), dtype=complex)
    coeffs[:N] = sol[:N]
    coeffs += sol[N] * vp[:, None] + sol[N + 1] * vm[:, None]
    # the tail amplitudes in the raw edge-log scale.  Real and imaginary parts
    # are divided apart, as Python divides a complex by a float; NumPy's
    # complex division multiplies by the reciprocal and can differ in the
    # last bit, which edge.extract_c would carry into its output
    norms = np.array([[norm_p], [norm_m]])
    amp = sol[N:].real / norms + 1j * (sol[N:].imag / norms)
    return coeffs, amp, cond, ker_tail


def _solve(cfg: ProblemConfig, parity: Parity, N: int, tail_tol: float):
    """One incidence, the one-column case of `solve_block`; returns
    (Density, SolveDiagnostics)."""
    coeffs, amp, cond, ker_tail = solve_block(cfg, parity, [cfg.theta_in], N)
    coeffs = coeffs[:, 0]
    dens = Density(parity, cfg.a, coeffs, aug_amp=(complex(amp[0, 0]), complex(amp[1, 0])))

    # the folded edge-log tail is an exact feature of the density; the
    # convergence-relevant decay is that of the solved polynomial block
    peak = np.max(np.abs(coeffs))
    tail = float(np.max(np.abs(coeffs[int(0.9 * N):N])) / peak) if peak > 0 else 0.0
    ok = tail <= tail_tol
    if not ok:
        logger.debug("%s solve at N=%d: coefficient tail %.2e above target %.0e",
                     parity.value, N, tail, tail_tol)
    return dens, SolveDiagnostics(N, tail, cond, ok, ker_tail)


def solve_antisymmetric(cfg: ProblemConfig, N: int, *, tail_tol: float = DEFAULT_TAIL_TOL):
    """Solve the hypersingular problem; return (Density, SolveDiagnostics).

    The trial space is the first N weighted Chebyshev functions plus the
    trailing parts of the two edge-log functions sqrt(w)(1 -+ s)ln(1 -+ s)
    (which carry the rho^{3/2} log rho edge correction); their
    contribution is folded back into one long coefficient vector.
    """
    return _solve(cfg, Parity.ANTISYMMETRIC, N, tail_tol)


def solve_symmetric(cfg: ProblemConfig, N: int, *, tail_tol: float = DEFAULT_TAIL_TOL):
    """Solve the second-kind symmetric problem; return (Density, SolveDiagnostics).

    At eta = 0 the right-hand side vanishes and so does the density.
    """
    return _solve(cfg, Parity.SYMMETRIC, N, tail_tol)


# ---------------------------------------------------------------------------
# pointwise operator actions (closed-form singular parts)
# ---------------------------------------------------------------------------
def _kernel_columns(ker: KernelExpansion, s):
    """pi_q(s) and q_q(s): the kernel factors' T_q(t) columns at fixed s."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    Np = ker.order
    T = np.cos(np.arange(Np)[None, :] * np.arccos(np.clip(s, -1, 1))[:, None])
    return T @ ker.pi_hat, T @ ker.q_hat          # (ns, Np) each


def hypersingular_action(dens: Density, cfg: ProblemConfig, x):
    """(T mu)(x) on the strip, via analytic static/log parts + expanded remainder."""
    assert dens.parity is Parity.ANTISYMMETRIC
    a, k0 = cfg.a, cfg.k0
    b = dens.coeffs
    N = len(b)
    s = np.atleast_1d(np.asarray(x, dtype=float)) / a
    ker = kernel_expansion(k0, a, True, kernel_order(k0, a))
    Np = ker.order

    nn = np.arange(N)
    Us = np.empty((len(s), N))
    Us[:, 0] = 1.0
    if N > 1:
        Us[:, 1] = 2.0 * s
    for n in range(2, N):
        Us[:, n] = 2.0 * s * Us[:, n - 1] - Us[:, n - 2]
    static = Us @ (-(nn + 1) / 2.0 * b)

    pic, qc = _kernel_columns(ker, s)
    Wb = ck.w_matrix(N, Np)
    wb = Wb.T @ b                                  # moments int T_q sqrt(w) P dt
    smooth = (pic * np.log(a) + qc) @ wb           # Pi ln(a) part + entire part

    # T_q U_n = (U_{n+q} + U_{n-q})/2 with U_{-1} = 0 and U_{-m} = -U_{m-2}
    ell = ck.log_point_u(N + Np + 2, s)            # (ns, N+Np+2)
    q = np.arange(Np)[:, None]
    d = nn[None, :] - q
    sign = np.where(d >= 0, 1.0, np.where(d <= -2, -1.0, 0.0))
    cols = (ell[:, q + nn] + sign * ell[:, np.where(d >= 0, d, np.abs(d + 2))]) @ (0.5 * b)
    logpart = np.sum(pic * cols, axis=1)
    out = static + a * a * (smooth + logpart)
    return out if np.ndim(x) else complex(out[0])


def sym_trace_on_strip(dens: Density, cfg: ProblemConfig, x):
    """(S sigma)(x) = u_s(x, 0) for |x| < a, product-integration accurate."""
    assert dens.parity is Parity.SYMMETRIC
    a, k0 = cfg.a, cfg.k0
    c = dens.coeffs
    N = len(c)
    s = np.atleast_1d(np.asarray(x, dtype=float)) / a
    ker = kernel_expansion(k0, a, False, kernel_order(k0, a))
    Np = ker.order

    C3 = ck.c3_matrix(Np, N)
    mom = C3 @ c                                   # (Np,) moments int T_q sigma_poly
    pic, qc = _kernel_columns(ker, s)
    smooth = (pic * np.log(a) + qc) @ mom

    # T_q T_n = (T_{q+n} + T_{|q-n|})/2
    Lam = ck.log_point_plain_t(N + Np + 2, s)
    q = np.arange(Np)[:, None]
    n = np.arange(N)[None, :]
    cols = (Lam[:, q + n] + Lam[:, np.abs(q - n)]) @ (0.5 * c)
    logpart = np.sum(pic * cols, axis=1)
    out = a * (smooth + logpart)
    return out if np.ndim(x) else complex(out[0])


def boundary_residual(dens: Density, cfg: ProblemConfig, n_check: int = 48) -> float:
    """Max relative residual of the governing boundary equation on a Chebyshev grid.

    Where the data vanish, the residual is scaled by max(max|lhs|, 1)
    instead, so a zero density reads 0 and any other density reads > 0."""
    s, _ = ck.gauss_cheb1(n_check)
    x = cfg.a * s
    ks = cfg.k_star
    if dens.parity is Parity.ANTISYMMETRIC:
        lhs = hypersingular_action(dens, cfg, x) - (cfg.eta / 2.0) * dens(x)
        rhs = 1j * cfg.k0 * np.sin(cfg.theta_in) * np.exp(-1j * ks * x)
    else:
        lhs = -0.5 * dens(x) - cfg.eta * sym_trace_on_strip(dens, cfg, x)
        rhs = cfg.eta * np.exp(-1j * ks * x)
    scale = np.max(np.abs(rhs))
    if scale == 0:        # zero data (grazing incidence; eta = 0 for the symmetric part)
        scale = max(np.max(np.abs(lhs)), 1.0)
    return float(np.max(np.abs(lhs - rhs)) / scale)


# ---------------------------------------------------------------------------
# field and trace evaluation
# ---------------------------------------------------------------------------
def _strip_theta_quad(s0: float, dist: float, nper: int = 20):
    """Theta nodes/weights on [0, pi] resolving a kernel feature at s = s0,
    distance `dist` away, plus the density's edge-log structure at both
    endpoints (all in scaled units)."""
    if abs(s0) >= 1.0:
        th, w = ck.theta_graded(dist, nper=nper)
        if s0 < 0:
            return np.pi - th, w
        return th, w
    th0 = np.arccos(np.clip(s0, -1, 1))
    width = max(dist / max(np.sin(th0), np.sqrt(dist) if dist > 0 else 1e-7), 1e-7)
    width = 2.0 ** np.floor(np.log2(width / 4))
    breaks = {0.0, np.pi, th0}
    for center, size in ((th0, width), (0.0, 2.0 ** -16), (np.pi, 2.0 ** -16)):
        t = size
        while t < np.pi:
            for cand in (center - t, center + t):
                if 1e-12 < cand < np.pi - 1e-12:
                    breaks.add(cand)
            t *= 2.0
    edges = np.array(sorted(breaks))
    keep = np.concatenate([[True], np.diff(edges) > 1e-12])
    return ck.panels(edges[keep], nper)


# quadrature nodes per batched field evaluation.  A target near the strip
# takes about 1000 nodes and every node some 130 bytes of temporaries, so a
# chunk stays near 1 MiB however many targets a call has.  It also keeps each
# complex temporary under the 256 KiB from which NumPy reuses a temporary
# operand in place: the in-place complex product and quotient round
# differently, and a target's value would then depend on its chunk.
_FIELD_CHUNK_NODES = 2 ** 13


def scattered_field(dens: Density, cfg: ProblemConfig, x, y):
    """Layer-potential field of the solved density at (x, y), y >= 0.

    Evaluation on the open strip (y = 0, |x| < a) is an error: its one-sided
    trace is `strip_trace`.  The antisymmetric field vanishes identically on
    y = 0, |x| > a.

    Each target has its own `_strip_theta_quad` rule; the rules of a chunk
    of targets are concatenated, so the density and the kernel are evaluated
    once per chunk.  Each target's sum stays its own `np.sum`, which keeps a
    target's value independent of the other targets of the call.
    """
    scalar = np.ndim(x) == 0 and np.ndim(y) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    xs, ys = np.broadcast_arrays(xs, ys)
    a, k0 = cfg.a, cfg.k0
    if np.any((ys == 0.0) & (np.abs(xs) < a)):
        raise ValueError("scattered_field is not defined on the open strip; use strip_trace")
    antisym = dens.parity is Parity.ANTISYMMETRIC
    shape = xs.shape
    xs, ys = xs.ravel(), ys.ravel()
    out = np.zeros(len(xs), dtype=complex)

    def evaluate(targets, rules):
        segs = np.cumsum([0] + [len(th) for th, _ in rules])
        th = np.concatenate([th for th, _ in rules])
        w = np.concatenate([w for _, w in rules])
        xv, yv = (np.repeat(v[targets], np.diff(segs)) for v in (xs, ys))
        tau = np.cos(th)
        R = np.hypot(xv - a * tau, yv)
        P = dens.poly(tau)
        if antisym:
            kern = 0.25j * k0 * hankel1(1, k0 * R) * yv / R
            vals, scale = w * np.sin(th) ** 2 * P * kern, a * a
        else:
            kern = 0.25j * hankel1(0, k0 * R)
            vals, scale = w * np.sin(th) * P * kern, a
        out[targets] = [scale * np.sum(vals[lo:hi]) for lo, hi in zip(segs[:-1], segs[1:])]

    # the antisymmetric field is zero on y = 0 off the strip
    targets, rules, nodes = [], [], 0
    for i in np.flatnonzero(ys != 0.0) if antisym else range(len(xs)):
        s0 = xs[i] / a
        dist = np.hypot(max(abs(s0) - 1.0, 0.0), ys[i] / a)
        rule = _strip_theta_quad(s0, dist)
        if targets and nodes + len(rule[0]) > _FIELD_CHUNK_NODES:
            evaluate(targets, rules)
            targets, rules, nodes = [], [], 0
        targets.append(i)
        rules.append(rule)
        nodes += len(rule[0])
    if targets:
        evaluate(targets, rules)
    return complex(out[0]) if scalar else out.reshape(shape)


def strip_trace(dens: Density, cfg: ProblemConfig, x):
    """One-sided trace on the strip: u_a(x, +0) = mu(x)/2 or u_s(x, +0) = (S sigma)(x)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(xs) >= cfg.a):
        raise ValueError("strip_trace requires |x| < a")
    if dens.parity is Parity.ANTISYMMETRIC:
        out = dens(xs) / 2.0
    else:
        out = sym_trace_on_strip(dens, cfg, xs)
    return out if np.ndim(x) else complex(out[0])


def density_quadrature(dens: Density, k0: complex):
    """Nodes t and weights w with sum_i w_i f(t_i) = int_{-a}^{a} rho(t) f(t) dt.

    Exact up to roundoff for f entire of exponential type |k0| (plane waves,
    J_m(k0 t)): the density is a polynomial of degree len(coeffs) - 1 (times
    sqrt(a^2 - t^2) for the antisymmetric part, which Gauss-Chebyshev of the
    second kind carries), and f adds about |k0| a to the degree.
    """
    n = max(256, len(dens.coeffs) + int(np.ceil(abs(k0) * dens.a)))
    if dens.parity is Parity.ANTISYMMETRIC:
        s, w = ck.gauss_cheb2(n)
        return dens.a * s, dens.a ** 2 * w * dens.poly(s)
    s, w = ck.gauss_legendre(n)
    return dens.a * s, dens.a * w * dens.poly(s)


# orders computed beyond |k0| a: the series converges like (a/|x|)^m, and
# (1/1.5)^100 < 3e-18 at the nearest far-field target |x| = 1.5a.  Where
# that is not enough (|k0| a in the hundreds, where J_m(k0 t) decays over a
# width of (|k0| a)^(1/3) orders past |k0| a), `_graf_eval` finds no order
# count and hands the targets to `_direct_eval`.
_GRAF_EXTRA_ORDERS = 100


def _graf_coeffs(dens: Density, cfg: ProblemConfig, antisym: bool) -> np.ndarray:
    """Coefficients d_m of the boundary data g(x) = sum_{m>=0} d_m H_m(k0 x), x > a.

    Graf's addition theorem for collinear points (DLMF 10.23.7),
    H_n(k0(x - t)) = sum_k H_{n+k}(k0 x) J_k(k0 t) for |t| < x, turns the
    kernels (i/4) H0 (symmetric) and (i k0^2/8)(H0 + H2) (antisymmetric)
    into sums over the density moments c_k = int rho J_k(k0 t) dt.  Negative
    orders fold onto m >= 0 through c_{-k} = (-1)^k c_k and
    H_{-m} = (-1)^m H_m.  The terms decay like (a/x)^m beyond m ~ |k0| a.
    """
    k0 = cfg.k0
    t, w = density_quadrature(dens, k0)
    k = np.arange(int(np.ceil(abs(k0) * cfg.a)) + _GRAF_EXTRA_ORDERS)
    c = jv(k[:, None], k0 * t[None, :]) @ w
    if antisym:
        c_below = np.concatenate([[c[2], -c[1]], c[:-4]])      # c_{m-2}
        d = (1j * k0 * k0 / 8) * (2 * c[:-2] + c_below + c[2:])
    else:
        d = 0.5j * c
    d[0] /= 2
    return d


def _graf_order_count(d: np.ndarray, k0: complex, r: float) -> int | None:
    """Orders of the series sum d_m H_m(k0 r) that reach roundoff at radius r.

    The count ends at the last term |d_m H_m(k0 r)| of at least 1e-17 of the
    largest one.  None when the computed orders do not show that: fewer than
    two computed orders follow it, or H_m nears overflow first (at small
    |k0| r, where H_m grows like (m - 1)! (2 / k0 r)^m).
    """
    h = np.abs(hankel1(np.arange(len(d)), k0 * r))
    finite = h < 1e250                                      # NaN past overflow
    avail = len(d) if finite.all() else int(np.argmin(finite))
    terms = np.abs(d[:avail]) * h[:avail]
    if not np.any(terms):
        return 1
    n = int(np.flatnonzero(terms >= 1e-17 * np.max(terms))[-1]) + 1
    return n if n + 2 <= avail else None


def _graf_eval(dens: Density, cfg: ProblemConfig, r: np.ndarray, antisym: bool) -> np.ndarray:
    """Boundary data at x = +-r, from the multipole series of `_graf_coeffs`.

    r holds sorted distinct radii >= 1.5a; row 0 of the result is the data
    at x = r, row 1 at x = -r.  The series is summed from the smallest radius
    at which `_graf_order_count` finds an order count on (a bisection over
    r; the terms decay faster as r grows).  Nearer radii go to
    `_direct_eval`.  H_m comes from H_0, H_1 and the forward recurrence,
    which is stable for the Hankel function.  x = -r changes the moments by
    (-1)^m, so the even and odd orders are summed apart and the two sides
    are their sum and difference.
    """
    d = _graf_coeffs(dens, cfg, antisym)
    n = _graf_order_count(d, cfg.k0, r[0])
    hi = 0                                  # the series serves the radii from r[hi] on
    if n is None:
        lo, hi = 0, len(r)                  # no count at r[lo], a count at r[hi]
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _graf_order_count(d, cfg.k0, r[mid]) is None:
                lo = mid
            else:
                hi = mid
        if hi < len(r):
            n = _graf_order_count(d, cfg.k0, r[hi])
    out = np.empty((2, len(r)), dtype=complex)
    if hi:
        xd = np.concatenate([r[:hi], -r[:hi]])
        out[:, :hi] = _direct_eval(dens, cfg, xd, antisym).reshape(2, hi)
    if hi == len(r):
        return out

    z = cfg.k0 * r[hi:]
    two_z = 2 / z
    h_prev, h = hankel1(0, z), hankel1(1, z)
    acc = [d[0] * h_prev, np.zeros_like(z)]            # even and odd orders
    for m in range(1, n):
        acc[m % 2] += d[m] * h
        h_prev, h = h, (m * two_z) * h - h_prev
    out[0, hi:] = acc[0] + acc[1]
    out[1, hi:] = acc[0] - acc[1]
    return out


def _direct_eval(dens: Density, cfg: ProblemConfig, xs: np.ndarray, antisym: bool) -> np.ndarray:
    """Boundary data at |x| >= 1.5a by `density_quadrature` of the kernel.

    For these targets the kernel is analytic in t inside the Bernstein
    ellipse of parameter 1.5 + sqrt(1.25) around the strip, so the rule
    converges geometrically and is at roundoff with its >= 256 nodes.
    Targets go in blocks of about 2^20 kernel values.
    """
    t, w = density_quadrature(dens, cfg.k0)
    kernel = hyper_kernel if antisym else single_kernel
    out = np.empty(len(xs), dtype=complex)
    step = max(1, 2 ** 20 // len(t))
    for s in range(0, len(xs), step):
        out[s:s + step] = kernel(cfg.k0, np.abs(xs[s:s + step, None] - t[None, :])) @ w
    return out


def _off_strip_eval(dens: Density, cfg: ProblemConfig, x, antisym: bool):
    """Bulk off-strip evaluation: edge-graded quadrature near the edges,
    the Graf multipole series for targets farther than half a strip-length.

    The targets x and -x share the kernel values at |x|, so the work is done
    once per distinct radius; the two sides differ only in the density's
    parity, P(tau) against P(-tau).
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(xs) <= cfg.a):
        raise ValueError("off-strip evaluation requires |x| > a")
    a, k0 = cfg.a, cfg.k0
    r, inv = np.unique(np.abs(xs), return_inverse=True)
    g = np.empty((2, len(r)), dtype=complex)    # the data at x = r and at x = -r
    far = r / a - 1.0 > 0.5
    if np.any(far):
        g[:, far] = _graf_eval(dens, cfg, r[far], antisym)

    near = np.nonzero(~far)[0]
    if len(near):
        # batch the per-radius graded rules into one kernel evaluation
        rules = [ck.theta_graded(r[i] / a - 1.0) for i in near]
        segs = np.cumsum([0] + [len(th) for th, _ in rules])
        th_all = np.concatenate([th for th, _ in rules])
        w_all = np.concatenate([w for _, w in rules])
        tau = np.cos(th_all)
        rn = np.repeat(r[near], np.diff(segs)) - a * tau
        if antisym:
            w_all = w_all * np.sin(th_all) ** 2
            kern, scale = hyper_kernel(k0, rn), a * a
        else:
            w_all = w_all * np.sin(th_all)
            kern, scale = single_kernel(k0, rn), a
        for row, sign in enumerate((1.0, -1.0)):
            vals = w_all * dens.poly(sign * tau) * kern
            g[row, near] = scale * np.add.reduceat(vals, segs[:-1])
    return g[(xs < 0).astype(int), inv]


def off_strip_normal_derivative(dens: Density, cfg: ProblemConfig, x):
    """d u_a/dy (x, +0) for |x| > a, via the (regular there) hypersingular kernel."""
    assert dens.parity is Parity.ANTISYMMETRIC
    out = _off_strip_eval(dens, cfg, x, True)
    return out if np.ndim(x) else complex(out[0])


def off_strip_trace(dens: Density, cfg: ProblemConfig, x):
    """u_s(x, 0) for |x| > a from the single-layer potential."""
    assert dens.parity is Parity.SYMMETRIC
    out = _off_strip_eval(dens, cfg, x, False)
    return out if np.ndim(x) else complex(out[0])
