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

from dataclasses import dataclass

import numpy as np
from scipy.special import hankel1, jv

from . import chebkit as ck
from .core import Parity, ProblemConfig
from .kernels import kernel_expansion, kernel_order, memo


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
    condition_estimate: float
    kernel_tail: float


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------
# even diagonals of Pi~ per BLAS product: the gathered block holds
# 2 x 32 x (2 Np - 1) doubles, however large the kernel order Np
_LOG_SUM_BLOCK = 32


def _log_sum_rect(Lbig: np.ndarray, Rbig: np.ndarray, Pi: np.ndarray, rmax: int) -> np.ndarray:
    """-2 sum_r (1/r) Phi_L^(r) Pi Phi_R^(r)T.

    Phi^(r) = B E_r, where E_r[j, p] = (d_{j,p+r} + d_{j,|p-r|})/2 encodes the
    product T_p T_r = (T_{p+r} + T_{|p-r|})/2 against the row family whose
    banded orthogonality matrix is B (W for the sqrt(w) U family, V for
    T/sqrt(w), C3 for plain T).  The sum is Lbig C Rbig^T with
    C = -2 sum_r (1/r) E_r Pi E_r^T, of which only the rows i < nL that meet
    a nonzero column of Lbig are formed.  In cosine-Fourier terms, with
    Pi~[m, n] = g_|m| g_|n| Pi[|m|, |n|] (g_0 = 1, else 1/2; c_0 = 1, else 2),
    C[i, q] = c_i c_q (G[i, q] + G[i, -q]) and
    G[i, q] = sum_{0<|r|<=rmax} -Pi~[i - r, q - r] / (2|r|): a convolution
    along each diagonal of Pi~, so the diagonals times one real Toeplitz
    matrix give G.  Pi[p, q] = 0 for odd p + q (P(a^2 (s-t)^2) is even under
    (s, t) -> (-s, -t)), so only the even diagonals are visited.
    """
    Np = Pi.shape[0]
    M = Np - 1                                    # Pi~ lives on |m|, |n| <= M
    nL = int(np.flatnonzero(Lbig.any(axis=0))[-1]) + 1
    g = np.where(np.arange(Np) == 0, 1.0, 0.5)
    # Tk[x, i] = c_i g_|m| k_{i-m} at m = M - x, k_r = -1/(2|r|) for 0 < |r| <= rmax
    r = np.abs(np.arange(-M, M + nL))
    k = np.where((r > 0) & (r <= rmax), -0.5 / np.maximum(r, 1), 0.0)
    m = np.arange(M, -M - 1, -1)
    Tk = np.lib.stride_tricks.sliding_window_view(k, nL) * g[np.abs(m), None]
    Tk[:, 1:] *= 2.0
    gn = np.pad(g[np.abs(m)], 2 * M)              # g_|n| for |n| <= 3M, 0 off the support
    # H[:, i, q + 2M] = G[i, q], real and imaginary planes; the same buffer with
    # rows one longer puts diagonal d = 2e - 2M of row i at column e
    W = nL + 4 * M
    Hb = np.zeros((2, nL * (W + 1)))
    diag = Hb.reshape(2, nL, W + 1)[:, :, :4 * M + 1:2]
    Pf, row = Pi.reshape(-1).view(float), 2 * np.abs(m) * Np
    for e in range(0, 2 * M + 1, _LOG_SUM_BLOCK):
        n = m + 2 * np.arange(e, min(e + _LOG_SUM_BLOCK, 2 * M + 1))[:, None] - 2 * M
        idx = row + 2 * np.minimum(np.abs(n), M)
        D = np.stack([Pf[idx], Pf[idx + 1]]) * gn[n + 3 * M]
        diag[:, :, e:e + len(n)] = (D @ Tk).transpose(0, 2, 1)
    H = Hb[:, :nL * W].reshape(2, nL, W)
    H[:, :, 2 * M:4 * M + 1] += H[:, :, 2 * M::-1]        # G[i, q] + G[i, -q]
    C = H[:, :, 2 * M:]
    C[:, :, 1:] *= 2.0
    w = min(C.shape[2], Rbig.shape[1])
    S = Lbig[:, :nL] @ C[:, :, :w] @ Rbig[:, :w].T
    return S[0] + 1j * S[1]


def _galerkin(k0: complex, a: float, eta: complex, parity: Parity, Ntest: int, Ntr: int):
    """The Galerkin matrix of one parity's boundary operator on the medium
    and strip (k0, a, eta).

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


@memo
def _operator(k0: complex, a: float, eta: complex, parity: Parity, N: int):
    """(augmented matrix, condition estimate, edge-tail vectors with their
    norms, kernel tail mass) of one parity on the medium (k0, a, eta).  The
    incidence is no argument: every incidence on one medium reuses the entry.
    A singular system raises and is not memoized."""
    O, edge, ker = _galerkin(k0, a, eta, parity, N + 2, max(192, N + 96))
    tails = _edge_tails(edge, N)
    A = np.column_stack([O[:, :N], O @ tails[0], O @ tails[1]])
    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > 1e13:
        raise SingularSystemError(f"{parity.value} system condition {cond:.2e}")
    return A, cond, tails, ker.tail_mass()


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
    A, cond, (vp, vm, norm_p, norm_m), ker_tail = _operator(cfg.k0, cfg.a, cfg.eta, parity, N)
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


def _solve(cfg: ProblemConfig, parity: Parity, N: int):
    """One incidence, the one-column case of `solve_block`; returns
    (Density, SolveDiagnostics)."""
    coeffs, amp, cond, ker_tail = solve_block(cfg, parity, [cfg.theta_in], N)
    dens = Density(parity, cfg.a, coeffs[:, 0], aug_amp=(complex(amp[0, 0]), complex(amp[1, 0])))
    return dens, SolveDiagnostics(N, cond, ker_tail)


def solve_antisymmetric(cfg: ProblemConfig, N: int):
    """Solve the hypersingular problem; return (Density, SolveDiagnostics).

    The trial space is the first N weighted Chebyshev functions plus the
    trailing parts of the two edge-log functions sqrt(w)(1 -+ s)ln(1 -+ s)
    (which carry the rho^{3/2} log rho edge correction); their
    contribution is folded back into one long coefficient vector.
    """
    return _solve(cfg, Parity.ANTISYMMETRIC, N)


def solve_symmetric(cfg: ProblemConfig, N: int):
    """Solve the second-kind symmetric problem; return (Density, SolveDiagnostics).

    At eta = 0 the right-hand side vanishes and so does the density.
    """
    return _solve(cfg, Parity.SYMMETRIC, N)


# ---------------------------------------------------------------------------
# the single-layer trace on the strip (closed-form singular parts)
# ---------------------------------------------------------------------------
def _kernel_columns(ker: KernelExpansion, s):
    """pi_q(s) and q_q(s): the kernel factors' T_q(t) columns at fixed s."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    Np = ker.order
    T = np.cos(np.arange(Np)[None, :] * np.arccos(np.clip(s, -1, 1))[:, None])
    return T @ ker.pi_hat, T @ ker.q_hat          # (ns, Np) each


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


# ---------------------------------------------------------------------------
# field and trace evaluation
# ---------------------------------------------------------------------------
def _strip_theta_quad(s0: float, dist: float):
    """Theta nodes/weights on [0, pi] resolving a kernel feature at s = s0,
    distance `dist` away, plus the density's edge-log structure at both
    endpoints (all in scaled units).

    The innermost panel widths are snapped to powers of two, so the layout
    is locally constant in the target (keeps finite-difference stencils of
    evaluated fields noise-free).  Beyond an edge the feature scale is
    sqrt(dist) in theta, toward theta = 0 (mirrored for s0 <= -1).
    """
    if abs(s0) >= 1.0:
        th_min = max(0.25 * np.sqrt(max(dist, 1e-14)), 1e-7)
        th, w = ck.graded_panels(0.0, np.pi, [(0.0, 2.0 ** np.floor(np.log2(th_min)))], 20)
        return (np.pi - th, w) if s0 < 0 else (th, w)
    th0 = np.arccos(np.clip(s0, -1, 1))
    width = max(dist / max(np.sin(th0), np.sqrt(dist) if dist > 0 else 1e-7), 1e-7)
    width = 2.0 ** np.floor(np.log2(width / 4))
    return ck.graded_panels(0.0, np.pi, [(th0, width), (0.0, 2.0 ** -16), (np.pi, 2.0 ** -16)], 20)


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
        # x - a tau from half angles, exact at the edge points (+-a, 0)
        R = np.hypot(np.where(tau > 0, (xv - a) + 2 * a * np.sin(th / 2) ** 2,
                              (xv + a) - 2 * a * np.cos(th / 2) ** 2), yv)
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
