"""Solver tests: convergence, boundary conditions, traces, field consistency."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripscat.bie import (
    boundary_residual,
    hypersingular_action,
    off_strip_normal_derivative,
    off_strip_trace,
    scattered_field,
    solve_antisymmetric,
    solve_symmetric,
    strip_trace,
)
from stripscat.core import Parity, ProblemConfig

K0, A, ETA, THETA = 2 + 0.05j, 1.0, 1 - 1j, np.pi / 3


class TestAntisymmetricSolve:
    def test_self_convergence(self, ref_cfg):
        d48, _ = solve_antisymmetric(ref_cfg, 48)
        d96, _ = solve_antisymmetric(ref_cfg, 96)
        diff = np.max(np.abs(d96.coeffs[:48] - d48.coeffs[:48]))
        assert diff / np.max(np.abs(d48.coeffs)) < 1e-10

    def test_bc_residual(self, ref_solves):
        da, _, _, _ = ref_solves
        cfg = ProblemConfig(K0, A, ETA, THETA)
        assert boundary_residual(da, cfg) < 5e-4   # edge-floor of the pointwise check
        # interior residual is far tighter than the near-edge maximum
        x = np.linspace(-0.8, 0.8, 9)
        lhs = hypersingular_action(da, cfg, x) - (ETA / 2) * da(x)
        rhs = 1j * K0 * np.sin(THETA) * np.exp(-1j * cfg.k_star * x)
        # interior floor is set by the rho^2 log^2 rho edge remainder
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-6

    def test_grazing_incidence_zero(self):
        cfg = ProblemConfig(K0, A, ETA, 0.0)
        d, _ = solve_antisymmetric(cfg, 32)
        assert np.max(np.abs(d.coeffs)) < 1e-14

    def test_density_vanishes_at_edges(self, ref_solves):
        da, _, _, _ = ref_solves
        assert da(np.array([A, -A])) == pytest.approx(np.zeros(2))

    def test_normal_incidence_mirror_symmetry(self):
        cfg = ProblemConfig(K0, A, ETA, np.pi / 2)
        d, _ = solve_antisymmetric(cfg, 48)
        x = np.linspace(0.05, 0.9, 7)
        # normal incidence: mu is even in x
        assert np.allclose(d(x), d(-x), rtol=1e-10, atol=1e-12)

    def test_perturbed_coefficients_raise_residual(self, ref_cfg, ref_solves):
        da, _, _, _ = ref_solves
        rng = np.random.default_rng(0)
        bad = da.coeffs * (1 + 0.01 * rng.standard_normal(len(da.coeffs)))
        from stripscat.bie import Density
        d_bad = Density(Parity.ANTISYMMETRIC, A, bad)
        assert boundary_residual(d_bad, ref_cfg) > 10 * boundary_residual(da, ref_cfg)


class TestSymmetricSolve:
    def test_self_convergence(self, ref_cfg):
        d48, _ = solve_symmetric(ref_cfg, 48)
        d96, _ = solve_symmetric(ref_cfg, 96)
        diff = np.max(np.abs(d96.coeffs[:48] - d48.coeffs[:48]))
        assert diff / np.max(np.abs(d48.coeffs)) < 1e-9

    def test_bc_residual(self, ref_cfg, ref_solves):
        _, ds, _, _ = ref_solves
        assert boundary_residual(ds, ref_cfg) < 1e-5

    def test_eta_zero_returns_exact_zero(self):
        cfg = ProblemConfig(K0, A, 0.0, THETA)
        d, _ = solve_symmetric(cfg, 32)
        assert np.all(d.coeffs == 0)
        assert boundary_residual(d, cfg) == 0

    def test_eta_zero_residual_reads_nonzero_density(self):
        # negative control: at eta = 0 the data vanish, so the residual of a
        # nonzero density is its absolute size max|sigma/2| (here below 1)
        from stripscat import chebkit as ck
        from stripscat.bie import Density
        cfg = ProblemConfig(K0, A, 0.0, THETA)
        d = Density(Parity.SYMMETRIC, A, 0.1 * np.exp(-np.arange(8.0)) * (1 + 0.5j))
        x = A * ck.gauss_cheb1(48)[0]
        assert boundary_residual(d, cfg) == pytest.approx(np.max(np.abs(0.5 * d(x))), rel=1e-14)
        assert boundary_residual(d, cfg) > 0

    def test_eta_zero_check_rejects_nonzero_rhs(self, monkeypatch):
        # negative control: with data that do not vanish at eta = 0 the
        # check reads a nonzero symmetric directivity and fails
        from dataclasses import replace
        from stripscat import bie, verify
        rc = verify.RunConfig(K0, A, ETA, 60.0, N=16)
        ctx = verify._Ctx(rc)
        assert verify.check_eta_zero_sym(ctx).passed
        rhs = bie._rhs

        def nonzero(cfg, parity, theta_in, n):
            B = rhs(cfg, parity, theta_in, n)
            if parity is Parity.SYMMETRIC:
                B = B + rhs(replace(cfg, eta=ETA), parity, theta_in, n)
            return B

        monkeypatch.setattr(bie, "_rhs", nonzero)
        assert not verify.check_eta_zero_sym(ctx).passed

    def test_normal_incidence_even_density(self):
        cfg = ProblemConfig(K0, A, ETA, np.pi / 2)
        d, _ = solve_symmetric(cfg, 48)
        x = np.linspace(0.0, 0.9, 7)
        assert np.allclose(d(x), d(-x), rtol=1e-10, atol=1e-12)

    def test_edge_value_matches_impedance_relation(self, ref_cfg, ref_solves):
        # sigma = -2 eta u_total on the strip, so sigma(edge) = -2 eta d
        from stripscat.edge import extract_d
        _, ds, _, _ = ref_solves
        d_plus = extract_d(ds, ref_cfg, "+")
        assert ds(np.array([A * (1 - 1e-9)]))[0] == pytest.approx(-2 * ETA * d_plus, rel=1e-4)


class TestFieldEvaluation:
    def test_antisym_off_strip_trace_zero(self, ref_cfg, ref_solves):
        da, _, _, _ = ref_solves
        vals = scattered_field(da, ref_cfg, np.array([1.5, -2.7]), 0.0)
        assert np.max(np.abs(vals)) == 0

    def test_zero_density_zero_field(self, ref_cfg):
        from stripscat.bie import Density
        d0 = Density(Parity.ANTISYMMETRIC, A, np.zeros(8, complex))
        assert scattered_field(d0, ref_cfg, 0.3, 0.7) == 0

    def test_helmholtz_fd_residual(self, ref_cfg, ref_solves):
        da, ds, _, _ = ref_solves
        h, (x, y) = 1e-3, (0.3, 0.7)
        # h^2 truncation of the 5-point stencil dominates the residual
        for d in (da, ds):
            u = lambda xx, yy: scattered_field(d, ref_cfg, xx, yy)
            lap = (u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h) - 4 * u(x, y)) / h ** 2
            res = abs(lap + K0 ** 2 * u(x, y)) / abs(K0 ** 2 * u(x, y))
            assert res < 1e-5

    def test_strip_trace_is_half_density(self, ref_cfg, ref_solves):
        da, _, _, _ = ref_solves
        x = np.array([0.21, -0.68])
        assert np.allclose(strip_trace(da, ref_cfg, x), da(x) / 2, rtol=1e-14)

    def test_open_strip_points_to_strip_trace(self, ref_cfg, ref_solves):
        da, _, _, _ = ref_solves
        with pytest.raises(ValueError, match="strip_trace"):
            scattered_field(da, ref_cfg, 0.2, 0.0)
        # the on-strip entry point, and the field's limit from above
        v = strip_trace(da, ref_cfg, 0.2)
        assert v == pytest.approx(da(np.array([0.2]))[0] / 2)
        assert scattered_field(da, ref_cfg, 0.2, 1e-7) == pytest.approx(v, rel=1e-5)

    def test_off_strip_normal_derivative_vs_fd(self, ref_cfg, ref_solves):
        da, _, _, _ = ref_solves
        x = 1.5 * A
        d = 1e-4
        # u_a odd in y: centered difference uses the reflection
        fd = (scattered_field(da, ref_cfg, x, d)
              - (-scattered_field(da, ref_cfg, x, d))) / (2 * d)
        got = off_strip_normal_derivative(da, ref_cfg, x)
        assert got == pytest.approx(fd, rel=1e-6)

    def test_sym_off_strip_normal_derivative_vanishes(self, ref_cfg, ref_solves):
        _, ds, _, _ = ref_solves
        d = 5e-4
        x = 1.4 * A
        fd = (scattered_field(ds, ref_cfg, x, d) - scattered_field(ds, ref_cfg, x, -d)) / (2 * d)
        assert abs(fd) < 1e-6 * abs(scattered_field(ds, ref_cfg, x, d))

    def test_off_strip_trace_continuity(self, ref_cfg, ref_solves):
        _, ds, _, _ = ref_solves
        x = 1.3 * A
        u0 = off_strip_trace(ds, ref_cfg, x)
        uy = scattered_field(ds, ref_cfg, x, 1e-6)
        assert u0 == pytest.approx(uy, rel=1e-5)

    def test_domain_guards(self, ref_cfg, ref_solves):
        da, ds, _, _ = ref_solves
        with pytest.raises(ValueError):
            strip_trace(da, ref_cfg, 1.2)
        with pytest.raises(ValueError):
            off_strip_normal_derivative(da, ref_cfg, 0.5)
        with pytest.raises(ValueError):
            off_strip_trace(ds, ref_cfg, -0.5)


# field targets off the open strip: above it, beyond both edges (near and
# far), and on y = 0 beyond the edges, where the antisymmetric part is zero.
# The edge point itself is left out: a node of its rule sits on the edge,
# where the symmetric kernel is infinite.
_field_targets = st.one_of(
    st.tuples(st.floats(-3.0, 3.0), st.floats(1e-4, 2.0)),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(1e-4, 0.05)),
    st.tuples(st.floats(1.0, 3.0, exclude_min=True) | st.floats(-3.0, -1.0, exclude_max=True),
              st.just(0.0)),
)


def _bits(z):
    return np.asarray(z, dtype=complex).view(float)


class TestBatchedField:
    """`scattered_field` evaluates the quadrature rules of a chunk of targets
    at once; every target's value is bitwise that of a call with it alone."""

    @pytest.mark.parametrize("parity", list(Parity))
    @settings(max_examples=15, deadline=None)
    @given(targets=st.lists(_field_targets, min_size=1, max_size=10))
    def test_array_call_is_the_scalar_calls(self, ref_cfg, ref_solves, parity, targets):
        dens = ref_solves[0] if parity is Parity.ANTISYMMETRIC else ref_solves[1]
        x, y = (np.array(v) for v in zip(*targets))
        ref = np.array([scattered_field(dens, ref_cfg, xv, yv) for xv, yv in targets])
        assert np.array_equal(_bits(scattered_field(dens, ref_cfg, x, y)), _bits(ref))
        if len(x) % 2 == 0:               # the same targets as a 2 x n/2 array
            got = scattered_field(dens, ref_cfg, x.reshape(2, -1), y.reshape(2, -1))
            assert np.array_equal(_bits(got), _bits(ref.reshape(2, -1)))
        if parity is Parity.ANTISYMMETRIC:
            assert np.all(ref[y == 0] == 0)

    @pytest.mark.parametrize("parity", list(Parity))
    def test_broadcast_shapes(self, ref_cfg, ref_solves, parity):
        # a column against a row: 60 targets about the edge x = a, some
        # 30,000 quadrature nodes in several chunks
        dens = ref_solves[0] if parity is Parity.ANTISYMMETRIC else ref_solves[1]
        x = np.array([-1.3, -1.0, 0.4, 0.9, 0.97, 0.999, 1.0, 1.001, 1.03, 2.5])[:, None]
        y = np.array([1e-3, 4e-3, 0.01, 0.03, 0.1, 0.3])
        got = scattered_field(dens, ref_cfg, x, y)
        assert got.shape == (10, 6)
        ref = [[scattered_field(dens, ref_cfg, xv, yv) for yv in y] for xv in x[:, 0]]
        assert np.array_equal(_bits(got), _bits(ref))

    @pytest.mark.parametrize("parity", list(Parity))
    def test_scalar_call_returns_complex(self, ref_cfg, ref_solves, parity):
        dens = ref_solves[0] if parity is Parity.ANTISYMMETRIC else ref_solves[1]
        for x, y in ((0.3, 0.5), (1.5, 0.0), (np.float64(-1.0), np.float64(1e-3))):
            assert type(scattered_field(dens, ref_cfg, x, y)) is complex
        assert scattered_field(dens, ref_cfg, np.array([0.3]), 0.5).shape == (1,)

    @pytest.mark.parametrize("parity", list(Parity))
    def test_open_strip_raises_before_any_work(self, ref_cfg, ref_solves, parity, poly_calls):
        dens = ref_solves[0] if parity is Parity.ANTISYMMETRIC else ref_solves[1]
        x = np.array([0.3, 1.5, -2.0, 0.999])
        y = np.array([0.5, 0.0, 0.2, 0.0])
        with pytest.raises(ValueError, match="strip_trace"):
            scattered_field(dens, ref_cfg, x, y)
        assert poly_calls == []

    @pytest.mark.parametrize("parity", list(Parity))
    def test_one_series_evaluation_per_chunk(self, ref_cfg, ref_solves, parity, poly_calls):
        from stripscat import bie
        dens = ref_solves[0] if parity is Parity.ANTISYMMETRIC else ref_solves[1]
        # eight targets near the strip fill one chunk
        scattered_field(dens, ref_cfg, np.linspace(-0.9, 1.2, 8), 0.01)
        assert len(poly_calls) == 1
        # a larger call: chunks under the node budget, one series evaluation each
        poly_calls.clear()
        x = np.linspace(-1.2, 1.2, 40)
        scattered_field(dens, ref_cfg, x, 0.01)
        nodes = [len(bie._strip_theta_quad(s0, np.hypot(max(abs(s0) - 1, 0), 0.01))[0])
                 for s0 in x / A]
        assert sum(poly_calls) == sum(nodes)
        assert 1 < len(poly_calls) <= 2 * sum(nodes) / bie._FIELD_CHUNK_NODES + 1
        assert max(poly_calls) <= bie._FIELD_CHUNK_NODES

    def test_memory_is_bounded(self, ref_cfg, ref_solves):
        # 400 targets near the strip take about 380,000 quadrature nodes: in
        # one piece their temporaries peak at about 44 MiB
        import tracemalloc
        x = np.linspace(-1.2, 1.2, 20)[:, None]
        y = np.geomspace(1e-3, 0.1, 20)
        for dens in ref_solves[:2]:
            tracemalloc.start()
            try:
                scattered_field(dens, ref_cfg, x, y)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2 ** 20


class TestRadiation:
    def test_cylindrical_decay(self):
        # |field| ~ r^{-1/2} |e^{i k0 r}| along a ray (nearly real k0)
        cfg = ProblemConfig(2 + 1e-6j, A, ETA, THETA)
        da, _ = solve_antisymmetric(cfg, 48)
        th = 1.1
        r1, r2 = 20 * A, 40 * A
        u1 = scattered_field(da, cfg, r1 * np.cos(th), r1 * np.sin(th))
        u2 = scattered_field(da, cfg, r2 * np.cos(th), r2 * np.sin(th))
        ratio = abs(u2) / abs(u1)
        expect = np.sqrt(r1 / r2) * abs(np.exp(1j * cfg.k0 * (r2 - r1)))
        # O(1/(k0 r)) corrections to the leading cylindrical wave remain
        assert ratio == pytest.approx(expect, rel=1e-2)

    def test_x_reflection_commutes_with_operator(self, ref_cfg, ref_solves):
        # the layer operator has an even kernel, so reflecting the density
        # reflects its action; this underwrites the x-parity of the
        # directivity at normal incidence, S(pi - theta) = S(theta)
        from stripscat.bie import Density
        da, _, _, _ = ref_solves
        n = np.arange(len(da.coeffs))
        d_mir = Density(Parity.ANTISYMMETRIC, A, da.coeffs * (-1.0) ** n)
        x = np.array([0.15, 0.62, -0.4])
        lhs = hypersingular_action(d_mir, ref_cfg, x)
        rhs = hypersingular_action(da, ref_cfg, -x)
        assert np.allclose(lhs, rhs, rtol=1e-11)


class TestOperatorReuse:
    """The Galerkin operator depends on the medium alone; incidences reuse it."""

    INCIDENCES = tuple(np.deg2rad([20.0, 50.0, 80.0]))

    @pytest.mark.parametrize("parity", [Parity.ANTISYMMETRIC, Parity.SYMMETRIC])
    def test_one_assembly_per_medium(self, monkeypatch, parity):
        from stripscat import bie
        solve = solve_antisymmetric if parity is Parity.ANTISYMMETRIC else solve_symmetric
        assemble = bie._galerkin
        calls = []

        def counted(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(bie, "_galerkin", counted)
        bie._OPERATOR_CACHE.clear()
        cfgs = [ProblemConfig(K0, A, ETA, t) for t in self.INCIDENCES]
        reused = [solve(c, 24) for c in cfgs]
        assert len(calls) == 1
        for c, (dens, diag) in zip(cfgs, reused):
            bie._OPERATOR_CACHE.clear()
            fresh, fresh_diag = solve(c, 24)
            assert np.array_equal(dens.coeffs, fresh.coeffs)
            assert dens.aug_amp == fresh.aug_amp
            assert diag == fresh_diag
        assert len(calls) == 1 + len(cfgs)

    @pytest.mark.parametrize("parity", [Parity.ANTISYMMETRIC, Parity.SYMMETRIC])
    def test_solves_are_columns_of_a_block(self, parity):
        # one incidence is the one-column case of the block solve, bit for bit
        from stripscat.bie import solve_block
        solve = solve_antisymmetric if parity is Parity.ANTISYMMETRIC else solve_symmetric
        incidences = (0.3, np.deg2rad(60.0), np.deg2rad(75.0), np.pi / 2)
        coeffs, amp, _, _ = solve_block(ProblemConfig(K0, A, ETA, THETA), parity, incidences, 64)
        assert coeffs.shape[1] == len(incidences)
        for j, t in enumerate(incidences):
            dens, _ = solve(ProblemConfig(K0, A, ETA, t), 64)
            assert np.array_equal(dens.coeffs, coeffs[:, j])
            assert dens.aug_amp == (amp[0, j], amp[1, j])

    def test_singular_medium_is_not_cached(self, monkeypatch):
        from stripscat import bie
        from stripscat.bie import SingularSystemError
        assemble = bie._galerkin
        calls = []

        def degenerate(*args):
            calls.append(args)
            O, edge, ker = assemble(*args)
            return np.zeros_like(O), edge, ker

        monkeypatch.setattr(bie, "_galerkin", degenerate)
        bie._OPERATOR_CACHE.clear()
        cfg = ProblemConfig(K0, A, ETA, THETA)
        for _ in range(2):
            with pytest.raises(SingularSystemError):
                solve_antisymmetric(cfg, 24)
        assert len(calls) == 2
        assert not bie._OPERATOR_CACHE


def _hypersingular_action_loop(dens, cfg, x):
    """Reference: hypersingular_action with its log part summed per (q, n)."""
    from stripscat import chebkit as ck
    from stripscat.bie import _kernel_columns
    from stripscat.kernels import kernel_expansion, kernel_order
    a, b = cfg.a, dens.coeffs
    N = len(b)
    s = np.asarray(x, dtype=float) / a
    ker = kernel_expansion(cfg.k0, a, True, kernel_order(cfg.k0, a))
    Np = ker.order
    nn = np.arange(N)
    Us = np.empty((len(s), N))
    Us[:, 0] = 1.0
    Us[:, 1] = 2.0 * s
    for n in range(2, N):
        Us[:, n] = 2.0 * s * Us[:, n - 1] - Us[:, n - 2]
    static = Us @ (-(nn + 1) / 2.0 * b)
    pic, qc = _kernel_columns(ker, s)
    smooth = (pic * np.log(a) + qc) @ (ck.w_matrix(N, Np).T @ b)
    ell = ck.log_point_u(N + Np + 2, s)
    logpart = np.zeros(len(s), dtype=complex)
    for q in range(Np):
        col = np.zeros(len(s), dtype=complex)
        for n in range(N):
            c = 0.5 * b[n]
            col += c * ell[:, n + q]
            d = n - q
            if d >= 0:
                col += c * ell[:, d]
            elif d <= -2:
                col -= c * ell[:, -d - 2]
        logpart += pic[:, q] * col
    return static + a * a * (smooth + logpart)


def _sym_trace_loop(dens, cfg, x):
    """Reference: sym_trace_on_strip with its log part summed per (q, n)."""
    from stripscat import chebkit as ck
    from stripscat.bie import _kernel_columns
    from stripscat.kernels import kernel_expansion, kernel_order
    a, c = cfg.a, dens.coeffs
    N = len(c)
    s = np.asarray(x, dtype=float) / a
    ker = kernel_expansion(cfg.k0, a, False, kernel_order(cfg.k0, a))
    Np = ker.order
    pic, qc = _kernel_columns(ker, s)
    smooth = (pic * np.log(a) + qc) @ (ck.c3_matrix(Np, N) @ c)
    Lam = ck.log_point_plain_t(N + Np + 2, s)
    logpart = np.zeros(len(s), dtype=complex)
    for q in range(Np):
        col = np.zeros(len(s), dtype=complex)
        for n in range(N):
            col += 0.5 * c[n] * (Lam[:, q + n] + Lam[:, abs(q - n)])
        logpart += pic[:, q] * col
    return a * (smooth + logpart)


class TestVectorisedLogParts:
    """The indexed-product log parts equal the per-(q, n) loop sums."""

    @staticmethod
    def _points(cfg):
        from stripscat import chebkit as ck
        s, _ = ck.gauss_cheb1(48)                  # boundary_residual's grid
        rho = cfg.a * np.array([1e-3, 5e-4, 2.5e-4])   # extract_d's samples
        return [cfg.a * s, cfg.a - rho, -cfg.a + rho]

    def test_hypersingular_action(self, ref_cfg, ref_solves):
        da, _, _, _ = ref_solves
        for x in self._points(ref_cfg):
            got = hypersingular_action(da, ref_cfg, x)
            ref = _hypersingular_action_loop(da, ref_cfg, x)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_sym_trace_on_strip(self, ref_cfg, ref_solves):
        from stripscat.bie import sym_trace_on_strip
        _, ds, _, _ = ref_solves
        for x in self._points(ref_cfg):
            got = sym_trace_on_strip(ds, ref_cfg, x)
            ref = _sym_trace_loop(ds, ref_cfg, x)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def _log_sum_loop(Lbig, Rbig, Pi, rmax):
    """The per-order sum -2 sum_r (1/r) Phi_L^(r) Pi Phi_R^(r)T, one pair of
    products per order r (the reference for `bie._log_sum_rect`)."""
    Np = Pi.shape[0]
    p = np.arange(Np)
    out = np.zeros((Lbig.shape[0], Rbig.shape[0]), dtype=complex)
    for r in range(1, rmax + 1):
        PhiL = 0.5 * (Lbig[:, p + r] + Lbig[:, np.abs(p - r)])
        if not PhiL.any():
            continue
        PhiR = 0.5 * (Rbig[:, p + r] + Rbig[:, np.abs(p - r)])
        out += -(2.0 / r) * (PhiL @ Pi @ PhiR.T)
    return out


class TestLogSumRect:
    """The one-product log sum equals the per-order loop on the arguments
    the Galerkin builder passes it for either parity."""

    @pytest.mark.parametrize("N", [4, 5, 64, 300])
    @pytest.mark.parametrize("k0a", [0.01, 2.0, 16.0, 30.0])
    @pytest.mark.parametrize("parity", list(Parity))
    def test_matches_per_order_loop(self, monkeypatch, N, k0a, parity):
        from stripscat import bie
        log_sum = bie._log_sum_rect
        calls = []

        def recorded(*args):
            calls.append((args, log_sum(*args)))
            return calls[-1][1]

        monkeypatch.setattr(bie, "_log_sum_rect", recorded)
        bie._galerkin(ProblemConfig(k0a * np.exp(0.025j), A, ETA, THETA), parity,
                      N + 2, max(192, N + 96))
        (Lbig, Rbig, Pi, rmax), got = calls[0]
        assert rmax > Pi.shape[0]                    # the |p - r| fold wraps
        rows, cols = slice(None), slice(None)
        if N > 100:
            # the loop takes seconds here; the sum is linear in the rows of
            # Lbig and of Rbig, so thinned rows give the same output entries
            rows = np.r_[0:Lbig.shape[0]:7, Lbig.shape[0] - 1]
            cols = np.r_[0:Rbig.shape[0]:7, Rbig.shape[0] - 1]
        ref = _log_sum_loop(Lbig[rows], Rbig[cols], Pi, rmax)
        assert np.max(np.abs(got[rows][:, cols] - ref)) <= 1e-14 * np.max(np.abs(ref))


def _galerkin_antisym_ref(cfg, Ntest, Ntr):
    """Reference: the antisymmetric operator as its own assembler built it
    (before `bie._galerkin` served both parities)."""
    from stripscat import bie
    from stripscat import chebkit as ck
    from stripscat.kernels import kernel_expansion, kernel_order
    k0, a, eta = cfg.k0, cfg.a, cfg.eta
    Np = max(kernel_order(k0, a), Ntest + 4)
    ker = kernel_expansion(k0, a, True, Np)
    rmax = min(Ntest, Ntr) + Np + 2
    big = Np + rmax + 3
    WL = ck.w_matrix(Ntest, big)
    WR = ck.w_matrix(Ntr, big)
    D = WL[:, :Np] @ ker.pi_hat @ WR[:, :Np].T
    DQ = WL[:, :Np] @ ker.q_hat @ WR[:, :Np].T
    Slog = bie._log_sum_rect(WL, WR, ker.pi_hat, rmax)
    M = np.zeros((Ntest, Ntr), dtype=complex)
    n = np.arange(min(Ntest, Ntr))
    M[n, n] = -a * np.pi * (n + 1) / 4.0
    M += a ** 3 * ((np.log(a) - np.log(2.0)) * D + Slog + DQ)
    M -= (eta / 2.0) * a * a * ck.mass2_matrix(Ntest, Ntr)
    return M


def _galerkin_sym_ref(cfg, Ntest, Ntr):
    """Reference: the symmetric operator -sigma/2 - eta S sigma as its own
    assembler built S and its augmenter added the rest."""
    from stripscat import bie
    from stripscat import chebkit as ck
    from stripscat.kernels import kernel_expansion, kernel_order
    k0, a = cfg.k0, cfg.a
    Np = max(kernel_order(k0, a), Ntest + 4)
    ker = kernel_expansion(k0, a, False, Np)
    rmax = min(Ntest, Ntr) + Np + 2
    big = Np + rmax + 3
    vdiag = (np.pi / 2) * np.ones(Ntest)
    vdiag[0] = np.pi
    Vb = np.zeros((Ntest, big))
    Vb[np.arange(Ntest), np.arange(Ntest)] = vdiag
    C3R = ck.c3_matrix(big, Ntr).T
    K = (np.log(a) - np.log(2.0)) * ker.pi_hat + ker.q_hat
    D = vdiag[:, None] * (K[:Ntest] @ C3R[:, :Np].T)
    S = a * a * (D + bie._log_sum_rect(Vb, C3R, ker.pi_hat, rmax))
    M = -cfg.eta * S
    M[np.arange(Ntest), np.arange(Ntest)] += -0.5 * a * vdiag
    return M


def _edge_log_ref(parity, Ntr):
    """Reference: the trial family's coefficients of (1 - s) ln(1 - s), from
    an edge_log_t_coeffs table of the length each parity's helper read."""
    from stripscat import chebkit as ck
    if parity is Parity.SYMMETRIC:
        return ck.edge_log_t_coeffs(Ntr)
    beta = ck.edge_log_t_coeffs(Ntr + 3)
    u = np.empty(Ntr)
    u[0] = beta[0] - beta[2] / 2
    u[1:] = 0.5 * (beta[1:Ntr] - beta[3:Ntr + 2])
    return u


def _rhs_ref(cfg, parity, Ntest):
    """Reference: one incidence's right-hand side, per order."""
    from scipy.special import jv
    from stripscat import chebkit as ck
    ks = cfg.k_star
    m = np.arange(Ntest)
    if parity is Parity.ANTISYMMETRIC:
        amp = 1j * cfg.k0 * np.sin(cfg.theta_in) * cfg.a * np.pi
        jr = np.array([ck.bessel_ratio(int(mm), ks * cfg.a)[()] for mm in m])
        return amp * (-1j) ** m * (m + 1) * jr
    return cfg.eta * cfg.a * np.pi * (-1j) ** m * jv(m, ks * cfg.a)


class TestGalerkin:
    """One builder for both parities equals the two per-parity formulas."""

    @pytest.mark.parametrize("N", [4, 5, 64, 300])
    @pytest.mark.parametrize("k0a", [0.01, 2.0, 16.0, 30.0])
    @pytest.mark.parametrize("parity", list(Parity))
    def test_operator_and_rhs_match_per_parity_formulas(self, N, k0a, parity):
        from dataclasses import replace
        from stripscat import bie
        cfg = ProblemConfig(k0a * np.exp(0.025j), A, ETA, THETA)
        Ntest, Ntr = N + 2, max(192, N + 96)
        O, edge, _ = bie._galerkin(cfg, parity, Ntest, Ntr)
        ref = (_galerkin_antisym_ref if parity is Parity.ANTISYMMETRIC
               else _galerkin_sym_ref)(cfg, Ntest, Ntr)
        assert np.max(np.abs(O - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(edge, _edge_log_ref(parity, Ntr))

        incidences = (0.3, THETA, np.pi / 2)
        B = bie._rhs(cfg, parity, incidences, Ntest)
        for j, t in enumerate(incidences):
            ref = _rhs_ref(replace(cfg, theta_in=t), parity, Ntest)
            assert np.max(np.abs(B[:, j] - ref)) <= 1e-14 * np.max(np.abs(ref))


def _off_strip_quad(dens, cfg, x):
    """Reference: int rho(t) K(|x - t|) dt by adaptive Gauss-Kronrod
    quadrature in t = a cos(theta), where the integrand is smooth.

    (Scalar `quad` on the real and imaginary parts separately stalls on its
    roundoff detection at 1e-10 relative for these oscillatory densities.)
    """
    from scipy.integrate import quad_vec
    from scipy.special import hankel1
    a, k0 = cfg.a, cfg.k0
    n = np.arange(len(dens.coeffs))

    if dens.parity is Parity.ANTISYMMETRIC:
        def f(th):          # a^2 sin^2(theta) P(cos theta) = a^2 sin(theta) sum b_n sin((n+1) theta)
            r = abs(x - a * np.cos(th))
            return (a * a * np.sin(th) * (np.sin((n + 1) * th) @ dens.coeffs)
                    * 0.25j * k0 * hankel1(1, k0 * r) / r)
    else:
        def f(th):
            r = abs(x - a * np.cos(th))
            return a * np.sin(th) * (np.cos(n * th) @ dens.coeffs) * 0.25j * hankel1(0, k0 * r)
    val, _ = quad_vec(f, 0.0, np.pi, epsabs=0, epsrel=1e-13, limit=2000)
    return val


class TestGrafEvaluator:
    """The multipole series for |x| > 1.5a against adaptive quadrature."""

    X = np.array([1.5 + 1e-9, 3.0, 50.0])

    @staticmethod
    def _check(cfg, xs):
        for dens, evaluate in ((solve_antisymmetric(cfg, 64)[0], off_strip_normal_derivative),
                               (solve_symmetric(cfg, 64)[0], off_strip_trace)):
            got = evaluate(dens, cfg, xs)
            assert np.all(np.isfinite(got))
            ref = np.array([_off_strip_quad(dens, cfg, x) for x in xs])
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12

    # at |k0| a = 0.005, H_m(k0 1.5a) overflows before the series converges there
    @pytest.mark.parametrize("k0a", [0.005, 0.05, 2.0, 16.0])
    @pytest.mark.parametrize("im_k0", [0.0, 0.05, 0.4])
    def test_against_adaptive_quadrature(self, k0a, im_k0):
        cfg = ProblemConfig(k0a + 1j * im_k0, A, ETA, THETA)
        self._check(cfg, np.concatenate([self.X, -self.X]) * A)

    def test_too_few_orders(self, monkeypatch):
        # as at |k0| a in the hundreds: the computed orders end before the
        # terms reach roundoff, so those targets take the direct rule
        from stripscat import bie
        monkeypatch.setattr(bie, "_GRAF_EXTRA_ORDERS", 3)
        cfg = ProblemConfig(2.0 + 0.05j, A, ETA, THETA)
        self._check(cfg, np.concatenate([self.X, -self.X]) * A)

    def test_bank_memory(self, ref_bundles):
        # the dense far-field rule held a (nodes x ~600) complex matrix:
        # several hundred MiB for this bank
        import tracemalloc
        from stripscat.spectral import SpectralBundle
        for b in ref_bundles:
            bundle = SpectralBundle(b.cfg, b.density)
            tracemalloc.start()
            try:
                bundle._bank(3 * abs(K0), 0.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2 ** 20


class TestTwoSidedEvaluation:
    """One off-strip call serves x and -x from the kernel values at |x|; its
    values must be those of one call per target, and the data at -x those
    of the mirrored density at |x| (P(-s) has the coefficients (-1)^n c_n)."""

    # +-x pairs, a repeated radius, near (|x| <= 1.5a) and far targets
    X = np.array([1.1, -1.1, 1.3, -1.5, 1.5, 3.0, -3.0, 3.0, 50.0, -50.0, -1.3])

    @staticmethod
    def _check(ref_solves, xs):
        da, ds, _, _ = ref_solves
        cfg = ProblemConfig(K0, A, ETA, THETA)
        for dens, evaluate in ((da, off_strip_normal_derivative), (ds, off_strip_trace)):
            got = evaluate(dens, cfg, xs)
            ref = np.array([evaluate(dens, cfg, x) for x in xs])
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
            # the mirrored density's Graf moments round differently (its
            # quadrature nodes are not bitwise symmetric), and the far-field
            # series cancels to 1e-4 of its terms at 50a: a norm-wise bound
            mirror = replace(dens, coeffs=dens.coeffs * (-1.0) ** np.arange(len(dens.coeffs)))
            ref = np.where(xs > 0, ref, evaluate(mirror, cfg, np.abs(xs)))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("extra_orders", [None, 3])
    def test_array_matches_single_targets(self, ref_solves, extra_orders, monkeypatch):
        # with 3 extra orders the far targets take the _direct_eval fallback
        from stripscat import bie
        if extra_orders is not None:
            monkeypatch.setattr(bie, "_GRAF_EXTRA_ORDERS", extra_orders)
        self._check(ref_solves, self.X * A)

    @settings(max_examples=20, deadline=None)
    @given(targets=st.lists(st.tuples(st.floats(1.001, 60.0), st.sampled_from([1, -1, 0])),
                            min_size=1, max_size=12))
    def test_random_mixed_sign_targets(self, ref_solves, targets):
        # sign 0 puts both x and -x in the set
        xs = [s * r for r, sign in targets for s in ((1, -1) if sign == 0 else (sign,))]
        self._check(ref_solves, np.array(xs) * A)

    def test_one_pass_per_bank(self, ref_bundles, monkeypatch):
        # both sides of a bank come from one set of Graf moments and one
        # density quadrature
        from stripscat import bie
        from stripscat.spectral import SpectralBundle
        counts = {"_graf_coeffs": 0, "density_quadrature": 0}
        for name in counts:
            def counted(*args, _fn=getattr(bie, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(bie, name, counted)
        for b in ref_bundles:
            counts.update(dict.fromkeys(counts, 0))
            SpectralBundle(b.cfg, b.density)._bank(3 * abs(K0), 0.0)
            assert counts == {"_graf_coeffs": 1, "density_quadrature": 1}
