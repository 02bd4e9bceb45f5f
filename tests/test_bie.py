"""Solver tests: convergence, boundary conditions, traces, field consistency."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stripscat.bie import (
    scattered_field,
    solve_antisymmetric,
    solve_symmetric,
)
from stripscat.core import Parity, ProblemConfig, incident_field

K0, A, ETA, THETA = 2 + 0.05j, 1.0, 1 - 1j, np.pi / 3

# the reference medium and two with larger kernel orders (Np = 72, 114, 184)
_MEDIA = ((K0, ETA), (8 + 0.05j, -1 - 1j), (16.0, 0.5 - 2j))
_MEDIA_IDS = ("reference", "k0=8+0.05i", "k0=16")


@functools.lru_cache(maxsize=None)
def _sym_solve(k0, eta):
    """(config, symmetric density at N = 64) of the medium (k0, a = 1, eta)."""
    cfg = ProblemConfig(k0, A, eta, THETA)
    return cfg, solve_symmetric(cfg, 64)[0]


class TestAntisymmetricSolve:
    def test_self_convergence(self, ref_cfg):
        d48, _ = solve_antisymmetric(ref_cfg, 48)
        d96, _ = solve_antisymmetric(ref_cfg, 96)
        diff = np.max(np.abs(d96.coeffs[:48] - d48.coeffs[:48]))
        assert diff / np.max(np.abs(d48.coeffs)) < 1e-10

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

class TestSymmetricSolve:
    def test_self_convergence(self, ref_cfg):
        d48, _ = solve_symmetric(ref_cfg, 48)
        d96, _ = solve_symmetric(ref_cfg, 96)
        diff = np.max(np.abs(d96.coeffs[:48] - d48.coeffs[:48]))
        assert diff / np.max(np.abs(d48.coeffs)) < 1e-9

    @pytest.mark.parametrize("medium", _MEDIA, ids=_MEDIA_IDS)
    def test_interior_boundary_equation(self, medium):
        # -sigma/2 - eta S sigma = eta e^{-i k_* x}, with the trace S sigma
        # the field at y = 1e-9; away from the edges the floor is set by the
        # rho^2 log^2 rho edge remainder
        cfg, ds = _sym_solve(*medium)
        x = np.linspace(-0.8, 0.8, 9)
        lhs = -0.5 * ds(x) - cfg.eta * scattered_field(ds, cfg, x, 1e-9)
        rhs = cfg.eta * np.exp(-1j * cfg.k_star * x)
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-6

    def test_eta_zero_returns_exact_zero(self):
        cfg = ProblemConfig(K0, A, 0.0, THETA)
        d, _ = solve_symmetric(cfg, 32)
        assert np.all(d.coeffs == 0)

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

    @pytest.mark.parametrize("medium", _MEDIA, ids=_MEDIA_IDS)
    def test_edge_constant_is_the_field_limit(self, medium):
        # d = -sigma(+-a)/(2 eta) is the total field at the edge: the field
        # just beyond it, on y = 0, agrees (the three-point trace fit that
        # d once was is 3.2e-6 and 1e-5 away on the two larger media)
        from stripscat.edge import extract_d
        cfg, ds = _sym_solve(*medium)
        for side, x in (("+", A * (1 + 1e-8)), ("-", -A * (1 + 1e-8))):
            u = scattered_field(ds, cfg, x, 0.0) + incident_field(cfg, Parity.SYMMETRIC, x, 0.0)
            assert abs(u - extract_d(ds, cfg, side)) <= 2e-6


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

    def test_open_strip_is_an_error_with_the_trace_from_above(self, ref_cfg, ref_solves):
        da, _, _, _ = ref_solves
        with pytest.raises(ValueError, match="open strip"):
            scattered_field(da, ref_cfg, 0.2, 0.0)
        # the field's limit from above is the trace the message names, mu/2
        v = da(np.array([0.2]))[0] / 2
        assert scattered_field(da, ref_cfg, 0.2, 1e-7) == pytest.approx(v, rel=1e-5)

    def test_sym_off_strip_normal_derivative_vanishes(self, ref_cfg, ref_solves):
        _, ds, _, _ = ref_solves
        d = 5e-4
        x = 1.4 * A
        fd = (scattered_field(ds, ref_cfg, x, d) - scattered_field(ds, ref_cfg, x, -d)) / (2 * d)
        assert abs(fd) < 1e-6 * abs(scattered_field(ds, ref_cfg, x, d))

    def test_off_strip_normal_derivative_vs_fd(self, ref_cfg, ref_solves):
        # d u_a/dy on y = 0 beyond the edge: the centered difference of the
        # field (odd in y) against quadrature of the layer potential's data
        da, _, _, _ = ref_solves
        x, d = 1.5 * A, 1e-4
        fd = (scattered_field(da, ref_cfg, x, d) - scattered_field(da, ref_cfg, x, -d)) / (2 * d)
        assert fd == pytest.approx(_off_strip_quad(da, ref_cfg, x), rel=1e-6)

    def test_off_strip_trace_continuity(self, ref_cfg, ref_solves):
        # u_s just above y = 0 beyond the edge tends to its trace there
        _, ds, _, _ = ref_solves
        x = 1.3 * A
        uy = scattered_field(ds, ref_cfg, x, 1e-6)
        assert uy == pytest.approx(_off_strip_quad(ds, ref_cfg, x), rel=1e-5)

    @pytest.mark.parametrize("x, y", [(300.0, 0.5), (-300.0, 2.0), (1.5, 400.0)])
    def test_far_targets(self, ref_cfg, ref_solves, x, y):
        # beyond an edge at scaled distance >= 256 the innermost theta panel
        # is 4 or wider: the rule must still end at theta = pi
        for dens in ref_solves[:2]:
            ref = _fine_field(dens, ref_cfg, x * A, y * A)
            assert abs(scattered_field(dens, ref_cfg, x * A, y * A) - ref) <= 1e-5 * abs(ref)

    def test_edge_constants_reject_the_other_parity(self, ref_cfg, ref_solves):
        # a raise, not an assert, so that `python -O` keeps it: the U
        # coefficients would otherwise be summed as T coefficients
        from stripscat.edge import extract_c, extract_d
        da, ds, _, _ = ref_solves
        with pytest.raises(ValueError, match="symmetric density"):
            extract_d(da, ref_cfg, "+")
        with pytest.raises(ValueError, match="antisymmetric density"):
            extract_c(ds, ref_cfg, "+")


# field targets off the open strip: above it, beyond both edges (near and
# far), at the edge points, and on y = 0 beyond the edges, where the
# antisymmetric part is zero.
_field_targets = st.one_of(
    st.tuples(st.floats(-3.0, 3.0), st.floats(1e-4, 2.0)),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.just(0.0) | st.floats(1e-4, 0.05)),
    st.tuples(st.floats(1.0, 3.0, exclude_min=True) | st.floats(-3.0, -1.0, exclude_max=True),
              st.just(0.0)),
)


def _bits(z):
    return np.asarray(z, dtype=complex).view(float)


class TestBatchedField:
    """`scattered_field` evaluates the quadrature rules of a block of targets
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

    def test_edge_point_is_the_limit(self, ref_cfg, ref_solves):
        # the node next to tau = 1 has cos(theta) = 1.0 in double; the
        # distance from half angles is still positive there.  The
        # antisymmetric part is zero on y = 0 and grows like sqrt(y) above
        # the edge, so only the symmetric part is continuous to 1e-6 at 1e-9
        da, ds = ref_solves[:2]
        for x in (-A, A):
            u = scattered_field(ds, ref_cfg, x, 0.0)
            assert np.isfinite(u)
            assert abs(u - scattered_field(ds, ref_cfg, x, 1e-9)) <= 1e-6
            assert scattered_field(da, ref_cfg, x, 0.0) == 0
            assert abs(scattered_field(da, ref_cfg, x, 1e-9)) <= 1e-4

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
        with pytest.raises(ValueError, match="open strip"):
            scattered_field(dens, ref_cfg, x, y)
        assert poly_calls == []

    @pytest.mark.parametrize("parity", list(Parity))
    def test_one_series_evaluation_per_block(self, ref_cfg, ref_solves, parity, poly_calls):
        from stripscat import bie
        dens = ref_solves[0] if parity is Parity.ANTISYMMETRIC else ref_solves[1]
        # 160 targets near the strip, some 150,000 quadrature nodes: the
        # targets' rules in order, cut into series blocks under the node limit
        x = np.linspace(-1.2, 1.2, 40)[:, None]
        y = np.array([1e-3, 4e-3, 0.01, 0.03])
        scattered_field(dens, ref_cfg, x, y)
        blocks, nodes = [[]], 0
        for xv, yv in np.broadcast(x / A, y / A):
            th = bie._strip_theta_quad(xv, np.hypot(max(abs(xv) - 1, 0), yv))[0]
            if blocks[-1] and nodes + len(th) > bie._FIELD_BLOCK_NODES:
                blocks.append([])
                nodes = 0
            blocks[-1].append(th)
            nodes += len(th)
        assert len(blocks) > 1
        assert all(sum(map(len, b)) <= bie._FIELD_BLOCK_NODES for b in blocks)
        # one series evaluation per block, on exactly its distinct nodes
        assert len(poly_calls) == len(blocks)
        for s, b in zip(poly_calls, blocks):
            assert np.array_equal(s, np.cos(np.unique(np.concatenate(b))))
        assert sum(map(len, poly_calls)) < 0.5 * sum(len(th) for b in blocks for th in b)

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
        # reflects its field, down to the strip; this underwrites the x-parity
        # of the directivity at normal incidence, S(pi - theta) = S(theta)
        from stripscat.bie import Density
        _, ds, _, _ = ref_solves
        n = np.arange(len(ds.coeffs))
        d_mir = Density(Parity.SYMMETRIC, A, ds.coeffs * (-1.0) ** n)
        x = np.array([0.15, 0.62, -0.4, 1.3])[:, None]
        y = np.array([1e-9, 1e-6, 1e-3, 0.5])
        lhs = scattered_field(d_mir, ref_cfg, x, y)
        rhs = scattered_field(ds, ref_cfg, -x, y)
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
        bie._operator.cache_clear()
        cfgs = [ProblemConfig(K0, A, ETA, t) for t in self.INCIDENCES]
        reused = [solve(c, 24) for c in cfgs]
        assert len(calls) == 1
        for c, (dens, diag) in zip(cfgs, reused):
            bie._operator.cache_clear()
            fresh, fresh_diag = solve(c, 24)
            assert np.array_equal(dens.coeffs, fresh.coeffs)
            assert dens.aug_amp == fresh.aug_amp
            assert diag == fresh_diag
        assert len(calls) == 1 + len(cfgs)

    def test_one_kernel_expansion_per_medium(self, monkeypatch, ref_cfg):
        # the kernel factors depend on (k0, a) alone: both parities' operators
        # at every N share one expansion
        from stripscat import kernels
        from stripscat.spectral import Scattering
        built = []
        expansion = kernels.KernelExpansion

        def counted(k0, a, order):
            built.append((k0, a))
            return expansion(k0, a, order)

        monkeypatch.setattr(kernels, "KernelExpansion", counted)
        kernels.MEMO_CACHE.clear()
        for N in (32, 64, 128):
            Scattering(ref_cfg, N)
        solve_antisymmetric(ref_cfg, 48)
        solve_symmetric(ref_cfg, 48)
        assert built == [(ref_cfg.k0, ref_cfg.a)]

    @pytest.mark.parametrize("parity", [Parity.ANTISYMMETRIC, Parity.SYMMETRIC])
    def test_solves_are_columns_of_a_block(self, parity):
        # one incidence is the one-column case of the block solve, bit for bit
        from stripscat.bie import solve_block
        solve = solve_antisymmetric if parity is Parity.ANTISYMMETRIC else solve_symmetric
        incidences = (0.3, np.deg2rad(60.0), np.deg2rad(75.0), np.pi / 2)
        coeffs, amp, *_ = solve_block(ProblemConfig(K0, A, ETA, THETA), parity, incidences, 64)
        assert coeffs.shape[1] == len(incidences)
        for j, t in enumerate(incidences):
            dens, _ = solve(ProblemConfig(K0, A, ETA, t), 64)
            assert np.array_equal(dens.coeffs, coeffs[:, j])
            assert dens.aug_amp == (amp[0, j], amp[1, j])

    def test_benchmark_reset_empties_the_memos(self, monkeypatch):
        # perfbench/worker.py empties the module dicts named *CACHE* before
        # each pass, so that every pass builds what a fresh process builds
        import importlib
        from pathlib import Path
        from stripscat import bie, kernels
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        reset_caches = importlib.import_module("worker").reset_caches
        solve_antisymmetric(ProblemConfig(K0, A, ETA, THETA), 24)
        memos = (bie._operator, kernels.kernel_expansion)
        assert set(kernels.MEMO_CACHE.values()) == set(memos)
        assert all(m.cache_info().currsize > 0 for m in memos)
        reset_caches()
        assert all(m.cache_info().currsize == 0 for m in memos)
        assert set(kernels.MEMO_CACHE.values()) == set(memos)

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
        bie._operator.cache_clear()
        cfg = ProblemConfig(K0, A, ETA, THETA)
        for _ in range(2):
            with pytest.raises(SingularSystemError):
                solve_antisymmetric(cfg, 24)
        assert len(calls) == 2
        assert bie._operator.cache_info().currsize == 0


class TestConvergenceVerdict:
    """`verify.check_self_convergence`, the verdict of `solve` and `verify`,
    tracks the directivity error."""

    # (k0, eta) of a lossy, a lossless and a high-frequency medium
    MEDIA = [(2 + 0.05j, 1 - 1j), (8.0, -1 - 1j), (16.0, 0.5 - 2j)]

    @pytest.mark.parametrize("k0,eta", MEDIA)
    def test_estimate_tracks_error(self, k0, eta):
        from stripscat.spectral import Scattering
        from stripscat.verify import RunConfig, check_self_convergence
        rc = RunConfig(k0, A, eta, 60.0)
        th = rc.theta_grid()
        S_ref = Scattering(rc.problem(), 128).directivity(th).S
        for N in (16, 32):
            sc = Scattering(rc.problem(), N)
            err = np.max(np.abs(sc.directivity(th).S - S_ref)) / np.max(np.abs(S_ref))
            value = check_self_convergence(replace(rc, N=N), sc).value
            assert 0.1 * err <= value <= 10 * err, (N, value, err)

    def test_solve_builds_no_second_operator(self, ref_cfg):
        # the verdict is a diagnostic of `solve` and `verify`, not of a solve
        from stripscat import bie
        from stripscat.spectral import Scattering
        bie._operator.cache_clear()
        Scattering(ref_cfg, 64)
        assert bie._operator.cache_info().misses == 2
        # the two entries are the parities at N = 64: asking for them again hits
        for parity in Parity:
            bie._operator(ref_cfg.k0, ref_cfg.a, ref_cfg.eta, parity, 64)
        assert bie._operator.cache_info()[:2] == (2, 2)


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
        bie._galerkin(k0a * np.exp(0.025j), A, ETA, parity, N + 2, max(192, N + 96))
        (Lbig, Rbig, Pi, rmax, K), got = calls[0]
        Np = Pi.shape[0]
        assert rmax > Np                             # the |p - r| fold wraps
        rows, cols = slice(None), slice(None)
        if N > 100:
            # the loop takes seconds here; the sum is linear in the rows of
            # Lbig and of Rbig, so thinned rows give the same output entries
            rows = np.r_[0:Lbig.shape[0]:7, Lbig.shape[0] - 1]
            cols = np.r_[0:Rbig.shape[0]:7, Rbig.shape[0] - 1]
        # the smooth part K, folded into the same product
        ref = (_log_sum_loop(Lbig[rows], Rbig[cols], Pi, rmax)
               + Lbig[rows][:, :Np] @ K @ Rbig[cols][:, :Np].T)
        assert np.max(np.abs(got[rows][:, cols] - ref)) <= 1e-14 * np.max(np.abs(ref))


def _log_sum_slice_add(Lbig, Rbig, Pi, rmax):
    """The log sum with C = -2 sum_r (1/r) E_r Pi E_r^T built by per-order
    slice-adds of Pi (the reference for the Toeplitz product of
    `bie._log_sum_rect`).  It sums in extended precision, so that its own
    rounding, which the cancelling sums of some draws lift to 4e-15 of the
    result in double, stays out of the comparison."""
    Np = Pi.shape[0]
    nL = int(np.flatnonzero(Lbig.any(axis=0))[-1]) + 1
    C = np.zeros((nL, Lbig.shape[1]), dtype=np.clongdouble)
    Y = np.empty((nL, Np), dtype=np.clongdouble)
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
    return Lbig[:, :nL].astype(np.longdouble) @ C @ Rbig.T.astype(np.longdouble)


# the ten media of the benchmark's media-sweep, (k0, a)
_SWEEP_MEDIA = [(1.0, 1.0), (2.5, 1.0), (2.0, 2.0), (5.5, 1.0), (3.5, 2.0),
                (8.5, 1.0), (10.0, 1.0), (6.0, 2.0), (14.0, 1.0), (16.0, 1.0)]


class TestLogSumToeplitz:
    """The Toeplitz product over the even diagonals of Pi~ equals the
    per-order slice-adds, and its premise, Pi[p, q] = 0 for odd p + q,
    holds for the kernel expansions."""

    @settings(max_examples=40, deadline=None)
    @given(Np=st.integers(4, 80), left=st.sampled_from("WV"), right=st.sampled_from("WC"),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_matches_slice_add_loop(self, Np, left, right, seed, data):
        # the sizes and rmax as `_galerkin` sets them
        Ntest = data.draw(st.integers(1, max(1, Np - 4)), label="Ntest")
        Ntr = data.draw(st.integers(1, 250), label="Ntr")
        self._check(Np, left, right, seed, Ntest, Ntr)

    def test_control_sees_a_draw_with_a_small_first_order(self):
        # the draw on which a defect planted at r = 1 stayed below the bound
        self._check(33, "W", "W", 0, 1, 1)

    @staticmethod
    def _check(Np, left, right, seed, Ntest, Ntr):
        from stripscat import bie
        from stripscat import chebkit as ck
        rmax = min(Ntest, Ntr) + Np + 2
        big = Np + rmax + 3
        if left == "W":
            L = ck.w_matrix(Ntest, big)
        else:
            L = np.zeros((Ntest, big))
            L[np.arange(Ntest), np.arange(Ntest)] = np.where(np.arange(Ntest) == 0, np.pi, np.pi / 2)
        R = ck.w_matrix(Ntr, big) if right == "W" else ck.c3_matrix(big, Ntr).T
        # a complex symmetric checkerboard, as P(a^2 (s-t)^2) gives
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((Np, Np)) + 1j * rng.standard_normal((Np, Np))
        Pi = A + A.T
        Pi[np.add.outer(np.arange(Np), np.arange(Np)) % 2 == 1] = 0.0
        ref = _log_sum_slice_add(L, R, Pi, rmax)
        got = bie._log_sum_rect(L, R, Pi, rmax, np.zeros_like(Pi))
        assert got.shape == ref.shape
        # each entry on the scale of its terms: the sum of their magnitudes,
        # the same sum on |L|, |R|, |Pi|.  Cancelling terms leave entries far
        # below max|ref| (a draw's 0.25 from terms of 45.6 in magnitude)
        scale = np.abs(_log_sum_slice_add(np.abs(L), np.abs(R), np.abs(Pi), rmax))
        assert np.all(np.abs(got - ref) <= 4e-15 * scale)
        # negative control: a weight k_r scaled by 1 + 1e-12 adds 1e-12 times
        # the order-r term, which the bound rejects.  It is planted at the
        # order r <= 4 whose term is the largest part of an entry's scale: the
        # r = 1 term alone can be 3e-3 of it (Np = 33, Ntest = Ntr = 1), and
        # 1e-12 of that is below the bound
        partial = [_log_sum_slice_add(L, R, Pi, r) for r in range(5)]
        terms = [hi - lo for lo, hi in zip(partial, partial[1:])]
        term = max(terms, key=lambda t: np.max(np.abs(t) / np.where(scale > 0, scale, np.inf)))
        bad = got + 1e-12 * term
        assert np.any(np.abs(bad - ref) > 4e-15 * scale)

    @pytest.mark.parametrize("k0, a", _SWEEP_MEDIA + [(0.01, 1.0), (64.0, 1.0)])
    def test_odd_parity_coefficients_vanish(self, k0, a):
        from stripscat.kernels import KernelExpansion, kernel_order
        # the order of every N, and an odd one: the class takes any order
        for order in (kernel_order(k0, a), kernel_order(k0, a) + 1):
            odd = np.add.outer(np.arange(order), np.arange(order)) % 2 == 1
            for hats in KernelExpansion(k0, a, order).hats.values():
                for C in hats:
                    assert np.max(np.abs(C[odd])) <= 1e-15 * np.max(np.abs(C))

    def test_assembly_memory_is_bounded(self):
        # k0 = 16, N = 128, the kernel expansion built beforehand: the
        # slice-add form peaked at 7.3 MiB, all diagonals in one product at 12 MiB
        import tracemalloc
        from stripscat import bie
        for parity in Parity:
            bie._galerkin(16.0, A, ETA, parity, 130, 224)        # the kernel expansion, once
            tracemalloc.start()
            try:
                bie._galerkin(16.0, A, ETA, parity, 130, 224)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 8.4 * 2 ** 20


def _galerkin_antisym_ref(cfg, Ntest, Ntr):
    """Reference: the antisymmetric operator as its own assembler built it
    (before `bie._galerkin` served both parities)."""
    from stripscat import bie
    from stripscat import chebkit as ck
    from stripscat.kernels import kernel_expansion
    k0, a, eta = cfg.k0, cfg.a, cfg.eta
    ker = kernel_expansion(k0, a)
    pi_hat, q_hat = ker.hats[Parity.ANTISYMMETRIC]
    Np = ker.order
    rmax = min(Ntest, Ntr) + Np + 2
    big = Np + rmax + 3
    WL = ck.w_matrix(Ntest, big)
    WR = ck.w_matrix(Ntr, big)
    D = WL[:, :Np] @ pi_hat @ WR[:, :Np].T
    DQ = WL[:, :Np] @ q_hat @ WR[:, :Np].T
    Slog = bie._log_sum_rect(WL, WR, pi_hat, rmax, np.zeros_like(pi_hat))
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
    from stripscat.kernels import kernel_expansion
    k0, a = cfg.k0, cfg.a
    ker = kernel_expansion(k0, a)
    pi_hat, q_hat = ker.hats[Parity.SYMMETRIC]
    Np = ker.order
    rmax = min(Ntest, Ntr) + Np + 2
    big = Np + rmax + 3
    vdiag = (np.pi / 2) * np.ones(Ntest)
    vdiag[0] = np.pi
    Vb = np.zeros((Ntest, big))
    Vb[np.arange(Ntest), np.arange(Ntest)] = vdiag
    C3R = ck.c3_matrix(big, Ntr).T
    K = (np.log(a) - np.log(2.0)) * pi_hat + q_hat
    # the test orders m >= Np meet no row of K
    Kt = np.zeros((Ntest, Np), dtype=complex)
    Kt[:Np] = K[:Ntest]
    D = vdiag[:, None] * (Kt @ C3R[:, :Np].T)
    S = a * a * (D + bie._log_sum_rect(Vb, C3R, pi_hat, rmax, np.zeros_like(K)))
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
    """Reference: one incidence's right-hand side, per order, from the
    closed forms pi i^m (m+1) J_{m+1}(z)/z and pi i^m J_m(z) at z = -k_* a
    (k_* a is never 0 here: cos(pi/2) is 6e-17 in floating point)."""
    from scipy.special import jv
    x = cfg.k_star * cfg.a
    m = np.arange(Ntest)
    if parity is Parity.ANTISYMMETRIC:
        amp = 1j * cfg.k0 * np.sin(cfg.theta_in) * cfg.a * np.pi
        return amp * (-1j) ** m * (m + 1) * jv(m + 1, x) / x
    return cfg.eta * cfg.a * np.pi * (-1j) ** m * jv(m, x)


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
        O, edge, _ = bie._galerkin(cfg.k0, cfg.a, cfg.eta, parity, Ntest, Ntr)
        ref = (_galerkin_antisym_ref if parity is Parity.ANTISYMMETRIC
               else _galerkin_sym_ref)(cfg, Ntest, Ntr)
        assert np.max(np.abs(O - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(edge, _edge_log_ref(parity, Ntr))

        incidences = (0.3, THETA, np.pi / 2)
        B = bie._rhs(cfg, parity, incidences, Ntest)
        for j, t in enumerate(incidences):
            ref = _rhs_ref(replace(cfg, theta_in=t), parity, Ntest)
            assert np.max(np.abs(B[:, j] - ref)) <= 1e-14 * np.max(np.abs(ref))


def _off_strip_quad(dens, cfg, x, epsrel=1e-13):
    """Reference: int rho(t) K(|x - t|) dt by adaptive Gauss-Kronrod
    quadrature in t = a cos(theta), where the integrand is smooth: the
    off-strip boundary data d u_a/dy (antisymmetric) or u_s (symmetric) at
    |x| > a, at one target or at an array of them (one adaptive rule for all).

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
    val, _ = quad_vec(f, 0.0, np.pi, epsabs=0, epsrel=epsrel, limit=2000)
    return val


def _fine_field(dens, cfg, x, y):
    """Reference: the layer potential at (x, y) by a fixed fine theta rule,
    24-point Gauss panels no wider than 0.02, graded by halving to 2^-30
    at both ends (t = a cos(theta))."""
    from scipy.special import hankel1
    a, k0 = cfg.a, cfg.k0
    ladder = 2.0 ** -np.arange(30, 5, -1)                 # 2^-30 .. 2^-6
    inner = np.linspace(ladder[-1], np.pi - ladder[-1],
                        int(np.ceil((np.pi - 2 * ladder[-1]) / 0.02)) + 1)
    b = np.concatenate([[0.0], ladder[:-1], inner, np.pi - ladder[-2::-1], [np.pi]])
    xg, wg = np.polynomial.legendre.leggauss(24)
    th = (b[:-1, None] + (xg + 1) / 2 * np.diff(b)[:, None]).ravel()
    w = (wg * np.diff(b)[:, None] / 2).ravel()
    n = np.arange(len(dens.coeffs))
    R = np.hypot(x - a * np.cos(th), y)
    if dens.parity is Parity.ANTISYMMETRIC:
        # a^2 sin^2(theta) P(cos theta) = a^2 sin(theta) sum b_n sin((n+1) theta)
        rho = a * a * np.sin(th) * (np.sin(np.outer(th, n + 1)) @ dens.coeffs)
        return np.sum(w * rho * 0.25j * k0 * hankel1(1, k0 * R) * y / R)
    rho = a * np.sin(th) * (np.cos(np.outer(th, n)) @ dens.coeffs)
    return np.sum(w * rho * 0.25j * hankel1(0, k0 * R))


@functools.lru_cache(maxsize=None)
def _cut_reference(parity):
    """A bundle at k0 = 2 + 0.4i and the x-rule (x, w) of its off-strip data
    g = (g(x), g(-x)) on x > a, from `_off_strip_quad`."""
    from stripscat import chebkit as ck
    from stripscat.spectral import SpectralBundle
    cfg = TestCutIntegrals.CFG
    solve = solve_antisymmetric if parity is Parity.ANTISYMMETRIC else solve_symmetric
    b = SpectralBundle(cfg, solve(cfg, 64)[0])
    # x = a + u^2 on [a, 2a], where the data go like (x - a)^{-1/2}
    # (antisymmetric) or have a (x - a)^{1/2} term, on panels graded toward
    # the edge (with [0, 0.2] one panel, the symmetric reference was off by
    # 1e-12, a k-independent e^{ika} term); Gauss panels beyond, up to where
    # e^{-(Im k0 + Im k) x} is below 1e-11 for Im k >= -0.1
    u, wu = ck.panels([0.0, 0.01, 0.05, 0.2, 0.5, 1.0], 12)
    xf, wf = ck.panels(np.arange(1.0, 92.0, 2.0), 16)
    x, w = A + np.concatenate([u * u, A * xf]), np.concatenate([2 * u * wu, A * wf])
    # the rule's error bound is norm-wise: one rule per target near the
    # edges, where the data span decades, and one for all the far targets
    xn = np.concatenate([x[:len(u)], -x[:len(u)]])
    near = np.array([_off_strip_quad(b.density, cfg, xx, epsrel=1e-11) for xx in xn])
    far = _off_strip_quad(b.density, cfg, np.concatenate([x[len(u):], -x[len(u):]]),
                          epsrel=1e-11)
    g = np.concatenate([near.reshape(2, -1), far.reshape(2, -1)], axis=1)
    return b, x, w, g


class TestCutIntegrals:
    """The half-line transforms of `SpectralBundle`, integrals along the
    branch cut from k0, against the definition: x-quadrature of the layer
    potential's boundary data on |x| > a (from `_off_strip_quad`)."""

    CFG = ProblemConfig(2 + 0.4j, A, ETA, THETA)
    # real k, and complex k on both sides of the real axis with Im k > -Im k0
    K = np.array([-3.7, -0.4, 1.3, 4.9, 0.8 + 0.9j, -1.5 - 0.1j])

    @pytest.mark.parametrize("parity", list(Parity))
    def test_against_layer_potential(self, parity):
        b, x, w, g = _cut_reference(parity)
        k = self.K
        ref_plus = np.exp(1j * np.outer(k, x)) @ (w * g[0])
        ref_minus = np.exp(-1j * np.outer(np.conj(k), x)) @ (w * g[1])
        for got, ref in ((b.f_check_plus(k), ref_plus), (b.f_check_minus(np.conj(k)), ref_minus)):
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("parity", list(Parity))
    @settings(max_examples=25, deadline=None)
    @given(k_re=st.floats(-5.0, 5.0), k_im=st.floats(-0.1, 2.0), side=st.sampled_from([1, -1]))
    def test_complex_k_in_decay_strip(self, parity, k_re, k_im, side):
        # F+check at Im k > -Im k0 and F-check at Im k < Im k0, from just
        # inside the strip's edge to 2 deep into the side's half plane
        b, x, w, g = _cut_reference(parity)
        k = np.array([k_re, k_re + 0.37]) + 1j * side * k_im
        got = b.f_check_plus(k) if side > 0 else b.f_check_minus(k)
        ref = np.exp(side * 1j * np.outer(k, x)) @ (w * g[(1 - side) // 2])
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("parity", list(Parity))
    def test_array_matches_scalar_calls(self, parity):
        b, _, _, _ = _cut_reference(parity)
        k = np.concatenate([self.K, np.conj(self.K)])
        for f in (b.f_check_plus, b.f_check_minus, b.f_plus, b.f_minus):
            got = f(k)
            ref = np.array([f(kk) for kk in k])
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

    @pytest.mark.parametrize("parity", list(Parity))
    def test_mirrored_density(self, parity):
        # rho(-t) has the coefficients (-1)^n c_n and the data g(-x), so its
        # F+check at -k is the F-check of rho at k
        from stripscat.spectral import SpectralBundle
        b, _, _, _ = _cut_reference(parity)
        c = b.density.coeffs
        mirror = SpectralBundle(b.cfg, replace(b.density, coeffs=c * (-1.0) ** np.arange(len(c))))
        k = np.concatenate([self.K, np.conj(self.K)])
        got, ref = mirror.f_check_plus(-k), b.f_check_minus(k)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
