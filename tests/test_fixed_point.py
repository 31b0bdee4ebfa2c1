import math
import tracemalloc
import weakref
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

import vsci.fixed_point
from helpers import traced_peak
from vsci.errors import DivergedError, ShapeMismatchError, SingularAlphaError
from vsci.fixed_point import (
    RESIDUAL_BLOCK,
    FixedPointConfig,
    anderson_solve,
    solve,
    solve_alpha,
)
from vsci.metrics import PSNR_BLOCK

# bytes of interpreter objects, the Gram matrix and the trace that the memory
# tests allow beyond the arrays they count; far below one 64x64x8 iterate
_SLACK = 16 << 10


def _held(memory, cube):
    """Bytes a solve holds from its first iteration on: 2m iterates (x and
    its partner for memory 1, the two (m, N) rings, x in G, otherwise) and
    the residual buffer."""
    return 2 * memory * cube.nbytes + 8 * RESIDUAL_BLOCK


def affine_map(a, b):
    return lambda x, out=None: a @ x + b


def contraction_16(seed, radius):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((16, 16))
    a *= radius / max(abs(np.linalg.eigvals(a)))
    b = rng.standard_normal(16)
    return a, b


def _oracle_anderson(f, x0, cfg):
    """The history-rebuilding Anderson loop (deques of iterates and images,
    columns stacked by age, mix as Python sums) kept as the reference for the
    ring-buffered engine. Runs all max_iter iterations: no stopping rule or
    guards. Returns (x after the last mix, residuals, fallbacks)."""
    s, delta = cfg.anderson_memory, cfg.anderson_damping
    xs, fxs = deque(maxlen=s), deque(maxlen=s)
    x = np.array(x0, dtype=np.float64)
    residuals, fallbacks = [], []
    for _ in range(cfg.max_iter):
        fx = f(x)
        residuals.append(float(np.linalg.norm(fx - x)))
        xs.append(x)
        fxs.append(fx)
        cols = np.stack([(b - a).ravel() for a, b in zip(xs, fxs)], axis=1)
        try:
            alpha = solve_alpha(cols.T @ cols, cfg.anderson_reg)
            fallbacks.append(False)
            x_mix = sum(al * xi for al, xi in zip(alpha, xs))
            f_mix = sum(al * fi for al, fi in zip(alpha, fxs))
            x = (1.0 - delta) * x_mix + delta * f_mix
        except SingularAlphaError:
            fallbacks.append(True)
            x = (1.0 - delta) * x + delta * fx
    return x, residuals, fallbacks


def _ring_oracle(f, x0, cfg):
    """The ring-buffered loop with fresh arrays for every step: the damped
    image as (1 - delta) x + delta f(x) and the mix as alpha @ Y. The engine
    forms both in place and must match it bitwise (with damping < 1; see
    the -0.0 note in anderson_solve). No stopping rule or guards."""
    s, delta = cfg.anderson_memory, cfg.anderson_damping
    x = np.array(x0, dtype=np.float64)
    g_ring, y_ring, gram = np.empty((s, x.size)), np.empty((s, x.size)), np.zeros((s, s))
    for k in range(cfg.max_iter):
        j, m = k % s, min(k + 1, s)
        fx = f(x)
        g_ring[j] = (fx - x).ravel()
        y_ring[j] = ((1.0 - delta) * x + delta * fx).ravel()
        gram[j, :m] = gram[:m, j] = g_ring[:m] @ g_ring[j]
        x = (solve_alpha(gram[:m, :m], cfg.anderson_reg) @ y_ring[:m]).reshape(x.shape)
    return x


def _tanh_map(b):
    """x -> tanh(x) + b, written into out when given (allocating nothing)."""
    def f(x, out=None):
        out = np.tanh(x, out=out)
        out += b
        return out
    return f


def _oracle_maps():
    a, b = contraction_16(12, 0.9)
    cube_b = np.random.default_rng(13).standard_normal((12, 10, 3))
    return {
        "contraction_16": (affine_map(a, b), np.zeros(16)),
        "cube": (lambda x, out=None: 0.9 * np.tanh(x[::-1, :, ::-1]) + cube_b,
                 np.zeros((12, 10, 3))),
    }


class TestConfig:
    @pytest.mark.parametrize("value", [-1e-9, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["tol", "anderson_reg"])
    def test_negative_or_nan_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            FixedPointConfig(**{name: value})

    @pytest.mark.parametrize("name", ["tol", "anderson_reg"])
    def test_zero_accepted(self, name):
        assert getattr(FixedPointConfig(**{name: 0.0}), name) == 0.0


class TestPicard:
    def test_half_map_converges_within_60(self):
        cfg = FixedPointConfig(tol=1e-6, max_iter=100, anderson_memory=1)
        res = solve(lambda x, out=None: 0.5 * x, np.ones(4), cfg)
        # iterations counts map evaluations; the accepted iterate is x_{k-1},
        # so "within 60 iterates" allows 61 evaluations
        assert res.converged and res.iterations - 1 <= 60
        assert np.linalg.norm(res.x_hat) <= cfg.tol
        # residual halves each step
        r = np.array(res.trace.residuals)
        np.testing.assert_allclose(r[1:11] / r[:10], 0.5, atol=1e-12)

    def test_identity_converges_at_one(self):
        cfg = FixedPointConfig(tol=1e-6, max_iter=10, anderson_memory=1)
        x0 = np.arange(5, dtype=float)
        res = solve(lambda x, out=None: x, x0, cfg)
        assert res.converged and res.iterations == 1
        assert res.trace.residuals[0] == 0.0
        np.testing.assert_array_equal(res.x_hat, x0)

    def test_affine_matches_dense_solve(self):
        a, b = contraction_16(0, 0.8)
        cfg = FixedPointConfig(tol=1e-12, max_iter=500, anderson_memory=1)
        res = solve(affine_map(a, b), np.zeros(16), cfg)
        expected = np.linalg.solve(np.eye(16) - a, b)
        assert res.converged
        np.testing.assert_allclose(res.x_hat, expected, atol=1e-8)

    def test_nan_raises_diverged_with_trace(self):
        def f(x, out=None):
            return x * 2.0 if np.linalg.norm(x) < 8 else x * np.nan

        cfg = FixedPointConfig(tol=1e-12, max_iter=100, anderson_memory=1)
        with pytest.raises(DivergedError) as exc:
            solve(f, np.ones(4), cfg)
        assert exc.value.trace is not None
        assert exc.value.iterations >= 1

    def test_growth_guard(self):
        cfg = FixedPointConfig(tol=1e-16, max_iter=10_000, anderson_memory=1)
        with pytest.raises(DivergedError):
            solve(lambda x, out=None: 1.5 * x, np.ones(3), cfg)

    def test_contraction_ratio_property(self):
        for seed, c in ((1, 0.3), (2, 0.6), (3, 0.9)):
            a, b = contraction_16(seed, c)
            # use the spectral norm as the verified Lipschitz constant
            lip = np.linalg.svd(a, compute_uv=False)[0]
            a *= c / lip
            lip = c
            cfg = FixedPointConfig(tol=1e-13, max_iter=400, anderson_memory=1)
            res = solve(affine_map(a, b), np.zeros(16), cfg)
            r = np.array(res.trace.residuals)
            ratios = r[6:] / r[5:-1]
            ratios = ratios[r[5:-1] > 1e-13]
            assert (ratios <= lip + 0.02).all()

    def test_determinism_bitwise(self):
        a, b = contraction_16(4, 0.7)
        cfg = FixedPointConfig(tol=1e-10, max_iter=300, anderson_memory=1)
        r1 = solve(affine_map(a, b), np.zeros(16), cfg)
        r2 = solve(affine_map(a, b), np.zeros(16), cfg)
        assert r1.x_hat.tobytes() == r2.x_hat.tobytes()
        assert r1.trace.residuals == r2.trace.residuals


class TestSolveAlpha:
    def test_single_column(self):
        a = np.random.default_rng(0).standard_normal((10, 1))
        alpha = solve_alpha(a.T @ a, 1e-8)
        np.testing.assert_array_equal(alpha, [1.0])

    def test_two_orthogonal_equal_norm(self):
        a = np.zeros((4, 2))
        a[0, 0] = 2.0
        a[1, 1] = 2.0
        np.testing.assert_allclose(solve_alpha(a.T @ a, 1e-8), [0.5, 0.5], atol=1e-9)

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((16, 5))
        alpha = solve_alpha(a.T @ a, 1e-8)
        # dense KKT oracle: stationarity 2 G alpha + nu 1 = 0, 1^T alpha = 1
        g = a.T @ a
        kkt = np.zeros((6, 6))
        kkt[:5, :5] = 2 * g
        kkt[:5, 5] = 1.0
        kkt[5, :5] = 1.0
        rhs = np.zeros(6)
        rhs[5] = 1.0
        alpha_star = np.linalg.solve(kkt, rhs)[:5]
        obj = np.linalg.norm(a @ alpha) ** 2
        obj_star = np.linalg.norm(a @ alpha_star) ** 2
        assert abs(obj - obj_star) <= 1e-9

    def test_zero_residual_column_concentrates(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 3))
        a[:, 1] = 0.0
        alpha = solve_alpha(a.T @ a, 1e-8)
        assert abs(alpha[1] - 1.0) <= 1e-5
        assert abs(alpha.sum() - 1.0) <= 1e-12

    def test_zero_matrix_is_singular(self):
        a = np.zeros((4, 2))
        with pytest.raises(SingularAlphaError):
            solve_alpha(a.T @ a, 1e-8)


class TestAnderson:
    def test_memory_one_equals_damped_picard(self):
        a, b = contraction_16(7, 0.9)
        cfg = FixedPointConfig(tol=0.0, max_iter=50, anderson_memory=1,
                               anderson_damping=0.6)
        res = anderson_solve(affine_map(a, b), np.zeros(16), cfg)
        x = np.zeros(16)
        manual = []
        for _ in range(50):
            fx = a @ x + b
            manual.append(np.linalg.norm(fx - x))
            x = (1.0 - 0.6) * x + 0.6 * fx
        np.testing.assert_allclose(res.trace.residuals, manual, rtol=1e-12)
        np.testing.assert_allclose(res.x_hat, x, rtol=0, atol=1e-12 * np.linalg.norm(x))
        # the memory-1 step is this loop's formula, so the match is bitwise
        assert res.trace.residuals == manual
        assert np.array_equal(res.x_hat, x)
        assert res.trace.alpha_errors == [0.0] * 50 and not any(res.trace.fallbacks)

    def test_memory_one_undamped_equals_picard(self):
        # undamped, the engine takes f(x) itself; the formula's 0 * x + 1 * f(x)
        # differs from it at most in the sign of a zero, which array_equal ignores
        a, b = contraction_16(7, 0.9)
        cfg = FixedPointConfig(tol=0.0, max_iter=50, anderson_memory=1,
                               anderson_damping=1.0)
        res = anderson_solve(affine_map(a, b), np.zeros(16), cfg)
        x = np.zeros(16)
        manual = []
        for _ in range(50):
            fx = a @ x + b
            manual.append(np.linalg.norm(fx - x))
            x = (1.0 - 1.0) * x + 1.0 * fx
        assert res.trace.residuals == manual
        assert np.array_equal(res.x_hat, x)
        assert res.trace.alpha_errors == [0.0] * 50 and not any(res.trace.fallbacks)

    def test_same_fixed_point_as_picard_and_not_slower(self):
        a, b = contraction_16(8, 0.8)
        f = affine_map(a, b)
        cfg = FixedPointConfig(tol=1e-10, max_iter=2000)
        pic = solve(f, np.zeros(16), replace(cfg, anderson_memory=1))
        and_ = anderson_solve(f, np.zeros(16), cfg)
        assert and_.converged
        np.testing.assert_allclose(and_.x_hat, pic.x_hat, atol=1e-8)
        assert and_.iterations <= pic.iterations

    def test_hard_affine_tol_1e9(self):
        a, b = contraction_16(9, 0.99)
        f = affine_map(a, b)
        cfg = FixedPointConfig(tol=1e-9, max_iter=20_000)
        pic = solve(f, np.zeros(16), replace(cfg, anderson_memory=1))
        and_ = anderson_solve(f, np.zeros(16), FixedPointConfig(tol=1e-9, max_iter=20_000))
        assert pic.converged and and_.converged
        assert and_.iterations <= pic.iterations
        expected = np.linalg.solve(np.eye(16) - a, b)
        np.testing.assert_allclose(and_.x_hat, expected, atol=1e-6)

    def test_alpha_sums_to_one_every_iteration(self):
        a, b = contraction_16(10, 0.95)
        cfg = FixedPointConfig(tol=1e-10, max_iter=500, anderson_memory=5)
        res = anderson_solve(affine_map(a, b), np.zeros(16), cfg)
        assert res.trace.alpha_errors  # recorded
        assert max(res.trace.alpha_errors) <= 1e-12

    def test_returned_point_satisfies_tolerance(self):
        a, b = contraction_16(11, 0.9)
        f = affine_map(a, b)
        cfg = FixedPointConfig(tol=1e-8, max_iter=1000)
        res = anderson_solve(f, np.zeros(16), cfg)
        assert res.converged
        rel = np.linalg.norm(f(res.x_hat) - res.x_hat) / (np.linalg.norm(res.x_hat) + 1e-12)
        assert rel <= cfg.tol

    @pytest.mark.parametrize("case", ["contraction_16", "cube"])
    @pytest.mark.parametrize("damping", [1.0, 0.6])
    @pytest.mark.parametrize("memory", [2, 3, 5])
    def test_ring_matches_history_oracle(self, memory, damping, case):
        # 40 iterations wrap every ring. The ring keeps columns in slot order
        # and mixes with one reassociated sum, so agreement is to rounding:
        # relative 1e-10, with an absolute floor of 1e-12 of the first
        # residual once residuals reach the rounding level of the iterates
        f, x0 = _oracle_maps()[case]
        cfg = FixedPointConfig(tol=0.0, max_iter=40, anderson_memory=memory,
                               anderson_damping=damping)
        res = anderson_solve(f, x0, cfg)
        x_last, residuals, fallbacks = _oracle_anderson(f, x0, cfg)
        np.testing.assert_allclose(res.trace.residuals, residuals, rtol=1e-10,
                                   atol=1e-12 * residuals[0])
        np.testing.assert_allclose(res.x_hat, x_last, rtol=1e-10,
                                   atol=1e-12 * np.abs(x_last).max())
        assert res.trace.fallbacks == fallbacks

    @pytest.mark.parametrize("memory", [2, 3])
    def test_undamped_ring_slot_equals_formula_loop(self, memory):
        # undamped, the ring slot Y[j] takes f(x) itself; this loop runs the
        # same ring, Gram and mix arithmetic but writes the formula
        # (1 - 1) * x + 1 * f(x) there. Values agree bitwise; array_equal
        # ignores the sign of a zero
        f, x0 = _oracle_maps()["cube"]
        cfg = FixedPointConfig(tol=0.0, max_iter=30, anderson_memory=memory,
                               anderson_damping=1.0)
        res = anderson_solve(f, x0, cfg)
        x = x0.copy()
        g_ring, y_ring = np.empty((memory, x.size)), np.empty((memory, x.size))
        gram = np.zeros((memory, memory))
        residuals = []
        for k in range(1, cfg.max_iter + 1):
            fx = f(x)
            j, m = (k - 1) % memory, min(k, memory)
            g_ring[j] = (fx - x).ravel()
            residuals.append(math.sqrt(g_ring[j].dot(g_ring[j])))
            y_ring[j] = ((1.0 - 1.0) * x + 1.0 * fx).ravel()
            gram[j, :m] = gram[:m, j] = g_ring[:m] @ g_ring[j]
            x = (solve_alpha(gram[:m, :m], cfg.anderson_reg) @ y_ring[:m]).reshape(x.shape)
        assert res.trace.residuals == residuals
        assert np.array_equal(res.x_hat, x)

    @pytest.mark.parametrize("damping", [1.0, 0.6])
    def test_singular_mix_falls_back_to_damped_picard(self, monkeypatch, damping):
        a, b = contraction_16(14, 0.9)
        xs, fxs = [], []

        def f(x, out=None):
            xs.append(x.copy())
            fxs.append(a @ x + b)
            return fxs[-1]

        calls = []

        def third_raises(gram, reg):
            calls.append(1)
            if len(calls) == 3:
                raise SingularAlphaError("forced")
            return solve_alpha(gram, reg)

        monkeypatch.setattr(vsci.fixed_point, "solve_alpha", third_raises)
        cfg = FixedPointConfig(tol=0.0, max_iter=8, anderson_memory=3,
                               anderson_damping=damping)
        res = anderson_solve(f, np.zeros(16), cfg)
        assert np.array_equal(xs[3], (1.0 - damping) * xs[2] + damping * fxs[2])
        assert res.trace.fallbacks == [False, False, True] + [False] * 5

    @pytest.mark.parametrize("memory", [1, 3])
    @pytest.mark.parametrize("damping", [1.0, 0.6])
    def test_never_writes_map_inputs_or_outputs(self, memory, damping):
        # the engine never writes into an array f returned in place of out.
        # f's input is the engine's iterate, which a later step overwrites
        # (f must not keep it), and at every memory out is an engine buffer
        # of x's shape that never overlaps it
        a, b = contraction_16(15, 0.9)
        held = []  # (array, snapshot) for every output of f

        def f(x, out=None):
            assert out is not None and out.shape == x.shape and out.dtype == np.float64
            assert not np.shares_memory(x, out)
            fx = np.tanh(a @ x) + b
            held.append((fx, fx.copy()))
            return fx

        cfg = FixedPointConfig(tol=0.0, max_iter=12, anderson_memory=memory,
                               anderson_damping=damping)
        res = anderson_solve(f, np.ones(16), cfg)
        assert len(held) == 12
        for arr, snapshot in held:
            assert np.array_equal(arr, snapshot)
        # x_hat owns its memory (or views an array of exactly its size)
        owner = res.x_hat if res.x_hat.base is None else res.x_hat.base
        assert owner.size == res.x_hat.size

    @pytest.mark.parametrize("memory", [1, 3, 5])
    def test_peak_allocation_independent_of_history_copies(self, memory):
        # two (m, N) rings plus the iterate, its image and the new mix; the
        # history-rebuilding loop read 17x (m=3) and 27x (m=5) the cube
        b = np.random.default_rng(16).random((64, 64, 8))
        x0 = np.zeros_like(b)
        bound = 4.5 if memory == 1 else 2 * memory + 4
        for max_iter in (20, 200):
            cfg = FixedPointConfig(tol=0.0, max_iter=max_iter, anderson_memory=memory)
            peak = traced_peak(anderson_solve, lambda x, out=None: 0.5 * x + b, x0, cfg)
            assert peak <= bound * b.nbytes, max_iter

    @pytest.mark.parametrize("memory, damping", [(1, 1.0), (2, 1.0), (3, 1.0), (5, 1.0),
                                                 (3, 0.6)])
    def test_map_called_with_only_rings_and_iterate_live(self, memory, damping):
        # from iteration 2 on, f starts while the engine holds the two (m, N)
        # rings, with x in G, or x and its partner, and the residual buffer;
        # the previous f(x) is already freed
        b = np.random.default_rng(17).random((64, 64, 8))
        x0 = np.zeros_like(b)
        live = []

        def f(x, out=None):
            live.append(tracemalloc.get_traced_memory()[0])
            return np.tanh(x) + b

        cfg = FixedPointConfig(tol=0.0, max_iter=12, anderson_memory=memory,
                               anderson_damping=damping)
        tracemalloc.start()
        try:
            anderson_solve(f, x0, cfg)
        finally:
            tracemalloc.stop()
        assert len(live) == 12
        assert max(live[1:]) <= _held(memory, b) + _SLACK

    def test_map_filling_out_allocates_no_iterate_after_the_rings(self):
        # f writes into the lent ring slot, the trace's PSNR works in one row
        # block smaller than the iterate and the mix goes into the next G
        # slot: from iteration 2 on, and through the copy of x_hat out of G
        # after the Y ring is freed, the engine holds the two (m, N) rings
        # and nothing else of the iterate's size (a separate x, a fresh mix,
        # a PSNR scratch cube or f(x) each add one)
        b = np.random.default_rng(19).random((128, 128, 8))
        memory, fill = 3, _tanh_map(b)

        def f(x, out=None):
            calls.append(1)
            if len(calls) == 2:
                tracemalloc.reset_peak()
            return fill(x, out)

        calls = []
        cfg = FixedPointConfig(tol=0.0, max_iter=12, anderson_memory=memory)
        tracemalloc.start()
        try:
            res = anderson_solve(f, np.zeros_like(b), cfg, psnr_ref=b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 12 and len(res.trace.psnrs) == 12
        assert 8 * PSNR_BLOCK <= b.nbytes // 2
        assert peak <= _held(memory, b) + 8 * PSNR_BLOCK + _SLACK

    def test_picard_filling_out_holds_two_buffers_at_any_length(self):
        # memory 1 with an f that fills out: x and its partner take turns,
        # f(x) - x is formed RESIDUAL_BLOCK floats at a time and the trace's
        # PSNR works in one row block, so from iteration 2 on nothing of the
        # iterate's size is allocated (a difference cube, a PSNR scratch cube
        # or a fresh f(x) each add one), and 200 iterations peak where 20 do
        # but for the trace's scalars
        b = np.random.default_rng(21).random((128, 128, 8))
        fill = _tanh_map(b)
        peaks = {}
        for max_iter in (20, 200):
            calls = []

            def f(x, out=None):
                calls.append(1)
                if len(calls) == 2:
                    tracemalloc.reset_peak()
                return fill(x, out)

            cfg = FixedPointConfig(tol=0.0, max_iter=max_iter, anderson_memory=1)
            tracemalloc.start()
            try:
                res = solve(f, np.zeros_like(b), cfg, psnr_ref=b)
                peaks[max_iter] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(calls) == max_iter and len(res.trace.psnrs) == max_iter
        assert peaks[20] <= _held(1, b) + 8 * PSNR_BLOCK + _SLACK
        # six trace lists grow by a float object and a pointer per iteration
        assert peaks[200] - peaks[20] <= 180 * 6 * 40

    @pytest.mark.parametrize("memory", [1, 2, 3])
    def test_damping_in_place_matches_fresh_arrays_without_a_temporary(self, memory):
        # damped, f(x) in out (Y[j], or memory 1's partner) becomes
        # delta f(x) + (1 - delta) x in place: bitwise the fresh-array step,
        # and no higher a peak than undamped. The two peaks differ by
        # interpreter objects only, whose sizes depend on the heap's history
        # (-962 to +110 bytes over 200 repeats in one process), while a real
        # temporary adds at least one iterate (256 KiB), so a 4 KiB slack
        # still catches any temporary
        b = np.random.default_rng(20).random((64, 64, 8))
        x0 = np.zeros_like(b)
        peaks = {}
        for damping in (1.0, 0.6):
            cfg = FixedPointConfig(tol=0.0, max_iter=8, anderson_memory=memory,
                                   anderson_damping=damping)
            peaks[damping] = traced_peak(anderson_solve, _tanh_map(b), x0, cfg)
        assert peaks[0.6] <= peaks[1.0] + (4 << 10)
        expected = _ring_oracle(_tanh_map(b), x0, cfg)
        for f in (_tanh_map(b), lambda x, out=None: np.tanh(x) + b):  # fills out / returns new
            assert np.array_equal(anderson_solve(f, x0, cfg).x_hat, expected)

    @pytest.mark.parametrize("memory", [1, 3], ids=["picard-1", "anderson-3"])
    def test_inline_initial_estimate_is_freed(self, memory):
        # the engine copies x0 (into G[0] for Anderson) and drops its
        # reference, so an x0 built in the call holds no memory while f
        # runs: at iteration 2 the engine holds 2m iterates and the residual
        # buffer, x and its partner (Picard) or the two (m, N) rings with x
        # in G (Anderson), one iterate less than when x0 outlives the call
        b = np.random.default_rng(18).random((64, 64, 8))
        refs, live = [], []

        def make_x0():
            x0 = np.zeros_like(b)
            refs.append(weakref.ref(x0))
            return x0

        def f(x, out=None):
            live.append((tracemalloc.get_traced_memory()[0], refs[0]() is None))
            return np.tanh(x) + b

        cfg = FixedPointConfig(tol=0.0, max_iter=3, anderson_memory=memory)
        tracemalloc.start()
        try:
            anderson_solve(f, make_x0(), cfg)
        finally:
            tracemalloc.stop()
        assert [gone for _, gone in live] == [True, True, True]
        assert live[1][0] <= _held(memory, b) + _SLACK

    @pytest.mark.parametrize("converged", [True, False], ids=["converged", "capped"])
    @pytest.mark.parametrize("memory", [1, 3])
    def test_returned_solve_leaves_x_hat_and_the_trace(self, memory, converged):
        # the rings (or x's partner) and the residual buffer die with the
        # solve, and x_hat, copied out of G, is no view that keeps a ring
        # alive: a finished solve leaves x_hat and the trace's scalars
        b = np.random.default_rng(22).random((64, 64, 8))
        x0 = np.zeros_like(b)
        cfg = FixedPointConfig(tol=1e-3 if converged else 0.0, max_iter=30 if converged else 12,
                               anderson_memory=memory)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = anderson_solve(lambda x, out=None: 0.5 * x + b, x0, cfg)
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert res.converged == converged
        assert res.x_hat.base is None and res.x_hat.nbytes == b.nbytes
        assert left <= b.nbytes + _SLACK

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("memory", [1, 3])
    def test_one_non_finite_entry_raises_at_its_iteration(self, memory, bad):
        # f(x) is scanned only when the residual norm is not finite; one
        # bad entry among finite ones always makes it so
        calls = []

        def f(x, out=None):
            calls.append(1)
            fx = np.tanh(x) + 0.5
            if len(calls) == 3:
                fx[1, 2, 0] = bad
            return fx

        cfg = FixedPointConfig(tol=0.0, max_iter=10, anderson_memory=memory)
        with pytest.raises(DivergedError, match="non-finite values at iteration 3") as exc:
            anderson_solve(f, np.zeros((4, 5, 2)), cfg)
        assert exc.value.iterations == 3 and len(exc.value.trace) == 2


class TestShapeGuard:
    @pytest.mark.parametrize("memory", [3, 1], ids=["anderson", "picard"])
    def test_wrong_map_shape_raises_at_first_bad_iteration(self, memory):
        calls = []

        def f(x, out=None):
            calls.append(1)
            fx = 0.5 * x
            return fx if len(calls) < 3 else fx[:, :, :1]

        cfg = FixedPointConfig(tol=0.0, max_iter=10, anderson_memory=memory)
        with pytest.raises(ShapeMismatchError, match="iteration 3"):
            solve(f, np.ones((4, 4, 3)), cfg)
        assert len(calls) == 3


class TestTraceCsv:
    def test_columns_and_empty_psnr(self, tmp_path):
        cfg = FixedPointConfig(tol=1e-4, max_iter=50, anderson_memory=1)
        res = solve(lambda x, out=None: 0.5 * x, np.ones(3), cfg)
        path = str(tmp_path / "trace.csv")
        res.trace.to_csv(path)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "iter,residual,rel_residual,psnr,time_ms"
        first = lines[1].split(",")
        assert first[0] == "1" and first[3] == ""
