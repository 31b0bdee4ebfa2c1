import gc
import weakref

import numpy as np
import pytest

import vsci.denoisers
import vsci.maps
from helpers import dense_phi, random_mask, unvec, vec
from vsci.cli import main, save_mask
from vsci.denoisers import (
    GatedConvCell,
    IdentityDenoiser,
    ScaleShiftDenoiser,
    load_denoiser,
    make_conv_residual,
    make_gated_cell,
    save_denoiser,
)
from vsci.errors import DivergedError, UnsupportedDenoiserOpError
from vsci.fixed_point import FixedPointConfig, solve
from vsci.maps import DeGapMap, pnp_gap_solve
from vsci.sci import Measurement, adjoint, forward, gap_project, mask_generate


def _instance(seed, h=4, w=4, b=3):
    mask = random_mask(seed, h, w, b)
    rng = np.random.default_rng(seed + 100)
    cube = rng.random((h, w, b))
    y = forward(mask, cube)
    return mask, cube, y


class TestDeGap:
    def test_identity_denoiser_output_is_consistent(self):
        mask, cube, y = _instance(0)
        fmap = DeGapMap(denoiser=IdentityDenoiser(), mask=mask, y=y)
        out = fmap.apply(np.zeros_like(cube))
        assert np.max(np.abs(forward(mask, out).data - y.data)) <= 1e-12

    def test_zero_denoiser_constant_map(self):
        mask, cube, y = _instance(1)
        fmap = DeGapMap(denoiser=ScaleShiftDenoiser(a=0.0), mask=mask, y=y)
        rng = np.random.default_rng(0)
        assert (fmap.apply(rng.random(cube.shape)) == 0).all()
        res = solve(fmap.apply, adjoint(mask, y),
                    FixedPointConfig(tol=1e-12, max_iter=50, anderson_memory=1))
        assert np.linalg.norm(res.x_hat) <= 1e-12

    def test_scale_half_fixed_point_matches_dense_solve(self):
        mask, cube, y = _instance(2, 3, 3, 2)
        fmap = DeGapMap(denoiser=ScaleShiftDenoiser(a=0.5), mask=mask, y=y)
        res = solve(fmap.apply, adjoint(mask, y),
                    FixedPointConfig(tol=1e-13, max_iter=500, anderson_memory=1))
        phi = dense_phi(mask)
        n = phi.shape[1]
        m_null = np.eye(n) - phi.T @ np.linalg.inv(phi @ phi.T) @ phi
        c = phi.T @ np.linalg.inv(phi @ phi.T) @ y.data.ravel()
        x_star = np.linalg.solve(np.eye(n) - 0.5 * m_null, 0.5 * c)
        np.testing.assert_allclose(vec(res.x_hat), x_star, atol=1e-8)

    def test_consistent_fixed_point_identity(self):
        # if D fixes x and Phi x = y then f(x) = x exactly
        mask, cube, y = _instance(3)
        fmap = DeGapMap(denoiser=IdentityDenoiser(), mask=mask, y=y)
        x_hat = gap_project(mask, y, np.random.default_rng(1).random(cube.shape))
        np.testing.assert_allclose(fmap.apply(x_hat), x_hat, atol=1e-10)

    def test_vjp_input_matches_finite_differences(self):
        mask, cube, y = _instance(4, 4, 4, 2)
        den = make_conv_residual(0, channels=4, n_layers=2, init="smooth",
                                 gamma=0.3, noise_scale=0.05)
        fmap = DeGapMap(denoiser=den, mask=mask, y=y)
        rng = np.random.default_rng(2)
        x = rng.random(cube.shape)
        v = rng.standard_normal(cube.shape)
        analytic = fmap.vjp_input(x, v)
        h = 1e-6
        fd = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp = x.copy(); xp[idx] += h
            xm = x.copy(); xm[idx] -= h
            fd[idx] = (np.sum(fmap.apply(xp) * v) - np.sum(fmap.apply(xm) * v)) / (2 * h)
        assert np.max(np.abs(analytic - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_grad_params_matches_denoiser_at_projected_point(self):
        mask, cube, y = _instance(5, 4, 4, 2)
        den = make_conv_residual(1, channels=4, n_layers=2, init="random", noise_scale=0.1)
        fmap = DeGapMap(denoiser=den, mask=mask, y=y)
        rng = np.random.default_rng(3)
        x = rng.random(cube.shape)
        v = rng.standard_normal(cube.shape)
        u = gap_project(mask, y, x)
        np.testing.assert_array_equal(fmap.grad_params(x, v), den.grad_params(u, v))


class TestDeRnn:
    """DE-RNN is a DeGapMap whose denoiser is the gated cell."""

    def test_zero_cell_map_is_the_identity_denoiser_map(self):
        mask, cube, y = _instance(6)
        fmap = DeGapMap(denoiser=make_gated_cell(0), mask=mask, y=y)
        plain = DeGapMap(denoiser=IdentityDenoiser(), mask=mask, y=y)
        x = np.random.default_rng(0).random(cube.shape)
        np.testing.assert_array_equal(fmap.apply(x), plain.apply(x))
        cfg = FixedPointConfig(tol=1e-10)
        res = solve(fmap.apply, adjoint(mask, y), cfg)
        ref = solve(plain.apply, adjoint(mask, y), cfg)
        assert res.converged and res.iterations == ref.iterations
        np.testing.assert_array_equal(res.x_hat, ref.x_hat)

    def test_gamma_zero_identity_any_params(self):
        mask, cube, y = _instance(7)
        cell = make_gated_cell(1, init_scale=0.5, gamma=0.0)
        fmap = DeGapMap(denoiser=cell, mask=mask, y=y)
        x = np.random.default_rng(1).random(cube.shape)
        np.testing.assert_array_equal(fmap.apply(x), gap_project(mask, y, x))

    def test_vjp_input_matches_finite_differences(self):
        mask, cube, y = _instance(8, 4, 4, 2)
        cell = make_gated_cell(2, channels=4, init_scale=0.3, gamma=0.2)
        fmap = DeGapMap(denoiser=cell, mask=mask, y=y)
        rng = np.random.default_rng(4)
        x = rng.random(cube.shape)
        v = rng.standard_normal(cube.shape)
        analytic = fmap.vjp_input(x, v)
        h = 1e-6
        fd = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp = x.copy(); xp[idx] += h
            xm = x.copy(); xm[idx] -= h
            fd[idx] = (np.sum(fmap.apply(xp) * v) - np.sum(fmap.apply(xm) * v)) / (2 * h)
        assert np.max(np.abs(analytic - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_grad_params_matches_finite_differences(self):
        mask, cube, y = _instance(9, 4, 4, 2)
        cell = make_gated_cell(3, channels=2, init_scale=0.3, gamma=0.2)
        fmap = DeGapMap(denoiser=cell, mask=mask, y=y)
        rng = np.random.default_rng(5)
        x = rng.random(cube.shape)
        v = rng.standard_normal(cube.shape)
        analytic = fmap.grad_params(x, v)
        theta = cell.params.flatten()
        h = 1e-6
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            for sign, store in ((+1, 0), (-1, 1)):
                t = theta.copy()
                t[i] += sign * h
                cell.params.unflatten(t)
                val = float(np.sum(fmap.apply(x) * v))
                if sign > 0:
                    up = val
                else:
                    fd[i] = (up - val) / (2 * h)
        cell.params.unflatten(theta)
        err = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-8)
        assert err.max() <= 1e-5

    def test_cell_checkpoint_roundtrip(self, tmp_path):
        cell = make_gated_cell(4, channels=4, init_scale=0.2, gamma=0.15)
        prefix = str(tmp_path / "cell")
        save_denoiser(prefix, cell)
        back = load_denoiser(prefix, GatedConvCell)
        np.testing.assert_array_equal(back.params.flatten(), cell.params.flatten())
        assert back.gamma == cell.gamma

    @pytest.mark.parametrize("gamma", [0.1, 0.5])
    def test_consistency_error_bounded_by_gamma_times_mask_sum(self, gamma):
        # |gate * cand| < 1, and the cell moves the projection by gamma times that
        mask = mask_generate(3, 16, 16, 4, kind="bernoulli", p=0.5, policy="floor")
        rng = np.random.default_rng(40)
        y = forward(mask, rng.random((16, 16, 4)))
        bound = gamma * mask.frames.sum(axis=2).max() + 1e-12
        for seed in range(3):
            cell = make_gated_cell(seed, init_scale=1.0, gamma=gamma)
            fmap = DeGapMap(denoiser=cell, mask=mask, y=y)
            outputs = [fmap.apply(scale * rng.standard_normal((16, 16, 4)))
                       for scale in (0.1, 1.0, 100.0)]
            x = adjoint(mask, y)
            for _ in range(20):  # along a Picard run
                x = fmap.apply(x)
                outputs.append(x)
            for out in outputs:
                assert np.max(np.abs(forward(mask, out).data - y.data)) <= bound


def _degap_map(kind, seed=20, gamma=0.1):
    mask, cube, y = _instance(seed, 5, 5, 2)
    den = {
        "conv_residual": lambda: make_conv_residual(0, channels=4, n_layers=3, init="random",
                                                    gamma=0.3, noise_scale=0.3),
        "gated_cell": lambda: make_gated_cell(5, channels=4, init_scale=0.3, gamma=gamma),
        "identity": IdentityDenoiser,
        "scale_shift": lambda: ScaleShiftDenoiser(a=0.7, b=0.1),
    }[kind]()
    return DeGapMap(denoiser=den, mask=mask, y=y), cube.shape


@pytest.mark.parametrize("kind", ["conv_residual", "gated_cell", "identity", "scale_shift"])
def test_apply_fills_out_with_the_plain_result(kind):
    # the engine lends a ring slot as out: apply must return that very array,
    # holding bitwise what a plain call returns, and leave x untouched
    fmap, shape = _degap_map(kind)
    x = np.random.default_rng(35).standard_normal(shape)
    x0, out = x.copy(), np.empty(shape)
    assert fmap.apply(x, out=out) is out
    assert np.array_equal(out, fmap.apply(x))
    assert np.array_equal(x, x0)


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestLinearize:
    @staticmethod
    def _assert_matches_per_call(fmap, shape, has_params):
        rng = np.random.default_rng(30)
        x = rng.random(shape)
        lin = fmap.linearize(x)
        # several cotangents through one linearization, interleaved, so a
        # cached activation overwritten by one call would show in the next
        for _ in range(3):
            v = rng.standard_normal(shape)
            np.testing.assert_array_equal(lin.vjp_input(v), fmap.vjp_input(x, v))
            if has_params:
                np.testing.assert_array_equal(lin.grad_params(v), fmap.grad_params(x, v))
            else:
                with pytest.raises(UnsupportedDenoiserOpError):
                    lin.grad_params(v)

    @pytest.mark.parametrize("kind", ["conv_residual", "identity", "scale_shift"])
    def test_degap_linearization_equals_per_call_vjps(self, kind):
        fmap, shape = _degap_map(kind)
        self._assert_matches_per_call(fmap, shape, has_params=kind == "conv_residual")

    @pytest.mark.parametrize("gamma", [0.1, 0.0])
    def test_dernn_linearization_equals_per_call_vjps(self, gamma):
        fmap, shape = _degap_map("gated_cell", gamma=gamma)
        self._assert_matches_per_call(fmap, shape, has_params=True)

    def test_degap_one_forward_serves_ten_vjps(self, monkeypatch):
        fmap, shape = _degap_map("conv_residual")
        counts = {}
        for name in ("conv_forward", "softplus", "sigmoid"):
            _count_calls(monkeypatch, vsci.denoisers, name, counts)
        _count_calls(monkeypatch, vsci.maps, "gap_project", counts)
        rng = np.random.default_rng(31)
        lin = fmap.linearize(rng.random(shape))
        once = dict(counts)
        assert once == {"conv_forward": 3, "softplus": 2, "sigmoid": 2, "gap_project": 1}
        for _ in range(10):
            v = rng.standard_normal(shape)
            lin.vjp_input(v)
            lin.grad_params(v)
        assert counts == once

    def test_dernn_one_forward_serves_ten_vjps(self, monkeypatch):
        fmap, shape = _degap_map("gated_cell")
        counts = {}
        for name in ("conv_forward", "softplus", "sigmoid"):
            _count_calls(monkeypatch, vsci.denoisers, name, counts)
        _count_calls(monkeypatch, vsci.maps, "gap_project", counts)
        rng = np.random.default_rng(32)
        lin = fmap.linearize(rng.random(shape))
        once = dict(counts)
        # two layers (input, then gate and candidate fused); sigmoid for the
        # hidden slope and the gate
        assert once == {"conv_forward": 2, "softplus": 1, "sigmoid": 2, "gap_project": 1}
        for _ in range(10):
            v = rng.standard_normal(shape)
            lin.vjp_input(v)
            lin.grad_params(v)
        assert counts == once

    def test_dernn_unflatten_after_linearize_leaves_it_unchanged(self):
        fmap, shape = _degap_map("gated_cell")
        rng = np.random.default_rng(33)
        x = rng.random(shape)
        v = rng.standard_normal(shape)
        lin = fmap.linearize(x)
        before = lin.vjp_input(v), lin.grad_params(v)
        cell = fmap.denoiser
        cell.params.unflatten(3.0 * cell.params.flatten() + 0.1)
        vsci.denoisers.spectral_normalize(cell.params, 5)
        cell.gamma = 0.2
        after = lin.vjp_input(v), lin.grad_params(v)
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[1], before[1])
        assert not np.array_equal(fmap.vjp_input(x, v), before[0])

    @pytest.mark.parametrize("make", [lambda: _degap_map("conv_residual"),
                                      lambda: _degap_map("identity"),
                                      lambda: _degap_map("gated_cell")],
                             ids=["degap_conv_residual", "degap_identity", "dernn"])
    def test_linearization_is_freed_without_the_cycle_collector(self, make):
        fmap, shape = make()
        x = np.random.default_rng(34).random(shape)
        freed = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            lin = fmap.linearize(x)
            weakref.finalize(lin, freed.append, True)
            del lin
            assert freed == [True]
            assert gc.collect() == 0  # nothing it built is left waiting in a cycle
        finally:
            if enabled:
                gc.enable()


class TestPnpGap:
    def test_zero_schedule_psnr_constant_after_first(self):
        mask, cube, y = _instance(10, 6, 6, 2)
        res = pnp_gap_solve(mask, y, [0.0], 10, tol=0.0, psnr_ref=cube)
        assert len(set(res.trace.psnrs)) == 1

    def test_single_iteration_equals_projected_init(self):
        mask, cube, y = _instance(11)
        res = pnp_gap_solve(mask, y, [0.0], 1, tol=0.0)
        np.testing.assert_array_equal(res.x_hat, gap_project(mask, y, adjoint(mask, y)))

    def test_schedule_cycles(self):
        mask, cube, y = _instance(12, 6, 6, 2)
        res = pnp_gap_solve(mask, y, [0.05, 0.01], 5, tv_iters=10, tol=0.0, psnr_ref=cube)
        assert res.iterations == 5

    @pytest.mark.parametrize("tv_iters", [0, -1])
    def test_tv_iters_below_one_rejected_before_first_step(self, monkeypatch, tv_iters):
        mask, cube, y = _instance(12, 6, 6, 2)
        calls = []
        monkeypatch.setattr(vsci.maps, "gap_project", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match="tv iterations"):
            pnp_gap_solve(mask, y, [0.05], 5, tv_iters=tv_iters, tol=0.0)
        assert calls == []

    def test_x_hat_bitwise_equals_plain_gap_tv_loop(self):
        # the engine's two swapped buffers and in-place steps compute exactly
        # v = tv_denoise(gap_project(v)) with fresh arrays, the schedule cycled
        mask, cube, y = _instance(13, 12, 10, 3)
        schedule = [0.1, 0.05, 0.02]
        res = pnp_gap_solve(mask, y, schedule, 7, tv_iters=4, tol=0.0, psnr_ref=cube)
        v = adjoint(mask, y)
        for k in range(7):
            v = vsci.maps.tv_denoise(gap_project(mask, y, v), schedule[k % 3], 4)
        assert res.iterations == 7 and not res.converged
        assert res.x_hat.tobytes() == v.tobytes()

    def test_identity_prox_reaches_measurement_consistency(self):
        mask, cube, y = _instance(16, 6, 6, 3)
        res = pnp_gap_solve(mask, y, [0.0], 60, tol=0.0)
        assert np.max(np.abs(forward(mask, res.x_hat).data - y.data)) <= 1e-6


def _nan_from_third_call(fn):
    """fn, except that its third and later calls return NaN of the same shape."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        out = fn(*args, **kwargs)
        return out * np.nan if len(calls) >= 3 else out

    wrapped.calls = calls
    return wrapped


class TestDivergenceGuard:
    def test_pnp_gap_nan_denoiser_raises_with_partial_trace(self, monkeypatch):
        mask, cube, y = _instance(17, 6, 6, 2)
        monkeypatch.setattr(vsci.maps, "tv_denoise", _nan_from_third_call(vsci.maps.tv_denoise))
        with pytest.raises(DivergedError) as exc:
            pnp_gap_solve(mask, y, [0.05], 10, tv_iters=5, tol=0.0, psnr_ref=cube)
        assert exc.value.iterations == 3
        assert len(exc.value.trace) == 2 and len(exc.value.trace.psnrs) == 2

    def test_bad_schedule_rejected_before_any_iteration(self, monkeypatch):
        mask, cube, y = _instance(19, 6, 6, 2)
        tv = _nan_from_third_call(vsci.maps.tv_denoise)
        monkeypatch.setattr(vsci.maps, "tv_denoise", tv)
        for schedule in ([0.05, np.nan], [0.05, -0.01]):
            with pytest.raises(ValueError):
                pnp_gap_solve(mask, y, schedule, 10, tol=0.0)
        assert tv.calls == []

    def test_bench_reports_diverged_cell(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(vsci.maps, "tv_denoise", _nan_from_third_call(vsci.maps.tv_denoise))
        outdir, mask = str(tmp_path / "bench"), str(tmp_path / "mask")
        save_mask(mask, mask_generate(0, 8, 8, 2, policy="floor"))
        assert main(["bench", "--mask", mask, "--n-scenes", "1", "--max-iter", "5",
                     "--timing", "none", "--outdir", outdir, "--methods", "pnp_gap:0.05"]) == 0
        assert "moving_square_s0/pnp_gap: DIVERGED" in capsys.readouterr().out
        with open(tmp_path / "bench" / "summary.csv", encoding="utf-8") as fh:
            row = fh.read().splitlines()[1].split(",")
        assert row[:3] == ["moving_square_s0", "pnp_gap", "nan"]
        assert (tmp_path / "bench" / "trace_moving_square_s0_pnp_gap.csv").exists()
