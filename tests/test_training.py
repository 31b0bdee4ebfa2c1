from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import dense_phi, random_mask, traced_peak, vec
from vsci.denoisers import make_conv_residual
from vsci.errors import ShapeMismatchError
from vsci.fixed_point import FixedPointConfig
from vsci.maps import DeGapMap
from vsci.models import DeGapModel
from vsci.sci import forward, gap_project, project_null
from vsci.synth import SyntheticScene, synth_video
from vsci.training import (
    TrainConfig,
    backward_fixed_point,
    finite_diff_gradcheck,
    loss_eval,
    loss_gradient,
    mse_loss,
    neumann_backward,
    train,
)


def tight_train_cfg(**kw):
    fwd = FixedPointConfig(tol=1e-12, max_iter=400, record_trace=False)
    defaults = dict(backward_tol=1e-12, backward_max_iter=400, forward=fwd)
    defaults.update(kw)
    return TrainConfig(**defaults)


def desk_sample(seed, h=8, w=8, b=2):
    mask = random_mask(seed, h, w, b)
    cube = synth_video(SyntheticScene(kind="moving_square", seed=seed, h=h, w=w, b=b))
    return mask, forward(mask, cube), cube


def desk_model(seed=0, gamma=0.3, channels=4, n_layers=2):
    den = make_conv_residual(seed, channels=channels, n_layers=n_layers,
                             gamma=gamma, init="smooth", noise_scale=0.05)
    return DeGapModel(denoiser=den)


def bound_at(fmap, x):
    """Linearization of a fake map: its per-call VJPs with x bound."""
    return SimpleNamespace(vjp_input=partial(fmap.vjp_input, x),
                           grad_params=partial(fmap.grad_params, x))


class TestMseLoss:
    def test_zero_at_match(self):
        x = np.random.default_rng(0).random((3, 3, 2))
        assert mse_loss(x, x) == 0.0

    def test_uniform_difference(self):
        x = np.zeros((2, 2, 2))
        assert abs(mse_loss(x + 0.1, x) - 0.04) <= 1e-15

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((4, 5, 3)), rng.random((4, 5, 3))
        naive = 0.0
        for idx in np.ndindex(a.shape):
            naive += 0.5 * (a[idx] - b[idx]) ** 2
        assert abs(mse_loss(a, b) - naive) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mse_loss(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


class TestBackwardFixedPoint:
    def test_zero_jacobian_returns_g(self):
        g = np.random.default_rng(0).standard_normal((4, 4))
        res = backward_fixed_point(lambda v: np.zeros_like(v), g,
                                   FixedPointConfig(tol=1e-12, max_iter=50))
        np.testing.assert_array_equal(res.x_hat, g)
        assert res.iterations <= 2

    def test_scaled_identity_analytic(self):
        g = np.random.default_rng(1).standard_normal(8)
        res = backward_fixed_point(lambda v: 0.5 * v, g,
                                   FixedPointConfig(tol=1e-13, max_iter=200))
        np.testing.assert_allclose(res.x_hat, 2.0 * g, atol=1e-10)

    def test_dense_16dim_matches_solve(self):
        rng = np.random.default_rng(2)
        j = rng.standard_normal((16, 16))
        j *= 0.8 / np.linalg.svd(j, compute_uv=False)[0]
        g = rng.standard_normal(16)
        res = backward_fixed_point(lambda v: j.T @ v, g,
                                   FixedPointConfig(tol=1e-13, max_iter=500))
        expected = np.linalg.solve(np.eye(16) - j.T, g)
        np.testing.assert_allclose(res.x_hat, expected, atol=1e-8)


class TestNeumann:
    def test_order_zero_is_g(self):
        g = np.random.default_rng(0).standard_normal(5)
        np.testing.assert_array_equal(neumann_backward(lambda v: v, g, 0), g)

    def test_scaled_identity_partial_sum(self):
        g = np.random.default_rng(1).standard_normal(6)
        c = 0.5
        for p in (1, 3, 7):
            out = neumann_backward(lambda v: c * v, g, p)
            expected = g * (1 - c ** (p + 1)) / (1 - c)
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_tail_bound_and_agreement_with_fixed_point(self):
        rng = np.random.default_rng(3)
        j = rng.standard_normal((16, 16))
        j *= 0.8 / np.linalg.svd(j, compute_uv=False)[0]
        g = rng.standard_normal(16)
        vjp = lambda v: j.T @ v
        a_inf = np.linalg.solve(np.eye(16) - j.T, g)
        for p in (0, 3, 10, 25):
            a_p = neumann_backward(vjp, g, p)
            bound = np.linalg.norm(g) * 0.8 ** (p + 1) / (1 - 0.8)
            assert np.linalg.norm(a_p - a_inf) <= bound + 1e-12
        a_100 = neumann_backward(vjp, g, 100)
        res = backward_fixed_point(vjp, g, FixedPointConfig(tol=1e-13, max_iter=500))
        assert np.linalg.norm(a_100 - res.x_hat) <= 1e-6


class ScaledProjectionModel:
    """One-parameter toy: f(x) = theta * gap_project(x)."""

    def __init__(self, mask, theta):
        self.mask = mask
        self.theta = float(theta)

    def make_map(self, mask, y):
        model = self

        class _Map:
            def apply(self, x, out=None):
                return model.theta * gap_project(model.mask, y, x)

            def vjp_input(self, x, v):
                return model.theta * project_null(model.mask, v)

            def grad_params(self, x, v):
                return np.array([float(np.sum(v * gap_project(model.mask, y, x)))])

            def linearize(self, x):
                return bound_at(self, x)

        return _Map()

    def get_params(self):
        return np.array([self.theta])

    def set_params(self, theta):
        self.theta = float(theta[0])

    def spectral_normalize(self, n_iters):
        pass


class TestLossGradient:
    def test_zero_loss_zero_gradient(self):
        mask, y, cube = desk_sample(0)
        model = desk_model()
        # fabricate a sample whose target IS the fixed point
        cfg = tight_train_cfg()
        fmap = model.make_map(mask, y)
        from vsci.fixed_point import anderson_solve
        from vsci.sci import adjoint

        x_hat = anderson_solve(fmap.apply, adjoint(mask, y), cfg.forward).x_hat
        res = loss_gradient(model, (mask, y, x_hat), cfg)
        assert res.loss <= 1e-18
        assert np.max(np.abs(res.grad)) <= 1e-9

    def test_scale_parameter_toy_matches_hand_derivation(self):
        mask, y, cube = desk_sample(1, 3, 3, 2)
        theta = 0.5
        model = ScaledProjectionModel(mask, theta)
        cfg = tight_train_cfg()
        res = loss_gradient(model, (mask, y, cube), cfg)

        # hand derivation with dense matrices:
        # x(theta) = theta (M x + c)  =>  x = theta (I - theta M)^{-1} c
        phi = dense_phi(mask)
        n = phi.shape[1]
        pinv = phi.T @ np.linalg.inv(phi @ phi.T)
        m_null = np.eye(n) - pinv @ phi
        c = pinv @ y.data.ravel()
        inv = np.linalg.inv(np.eye(n) - theta * m_null)
        x_hat = inv @ (theta * c)
        dx_dtheta = inv @ (m_null @ x_hat + c)
        grad_expected = float((x_hat - vec(cube)) @ dx_dtheta)
        assert abs(res.grad[0] - grad_expected) <= 1e-8 * max(1.0, abs(grad_expected))

    def test_conv_degap_matches_end_to_end_finite_differences(self):
        mask, y, cube = desk_sample(2)
        model = desk_model(seed=3)
        assert model.n_params() <= 200
        cfg = tight_train_cfg()
        report = finite_diff_gradcheck(model, (mask, y, cube), h=1e-5,
                                       n_probe=model.n_params(), seed=0, cfg=cfg)
        assert report.max_rel_error <= 1e-3

    def test_neumann_mode_close_to_fixed_point_mode(self):
        mask, y, cube = desk_sample(4)
        model = desk_model(seed=5)
        g_fp = loss_gradient(model, (mask, y, cube), tight_train_cfg()).grad
        g_nm = loss_gradient(model, (mask, y, cube),
                             tight_train_cfg(backward_mode="neumann", neumann_order=200)).grad
        assert np.linalg.norm(g_fp - g_nm) <= 1e-6 * max(1.0, np.linalg.norm(g_fp))


class TestGradCheckHarness:
    def test_linear_toy_exact(self):
        mask, y, cube = desk_sample(5, 4, 4, 2)

        class LinearToyModel:
            """f(x) = 0.5 x + theta reshaped; fixed point 2*theta, loss quadratic."""

            def __init__(self, shape):
                self.shape = shape
                self.theta = np.zeros(int(np.prod(shape)))

            def make_map(self, mask, y):
                model = self

                class _Map:
                    def apply(self, x, out=None):
                        return 0.5 * x + model.theta.reshape(model.shape)

                    def vjp_input(self, x, v):
                        return 0.5 * v

                    def grad_params(self, x, v):
                        return v.ravel().copy()

                    def linearize(self, x):
                        return bound_at(self, x)

                return _Map()

            def get_params(self):
                return self.theta.copy()

            def set_params(self, t):
                self.theta = np.asarray(t, dtype=np.float64).copy()

            def spectral_normalize(self, n):
                pass

        model = LinearToyModel(cube.shape)
        model.set_params(np.random.default_rng(0).standard_normal(cube.size) * 0.1)
        report = finite_diff_gradcheck(model, (mask, y, cube), h=1e-4,
                                       n_probe=12, seed=1, cfg=tight_train_cfg())
        assert report.max_rel_error <= 1e-9

    def test_absurd_step_reports_large_errors_without_crash(self):
        mask, y, cube = desk_sample(6)
        model = desk_model(seed=7)
        report = finite_diff_gradcheck(model, (mask, y, cube), h=1.0,
                                       n_probe=5, seed=2, cfg=tight_train_cfg())
        assert np.isfinite(report.max_rel_error)

    def test_params_restored(self):
        mask, y, cube = desk_sample(7)
        model = desk_model(seed=8)
        before = model.get_params()
        finite_diff_gradcheck(model, (mask, y, cube), h=1e-5, n_probe=3,
                              seed=3, cfg=tight_train_cfg())
        np.testing.assert_array_equal(model.get_params(), before)


class TestMemoryContract:
    @pytest.mark.parametrize("backward_mode", ["fixed_point", "neumann"])
    def test_peak_allocation_independent_of_iteration_count(self, backward_mode):
        # a buffer kept per forward, adjoint or Neumann iteration adds one
        # cube per extra iteration; clean runs differ by about 0.01 cube
        mask, y, cube = desk_sample(8, 64, 64, 4)
        model = desk_model(seed=9)

        def budget_cfg(budget):
            cfg = tight_train_cfg(backward_mode=backward_mode, backward_tol=1e-300,
                                  backward_max_iter=budget, neumann_order=budget)
            cfg.forward.tol = 0.0  # force the full iteration budget
            cfg.forward.max_iter = budget
            return cfg

        # one untraced call at the larger budget first: in a fresh process the
        # interpreter's free lists of small objects (which a full gc.collect()
        # empties) grow over the first few hundred iterations, and that growth
        # would otherwise land in the K=200 peak only
        loss_gradient(model, (mask, y, cube), budget_cfg(200))
        peaks = [traced_peak(loss_gradient, model, (mask, y, cube), budget_cfg(budget))
                 for budget in (20, 200)]
        assert peaks[1] <= peaks[0] + cube.nbytes


class TestTrainConfig:
    @pytest.mark.parametrize("kw, match", [
        (dict(lr_decay=1.5), "lr_decay"),
        (dict(lr_decay=-0.1), "lr_decay"),
        (dict(lr_decay=float("nan")), "lr_decay"),
        (dict(lr_decay_every=0), "lr_decay_every"),
        (dict(lr_decay_every=-1), "lr_decay_every"),
        (dict(lr=float("nan")), "positive"),
        (dict(backward_tol=float("nan")), "positive"),
        (dict(momentum=float("nan")), "momentum"),
        (dict(momentum=-3.0), "momentum"),
        (dict(momentum=5.0), "momentum"),
        (dict(momentum=1.0), "momentum"),
    ])
    def test_out_of_range_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**kw)

    @pytest.mark.parametrize("kw", [dict(momentum=0.0), dict(momentum=0.99)])
    def test_momentum_and_clip_bounds_accepted(self, kw):
        cfg = TrainConfig(**kw)
        assert all(getattr(cfg, k) == v for k, v in kw.items())

    @pytest.mark.parametrize("decay", [0.0, 1.0])
    def test_decay_bounds_accepted(self, decay):
        cfg = TrainConfig(lr_decay=decay, lr_decay_every=1)
        assert (cfg.lr_decay, cfg.lr_decay_every) == (decay, 1)


class TestTrainLoop:
    def test_zero_lr_keeps_params_and_log_constant(self):
        mask, y, cube = desk_sample(9)
        sample = (mask, y, cube)
        for val_set in (None, [sample]):
            model = desk_model(seed=10)
            model.spectral_normalize(30)  # start inside the feasible set
            before = model.get_params()
            cfg = tight_train_cfg(lr=0.0, epochs=3, seed=0)
            log = train(model, [sample], cfg, val_set=val_set)
            np.testing.assert_array_equal(model.get_params(), before)
            losses = [row.mean_loss for row in log]
            assert losses.count(losses[0]) == len(losses)
            val_psnrs = [row.val_psnr for row in log]
            np.testing.assert_array_equal(val_psnrs, val_psnrs[:1] * len(val_psnrs))

    def test_identical_seeds_identical_logs(self):
        cfg = tight_train_cfg(lr=5e-3, epochs=3, seed=11)
        logs = []
        for _ in range(2):
            model = desk_model(seed=11)
            dataset = [desk_sample(s) for s in (20, 21, 22)]
            log = train(model, dataset, cfg)
            logs.append([(r.epoch, r.mean_loss, r.skipped) for r in log])
        assert logs[0] == logs[1]

    def test_single_sgd_step_does_not_increase_loss(self):
        for seed in range(20):
            mask, y, cube = desk_sample(100 + seed)
            model = desk_model(seed=seed)
            sample = (mask, y, cube)
            cfg = tight_train_cfg()
            before = loss_eval(model, sample, cfg)
            g = loss_gradient(model, sample, cfg).grad
            lr = 1e-4
            model.set_params(model.get_params() - lr * g)
            after = loss_eval(model, sample, cfg)
            assert after <= before + 1e-12

    def test_single_sample_overfit(self):
        mask, y, cube = desk_sample(30, 8, 8, 2)
        model = desk_model(seed=31)
        sample = (mask, y, cube)
        # start feasible, as train() expects; at lr 2e-3 with momentum 0.9 the steps diverge
        model.spectral_normalize(30)
        cfg = TrainConfig(
            epochs=60, lr=3e-5, momentum=0.9, seed=0,
            backward_tol=1e-9, backward_max_iter=200,
            forward=FixedPointConfig(tol=1e-9, max_iter=200, record_trace=False),
        )
        identity = DeGapModel(denoiser=make_conv_residual(0, channels=4, n_layers=2, init="zero"))
        identity_loss = loss_eval(identity, sample, cfg)
        initial = loss_eval(model, sample, cfg)
        log = train(model, [sample], cfg)
        assert all(row.skipped == 0 and row.approximate == 0 for row in log)
        final = loss_eval(model, sample, cfg)
        assert final <= 0.35 * initial
        assert final < identity_loss
