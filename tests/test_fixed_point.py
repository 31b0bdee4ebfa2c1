import numpy as np
import pytest

from vsci.errors import DivergedError, SingularAlphaError
from vsci.fixed_point import (
    FixedPointConfig,
    anderson_solve,
    solve,
    solve_alpha,
)


def affine_map(a, b):
    return lambda x: a @ x + b


def contraction_16(seed, radius):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((16, 16))
    a *= radius / max(abs(np.linalg.eigvals(a)))
    b = rng.standard_normal(16)
    return a, b


class TestPicard:
    def test_half_map_converges_within_60(self):
        cfg = FixedPointConfig(tol=1e-6, max_iter=100)
        res = solve(lambda x: 0.5 * x, np.ones(4), cfg, method="picard")
        # iterations counts map evaluations; the accepted iterate is x_{k-1},
        # so "within 60 iterates" allows 61 evaluations
        assert res.converged and res.iterations - 1 <= 60
        assert np.linalg.norm(res.x_hat) <= cfg.tol
        # residual halves each step
        r = np.array(res.trace.residuals)
        np.testing.assert_allclose(r[1:11] / r[:10], 0.5, atol=1e-12)

    def test_identity_converges_at_one(self):
        cfg = FixedPointConfig(tol=1e-6, max_iter=10)
        x0 = np.arange(5, dtype=float)
        res = solve(lambda x: x, x0, cfg, method="picard")
        assert res.converged and res.iterations == 1
        assert res.trace.residuals[0] == 0.0
        np.testing.assert_array_equal(res.x_hat, x0)

    def test_affine_matches_dense_solve(self):
        a, b = contraction_16(0, 0.8)
        cfg = FixedPointConfig(tol=1e-12, max_iter=500)
        res = solve(affine_map(a, b), np.zeros(16), cfg, method="picard")
        expected = np.linalg.solve(np.eye(16) - a, b)
        assert res.converged
        np.testing.assert_allclose(res.x_hat, expected, atol=1e-8)

    def test_nan_raises_diverged_with_trace(self):
        def f(x):
            return x * 2.0 if np.linalg.norm(x) < 8 else x * np.nan

        cfg = FixedPointConfig(tol=1e-12, max_iter=100)
        with pytest.raises(DivergedError) as exc:
            solve(f, np.ones(4), cfg, method="picard")
        assert exc.value.trace is not None
        assert exc.value.iterations >= 1

    def test_growth_guard(self):
        cfg = FixedPointConfig(tol=1e-16, max_iter=10_000)
        with pytest.raises(DivergedError):
            solve(lambda x: 1.5 * x, np.ones(3), cfg, method="picard")

    def test_contraction_ratio_property(self):
        for seed, c in ((1, 0.3), (2, 0.6), (3, 0.9)):
            a, b = contraction_16(seed, c)
            # use the spectral norm as the verified Lipschitz constant
            lip = np.linalg.svd(a, compute_uv=False)[0]
            a *= c / lip
            lip = c
            cfg = FixedPointConfig(tol=1e-13, max_iter=400)
            res = solve(affine_map(a, b), np.zeros(16), cfg, method="picard")
            r = np.array(res.trace.residuals)
            ratios = r[6:] / r[5:-1]
            ratios = ratios[r[5:-1] > 1e-13]
            assert (ratios <= lip + 0.02).all()

    def test_determinism_bitwise(self):
        a, b = contraction_16(4, 0.7)
        cfg = FixedPointConfig(tol=1e-10, max_iter=300)
        r1 = solve(affine_map(a, b), np.zeros(16), cfg, method="picard")
        r2 = solve(affine_map(a, b), np.zeros(16), cfg, method="picard")
        assert r1.x_hat.tobytes() == r2.x_hat.tobytes()
        assert r1.trace.residuals == r2.trace.residuals


class TestSolveAlpha:
    def test_single_column(self):
        a = np.random.default_rng(0).standard_normal((10, 1))
        alpha = solve_alpha(a, 1e-8)
        np.testing.assert_array_equal(alpha, [1.0])

    def test_two_orthogonal_equal_norm(self):
        a = np.zeros((4, 2))
        a[0, 0] = 2.0
        a[1, 1] = 2.0
        np.testing.assert_allclose(solve_alpha(a, 1e-8), [0.5, 0.5], atol=1e-9)

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((16, 5))
        alpha = solve_alpha(a, 1e-8)
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
        alpha = solve_alpha(a, 1e-8)
        assert abs(alpha[1] - 1.0) <= 1e-5
        assert abs(alpha.sum() - 1.0) <= 1e-12

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularAlphaError):
            solve_alpha(np.zeros((4, 2)), 1e-8)


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

    def test_same_fixed_point_as_picard_and_not_slower(self):
        a, b = contraction_16(8, 0.8)
        f = affine_map(a, b)
        cfg = FixedPointConfig(tol=1e-10, max_iter=2000)
        pic = solve(f, np.zeros(16), cfg, method="picard")
        and_ = anderson_solve(f, np.zeros(16), cfg)
        assert and_.converged
        np.testing.assert_allclose(and_.x_hat, pic.x_hat, atol=1e-8)
        assert and_.iterations <= pic.iterations

    def test_hard_affine_tol_1e9(self):
        a, b = contraction_16(9, 0.99)
        f = affine_map(a, b)
        cfg = FixedPointConfig(tol=1e-9, max_iter=20_000)
        pic = solve(f, np.zeros(16), cfg, method="picard")
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


class TestTraceCsv:
    def test_columns_and_empty_psnr(self, tmp_path):
        cfg = FixedPointConfig(tol=1e-4, max_iter=50)
        res = solve(lambda x: 0.5 * x, np.ones(3), cfg, method="picard")
        path = str(tmp_path / "trace.csv")
        res.trace.to_csv(path)
        lines = open(path).read().strip().split("\n")
        assert lines[0] == "iter,residual,rel_residual,psnr,time_ms"
        first = lines[1].split(",")
        assert first[0] == "1" and first[3] == ""
