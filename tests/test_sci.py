import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import Float64Mask, dense_gap_project, dense_phi, random_mask, unvec, vec
from vsci import tensorio
from vsci.analysis import projection_spectrum
from vsci.cli import load_mask, save_mask
from vsci.errors import DeadPixelError, ShapeMismatchError
from vsci.sci import (
    Measurement,
    SensingMask,
    add_noise,
    adjoint,
    forward,
    gap_project,
    mask_generate,
    project_null,
    validate_cube,
)


class TestValidateCube:
    def test_accepts_good_cube(self):
        c = validate_cube(np.zeros((2, 3, 4)))
        assert c.shape == (2, 3, 4) and c.dtype == np.float64

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeMismatchError):
            validate_cube(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            validate_cube(bad)


class TestMaskGenerate:
    def test_all_ones_q_diag(self):
        m = mask_generate(0, 2, 2, 2, kind="all_ones")
        assert (m.frames == 1.0).all()
        np.testing.assert_array_equal(m.q_diag, np.full((2, 2), 2.0))

    def test_bernoulli_p1_equals_all_ones(self):
        m = mask_generate(123, 3, 3, 2, kind="bernoulli", p=1.0)
        assert (m.frames == 1.0).all()

    def test_q_diag_matches_bruteforce(self):
        m = mask_generate(7, 4, 4, 8, kind="bernoulli", p=0.5, policy="floor")
        brute = np.zeros((4, 4))
        for b in range(8):
            brute += m.frames[:, :, b] ** 2
        np.testing.assert_array_equal(m.q_diag, brute)

    def test_determinism(self):
        a = mask_generate(42, 5, 5, 3, policy="floor")
        b = mask_generate(42, 5, 5, 3, policy="floor")
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_reject_policy_raises_on_dead_pixel(self):
        # B=1 at p=0.5 leaves dead pixels with overwhelming probability
        with pytest.raises(DeadPixelError) as exc:
            mask_generate(0, 8, 8, 1, kind="bernoulli", p=0.5, policy="reject")
        assert exc.value.index >= 0

    def test_floor_policy_tolerates_dead_pixels(self):
        m = mask_generate(0, 8, 8, 1, kind="bernoulli", p=0.5, policy="floor")
        assert (m.effective_q() >= m.floor_tau).all()

    @pytest.mark.parametrize("policy", ["reject", "floor"])
    def test_effective_q_built_once_and_read_only(self, policy):
        m = mask_generate(3, 6, 6, 4, p=0.9, policy=policy)
        q = m.effective_q()
        assert m.effective_q() is q
        np.testing.assert_array_equal(q, np.maximum(m.q_diag, m.floor_tau)
                                      if policy == "floor" else m.q_diag)
        with pytest.raises(ValueError):
            q[0, 0] = 1.0


class TestSensingMaskFields:
    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="policy"):
            SensingMask(frames=np.ones((2, 2, 2)), policy="clamp")
        with pytest.raises(ValueError, match="policy"):
            mask_generate(0, 2, 2, 2, policy="clamp")

    @pytest.mark.parametrize("tau", [0.0, -1e-6, np.nan, np.inf])
    def test_floor_tau_must_be_finite_and_positive(self, tau):
        with pytest.raises(ValueError, match="floor_tau"):
            SensingMask(frames=np.ones((2, 2, 2)), policy="floor", floor_tau=tau)

    @pytest.mark.parametrize("frames", [np.ones((2, 2)), np.ones((2, 2, 2, 1)), np.ones(4),
                                        np.float64(1.0)],
                             ids=["2d", "4d", "1d", "scalar"])
    def test_frames_must_be_3d(self, frames):
        with pytest.raises(ValueError, match="3D"):
            SensingMask(frames=frames, policy="floor")

    @pytest.mark.parametrize("value, reason", [
        (np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
        (-0.5, "negative"), (-1.0, "negative"),
    ])
    @pytest.mark.parametrize("rest", [0.0, 1.0, 0.5], ids=["zeros", "ones", "halves"])
    def test_non_finite_or_negative_frames_raise(self, value, reason, rest):
        # the other entries make the mask binary, or fractional
        frames = np.full((3, 2, 2), rest)
        frames[1, 0, 1] = value
        with pytest.raises(ValueError, match=reason):
            SensingMask(frames=frames, policy="floor")


class TestMaskRepresentation:
    @pytest.mark.parametrize("make", [
        lambda: mask_generate(4, 6, 5, 3, policy="floor"),
        lambda: mask_generate(4, 6, 5, 3, kind="all_ones"),
        lambda: random_mask(4, 6, 5, 3),
        lambda: SensingMask(frames=np.eye(6, 5)[:, :, None] * np.ones(3), policy="floor"),
        lambda: SensingMask(frames=np.ones((6, 5, 3), dtype=np.int32)),
        lambda: SensingMask(frames=np.ones((6, 5, 3), dtype=np.float32)),
        lambda: SensingMask(frames=np.ones((6, 5, 3), dtype=bool)),
        lambda: SensingMask(frames=-np.zeros((6, 5, 3)), policy="floor"),
    ], ids=["bernoulli", "all_ones", "float-01", "eye", "int32", "float32", "bool", "minus-zero"])
    def test_binary_mask_held_as_bool(self, make):
        m = make()
        assert m.frames.dtype == np.bool_
        assert m.frames.nbytes == 6 * 5 * 3
        assert m.q_diag.dtype == np.float64

    @pytest.mark.parametrize("frames", [np.full((6, 5, 3), 0.5), np.full((6, 5, 3), 2.0),
                                        np.arange(90.0).reshape(6, 5, 3)],
                             ids=["halves", "twos", "counts"])
    def test_other_mask_held_as_float64(self, frames):
        m = SensingMask(frames=frames)
        assert m.frames.dtype == np.float64
        np.testing.assert_array_equal(m.frames, frames)
        np.testing.assert_array_equal(m.q_diag, (frames ** 2).sum(axis=2))

    def test_bool_q_diag_counts_the_ones(self):
        # an einsum over two bool operands would OR the products into True
        m = mask_generate(0, 3, 2, 7, kind="all_ones")
        np.testing.assert_array_equal(m.q_diag, np.full((3, 2), 7.0))

    @pytest.mark.parametrize("dead", [False, True], ids=["live", "dead"])
    @pytest.mark.parametrize("policy", ["reject", "floor"])
    def test_operators_match_float64_frames_bitwise(self, policy, dead):
        frames = random_mask(21, 7, 6, 5).frames.copy()
        if dead:
            frames[2, 3, :] = False
        m = SensingMask(frames=frames, policy=policy)
        assert m.frames.dtype == np.bool_
        oracle = Float64Mask(m)
        rng = np.random.default_rng(22)
        x, y = rng.standard_normal((7, 6, 5)), rng.standard_normal((7, 6))
        assert np.array_equal(m.q_diag, oracle.q)
        assert np.array_equal(forward(m, x).data, oracle.forward(x))
        assert np.array_equal(adjoint(m, y), oracle.adjoint(y))
        if policy == "reject" and dead:
            for op in (lambda: gap_project(m, y, x), lambda: project_null(m, x),
                       lambda: projection_spectrum(m)):
                with pytest.raises(DeadPixelError) as exc:
                    op()
                assert exc.value.index == 2 * 6 + 3
            return
        out = np.empty_like(x)
        assert np.array_equal(gap_project(m, y, x), oracle.gap_project(y, x))
        assert np.array_equal(gap_project(m, y, x, out=out), oracle.gap_project(y, x))
        assert np.array_equal(project_null(m, x), oracle.project_null(x))
        spectrum = projection_spectrum(m)
        eigs, defect = oracle.spectrum()
        assert np.array_equal(spectrum.eigenvalues, eigs)
        assert spectrum.idempotence_defect == defect

    def test_mask_file_is_float64_and_loads_as_bool(self, tmp_path):
        m = mask_generate(5, 6, 5, 3, policy="floor")
        save_mask(str(tmp_path / "m"), m)
        tensorio.write_tensor(str(tmp_path / "f.vsci"), m.frames.astype(np.float64))
        assert (tmp_path / "m.vsci").read_bytes() == (tmp_path / "f.vsci").read_bytes()
        back = load_mask(str(tmp_path / "m"))
        assert back.frames.dtype == np.bool_
        assert np.array_equal(back.frames, m.frames)
        assert (back.policy, back.floor_tau) == (m.policy, m.floor_tau)


class TestForwardAdjoint:
    def test_forward_masks_select_frames(self):
        from vsci.sci import SensingMask

        frames = np.zeros((1, 1, 2))
        frames[0, 0, 0] = 1.0
        mask = SensingMask(frames=frames)
        x = np.zeros((1, 1, 2))
        x[0, 0, 0], x[0, 0, 1] = 0.3, 0.9
        np.testing.assert_allclose(forward(mask, x).data, [[0.3]])

    def test_all_ones_sums_frames(self):
        m = mask_generate(0, 3, 3, 4, kind="all_ones")
        x = np.full((3, 3, 4), 0.25)
        np.testing.assert_allclose(forward(m, x).data, np.full((3, 3), 1.0))

    def test_forward_matches_dense_oracle(self):
        m = random_mask(3, 4, 4, 2)
        rng = np.random.default_rng(5)
        x = rng.random((4, 4, 2))
        expected = dense_phi(m) @ vec(x)
        np.testing.assert_allclose(forward(m, x).data.ravel(), expected, atol=1e-12)

    def test_adjoint_simple(self):
        from vsci.sci import SensingMask

        frames = np.zeros((1, 1, 2))
        frames[0, 0, 0] = 1.0
        mask = SensingMask(frames=frames)
        cube = adjoint(mask, np.array([[1.0]]))
        np.testing.assert_array_equal(cube[:, :, 0], [[1.0]])
        np.testing.assert_array_equal(cube[:, :, 1], [[0.0]])

    def test_adjoint_zero(self):
        m = random_mask(0, 4, 4, 3)
        np.testing.assert_array_equal(adjoint(m, np.zeros((4, 4))), np.zeros((4, 4, 3)))

    def test_adjoint_matches_dense_oracle(self):
        m = random_mask(11, 3, 5, 4)
        rng = np.random.default_rng(2)
        y = rng.random((3, 5))
        expected = unvec(dense_phi(m).T @ y.ravel(), 3, 5, 4)
        np.testing.assert_allclose(adjoint(m, y), expected, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_adjoint_identity_property(self, seed):
        m = random_mask(seed, 8, 8, 4)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal((8, 8, 4))
        y = rng.standard_normal((8, 8))
        lhs = float(np.sum(forward(m, x).data * y))
        rhs = float(np.sum(x * adjoint(m, y)))
        scale = np.linalg.norm(x) * np.linalg.norm(y) + 1.0
        assert abs(lhs - rhs) <= 1e-10 * scale

    def test_shape_mismatch_raises(self):
        m = random_mask(0, 4, 4, 2)
        with pytest.raises(ShapeMismatchError):
            forward(m, np.zeros((4, 4, 3)))
        with pytest.raises(ShapeMismatchError):
            adjoint(m, np.zeros((5, 4)))


class TestAddNoise:
    def test_sigma_zero_byte_identical(self):
        y = Measurement(data=np.random.default_rng(0).random((6, 6)))
        out = add_noise(y, 0.0, seed=3)
        assert out.data.tobytes() == y.data.tobytes()

    def test_determinism(self):
        y = Measurement(data=np.zeros((4, 4)))
        a = add_noise(y, 0.3, seed=7)
        b = add_noise(y, 0.3, seed=7)
        np.testing.assert_array_equal(a.data, b.data)

    def test_sample_std(self):
        y = Measurement(data=np.zeros((1000, 1000)))
        out = add_noise(y, 0.1, seed=0)
        assert 0.0995 <= out.data.std() <= 0.1005

    def test_negative_sigma_rejected(self):
        y = Measurement(data=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            add_noise(y, -0.1, seed=0)

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            add_noise(Measurement(data=np.zeros((2, 2))), float("nan"), seed=0)


class TestGapProject:
    def test_fixed_point_of_consistent_input(self):
        m = random_mask(0, 4, 4, 3)
        rng = np.random.default_rng(1)
        x = rng.random((4, 4, 3))
        y = forward(m, x)
        np.testing.assert_allclose(gap_project(m, y, x), x, atol=1e-12)

    def test_symmetric_split(self):
        m = mask_generate(0, 1, 1, 2, kind="all_ones")
        y = Measurement(data=np.array([[0.8]]))
        out = gap_project(m, y, np.zeros((1, 1, 2)))
        np.testing.assert_allclose(out, np.full((1, 1, 2), 0.4))

    def test_matches_dense_oracle(self):
        m = random_mask(9, 3, 3, 2)
        rng = np.random.default_rng(4)
        v = rng.standard_normal((3, 3, 2))
        y = rng.random((3, 3))
        np.testing.assert_allclose(
            gap_project(m, y, v), dense_gap_project(m, y, v), atol=1e-10
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_consistency_and_idempotence(self, seed):
        m = random_mask(seed, 6, 6, 3)
        rng = np.random.default_rng(seed + 17)
        v = rng.standard_normal((6, 6, 3))
        y = rng.random((6, 6))
        out = gap_project(m, y, v)
        assert np.max(np.abs(forward(m, out).data - y)) <= 1e-10
        np.testing.assert_allclose(gap_project(m, y, out), out, atol=1e-10)

    def test_dead_pixel_reject_raises(self):
        from vsci.sci import SensingMask

        frames = np.ones((2, 2, 2))
        frames[0, 0, :] = 0.0
        m = SensingMask(frames=frames, policy="reject")
        with pytest.raises(DeadPixelError):
            gap_project(m, np.zeros((2, 2)), np.zeros((2, 2, 2)))

    def test_floor_policy_consistent_on_live_pixels(self):
        from vsci.sci import SensingMask

        frames = np.ones((2, 2, 2))
        frames[0, 0, :] = 0.0
        m = SensingMask(frames=frames, policy="floor")
        rng = np.random.default_rng(0)
        v = rng.random((2, 2, 2))
        y = rng.random((2, 2))
        out = gap_project(m, y, v)
        live = m.q_diag > 0
        assert np.max(np.abs(forward(m, out).data[live] - y[live])) <= 1e-10
        # dead pixel passes v through untouched
        np.testing.assert_array_equal(out[0, 0, :], v[0, 0, :])


    def test_out_receives_the_projection(self):
        m = random_mask(5, 5, 4, 3)
        rng = np.random.default_rng(6)
        v, y = rng.standard_normal((5, 4, 3)), rng.random((5, 4))
        out = np.empty((5, 4, 3))
        assert gap_project(m, y, v, out=out) is out
        assert np.array_equal(out, gap_project(m, y, v))

    @pytest.mark.parametrize("out", [np.empty((5, 4, 2)), np.empty((4, 5, 3)),
                                     np.empty((5, 4, 3), dtype=np.float32)],
                             ids=["frames", "transposed", "float32"])
    def test_bad_out_rejected(self, out):
        m = random_mask(5, 5, 4, 3)
        with pytest.raises(ShapeMismatchError, match="out"):
            gap_project(m, np.zeros((5, 4)), np.zeros((5, 4, 3)), out=out)

    def test_out_overlapping_v_rejected(self):
        # the projection reads v after it starts writing out
        m, v = random_mask(5, 5, 4, 3), np.zeros((5, 4, 3))
        for out in (v, v[::-1]):
            with pytest.raises(ValueError, match="overlap"):
                gap_project(m, np.ones((5, 4)), v, out=out)


class TestProjectNull:
    def test_matches_dense_projector(self):
        from helpers import dense_projector

        m = random_mask(5, 3, 4, 3)
        rng = np.random.default_rng(8)
        w = rng.standard_normal((3, 4, 3))
        expected = unvec(
            (np.eye(36) - dense_projector(m)) @ vec(w), 3, 4, 3
        )
        np.testing.assert_allclose(project_null(m, w), expected, atol=1e-10)
