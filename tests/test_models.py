"""DeGapModel over either trainable denoiser (DE-RNN is DeGapModel with the
gated cell), the parameter container behind it, and its one checkpoint
format."""

import copy

import numpy as np
import pytest

from helpers import random_mask
from vsci.denoisers import (
    ConvResidualDenoiser,
    GatedConvCell,
    load_denoiser,
    make_conv_residual,
    make_gated_cell,
    save_denoiser,
    spectral_normalize,
)
from vsci.fixed_point import FixedPointConfig
from vsci.models import DeGapModel, desk_denoiser
from vsci.sci import forward
from vsci.training import TrainConfig, loss_gradient


def _rnn_model(seed=0):
    return DeGapModel(denoiser=make_gated_cell(seed, channels=4, init_scale=0.3, gamma=0.2))


class TestDeRnnModel:
    def test_get_set_params_roundtrip_is_bitwise(self):
        model = _rnn_model()
        theta = np.random.default_rng(1).standard_normal(model.n_params())
        model.set_params(theta)
        np.testing.assert_array_equal(model.get_params(), theta)
        kernels = [k.copy() for k in model.denoiser.params.kernels]
        model.set_params(model.get_params())
        for a, b in zip(model.denoiser.params.kernels, kernels):
            np.testing.assert_array_equal(a, b)

    def test_n_params_is_the_cells(self):
        model = _rnn_model()
        assert model.n_params() == model.denoiser.params.n_params()
        # input 4x1x3x3 + 4, then gate and candidate fused, 2x4x3x3 + 2
        assert model.n_params() == (36 + 4) + (72 + 2)

    def test_spectral_normalize_matches_the_module_function(self):
        model = _rnn_model(3)
        model.set_params(10.0 * model.get_params())
        expected = spectral_normalize(copy.deepcopy(model.denoiser.params), 7)
        model.spectral_normalize(7)
        for a, b in zip(model.denoiser.params.kernels, expected.kernels):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(model.denoiser.params.sn_u, expected.sn_u):
            np.testing.assert_array_equal(a, b)

    def test_grad_params_follows_the_container_order(self):
        # Perturb only the fused gate/candidate kernel's slot of theta, written
        # through the container; the directional derivative must be <grad, direction>.
        mask = random_mask(4, 5, 5, 2)
        rng = np.random.default_rng(5)
        y = forward(mask, rng.random((5, 5, 2)))
        model = _rnn_model(6)
        fmap = model.make_map(mask, y)
        x, v = rng.random((5, 5, 2)), rng.standard_normal((5, 5, 2))
        grad = fmap.linearize(x).grad_params(v)
        slot = copy.deepcopy(model.denoiser.params)
        slot.unflatten(np.zeros(model.n_params()))
        slot.kernels[1] = rng.standard_normal(slot.kernels[1].shape)
        direction = slot.flatten()
        theta, h = model.get_params(), 1e-6
        values = []
        for sign in (1, -1):
            model.set_params(theta + sign * h * direction)
            values.append(float(np.sum(fmap.apply(x) * v)))
        fd = (values[0] - values[1]) / (2 * h)
        assert abs(grad @ direction - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_loss_gradient_is_finite_with_one_entry_per_parameter(self):
        mask = random_mask(7, 6, 6, 2)
        cube = np.random.default_rng(8).random((6, 6, 2))
        model = _rnn_model(9)
        model.spectral_normalize(20)
        cfg = TrainConfig(forward=FixedPointConfig(tol=1e-8, max_iter=50, record_trace=False))
        grad = loss_gradient(model, (mask, forward(mask, cube), cube), cfg).grad
        assert grad.shape == (model.n_params(),)
        assert np.isfinite(grad).all() and np.any(grad != 0)


@pytest.mark.parametrize("cls, make", [
    (ConvResidualDenoiser,
     lambda: make_conv_residual(7, channels=4, n_layers=3, init="random", gamma=0.25)),
    (GatedConvCell, lambda: make_gated_cell(8, channels=4, init_scale=0.2, gamma=0.15)),
], ids=["conv_residual", "gated_cell"])
def test_checkpoint_roundtrip_keeps_the_payload_bytes(tmp_path, cls, make):
    owner = make()
    save_denoiser(str(tmp_path / "a"), owner)
    back = load_denoiser(str(tmp_path / "a"), cls)
    save_denoiser(str(tmp_path / "b"), back)
    for ext in (".vsci", ".meta"):
        assert (tmp_path / f"a{ext}").read_bytes() == (tmp_path / f"b{ext}").read_bytes()
    assert back.gamma == owner.gamma
    for a, b in zip(back.params.sn_u, owner.params.sn_u):
        np.testing.assert_array_equal(a, b)


def test_desk_denoiser_is_the_smooth_stack_normalized_bit_for_bit():
    # the model `vsci train` starts from, and the benchmark's checkpoint
    want = make_conv_residual(seed=0, channels=8, n_layers=2, gamma=0.3, init="smooth")
    want.spectral_normalize(TrainConfig.sn_iters_val)
    got = desk_denoiser(0, 8, 2, 0.3)
    assert type(got) is ConvResidualDenoiser and got.gamma == want.gamma
    for name in ("kernels", "biases", "sn_u"):
        mine, theirs = getattr(got.params, name), getattr(want.params, name)
        assert len(mine) == len(theirs)
        for a, b in zip(mine, theirs):
            np.testing.assert_array_equal(a, b)
