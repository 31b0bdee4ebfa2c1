"""The trainable model: shared parameters, one iteration map per sample."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import denoisers
from .denoisers import ConvResidualDenoiser, GatedConvCell, IdentityDenoiser, make_gated_cell
from .maps import DeGapMap
from .training import TrainConfig

# method -> (the denoiser class its checkpoints hold, its untrained default)
_EQUILIBRIUM = {
    "de_gap": (ConvResidualDenoiser, IdentityDenoiser),
    "de_rnn": (GatedConvCell, lambda: make_gated_cell(0)),
}


def equilibrium_denoiser(method: str, checkpoint: str | None):
    """The denoiser of DE-GAP ("de_gap") or DE-RNN ("de_rnn"): loaded from
    the checkpoint prefix when given, else the untrained default, which for
    both is the identity."""
    cls, untrained = _EQUILIBRIUM[method]
    return denoisers.load_denoiser(checkpoint, cls) if checkpoint else untrained()


def desk_denoiser(seed: int, channels: int, layers: int, gamma: float) -> ConvResidualDenoiser:
    """The untrained DE-GAP denoiser that `vsci train` starts from: the
    smooth-init conv_residual stack, spectrally normalized with
    TrainConfig.sn_iters_val power iterations."""
    den = denoisers.make_conv_residual(seed=seed, channels=channels, n_layers=layers,
                                       gamma=gamma, init="smooth")
    den.spectral_normalize(TrainConfig.sn_iters_val)
    return den


@dataclass
class DeGapModel:
    """Projection-then-denoise model whose parameters live in the denoiser's
    ConvParams: a conv_residual denoiser for DE-GAP, a gated cell for DE-RNN."""

    denoiser: ConvResidualDenoiser  # a GatedConvCell is one

    def get_params(self) -> np.ndarray:
        return self.denoiser.params.flatten()

    def set_params(self, theta: np.ndarray) -> None:
        self.denoiser.params.unflatten(theta)

    def n_params(self) -> int:
        return self.denoiser.params.n_params()

    def spectral_normalize(self, n_iters: int) -> None:
        denoisers.spectral_normalize(self.denoiser.params, n_iters)

    def make_map(self, mask, y) -> DeGapMap:
        return DeGapMap(denoiser=self.denoiser, mask=mask, y=y)
