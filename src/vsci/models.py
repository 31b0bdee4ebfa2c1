"""Trainable model wrappers: shared parameters, per-sample iteration maps."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import denoisers
from .denoisers import ConvParams, ConvResidualDenoiser
from .maps import DeGapMap, DeRnnMap, GatedConvCell


class _ConvModel:
    """The flat-parameter calls of a model whose one field owns a ConvParams
    at .params (the DE-GAP denoiser or the DE-RNN cell)."""

    @property
    def _params(self) -> ConvParams:
        return getattr(self, fields(self)[0].name).params

    def get_params(self) -> np.ndarray:
        return self._params.flatten()

    def set_params(self, theta: np.ndarray) -> None:
        self._params.unflatten(theta)

    def n_params(self) -> int:
        return self._params.n_params()

    def spectral_normalize(self, n_iters: int) -> None:
        denoisers.spectral_normalize(self._params, n_iters)


@dataclass
class DeGapModel(_ConvModel):
    """Projection-then-denoise model whose parameters live in the denoiser."""

    denoiser: ConvResidualDenoiser

    def make_map(self, mask, y) -> DeGapMap:
        return DeGapMap(denoiser=self.denoiser, mask=mask, y=y)


@dataclass
class DeRnnModel(_ConvModel):
    """Gated-cell refinement model; parameters live in the cell."""

    cell: GatedConvCell

    def make_map(self, mask, y) -> DeRnnMap:
        return DeRnnMap(cell=self.cell, mask=mask, y=y)
