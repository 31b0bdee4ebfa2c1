"""Concrete iteration maps f(x; y, masks) whose fixed points are reconstructions.

DeGapMap:  f(x) = D(x + Phi^T (Phi Phi^T)^{-1} (y - Phi x))   (denoise the
           Euclidean projection onto the measurement-consistent set)
plus the classical GAP-TV baseline (pnp_gap_solve: GAP with a per-iteration
TV strength) used for stability comparisons. The baseline runs as a step
closure through the one fixed-point engine (fixed_point.solve at memory 1,
which is Picard), so every method shares its stopping rule, trace and
divergence guard.

Both equilibrium models are a DeGapMap: DE-GAP with the conv_residual
denoiser, DE-RNN with the gated cell (denoisers.GatedConvCell). An output
is D(u) for a measurement-consistent u, so Phi f(x) - y = Phi (D(u) - u).
The gated cell moves no value by gamma or more, which bounds every output's
|Phi f(x) - y| at a pixel by gamma times the sum of its mask values.

Maps are immutable after construction; apply/vjp calls are pure.
apply(x, out=None) is the engine's f(x, out): it projects x into `out`
(float64, x's shape, not overlapping x; by default a new array), then
denoises that projection in place, so a call allocates no cube beyond the
denoiser's tile working set. linearize(x) runs the forward once at x and
returns a frozen snapshot whose vjp_input(v) and grad_params(v) run only the
backward pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .denoisers import Denoiser, tv_denoise
from .errors import ShapeMismatchError
from .fixed_point import FixedPointConfig, SolveResult, solve
from .sci import Measurement, SensingMask, adjoint, gap_project, project_null


def _meas_data(y) -> np.ndarray:
    return y.data if isinstance(y, Measurement) else np.asarray(y, dtype=np.float64)


@dataclass
class DeGapMap:
    """Projection-then-denoise iteration map."""

    denoiser: Denoiser
    mask: SensingMask
    y: Measurement

    def __post_init__(self):
        if _meas_data(self.y).shape != self.mask.q_diag.shape:
            raise ShapeMismatchError("measurement does not match mask")

    def apply(self, x: np.ndarray, out=None) -> np.ndarray:
        """f(x), in `out` when given; the denoiser runs in place on the projection."""
        u = gap_project(self.mask, self.y, x, out=out)
        return self.denoiser.denoise(u, out=u)

    def linearize(self, x: np.ndarray) -> "DeGapLinearization":
        """Project x once and linearize the denoiser at the projection."""
        u = gap_project(self.mask, self.y, x)
        return DeGapLinearization(mask=self.mask, denoiser=self.denoiser.linearize(u))

    def vjp_input(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.linearize(x).vjp_input(v)

    def grad_params(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.linearize(x).grad_params(v)


@dataclass(frozen=True)
class DeGapLinearization:
    """DeGapMap frozen at one x: J^T v = P_null D'(u)^T v with u the projection of x."""

    mask: SensingMask
    denoiser: object  # the denoiser's linearization at u

    def vjp_input(self, v: np.ndarray) -> np.ndarray:
        return project_null(self.mask, self.denoiser.vjp_input(v))

    def grad_params(self, v: np.ndarray) -> np.ndarray:
        return self.denoiser.grad_params(v)


# GAP-TV's defaults: the TV strength of every iteration, and TV prox steps per iteration
DEFAULT_TV_SCHEDULE = (0.05,)
DEFAULT_TV_ITERS = 30


def pnp_gap_solve(
    mask: SensingMask,
    y,
    schedule,
    max_iter: int,
    *,
    tol: float,
    tv_iters: int = DEFAULT_TV_ITERS,
    psnr_ref=None,
) -> SolveResult:
    """Classical GAP baseline: project, then TV-denoise with a per-iteration
    strength taken from `schedule` (cycled when shorter than max_iter)."""
    schedule = list(schedule)
    if not schedule:
        raise ValueError("schedule must contain at least one strength")
    if not all(lam >= 0 for lam in schedule):
        raise ValueError(f"tv strengths must be >= 0, got {schedule}")
    if tv_iters < 1:
        raise ValueError(f"tv iterations must be >= 1, got {tv_iters}")
    strengths = itertools.cycle(schedule)

    def step(v, out):
        u = gap_project(mask, y, v, out=out)
        return tv_denoise(u, next(strengths), tv_iters, out=u)

    cfg = FixedPointConfig(tol=tol, max_iter=max_iter, anderson_memory=1)
    return solve(step, adjoint(mask, y), cfg, psnr_ref=psnr_ref)

