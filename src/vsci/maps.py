"""Concrete iteration maps f(x; y, masks) whose fixed points are reconstructions.

DeGapMap:  f(x) = D(x + Phi^T (Phi Phi^T)^{-1} (y - Phi x))   (denoise the
           Euclidean projection onto the measurement-consistent set)
DeRnnMap:  f(x) = x + gamma * cell(x, Phi^T y, Phi^T (y - Phi x)) with a
           small gated convolutional cell
plus classical plug-and-play baselines (GAP with per-iteration TV strength,
ADMM with a pluggable denoiser) used for stability comparisons. The baselines
run as step closures through the one fixed-point engine (fixed_point.solve,
Picard case), so every method shares its stopping rule, trace and
divergence guard.

The gated cell keeps its three conv layers in a denoisers.ConvParams, so its
flat parameters, spectral normalization and checkpoint format are those of
the conv_residual denoiser.

Maps are immutable after construction; apply/vjp calls are pure. linearize(x)
runs the forward once at x and returns a frozen snapshot whose vjp_input(v)
and grad_params(v) run only the backward pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .conv import (
    conv_adjoint_input,
    conv_forward,
    conv_grad_bias,
    conv_grad_kernel,
    sigmoid,
    softplus,
)
from .denoisers import (
    ConvParams,
    Denoiser,
    _as_cube,
    _as_frames,
    _flat,
    _load_checkpoint,
    _save_checkpoint,
    tv_denoise,
)
from .errors import ShapeMismatchError
from .fixed_point import FixedPointConfig, SolveResult, solve
from .sci import (
    Measurement,
    SensingMask,
    adjoint,
    forward,
    gap_project,
    init_estimate,
    project_null,
)


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

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.denoiser.denoise(gap_project(self.mask, self.y, x))

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


@dataclass
class GatedConvCell:
    """Gated convolutional refinement over (x, Phi^T y, Phi^T(y - Phi x)).

    hidden = softplus(conv(u))        u: 3 input channels per frame
    gate   = sigmoid(conv(hidden))
    cand   = tanh(conv(hidden))
    out    = gate * cand              one channel per frame

    params holds the input, gate and candidate layers, in that order. With
    all-zero parameters the candidate branch vanishes, so the enclosing
    residual map is exactly the identity.
    """

    params: ConvParams
    gamma: float = 0.1
    kind = "gated_cell"

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        ch = [k.shape[:2] for k in self.params.kernels]  # (C_out, C_in) per layer
        if len(ch) != 3 or ch[0][1] != 3 or ch[1:] != [(1, ch[0][0])] * 2:
            raise ValueError("cell layers must map 3 -> C channels, then C -> 1 twice")

    def _forward(self, u: np.ndarray):
        (k_in, k_gate, k_cand), (b_in, b_gate, b_cand) = self.params.kernels, self.params.biases
        z_h = conv_forward(u, k_in, b_in)
        h = softplus(z_h)
        g = sigmoid(conv_forward(h, k_gate, b_gate))
        c = np.tanh(conv_forward(h, k_cand, b_cand))
        return g * c, (z_h, h, g, c)

    def linearize(self, u: np.ndarray) -> "GatedCellLinearization":
        """Run the cell once on the stacked inputs u, keeping what its VJPs need."""
        _, (z_h, h, g, c) = self._forward(u)
        return GatedCellLinearization(
            kernels=tuple(self.params.kernels), u=u, slope_h=sigmoid(z_h), h=h, g=g, c=c,
        )


@dataclass(frozen=True)
class GatedCellLinearization:
    """GatedConvCell frozen at one input: its kernels and forward activations."""

    kernels: tuple       # input, gate and candidate kernels
    u: np.ndarray        # (B, H, W, 3) stacked input channels
    slope_h: np.ndarray  # softplus'(z_h) = sigmoid(z_h)
    h: np.ndarray
    g: np.ndarray
    c: np.ndarray

    def _preact_cotangents(self, cot):
        """Cotangents of the hidden, gate and candidate pre-activations."""
        _, k_gate, k_cand = self.kernels
        dz_g = cot * self.c * self.g * (1.0 - self.g)
        dz_c = cot * self.g * (1.0 - self.c * self.c)
        dh = conv_adjoint_input(dz_g, k_gate) + conv_adjoint_input(dz_c, k_cand)
        return dh * self.slope_h, dz_g, dz_c

    def vjp_input(self, cot: np.ndarray) -> np.ndarray:
        """Cotangent w.r.t. the stacked input channels."""
        dz_h, _, _ = self._preact_cotangents(cot)
        return conv_adjoint_input(dz_h, self.kernels[0])

    def grad_params(self, cot: np.ndarray) -> np.ndarray:
        """Cotangent w.r.t. the flat parameters, in ConvParams.flatten() order."""
        dz = self._preact_cotangents(cot)
        acts = (self.u, self.h, self.h)
        grads_k = [conv_grad_kernel(a, d, k.shape[2], k.shape[3])
                   for a, d, k in zip(acts, dz, self.kernels)]
        return _flat(grads_k, [conv_grad_bias(d) for d in dz])


def make_gated_cell(
    seed: int, channels: int = 8, kernel: int = 3, gamma: float = 0.1,
    init_scale: float = 0.0, sn_shape: tuple = (16, 16),
) -> GatedConvCell:
    """Build a gated cell; init_scale 0 gives the exact identity map."""
    rng = np.random.default_rng(seed)

    def w(shape):
        if init_scale == 0.0:
            return np.zeros(shape)
        return rng.standard_normal(shape) * init_scale

    shapes = [(channels, 3, kernel, kernel), (1, channels, kernel, kernel),
              (1, channels, kernel, kernel)]
    layers = [(w(s), w(s[:1])) for s in shapes]  # kernel, then bias: the draw order
    kernels, biases = (list(t) for t in zip(*layers))
    params = ConvParams(kernels, biases, sn_shape=sn_shape, sn_seed=seed)
    return GatedConvCell(params, gamma)


@dataclass
class DeRnnMap:
    """Recurrent refinement map f(x) = x + gamma * cell(x, Phi^T y, Phi^T(y - Phi x))."""

    cell: GatedConvCell
    mask: SensingMask
    y: Measurement

    def __post_init__(self):
        if _meas_data(self.y).shape != self.mask.q_diag.shape:
            raise ShapeMismatchError("measurement does not match mask")
        self._phi_t_y = adjoint(self.mask, self.y)

    def _inputs(self, x: np.ndarray) -> np.ndarray:
        res = adjoint(self.mask, _meas_data(self.y) - forward(self.mask, x).data)
        # (B, H, W, 3): current estimate, backprojected data, backprojected residual
        return np.concatenate(
            [_as_frames(x), _as_frames(self._phi_t_y), _as_frames(res)], axis=3
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.cell.gamma == 0.0:
            return np.asarray(x, dtype=np.float64).copy()
        out, _ = self.cell._forward(self._inputs(x))
        return x + self.cell.gamma * _as_cube(out)

    def linearize(self, x: np.ndarray) -> "DeRnnLinearization":
        """Build the cell inputs at x and run the cell once on them."""
        return DeRnnLinearization(
            mask=self.mask, gamma=self.cell.gamma,
            cell=self.cell.linearize(self._inputs(x)),
        )

    def vjp_input(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.linearize(x).vjp_input(v)

    def grad_params(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.linearize(x).grad_params(v)


@dataclass(frozen=True)
class DeRnnLinearization:
    """DeRnnMap frozen at one x; gamma == 0 makes the map the identity."""

    mask: SensingMask
    gamma: float
    cell: GatedCellLinearization

    def vjp_input(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if self.gamma == 0.0:
            return v.copy()
        du = self.cell.vjp_input(_as_frames(v))
        d_direct = _as_cube(du[..., 0:1])
        d_res = _as_cube(du[..., 2:3])
        # residual input contributes through -Phi^T Phi
        return v + self.gamma * (
            d_direct - adjoint(self.mask, forward(self.mask, d_res).data)
        )

    def grad_params(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        return self.gamma * self.cell.grad_params(_as_frames(v))


@dataclass
class AdmmState:
    """Split variables for the ADMM baseline."""

    x: np.ndarray
    v: np.ndarray
    u: np.ndarray
    rho: float

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if not (self.x.shape == self.v.shape == self.u.shape):
            raise ShapeMismatchError("ADMM state cubes must share a shape")


def pnp_admm_step(state: AdmmState, mask: SensingMask, y, denoiser: Denoiser) -> AdmmState:
    """One ADMM sweep with the diagonal closed-form data update.

    x <- z + Phi^T (rho I + Q)^{-1} (y - Phi z), z = v - u/rho
    v <- D(x + u/rho)
    u <- u + rho (x - v)
    """
    ydata = _meas_data(y)
    z = state.v - state.u / state.rho
    resid = (ydata - forward(mask, z).data) / (state.rho + mask.q_diag)
    x_new = z + mask.frames * resid[:, :, None]
    v_new = denoiser.denoise(x_new + state.u / state.rho)
    u_new = state.u + state.rho * (x_new - v_new)
    return AdmmState(x=x_new, v=v_new, u=u_new, rho=state.rho)


def pnp_admm_solve(
    mask: SensingMask,
    y,
    denoiser: Denoiser,
    rho: float,
    max_iter: int,
    tol: float = 1e-6,
    psnr_ref=None,
) -> SolveResult:
    """Iterate pnp_admm_step from the canonical initializer.

    The step closure owns the split state and hands the engine x, so the
    residual is ||x_k - x_{k-1}||.
    """
    x0 = init_estimate(mask, y)
    state = AdmmState(x=x0, v=x0.copy(), u=np.zeros_like(x0), rho=rho)

    def step(_x):
        nonlocal state
        state = pnp_admm_step(state, mask, y, denoiser)
        # v enters x only in the next sweep, whose input checks would reject
        # it as bad input; hand a diverged v to the engine's guard at once.
        return state.x if np.isfinite(state.v).all() else state.v

    cfg = FixedPointConfig(tol=tol, max_iter=max_iter)
    return solve(step, x0, cfg, method="picard", psnr_ref=psnr_ref)


def pnp_gap_solve(
    mask: SensingMask,
    y,
    schedule,
    max_iter: int,
    tv_iters: int = 30,
    tol: float = 1e-6,
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

    def step(v):
        return tv_denoise(gap_project(mask, y, v), next(strengths), tv_iters)

    cfg = FixedPointConfig(tol=tol, max_iter=max_iter)
    return solve(step, init_estimate(mask, y), cfg, method="picard", psnr_ref=psnr_ref)


def save_cell(prefix: str, cell: GatedConvCell) -> None:
    _save_checkpoint(prefix, cell)


def load_cell(prefix: str) -> GatedConvCell:
    return _load_checkpoint(prefix, GatedConvCell)
