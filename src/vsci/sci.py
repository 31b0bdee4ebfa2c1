"""Snapshot-compressive-imaging measurement model.

A video cube is an (H, W, B) float64 array; B frames are collapsed into a
single 2D measurement y[i] = sum_b m_b[i] * x_b[i] by per-frame modulation
masks m_b. Because the sensing operator is a row of diagonals, the Gram
matrix is diagonal with entries q[i] = sum_b m_b[i]^2, and the Euclidean
projection onto {x : Phi x = y} is a cheap elementwise update.

A SensingMask holds binary masks (every entry 0 or 1, the coded apertures
the paper uses) as a bool array, at one byte per entry instead of eight; any
other mask stays float64. bool promotes to exactly 0.0 and 1.0 wherever it
meets a float64 operand, so every operator below gives the same bytes with
either representation, and a mask file holds float64 either way. Only q
needs care: an einsum over two bool operands is a logical OR of ANDs, not a
count, so q is summed with dtype float64. Frames that are not a 3D array of
finite, nonnegative values raise ValueError when the mask is built.

All operations are pure; none mutates its inputs. gap_project may write
its result into a caller's buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DeadPixelError, ShapeMismatchError, check_out

POLICY_REJECT = "reject"
POLICY_FLOOR = "floor"
DEFAULT_FLOOR_TAU = 1e-6


def validate_cube(data) -> np.ndarray:
    """Check video-cube invariants and return the array as float64.

    A valid cube is a 3D (H, W, B) array of finite values with every
    dimension >= 1. Values are nominally in [0, 1] but are not clamped here;
    clamping happens only at metric/export time.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeMismatchError(f"cube must be 3D (H, W, B), got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise ShapeMismatchError(f"cube dims must be >= 1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("cube contains non-finite entries")
    return arr


@dataclass
class SensingMask:
    """Per-frame modulation masks plus the precomputed diagonal Gram entries.

    frames        (H, W, B) finite, nonnegative mask values; held as bool
                  when every entry is 0 or 1, else as float64. Anything
                  else (not 3D, NaN, +-inf, a negative entry) raises
                  ValueError
    q_diag        (H, W) float64 sum_b frames[..., b]**2, derived from
                  frames; summed with dtype float64, which also makes a
                  bool einsum count instead of OR its products
    policy        "reject": mask_generate and projections raise DeadPixelError
                  where q_diag == 0;
                  "floor": divisions use max(q_diag, floor_tau) instead;
                  any other value raises ValueError
    floor_tau     divisor floor used under the "floor" policy, where it must
                  be finite and > 0
    """

    frames: np.ndarray
    policy: str = POLICY_REJECT
    floor_tau: float = DEFAULT_FLOOR_TAU
    q_diag: np.ndarray = field(init=False)
    _q_eff: np.ndarray = field(init=False, repr=False, compare=False)
    _dead: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.policy not in (POLICY_REJECT, POLICY_FLOOR):
            raise ValueError(f"unknown dead-pixel policy {self.policy!r}")
        if self.policy == POLICY_FLOOR and not 0 < self.floor_tau < np.inf:
            raise ValueError(f"floor_tau must be finite and > 0, got {self.floor_tau!r}")
        self.frames = _mask_frames(self.frames)
        self.q_diag = np.einsum("hwb,hwb->hw", self.frames, self.frames, dtype=np.float64)
        self._dead = None
        if self.policy == POLICY_FLOOR:
            self._q_eff = np.maximum(self.q_diag, self.floor_tau)
        else:
            self._q_eff = self.q_diag.view()
            dead = np.flatnonzero(self.q_diag <= 0.0)
            if dead.size:
                self._dead = int(dead[0])
        self._q_eff.flags.writeable = False

    def effective_q(self) -> np.ndarray:
        """Divisor actually used in projections, honoring the dead-pixel policy.

        Both the divisor and the first dead pixel are fixed by the mask, so
        __post_init__ finds them once; this returns that read-only divisor,
        or, under "reject", raises DeadPixelError naming the first dead pixel.
        """
        if self._dead is not None:
            raise DeadPixelError(self._dead)
        return self._q_eff


def _mask_frames(frames) -> np.ndarray:
    """frames as a bool array when every entry is 0 or 1, else as float64.

    One comparison against the bool cast settles the common binary case;
    only a mask that fails it is scanned for non-finite and negative entries.
    """
    arr = np.asarray(frames)
    if arr.ndim != 3:
        raise ValueError(f"mask frames must be 3D (H, W, B), got shape {arr.shape}")
    if arr.dtype == np.bool_:
        return arr
    arr = arr.astype(np.float64, copy=False)
    binary = arr.astype(bool)
    if np.array_equal(binary, arr):  # NaN != True, so a NaN mask falls through
        return binary
    if not np.isfinite(arr).all():
        raise ValueError("mask frames contain non-finite entries")
    if (arr < 0).any():
        raise ValueError("mask frames contain negative entries")
    return arr


@dataclass
class Measurement:
    """A coded 2D snapshot of finite values."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ShapeMismatchError(f"measurement must be 2D, got {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ValueError("measurement contains non-finite entries")


def mask_generate(
    seed: int,
    h: int,
    w: int,
    b: int,
    kind: str = "bernoulli",
    p: float = 0.5,
    policy: str = POLICY_REJECT,
    floor_tau: float = DEFAULT_FLOOR_TAU,
) -> SensingMask:
    """Deterministically generate a sensing mask.

    kind = "bernoulli": iid {0,1} per pixel/frame with P(1) = p.
    kind = "all_ones":  every frame is all ones (q_diag == b everywhere).

    Under policy="reject" a mask whose q_diag vanishes anywhere raises
    DeadPixelError naming the first offending flat index.
    """
    if h < 1 or w < 1 or b < 1:
        raise ValueError(f"mask dims must be >= 1, got {(h, w, b)}")
    if kind == "all_ones":
        frames = np.ones((h, w, b), dtype=bool)
    elif kind == "bernoulli":
        if not 0.0 < p <= 1.0:
            raise ValueError(f"bernoulli p must be in (0, 1], got {p}")
        rng = np.random.default_rng(seed)
        frames = rng.random((h, w, b)) < p
    else:
        raise ValueError(f"unknown mask kind {kind!r}")
    mask = SensingMask(frames=frames, policy=policy, floor_tau=floor_tau)
    mask.effective_q()  # under "reject", raises DeadPixelError if any pixel is dead
    return mask


def _check_cube_shape(mask: SensingMask, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != mask.frames.shape:
        raise ShapeMismatchError(
            f"cube shape {x.shape} does not match mask {mask.frames.shape}"
        )
    return x


def _check_meas_shape(mask: SensingMask, y) -> np.ndarray:
    data = y.data if isinstance(y, Measurement) else np.asarray(y, dtype=np.float64)
    if data.shape != mask.q_diag.shape:
        raise ShapeMismatchError(
            f"measurement shape {data.shape} does not match mask {mask.q_diag.shape}"
        )
    return data


def forward(mask: SensingMask, x: np.ndarray) -> Measurement:
    """Noiseless coded snapshot: y[i] = sum_b m_b[i] * x_b[i]."""
    x = _check_cube_shape(mask, x)
    data = np.einsum("hwb,hwb->hw", mask.frames, x)
    return Measurement(data=data)


def adjoint(mask: SensingMask, y) -> np.ndarray:
    """Transpose operator: x_b[i] = m_b[i] * y[i]. Returns an (H, W, B) cube,
    the initial estimate of every solve."""
    data = _check_meas_shape(mask, y)
    return mask.frames * data[:, :, None]


def add_noise(y: Measurement, sigma: float, seed: int) -> Measurement:
    """Add iid Gaussian noise, deterministic per seed; sigma = 0 returns a
    copy, and a sigma that is not >= 0 (NaN too) raises ValueError."""
    if not sigma >= 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return Measurement(data=y.data.copy())
    rng = np.random.default_rng(seed)
    return Measurement(data=y.data + rng.normal(0.0, sigma, size=y.data.shape))


def gap_project(mask: SensingMask, y, v: np.ndarray, out=None) -> np.ndarray:
    """Euclidean projection of v onto {x : Phi x = y}.

    Computed elementwise as
        out_b[i] = v_b[i] + m_b[i] * (y[i] - sum_c m_c[i] v_c[i]) / q[i],
    where q honors the dead-pixel policy. On non-dead pixels the output is
    measurement-consistent: forward(mask, out) == y. The result goes into
    `out` (float64, v's shape, not overlapping v; by default a new array).
    """
    v = _check_cube_shape(mask, v)
    if out is not None and np.may_share_memory(out, v):
        raise ValueError("out must not overlap v")
    data = _check_meas_shape(mask, y)
    q = mask.effective_q()
    residual = (data - np.einsum("hwb,hwb->hw", mask.frames, v)) / q
    out = np.multiply(mask.frames, residual[:, :, None], out=check_out(out, v.shape))
    out += v
    return out


def project_null(mask: SensingMask, w: np.ndarray) -> np.ndarray:
    """Apply the measurement-null-space projector I - Phi^T Q^{-1} Phi to w.

    This is the (self-adjoint) Jacobian of :func:`gap_project` in v, used by
    iteration-map VJPs.
    """
    w = _check_cube_shape(mask, w)
    q = mask.effective_q()
    s = np.einsum("hwb,hwb->hw", mask.frames, w) / q
    out = mask.frames * s[:, :, None]
    return np.subtract(w, out, out=out)
