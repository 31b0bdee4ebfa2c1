"""Exception types shared across the toolkit, and the `out=` argument check."""

import numpy as np


class VsciError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatchError(VsciError):
    """Operands have incompatible shapes."""


def check_out(out, shape: tuple) -> np.ndarray:
    """`out` when it is a float64 array of `shape`, a new one when it is None;
    anything else raises ShapeMismatchError."""
    if out is None:
        return np.empty(shape)
    if not isinstance(out, np.ndarray) or out.shape != shape or out.dtype != np.float64:
        got = f"{out.dtype} {out.shape}" if isinstance(out, np.ndarray) else type(out).__name__
        raise ShapeMismatchError(f"out is {got}, need float64 {shape}")
    return out


class DeadPixelError(VsciError):
    """A mask pixel receives zero energy across all frames (q_diag == 0)."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"dead pixel at index {index}: q_diag is zero")


class TensorFileError(VsciError):
    """Base class for tensor-file format errors."""


class BadMagicError(TensorFileError):
    """File does not start with the expected magic bytes."""


class TruncatedError(TensorFileError):
    """Payload length disagrees with the header dims."""


class DtypeMismatchError(TensorFileError):
    """Unknown or unsupported dtype code in the header."""


class DivergedError(VsciError):
    """Fixed-point iteration produced non-finite values or runaway residuals.

    Carries the partial trace recorded up to the failure.
    """

    def __init__(self, message, trace=None, iterations=0):
        self.trace = trace
        self.iterations = iterations
        super().__init__(message)


class SingularAlphaError(VsciError):
    """The Anderson mixing system is unsolvable even after regularization."""


class UnsupportedDenoiserOpError(VsciError):
    """Requested derivative/parameter operation on a denoiser that has none."""


class ConfigError(VsciError):
    """Bad configuration key or value."""


class TrainingAbortedError(VsciError):
    """Too many diverged samples in one epoch; log holds the epochs completed before it."""

    def __init__(self, message, log=None):
        self.log = log
        super().__init__(message)
