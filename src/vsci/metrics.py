"""Reconstruction quality metrics: per-frame PSNR and single-scale SSIM.

Both metrics are computed per frame and then averaged ("per-frame mean"
convention). Both score the reconstruction x clamped to [0, peak] (PSNR)
or [0, 1] (SSIM); the reference is used as given. SSIM's 11x11 Gaussian
window is the outer product of a 1-D window, so it is applied as two
valid-mode 1-D passes (22 multiply-adds per pixel instead of 121).

PSNR forms the error over blocks of image rows in one block of at most
PSNR_BLOCK floats, which also holds a ones vector: a block's per-frame
squared-error sums are one GEMV, ones @ (rows * W, B). So a call allocates
that block and a few B-vectors, and no cube. Every fixed-point iteration
whose trace has a reference scores one PSNR. On a 2-vCPU x86_64 VM (numpy
2.4, one BLAS thread), one 256x256x8 call took 3.5 ms with the error
formed in one scratch cube and 1.1 ms in 2^16-float blocks; 2^13-float
blocks took 1.9 ms and 2^11 4.3 ms, since every block costs five calls.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError

PSNR_CAP_DB = 100.0
PSNR_BLOCK = 1 << 16  # floats in psnr's one working block

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _check_pair(x, ref):
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ShapeMismatchError(f"shape mismatch {x.shape} vs {ref.shape}")
    if x.ndim != 3:
        raise ShapeMismatchError(f"expected (H, W, B) cubes, got {x.shape}")
    return x, ref


def psnr(x: np.ndarray, ref: np.ndarray, peak: float = 1.0):
    """Per-frame PSNR in dB plus the mean over frames.

    10*log10(peak^2 / MSE) per frame of x clamped to [0, peak], capped at
    100 dB (the cap value is reported for frames with zero MSE so CSV
    output stays numeric). The squared error is summed over row blocks of
    at most PSNR_BLOCK floats, error and ones vector together (one row when
    a row and its ones need more).
    """
    if peak <= 0:
        raise ValueError("peak must be > 0")
    x, ref = _check_pair(x, ref)
    h, w, b = x.shape
    rows = max(1, min(h, PSNR_BLOCK // max(1, w * (b + 1))))
    block = np.empty(rows * w * (b + 1))
    ones = block[rows * w * b:]
    ones.fill(1.0)
    sse = np.zeros(b)
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        n = (r1 - r0) * w
        d = block[: n * b].reshape(r1 - r0, w, b)
        np.clip(x[r0:r1], 0.0, peak, out=d)
        d -= ref[r0:r1]
        np.square(d, out=d)
        sse += ones[:n] @ d.reshape(n, b)
    mse = sse / (h * w)
    vals = np.full(b, PSNR_CAP_DB)
    nz = mse != 0  # a NaN error stays NaN
    vals[nz] = np.minimum(PSNR_CAP_DB, 10.0 * np.log10(peak * peak / mse[nz]))
    return vals, float(vals.mean())


def _gaussian_taps(size: int, sigma: float) -> np.ndarray:
    r = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    return g / g.sum()


def _filter_valid(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Valid-mode correlation of one frame with the window outer(taps, taps):
    one 1-D pass along the rows, then one along the columns."""
    n = taps.size
    h, w = img.shape
    rows = taps[0] * img[:, : w - n + 1]
    tmp = np.empty_like(rows)
    for k in range(1, n):
        rows += np.multiply(taps[k], img[:, k : k + w - n + 1], out=tmp)
    out = taps[0] * rows[: h - n + 1]
    tmp = tmp[: h - n + 1]
    for k in range(1, n):
        out += np.multiply(taps[k], rows[k : k + h - n + 1], out=tmp)
    return out


def ssim(x: np.ndarray, ref: np.ndarray):
    """Per-frame single-scale SSIM plus the mean over frames.

    11x11 Gaussian window (sigma 1.5), K1=0.01, K2=0.03, dynamic range 1.0
    (x clamped to [0, 1]); the SSIM map uses valid-mode filtering and is
    averaged over pixels, then over frames. Frames must be at least 11x11.
    """
    x, ref = _check_pair(x, ref)
    h, w, b = x.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ShapeMismatchError(
            f"frames must be at least {SSIM_WINDOW}x{SSIM_WINDOW}, got {h}x{w}"
        )
    taps = _gaussian_taps(SSIM_WINDOW, SSIM_SIGMA)
    c1 = SSIM_K1 * SSIM_K1
    c2 = SSIM_K2 * SSIM_K2
    vals = np.empty(b)
    for k in range(b):
        # contiguous frame copies: the filter passes then read unit-stride rows
        a = np.clip(x[:, :, k], 0.0, 1.0, order="C")
        r = np.ascontiguousarray(ref[:, :, k])
        mu_a = _filter_valid(a, taps)
        mu_r = _filter_valid(r, taps)
        var_a = _filter_valid(a * a, taps) - mu_a * mu_a
        var_r = _filter_valid(r * r, taps) - mu_r * mu_r
        cov = _filter_valid(a * r, taps) - mu_a * mu_r
        num = (2.0 * mu_a * mu_r + c1) * (2.0 * cov + c2)
        den = (mu_a * mu_a + mu_r * mu_r + c1) * (var_a + var_r + c2)
        vals[k] = float(np.mean(num / den))
    return vals, float(vals.mean())
