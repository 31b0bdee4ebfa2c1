"""Zero-padded 2D cross-correlation layers with hand-written adjoints.

Data layout is channels-last with a leading batch axis: (F, H, W, C).
Kernels are (C_out, C_in, kh, kw) with odd kh, kw; outputs keep the spatial
size ("same" padding), and even kernel sizes raise ``ValueError``. The adjoint
identities are exercised by tests:

    <conv(x, K), v> == <x, conv_adjoint_input(v, K)>
    <conv(x, K), v> == <K, conv_grad_kernel(x, v)>  (bias handled separately)

Every kernel works on the kh*kw shifted views of the zero-padded input, one
per kernel tap. ``conv_forward`` picks its path from the kernel's shape, so
that it shifts kh*kw*min(C_in, C_out) planes and no more:

- C_in == 1: im2col. The kh*kw shifted frames are copied into one column
  buffer and contracted with the kernel in a single GEMM.
- 1 < C_in, C_out < C_in (a narrowing layer): one GEMM on the padded input,
  ``(kh*kw*C_out, C_in) @ (C_in, F*Hp*Wp)``, gives one C_out-channel plane
  per tap; the kh*kw planes, each shifted by its tap, are then summed. The
  sum over taps and channels is reassociated, so results differ from the
  per-tap path by rounding only.
- otherwise (C_out >= C_in > 1): one ``(F, H, W, C_in) @ (C_in, C_out)``
  matmul per tap, accumulated into one preallocated output.

``conv_adjoint_input`` is a forward conv with the flipped, transposed kernel,
so it takes the same rule with C_in and C_out swapped.

The per-tap loop is kept for C_out >= C_in because there the one-GEMM path
would shift the wider side and hold kh*kw output-sized planes. Measured with
one BLAS thread, per tap against one GEMM: DE-RNN's 3->8 input layer on an
(8, 256, 256) cube 171 vs 231 ms, with peak allocation 2.4x vs 11.5x the
output; an 8->8 3x3 layer on a 36x256 denoiser tile 2.1 vs 2.6 ms; and
``vsci reconstruct --method de-rnn`` at 256x256x8, 20 iterations, 8.1-8.6 vs
10.2-11.1 s. im2col is slower still for C_in > 1 (8->8 on the tile: 5.1 ms).
"""

from __future__ import annotations

import numpy as np


def _pad(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Zero-pad the spatial axes of x by half the (odd) kernel size."""
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {kh}x{kw}")
    f, h, w, c = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((f, h + 2 * ph, w + 2 * pw, c))
    xp[:, ph : ph + h, pw : pw + w] = x
    return xp


def _taps(x: np.ndarray, kh: int, kw: int) -> list[tuple[int, int, np.ndarray]]:
    """Zero-pad x spatially; return (i, j, view) per kernel tap.

    ``view[f, r, c] = x_padded[f, r + i, c + j]`` has the shape of x.
    """
    _, h, w, _ = x.shape
    xp = _pad(x, kh, kw)
    return [(i, j, xp[:, i : i + h, j : j + w]) for i in range(kh) for j in range(kw)]


def _narrowing_forward(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """conv_forward without bias for C_out < C_in: one GEMM, then shifted adds."""
    c_out, c_in, kh, kw = kernel.shape
    f, h, w, _ = x.shape
    xp = _pad(x, kh, kw)
    hp, wp = xp.shape[1:3]
    k2 = kernel.transpose(2, 3, 0, 1).reshape(kh * kw * c_out, c_in)
    planes = (k2 @ xp.reshape(-1, c_in).T).reshape(kh, kw, c_out, f, hp, wp)
    out = np.zeros((c_out, f, h, w))
    for i in range(kh):
        for j in range(kw):
            out += planes[i, j, :, :, i : i + h, j : j + w]
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def conv_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Same-size cross-correlation: (F, H, W, Cin) -> (F, H, W, Cout)."""
    c_out, c_in, kh, kw = kernel.shape
    if x.shape[-1] != c_in:
        raise ValueError(f"input has {x.shape[-1]} channels, kernel expects {c_in}")
    out_shape = x.shape[:-1] + (c_out,)
    if c_in == 1:
        cols = np.stack([xs[..., 0] for _, _, xs in _taps(x, kh, kw)])  # (kh*kw, F, H, W)
        out = cols.reshape(kh * kw, -1).T @ kernel.reshape(c_out, kh * kw).T
        out = out.reshape(out_shape)
    elif c_out < c_in:
        out = _narrowing_forward(x, kernel)
    else:
        out = np.zeros(out_shape)
        tmp = np.empty(out_shape)
        for i, j, xs in _taps(x, kh, kw):
            out += np.matmul(xs, kernel[:, :, i, j].T, out=tmp)
    if bias is not None:
        # one bias row per image row gives a long inner loop, not one of C_out
        # elements; out is C-contiguous on every path, so the reshape is a view
        rows = out.reshape(-1, out.shape[2] * c_out)
        rows += np.tile(bias, out.shape[2])
    return out


def conv_adjoint_input(v: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Adjoint of conv_forward in its input: (F, H, W, Cout) -> (F, H, W, Cin).

    Equals a same-size cross-correlation of v with the kernel flipped
    spatially and transposed in its channel axes.
    """
    kt = np.flip(kernel, axis=(2, 3)).transpose(1, 0, 2, 3)  # (Cin, Cout, kh, kw)
    return conv_forward(v, np.ascontiguousarray(kt))


def conv_grad_kernel(x: np.ndarray, v: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Adjoint of conv_forward in its kernel: returns (Cout, Cin, kh, kw)."""
    c_in, c_out = x.shape[-1], v.shape[-1]
    vt = v.reshape(-1, c_out).T
    xs_buf = np.empty(x.shape)
    grad = np.empty((c_out, c_in, kh, kw))
    for i, j, xs in _taps(x, kh, kw):
        np.copyto(xs_buf, xs)
        grad[:, :, i, j] = vt @ xs_buf.reshape(-1, c_in)
    return grad


def conv_grad_bias(v: np.ndarray) -> np.ndarray:
    """Adjoint of the bias add: sums the cotangent over batch and space."""
    return v.sum(axis=(0, 1, 2))


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    """exp(-|z|) in a fresh float64 array; it never overflows."""
    e = np.empty(np.shape(z))
    np.abs(z, out=e)
    np.negative(e, out=e)
    with np.errstate(under="ignore"):  # flushing to 0 for large |z| is the exact limit
        np.exp(e, out=e)
    return e


def softplus(z: np.ndarray) -> np.ndarray:
    """Numerically stable log(1 + exp(z)) = max(z, 0) + log1p(exp(-|z|))."""
    out = _exp_neg_abs(z)
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0)
    return out


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (= derivative of softplus).

    Branch-free on e = exp(-|z|): 1 / (1 + e) for z >= 0, e / (1 + e) below.
    """
    e = _exp_neg_abs(z)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def conv_operator_sigma(
    kernel: np.ndarray, u: np.ndarray, n_iters: int
) -> tuple[float, np.ndarray]:
    """Estimate the spectral norm of the zero-padded conv operator.

    Power iteration on the actual (bias-free) operator at the spatial shape
    of the persistent vector ``u`` (shape (H, W, Cin), treated as one batch
    entry). Returns (sigma_estimate, updated_u); sigma is 0 for the zero
    operator and the iterate is left untouched in that case.
    """
    floor = 1e-12
    u_cur = u[None]  # (1, H, W, Cin)
    history = []
    for _ in range(n_iters):
        v = conv_forward(u_cur, kernel)
        nv = float(np.linalg.norm(v))
        if nv < floor:
            return 0.0, u
        v /= nv
        w = conv_adjoint_input(v, kernel)
        sigma = float(np.linalg.norm(w))
        if sigma < floor:
            return 0.0, u
        history.append(sigma)
        u_cur = w / sigma
    sigma = history[-1]
    # Aitken extrapolation of the geometric tail; the raw estimate approaches
    # the true norm from below, so the correction tightens the normalization.
    if len(history) >= 3:
        d1 = history[-2] - history[-3]
        d2 = history[-1] - history[-2]
        if d1 > 0 and 0 < d2 < d1:
            r = d2 / d1
            sigma = min(sigma + d2 * r / (1.0 - r), 1.5 * sigma)
    return sigma, u_cur[0]


def dense_conv_matrix(kernel: np.ndarray, h: int, w: int) -> np.ndarray:
    """Materialize the zero-padded conv operator as a dense matrix.

    Maps (h*w*Cin,) -> (h*w*Cout,) for diagnostic SVD checks on small shapes.
    """
    c_out, c_in, _, _ = kernel.shape
    n_in = h * w * c_in
    cols = []
    for j in range(n_in):
        e = np.zeros(n_in)
        e[j] = 1.0
        out = conv_forward(e.reshape(1, h, w, c_in), kernel)
        cols.append(out.ravel())
    return np.stack(cols, axis=1)
