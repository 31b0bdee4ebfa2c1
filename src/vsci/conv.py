"""Zero-padded 2D cross-correlation layers with hand-written adjoints.

Data layout is channels-last with a leading batch axis: (F, H, W, C).
Kernels are (C_out, C_in, kh, kw) with odd kh, kw; outputs keep the spatial
size ("same" padding), and even kernel sizes raise ``ValueError``. The adjoint
identities are exercised by tests:

    <conv(x, K), v> == <x, conv_adjoint_input(v, K)>
    <conv(x, K), v> == <K, conv_grad_kernel(x, v)>  (bias handled separately)

Every kernel runs on a ``Grid``: the frames stored zero-bordered and
row-flattened, as one (positions, C) buffer. With P >= k // 2 for every
kernel side k, each row is W + P positions wide (W data columns, then P zero
columns that also border the next row on its left), each frame's rows are
followed by P zero rows that also border the next frame from above, P zero
rows lead the first frame, and P positions of slack lie at each end. Output
position p then reads tap (i, j) at p + (i - kh // 2) * (W + P) + (j - kw // 2),
so every tap of a whole block of rows, across all its frames, is one
contiguous slice of the buffer. Outputs are computed at every position of
the rows' span, pad columns and the zero rows between frames included; the
values there are not part of the result.

``conv_forward`` picks its path from the kernel's shape, so that it shifts
kh*kw*min(C_in, C_out) planes (kh*kw*C_in for C_in <= 2) and no more:

- C_in <= 2: im2col. The kh*kw*C_in tap slices, one per tap and input
  channel, are copied into one tap-major column buffer, with a row of ones
  when there is a bias, and contracted with the kernel (and the bias) in a
  single GEMM.
- 2 < C_in, C_out < C_in (a narrowing layer): one GEMM on the padded input,
  ``(kh*kw*C_out, C_in) @ (C_in, n)``, gives one C_out-channel plane per
  tap; the kh*kw planes, each read at its tap's offset, are then summed
  into a contiguous (C_out, n) accumulator (the output itself when C_out is
  1). The sum over taps and channels is reassociated, so results differ
  from the per-tap path by rounding only.
- otherwise (C_out >= C_in > 2): one ``(n, C_in) @ (C_in, C_out)`` GEMM per
  tap on its contiguous slice, accumulated into the output.

``conv_adjoint_input`` is a forward conv with the flipped, transposed kernel,
so it takes the same rule with C_in and C_out swapped. ``conv_grad_kernel``
is one ``(C_out, n) @ (n, C_in)`` GEMM per tap, with the cotangent on a grid
of the same shape, whose zero border cancels the span's extra positions.

A conv stack can keep its activations on grids from layer to layer: given a
window of rows of a grid and an ``out`` grid of the same geometry,
``conv_forward`` writes those rows of ``out`` and reads the rows around them
from the input grid, zero rows at a frame's edge and data rows elsewhere.

The per-tap loop is kept for C_out >= C_in because there the one-GEMM path
would shift the wider side and hold kh*kw output-sized planes. Measured with
one BLAS thread on a 2-vCPU x86-64 VM, per tap against one GEMM: an 8->8 3x3
layer on a 34x256 tile 1.4 vs 2.0 ms. The gated cell's fused 8->2 layer and
its 2->8 adjoint set the other two rules; on the same tile, 8->2 took 0.42
ms with a contiguous accumulator against 0.58 ms accumulating into the
strided output, and 2->8 took 0.41 ms by im2col against 1.05 ms per tap.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

# Floats (512 KiB) of the largest temporary that conv and softplus take from
# their thread's reused scratch (see _scratch). A 32x32x4 tile's im2col
# block, planes and exp(-|z|) fit. Paper-scale tiles allocate theirs per call
# and hold nothing between calls: a process that frees MiB-sized cubes has
# already raised glibc's trim threshold past them.
SCRATCH_CAP = 1 << 16
_local = threading.local()


def _scratch(shape: tuple) -> np.ndarray:
    """An uninitialized float64 array for one call's temporary: up to
    SCRATCH_CAP floats, a view of one buffer kept per thread and reused by
    later calls (no call holds it past its return or takes two).

    Freed per call instead, a temporary at the heap top is returned to the
    OS whenever the free space there passes glibc's trim threshold, and the
    next call faults it back in: a 32x32x4 training step took 11.7k minor
    faults, and ~30% longer, in one heap layout and none in another.
    """
    n = math.prod(shape)
    if n > SCRATCH_CAP:
        return np.empty(shape)
    buf = getattr(_local, "scratch", None)
    if buf is None or buf.size < n:
        buf = _local.scratch = np.empty(n)
    return buf[:n].reshape(shape)


@dataclass(frozen=True)
class Grid:
    """Frames on a zero-bordered, row-flattened buffer (see the module doc).

    buf is (positions, C). The grid holds `frames` frames of `height` rows
    by `width` columns with border P = `pad`; [lo, hi) is a window of rows,
    the same in every frame, that a conv writes (as ``out``) or computes
    (as its input). Only the data columns of the window's rows are values
    of the frames; the border stays zero wherever a conv may read it.
    """

    buf: np.ndarray
    frames: int
    height: int
    width: int
    pad: int
    lo: int
    hi: int

    @classmethod
    def zeros(cls, frames: int, height: int, width: int, channels: int, pad: int) -> "Grid":
        wp = width + pad
        n = 2 * pad + pad * wp + frames * (height + pad) * wp
        return cls(np.zeros((n, channels)), frames, height, width, pad, 0, height)

    @classmethod
    def of(cls, x: np.ndarray, pad: int) -> "Grid":
        """A grid holding the (F, H, W, C) array x; its window is every row."""
        f, h, w, c = x.shape
        g = cls.zeros(f, h, w, c, pad)
        g.view()[...] = x
        return g

    @property
    def wp(self) -> int:
        """Positions per row: the data columns, then the pad zero columns."""
        return self.width + self.pad

    @property
    def shape(self) -> tuple:
        """(frames, window rows, width, channels): the array the window holds."""
        return (self.frames, self.hi - self.lo, self.width, self.buf.shape[1])

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def rows(self, lo: int, hi: int) -> "Grid":
        return Grid(self.buf, self.frames, self.height, self.width, self.pad, lo, hi)

    def span(self) -> tuple[int, int]:
        """(first position, count) of the window's rows, from the first
        frame's row lo to the last frame's row hi - 1, whole rows."""
        start = self.pad + (self.pad + self.lo) * self.wp
        if self.frames == 0:
            return start, 0
        return start, ((self.frames - 1) * (self.height + self.pad) + self.hi - self.lo) * self.wp

    def region(self) -> np.ndarray:
        """The span's (count, C) block of buf, a view."""
        start, n = self.span()
        return self.buf[start : start + n]

    def _frames4(self) -> np.ndarray:
        """(frames, height + pad, width + pad, C) view from the first data row."""
        start, rows = self.pad + self.pad * self.wp, self.height + self.pad
        return self.buf[start : start + self.frames * rows * self.wp].reshape(
            self.frames, rows, self.wp, self.buf.shape[1])

    def view(self) -> np.ndarray:
        """The window's values, an (F, hi - lo, W, C) view of buf."""
        return self._frames4()[:, self.lo : self.hi, : self.width]

    def clear_border(self) -> None:
        """Zero the span outside the window's data: the pad columns and the
        rows between frames, where a conv wrote values that are not part of
        its result."""
        f4 = self._frames4()
        f4[:, self.lo : self.hi, self.width :] = 0.0
        f4[:-1, self.hi :] = 0.0
        f4[1:, : self.lo] = 0.0


def _tap_offsets(kh: int, kw: int, g: Grid) -> list[int]:
    """Position offset of each kernel tap on g, tap-major (i, then j)."""
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {kh}x{kw}")
    if max(kh, kw) // 2 > g.pad:
        raise ValueError(f"a {kh}x{kw} kernel needs a wider border than the grid's {g.pad}")
    return [(i - kh // 2) * g.wp + (j - kw // 2) for i in range(kh) for j in range(kw)]


def _conv(src: Grid, kernel: np.ndarray, bias, out_buf: np.ndarray) -> None:
    """Write the conv of src's window into the same span of out_buf."""
    c_out, c_in, kh, kw = kernel.shape
    offs = _tap_offsets(kh, kw, src)
    start, n = src.span()
    x = src.buf
    out = out_buf[start : start + n]
    if c_in <= 2:
        k2 = kernel.transpose(2, 3, 1, 0).reshape(kh * kw * c_in, c_out)
        cols = _scratch((kh * kw * c_in + (bias is not None), n))
        for t, o in enumerate(offs):
            cols[t * c_in : (t + 1) * c_in] = x[start + o : start + o + n].T
        if bias is not None:
            cols[-1] = 1.0
            k2 = np.vstack([k2, bias])
        np.matmul(cols.T, k2, out=out)
    elif c_out < c_in:
        k2 = kernel.transpose(2, 3, 0, 1).reshape(kh * kw * c_out, c_in)
        first = start + offs[0]
        xt = x[first : start + offs[-1] + n].T
        planes = np.matmul(k2, xt, out=_scratch((k2.shape[0], xt.shape[1])))
        acc = out.T if c_out == 1 else np.empty((c_out, n))  # contiguous
        for t, o in enumerate(offs):
            p = planes[t * c_out : (t + 1) * c_out, start + o - first :][:, :n]
            if t == 0:
                np.copyto(acc, p)
            else:
                acc += p
        if bias is not None:
            acc += bias[:, None]
        if c_out > 1:
            out.T[...] = acc
    else:
        tmp = _scratch((n, c_out))
        for t, o in enumerate(offs):
            k = kernel[:, :, t // kw, t % kw].T
            xs = x[start + o : start + o + n]
            if t == 0:
                np.matmul(xs, k, out=out)
            else:
                out += np.matmul(xs, k, out=tmp)
        if bias is not None:
            out += bias


def conv_forward(x, kernel: np.ndarray, bias: np.ndarray | None = None, out: Grid | None = None):
    """Same-size cross-correlation: (F, H, W, Cin) -> (F, H, W, Cout).

    x is an array, or a window of rows of a Grid. For a grid, the result is
    written into the same window of ``out``, a grid of the same frames,
    height, width and border with Cout channels, and that window of out is
    returned. Only out's window rows hold the result; its pad columns, and
    any rows between frames in the window's span, hold other values until
    ``out.clear_border()``.
    """
    c_out, c_in, kh, kw = kernel.shape
    if x.shape[-1] != c_in:
        raise ValueError(f"input has {x.shape[-1]} channels, kernel expects {c_in}")
    if isinstance(x, Grid):
        _conv(x, kernel, bias, out.buf)
        return out.rows(x.lo, x.hi)
    g = Grid.of(x, max(kh, kw) // 2)
    out_buf = np.empty((g.buf.shape[0], c_out))
    _conv(g, kernel, bias, out_buf)
    return np.ascontiguousarray(replace(g, buf=out_buf).view())


def conv_adjoint_input(v, kernel: np.ndarray, out: Grid | None = None):
    """Adjoint of conv_forward in its input: (F, H, W, Cout) -> (F, H, W, Cin).

    Equals a same-size cross-correlation of v with the kernel flipped
    spatially and transposed in its channel axes; v and out are as in
    conv_forward.
    """
    kt = np.flip(kernel, axis=(2, 3)).transpose(1, 0, 2, 3)  # (Cin, Cout, kh, kw)
    return conv_forward(v, np.ascontiguousarray(kt), out=out)


def conv_grad_kernel(x: np.ndarray, v: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Adjoint of conv_forward in its kernel: returns (Cout, Cin, kh, kw)."""
    c_in, c_out = x.shape[-1], v.shape[-1]
    pad = max(kh, kw) // 2
    g = Grid.of(x, pad)
    offs = _tap_offsets(kh, kw, g)
    start, n = g.span()
    vt = Grid.of(v, pad).region().T  # zero outside the frames' data
    grad = np.empty((c_out, c_in, kh, kw))
    for t, o in enumerate(offs):
        grad[:, :, t // kw, t % kw] = vt @ g.buf[start + o : start + o + n]
    return grad


def conv_grad_bias(v: np.ndarray) -> np.ndarray:
    """Adjoint of the bias add: sums the cotangent over batch and space."""
    return v.sum(axis=(0, 1, 2))


def _exp_neg_abs(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """exp(-|z|) in e (by default a fresh float64 array); it never overflows."""
    e = np.empty(np.shape(z)) if e is None else e
    np.abs(z, out=e)
    np.negative(e, out=e)
    with np.errstate(under="ignore"):  # flushing to 0 for large |z| is the exact limit
        np.exp(e, out=e)
    return e


def softplus(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable log(1 + exp(z)) = max(z, 0) + log1p(exp(-|z|)).

    out may be z itself, for an in-place update.
    """
    e = _exp_neg_abs(z, _scratch(np.shape(z)))
    np.log1p(e, out=e)
    out = np.maximum(z, 0.0, out=out)
    out += e
    return out


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function (= derivative of softplus).

    Branch-free on e = exp(-|z|): 1 / (1 + e) for z >= 0, e / (1 + e) below.
    out may be z itself, for an in-place update.
    """
    e = _exp_neg_abs(z)
    num = np.where(z >= 0, 1.0, e)
    e += 1.0
    return np.divide(num, e, out=out)


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

