"""Denoising operators with value, input-VJP, and parameter-VJP.

Four kinds: identity, scale_shift, and two trainable residual families
D(x) = x + gamma * r(x), applied to each frame independently (weights
shared across frames, so one parameter set serves any number of frames):
  - conv_residual, DE-GAP's denoiser: r is a small stack of zero-padded 3x3
    conv layers with softplus between them;
  - gated_cell, DE-RNN's denoiser: r is a gated conv cell, a 2-layer stack
    h = softplus(conv(x)), (a, b) = conv(h), with the gated head
    r = sigmoid(a) * tanh(b).
Both run one implementation: a conv stack with softplus between layers,
then a head that maps the last layer's output to r, the identity for
conv_residual. The residual form makes the Lipschitz constant of D - I
directly controllable through gamma and per-layer spectral norms.
tv_denoise, the anisotropic per-frame TV proximal step, is the prox of the
GAP-TV baseline (maps.pnp_gap_solve), not a Denoiser.

A conv stack's weights live in ConvParams: kernels, biases and the power-
iteration vectors that spectral_normalize refines. Both trainable kinds hold
one, so they share the flat theta order, spectral normalization and one
checkpoint format (save_denoiser/load_denoiser): <prefix>.vsci holds theta,
and <prefix>.meta the denoiser's kind and gamma, every kernel's shape
(C_out x C_in x kh x kw) and sn_h, sn_w, sn_seed.

Both stacks run over row tiles so that their activations stay in cache. A
tile is a block of rows of one frame, or a block of whole frames (see
_tiles). Its activations chain from layer to layer on zero-bordered grids
(vsci.conv.Grid), one per layer input plus one for the output, allocated
once per call and reused by every tile:
  - the tile loads its rows, plus a halo of sum(k // 2) rows on each side
    clipped to the frame (k the kernel height of each layer), into the
    first grid: from the (H, W, B) cube, but the upper halo from a carry
    buffer (below);
  - layer l computes only the rows that the layers after it still read: the
    tile's rows plus a halo of the later layers' sum(k // 2), so the halo
    shrinks by layer l's k // 2 at each layer;
  - softplus runs in place on each hidden output, whose pad columns and
    rows between frames are then zeroed, so that it is the next layer's
    zero-bordered input;
  - the head maps the last layer's output at the tile's own rows to r,
    and the tile writes those rows of x + gamma * r(x) straight into the
    output cube.
Every row a layer computes reads only rows its input holds: data rows of
that grid, or the grid's zero rows at a frame edge, where they equal
conv_forward's zero padding. A tile whose rows reach the bottom of a frame
first zeroes the grid rows below them, which an earlier tile may have
written. So the result equals the untiled stack bit for bit. An input whose
widest activation fits the budget TILE_ELEMS runs as one tile over all
frames, as at desk scale; otherwise frames that fit are grouped whole, and
larger frames are cut into row blocks. denoise and linearize share this
forward, and the linearization's VJPs chain their cotangents through grids
the same way, whole frames at a time, starting from the head's VJP: v
itself for the identity, v times each channel's dr/dt, kept by linearize,
for the gated head.

denoise(x, out) writes into `out`, which may be x itself (DE-GAP denoises
its projection in place). A tile writes its rows [r0, r1) of the frame, but
the frame's next row block reads the sum(k // 2) rows above r1 as its upper
halo. So each tile loads its upper halo, the rows [r0 - sum(k // 2), r0),
from a carry buffer of B x sum(k // 2) x W rather than from x, and, once its
rows are in the first grid, copies the next block's halo rows from the grid
into the carry. A tile of whole frames has no upper halo; it fills the carry
with rows that nothing reads. Every
grid then holds what it holds out of place, and the in-place result is
bitwise the out-of-place one.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensorio
from .conv import (
    Grid,
    conv_adjoint_input,
    conv_forward,
    conv_grad_bias,
    conv_grad_kernel,
    conv_operator_sigma,
    sigmoid,
    softplus,
)
from .errors import ConfigError, ShapeMismatchError, UnsupportedDenoiserOpError, check_out

try:  # the ufunc that np.clip dispatches to, called without its Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip


@dataclass(frozen=True)
class AffineLinearization:
    """Linearization of D(x) = a*x + b: J^T v = a*v at every x, no parameters."""

    kind: str
    a: float

    def vjp_input(self, v: np.ndarray) -> np.ndarray:
        return self.a * np.asarray(v, dtype=np.float64)

    def grad_params(self, v: np.ndarray) -> np.ndarray:
        raise UnsupportedDenoiserOpError(f"{self.kind} denoiser has no parameters")


class Denoiser:
    """Base class; subclasses implement denoise() and, if differentiable, linearize().

    denoise(x, out=None) writes D(x) into `out` (float64, x's shape; by
    default a new array, except that the identity returns x itself), which
    may be x itself but must not otherwise overlap x.

    linearize(x) runs the forward once at x and returns a snapshot whose
    vjp_input(v) and grad_params(v) run only the backward pass (like
    jax.vjp). The base serves affine denoisers, which define slope(): their
    Jacobian slope() * I does not depend on x. vjp_input(x, v) and
    grad_params(x, v) are one-shot wrappers over linearize.
    """

    kind = "abstract"

    def denoise(self, x: np.ndarray, out=None) -> np.ndarray:
        raise NotImplementedError

    def linearize(self, x: np.ndarray):
        return AffineLinearization(self.kind, self.slope())

    def vjp_input(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.linearize(x).vjp_input(v)

    def grad_params(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.linearize(x).grad_params(v)

    @staticmethod
    def _check(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ShapeMismatchError(f"expected (H, W, B) cube, got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("denoiser input contains non-finite values")
        return x


class IdentityDenoiser(Denoiser):
    kind = "identity"

    def denoise(self, x, out=None):
        x = self._check(x)
        if out is None or out is x:
            return x
        np.copyto(check_out(out, x.shape), x)
        return out

    def slope(self):
        return 1.0


@dataclass
class ScaleShiftDenoiser(Denoiser):
    """D(x) = a*x + b; useful for analytic fixed-point tests."""

    a: float
    b: float = 0.0
    kind = "scale_shift"

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("scale_shift parameters must be finite")

    def denoise(self, x, out=None):
        x = self._check(x)
        out = np.multiply(self.a, x, out=check_out(out, x.shape))
        out += self.b
        return out

    def slope(self):
        return self.a


_CACHE_LINE = 64  # bytes


def _line_aligned(*sizes: int) -> list:
    """Writable, C-contiguous float64 vectors of the given lengths, cut one
    after another from one block. Each starts on a cache line, and each
    spans a whole number of lines, so no two share memory."""
    per_line = _CACHE_LINE // 8
    spans = [-(-n // per_line) * per_line for n in sizes]
    block = np.empty(sum(spans) + per_line)
    start = -block.ctypes.data % _CACHE_LINE // 8
    bufs = []
    for n, span in zip(sizes, spans):
        bufs.append(block[start:start + n])
        start += span
    return bufs


# Pixels (H * W) a frame must have for tv_denoise to spread its frames over
# threads; smaller frames run serially on the calling thread, because each
# ufunc call hands the interpreter lock over, and that costs more than a
# small frame's parallel work saves. Threaded/serial time of one 30-step
# call, 8 frames, 2-vCPU x86_64 VM, numpy 2.4, medians of 7 to 217 calls:
#   96^2 2.10, 128^2 1.36, 160^2 0.95, 176^2 0.83, 192^2 0.77,
#   224^2 0.63, 256^2 0.69, 384^2 0.55, 512^2 0.54.
# With 2 and 3 frames, 160^2 reads 1.14 and 1.16, 192^2 0.81 and 0.86.
# 2**15 (181^2) keeps 160^2 and below serial.
TV_PARALLEL_PIXELS = 1 << 15


def tv_denoise(x: np.ndarray, lam: float, iters: int, out=None) -> np.ndarray:
    """Anisotropic TV proximal step, approximately argmin_z 1/2||z-x||^2 + lam*TV(z).

    Solved per frame (no temporal coupling) by `iters` steps of projected
    gradient ascent on the box-constrained dual, with step tau = 1/8:
        z = x - grad^T p,   p <- clip(p + tau * grad z, -lam, lam).
    lam = 0 returns a copy of x; iters must be >= 1. The result goes into
    `out` (float64, x's shape; by default a new array), which may be x
    itself: each frame is copied to the working buffer before its output is
    written, so the in-place result is bitwise the out-of-place one.

    Frames are independent, so they run in parallel. Each worker has its
    own working block (5*H*W + W + 1 floats, plus up to 8 per vector for
    alignment) and claims frame indices one at a time from a shared counter
    until none are left, so a worker on a stalled CPU holds up at most one
    frame. The calling thread is one worker, and min(B, CPUs) - 1 more run
    in a pool made for the call and joined before it returns; a worker's
    exception is raised here. Frames smaller than TV_PARALLEL_PIXELS run
    serially on the calling thread (see its crossover table), so B = 1 and
    desk-scale frames start no thread. Beyond `out`, a call holds one block
    per worker, about 2.6 MB each at 256x256. The calling thread allocates
    every block before the pool starts: a block that a pool thread
    allocates stays in that thread's malloc arena once freed, and the next
    call's thread may get another arena, so 20 calls at 256x256x8 on 2
    CPUs held 4.8 MB of RSS beyond the serial call's instead of 2.4 MB.
    Every frame runs the same ufuncs in the same order on its worker's own
    buffers, and workers write disjoint out[:, :, k], so the result is
    bitwise the serial one, in place too.

    Each (H, W) frame runs all its iterations as one block on buffers
    allocated once, so its state stays cache-resident, and every update is
    in place. The frame and both duals are stored flat in row-major order,
    so that every pass is over one contiguous 1-D slice:
      - px holds a leading 0, then H rows of W. Slot W-1 of each row is the
        far-edge slot, where the x-gradient is 0. The gradient pass
        z[1:] - z[:-1] runs across row ends, so the update writes a
        cross-row difference there; that column is reset to 0 after each
        clip, before any read. The x-adjoint is then px[:-1] - px[1:].
      - py holds H+1 rows of W; rows 0 and H stay 0. Its adjoint is
        py[:-W] - py[W:], and its update runs on py[W:H*W].
    Every element sees the same operations in the same order as the step
    above on the whole cube, so the result is bitwise independent of this
    layout and blocking.

    The five working vectors are cut from one block by _line_aligned, so
    each starts on a 64-byte cache line. A fresh np.empty of >= 512 KB
    starts 16 bytes past a line under glibc (the mmap'd chunk has a
    header), and smaller ones land wherever the heap's history puts them,
    so the speed of separate buffers depended on unrelated allocations.
    On a 2-vCPU AVX-512 x86_64 VM (numpy 2.4, one thread), one 256x256x8,
    30-step call took 114 ms (median of 7) with every buffer 16 bytes past
    a line and 94 ms with every buffer on a line; staggering the aligned
    buffers by 64 to 2048 bytes changed nothing beyond the noise.

    The dual update calls the clip ufunc itself rather than np.clip, whose
    Python wrapper holds the interpreter lock between ufunc calls and so
    serializes the workers; the ufunc is the one np.clip runs, so the result
    is bitwise the same. One 256x256x8, 30-step call on 2 vCPUs (one pool
    worker) took 70.6 and 65.1 ms with np.clip against 63.7 and 56.9 ms,
    medians of two sets of 20 interleaved rounds, faster in 19 of 20 each;
    np.maximum plus np.minimum took 61.8 ms against 57.4. Folding tau into
    the duals (q = p / tau, clipped to +-lam / tau, z = x - tau grad^T q)
    would save a multiply per step, but once inputs reach 2^-1018 the
    products are subnormal and round differently from tau * grad z, so the
    folded result is no longer bitwise the step above; both multiplies
    stay.
    """
    if not lam >= 0:
        raise ValueError(f"tv strength must be >= 0, got {lam}")
    if iters < 1:
        raise ValueError(f"tv iterations must be >= 1, got {iters}")
    x = np.asarray(x, dtype=np.float64)
    out = check_out(out, x.shape)
    if lam == 0.0:
        np.copyto(out, x)
        return out
    tau = 0.125  # 1 / ||grad^T grad|| for 2D forward differences; a power of 2
    h, w, b = x.shape
    n = h * w
    frames = iter(range(b))
    claim = threading.Lock()

    def worker(xf, z, g, px, py):
        gx = g[: n - 1]
        gy = g[: n - w]
        pxi = px[1:n]
        edge = px[1:].reshape(h, w)[:, -1:]
        pyi = py[w:n]

        def adjoint(a):  # a = grad^T p
            np.subtract(px[:-1], px[1:], out=a)
            a -= py[w:]
            a += py[:-w]
            return a

        while True:
            with claim:
                k = next(frames, None)
            if k is None:
                return
            xf.reshape(h, w)[...] = x[:, :, k]
            px.fill(0.0)
            py.fill(0.0)
            for _ in range(iters):
                np.subtract(xf, adjoint(z), out=z)
                np.subtract(z[1:], z[:-1], out=gx)
                gx *= tau
                pxi += gx
                _clip(pxi, -lam, lam, out=pxi)
                edge.fill(0.0)
                np.subtract(z[w:], z[:-w], out=gy)
                gy *= tau
                pyi += gy
                _clip(pyi, -lam, lam, out=pyi)
            np.subtract(xf.reshape(h, w), adjoint(z).reshape(h, w), out=out[:, :, k])

    workers = max(1, min(b, _cpu_count())) if n >= TV_PARALLEL_PIXELS else 1
    blocks = [_line_aligned(n, n, n, n + 1, n + w) for _ in range(workers)]
    if workers == 1:
        worker(*blocks[0])
        return out
    # imported here: concurrent.futures loads logging, 0.6 MB of RSS that a
    # process which never runs the pool need not hold
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(worker, *block) for block in blocks[1:]]
        worker(*blocks[0])
    for f in futures:
        f.result()
    return out


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _flat(kernels, biases) -> np.ndarray:
    """kernel 0, bias 0, kernel 1, bias 1, ... raveled into one vector."""
    return np.concatenate([a.ravel() for pair in zip(kernels, biases) for a in pair])


@dataclass
class ConvParams:
    """Weights of a stack of conv layers, with their power-iteration state.

    kernels[l] is (C_out, C_in, kh, kw); biases[l] is (C_out,). The flat
    theta vector is _flat(kernels, biases). sn_u holds one persistent power-
    iteration vector per layer, shaped (sn_h, sn_w, C_in), drawn from sn_seed
    when not given; it is state, not a trainable parameter, and is excluded
    from theta.
    """

    kernels: list
    biases: list
    sn_u: list = field(default_factory=list)
    sn_shape: tuple = (16, 16)
    sn_seed: int = 0

    def __post_init__(self):
        if len(self.kernels) != len(self.biases) or not self.kernels:
            raise ValueError("kernels and biases must be equal-length, nonempty lists")
        if not all(np.isfinite(a).all() for a in self.kernels + self.biases):
            raise ValueError("conv parameters must be finite")
        if not self.sn_u:
            rng = np.random.default_rng(self.sn_seed)
            h, w = self.sn_shape
            self.sn_u = [rng.standard_normal((h, w, k.shape[1])) for k in self.kernels]

    def n_params(self) -> int:
        return sum(a.size for a in self.kernels + self.biases)

    def flatten(self) -> np.ndarray:
        return _flat(self.kernels, self.biases)

    def unflatten(self, theta: np.ndarray) -> None:
        self.kernels, self.biases = _split(theta, [k.shape for k in self.kernels])


def _split(theta: np.ndarray, shapes: list) -> tuple[list, list]:
    """Cut a flat theta into kernels of the given shapes and their biases."""
    theta = np.asarray(theta, dtype=np.float64).ravel()
    n = sum(int(np.prod(s)) + s[0] for s in shapes)
    if theta.size != n:
        raise ShapeMismatchError(f"theta has {theta.size} entries, architecture needs {n}")
    kernels, biases, pos = [], [], 0
    for s in shapes:
        size = int(np.prod(s))
        kernels.append(theta[pos : pos + size].reshape(s).copy())
        biases.append(theta[pos + size : pos + size + s[0]].copy())
        pos += size + s[0]
    return kernels, biases


def spectral_normalize(params: ConvParams, n_iters: int) -> ConvParams:
    """Scale each conv layer so its estimated operator norm is <= 1.

    Runs power iteration on the actual zero-padded conv operator at the
    persistent probe shape, updating sn_u in place, then multiplies the
    kernel by min(1, 1/sigma). Deterministic given sn_u. Not thread-safe
    with respect to a shared params object.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    for i, kernel in enumerate(params.kernels):
        sigma, u = conv_operator_sigma(kernel, params.sn_u[i], n_iters)
        params.sn_u[i] = u
        if sigma > 1.0:
            params.kernels[i] = kernel / sigma
    return params


def _check_cotangent(v: np.ndarray, shape: tuple) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != shape:
        raise ShapeMismatchError(f"cotangent {v.shape} vs input {shape}")
    return v


@dataclass(frozen=True)
class ConvResidualLinearization:
    """A conv_residual or gated_cell denoiser frozen at one input: kernels,
    gamma and the forward activations, read when it was built."""

    kernels: tuple  # (C_out, C_in, k, k) per layer
    gamma: float
    acts: tuple     # input to each layer, (B, H, W, C_in)
    slopes: tuple   # softplus'(preact) = sigmoid(preact) per hidden layer
    head: np.ndarray | None  # dr/dt of the head, (B, H, W, C_out); None for the identity
    shape: tuple    # (H, W, B) of the input cube

    def _cotangent_grid(self, v: np.ndarray) -> Grid:
        """The cotangent of the last layer's output on a grid: v under the
        identity head, v times each channel's dr/dt under another."""
        h, w, nb = self.shape
        c = self.kernels[-1].shape[0]
        g = Grid.zeros(nb, h, w, c, max(max(k.shape[2:]) // 2 for k in self.kernels))
        v = v.transpose(2, 0, 1)[..., None]
        if self.head is None:
            g.view()[...] = v
        else:
            np.multiply(v, self.head, out=g.view())
        return g

    def _adjoint(self, l: int, g: Grid) -> Grid:
        """From the cotangent of layer l's output on g, that of its input (for
        l > 0, of the previous layer's preactivation) on a new grid."""
        k = self.kernels[l]
        t = conv_adjoint_input(g, k, out=Grid.zeros(g.frames, g.height, g.width, k.shape[1], g.pad))
        if l > 0:
            view = t.view()
            view *= self.slopes[l - 1]
            t.clear_border()
        return t

    def vjp_input(self, v: np.ndarray) -> np.ndarray:
        v = _check_cotangent(v, self.shape)
        g = self._cotangent_grid(v)
        for l in range(len(self.kernels) - 1, -1, -1):
            g = self._adjoint(l, g)
        return v + self.gamma * g.view()[..., 0].transpose(1, 2, 0)

    def grad_params(self, v: np.ndarray) -> np.ndarray:
        v = _check_cotangent(v, self.shape)
        n = len(self.kernels)
        grads_k = [None] * n
        grads_b = [None] * n
        g = self._cotangent_grid(v)
        for l in range(n - 1, -1, -1):
            k, w = self.kernels[l], g.view()
            grads_k[l] = conv_grad_kernel(self.acts[l], w, k.shape[2], k.shape[3])
            grads_b[l] = conv_grad_bias(w)
            if l > 0:
                g = self._adjoint(l, g)
        return self.gamma * _flat(grads_k, grads_b)


# Elements (float64) of the widest activation one tile may hold: 512 KiB, so
# that a tile's few activations and conv temporaries stay within a per-core
# L2 cache of a few MiB. At 256x256x8 with 8 channels, 2**15 to 2**17 time
# alike; 2**14 pays more per-call overhead, and 2**18 and up fall out of cache.
TILE_ELEMS = 1 << 16


def _tiles(nb: int, h: int, row_elems: int):
    """(f0, f1, r0, r1) per tile of an (nb, h)-row stack, in order.

    A frame's widest activation holds h * row_elems elements. When it fits
    TILE_ELEMS, tiles are blocks of as many whole frames as fit, so an input
    that fits runs as one tile. Otherwise each frame is cut into blocks of
    TILE_ELEMS // row_elems rows (at least one); the last may be shorter.
    Row blocks are the outer loop: the tiles of one block of rows, one per
    frame, run back to back, so the rows of the (H, W, B) cube that they
    load and write (all B frames share each cache line) stay in cache. At
    256x256x8 that made one denoise ~9% faster than frame-major order.
    """
    rows = min(h, max(1, TILE_ELEMS // row_elems))
    frames = max(1, TILE_ELEMS // (h * row_elems)) if rows == h else 1
    for r0 in range(0, h, rows):
        for f0 in range(0, nb, frames):
            yield f0, min(nb, f0 + frames), r0, min(h, r0 + rows)


@dataclass
class ConvResidualDenoiser(Denoiser):
    """D(x) = x + gamma * r(x); params holds r's layers, 1 -> ... -> 1 channels.

    r is the conv stack, then a head: here the identity. GatedConvCell
    overrides _head and runs the same tile loop and VJPs.
    """

    params: ConvParams
    gamma: float
    kind = "conv_residual"

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        kernels = self.params.kernels
        if kernels[0].shape[1] != 1 or kernels[-1].shape[0] != 1:
            raise ValueError("residual stack must map 1 channel -> 1 channel")
        for a, b in zip(kernels[:-1], kernels[1:]):
            if a.shape[0] != b.shape[1]:
                raise ValueError("channel chain mismatch between consecutive layers")

    def _head(self, t: np.ndarray, jac: np.ndarray | None) -> np.ndarray:
        """(F, rows, W) r from one tile's (F, rows, W, C) last-layer output t.
        A head over C > 1 channels writes dr/dt into jac when given."""
        return t[..., 0]

    def _forward(self, x: np.ndarray, keep: bool, out: np.ndarray):
        """x + gamma * r(x) through the conv stack, one tile at a time (see _tiles).

        The module docstring describes the tile loop and why it is exact.
        The result goes into `out`, which may be x.
        Returns (out, acts, slopes, head). With keep=True, acts holds the
        input to each layer, slopes softplus' of each hidden preactivation,
        and head, for a head over more than one channel, its dr/dt, as
        full-size (B, H, W, C) arrays for ConvResidualLinearization;
        otherwise all three are None.
        """
        kernels, biases = self.params.kernels, self.params.biases
        h, w, nb = x.shape
        chans = [1] + [k.shape[0] for k in kernels]
        acts = slopes = head = None
        if keep:
            acts = [np.ascontiguousarray(x.transpose(2, 0, 1))[..., None]]
            acts += [np.empty((nb, h, w, c)) for c in chans[1:-1]]
            slopes = [np.empty_like(a) for a in acts[1:]]
            if chans[-1] > 1:
                head = np.empty((nb, h, w, chans[-1]))
        if x.size == 0:  # no rows to tile
            return out, acts, slopes, head
        halo = [0]  # halo[l]: rows each side of a tile that layer l's input needs
        for k in kernels[::-1]:
            halo.insert(0, halo[0] + k.shape[2] // 2)
        pad = max(max(k.shape[2:]) // 2 for k in kernels)
        tiles = list(_tiles(nb, h, w * max(chans[1:])))
        frames = tiles[0][1] - tiles[0][0]
        height = max(min(h, r1 + halo[0]) - max(0, r0 - halo[0]) for _, _, r0, r1 in tiles)
        grids = [Grid.zeros(frames, height, w, c, pad) for c in chans]
        # out may be x: a row block overwrites input rows that the frame's
        # next block reads as its upper halo, so carry[f] keeps them as loaded
        carry = np.empty((nb, halo[0], w))
        last = len(kernels) - 1
        for f0, f1, r0, r1 in tiles:
            top = max(0, r0 - halo[0])  # the frame row at the grids' row 0
            gs = grids if f1 - f0 == frames else [replace(g, frames=f1 - f0) for g in grids]
            if r1 + halo[0] >= h:  # the zero rows below the frame may hold an earlier tile's rows
                for g in gs:
                    g.rows(h - top, h - top + pad).view()[...] = 0.0
            t = gs[0].rows(0, min(h, r1 + halo[0]) - top)
            rows_in = t.view()[..., 0]
            rows_in[:, : r0 - top] = carry[f0:f1, : r0 - top]
            rows_in[:, r0 - top :] = x[r0 : top + t.hi, :, f0:f1].transpose(2, 0, 1)
            above = max(0, r1 - halo[0])  # the next block's first row
            carry[f0:f1, : r1 - above] = rows_in[:, above - top : r1 - top]
            own = (r0 - top, r1 - top)
            for l, (k, bias) in enumerate(zip(kernels, biases)):
                lo, hi = max(0, r0 - halo[l + 1]) - top, min(h, r1 + halo[l + 1]) - top
                t = conv_forward(t.rows(lo, hi), k, bias, out=gs[l + 1])
                if l == last:
                    break
                if keep:
                    sigmoid(t.rows(*own).view(), out=slopes[l][f0:f1, r0:r1])
                z = t.region()
                softplus(z, out=z)
                t.clear_border()
                if keep:
                    acts[l + 1][f0:f1, r0:r1] = t.rows(*own).view()
            r = self._head(t.rows(*own).view(), None if head is None else head[f0:f1, r0:r1])
            np.add(x[r0:r1, :, f0:f1], self.gamma * r.transpose(1, 2, 0), out=out[r0:r1, :, f0:f1])
        return out, acts, slopes, head

    def denoise(self, x, out=None):
        x = self._check(x)
        if out is not None and out is not x and np.may_share_memory(out, x):
            raise ValueError("out must be x itself or not overlap it")
        return self._forward(x, keep=False, out=check_out(out, x.shape))[0]

    def linearize(self, x):
        x = self._check(x)
        _, acts, slopes, head = self._forward(x, keep=True, out=np.empty(x.shape))
        return ConvResidualLinearization(
            kernels=tuple(self.params.kernels),
            gamma=self.gamma,
            acts=tuple(acts),
            slopes=tuple(slopes),
            head=head,
            shape=x.shape,
        )

    def spectral_normalize(self, n_iters: int) -> None:
        spectral_normalize(self.params, n_iters)


def _blur_minus_delta(k: int = 3) -> np.ndarray:
    f = np.full((k, k), 1.0 / (k * k))
    f[k // 2, k // 2] -= 1.0
    return f


def make_conv_residual(
    seed: int,
    channels: int = 8,
    n_layers: int = 3,
    kernel: int = 3,
    gamma: float = 0.1,
    init: str = "smooth",
    noise_scale: float = 0.02,
    sn_shape: tuple = (16, 16),
) -> ConvResidualDenoiser:
    """Build a conv_residual denoiser.

    init="smooth" wires antisymmetric channel pairs so the stack starts out
    as an exact local-smoothing filter (softplus(u) - softplus(-u) == u),
    which keeps the residual contractive from the first iteration; a small
    seeded perturbation breaks the symmetry so every parameter matters.
    init="zero" gives the exact identity denoiser; init="random" is plain
    scaled Gaussian init.
    """
    if init == "smooth" and (channels % 2 or n_layers < 2):
        raise ValueError("smooth init needs even channels and >= 2 layers")
    rng = np.random.default_rng(seed)
    shapes = []
    chain = [1] + [channels] * (n_layers - 1) + [1]
    for l in range(n_layers):
        shapes.append((chain[l + 1], chain[l], kernel, kernel))
    kernels = [np.zeros(s) for s in shapes]
    biases = [np.zeros(s[0]) for s in shapes]

    if init == "random":
        for i, s in enumerate(shapes):
            kernels[i] = rng.standard_normal(s) * noise_scale
    elif init == "smooth":
        c = kernel // 2
        base = [_blur_minus_delta(kernel)]
        shift_x = np.zeros((kernel, kernel))
        shift_x[c, c + 1 if kernel > 1 else c] = 0.5
        shift_x[c, c] -= 0.5
        shift_y = np.zeros((kernel, kernel))
        shift_y[c + 1 if kernel > 1 else c, c] = 0.5
        shift_y[c, c] -= 0.5
        base += [shift_x, shift_y]
        npairs = channels // 2
        filters = [base[i % len(base)] for i in range(npairs)]
        # layer 0: +/- filter pairs
        for i, f in enumerate(filters):
            kernels[0][2 * i, 0] = f
            kernels[0][2 * i + 1, 0] = -f
        # middle layers: pair-preserving antisymmetric pass-through
        for l in range(1, n_layers - 1):
            for i in range(npairs):
                kernels[l][2 * i, 2 * i, c, c] = 1.0
                kernels[l][2 * i, 2 * i + 1, c, c] = -1.0
                kernels[l][2 * i + 1, 2 * i, c, c] = -1.0
                kernels[l][2 * i + 1, 2 * i + 1, c, c] = 1.0
        # last layer: antisymmetric combine, weighted toward the blur pair
        weights = [1.0] + [0.3] * (npairs - 1)
        for i, wgt in enumerate(weights):
            kernels[-1][0, 2 * i, c, c] = wgt
            kernels[-1][0, 2 * i + 1, c, c] = -wgt
        for i in range(n_layers):
            kernels[i] = kernels[i] + rng.standard_normal(shapes[i]) * noise_scale
    elif init != "zero":
        raise ValueError(f"unknown init {init!r}")

    params = ConvParams(kernels=kernels, biases=biases, sn_shape=sn_shape, sn_seed=seed)
    return ConvResidualDenoiser(params, gamma)


@dataclass
class GatedConvCell(ConvResidualDenoiser):
    """D(u) = u + gamma * gate * cand, the DE-RNN denoiser, per frame:

    hidden       = softplus(conv(u))      1 -> C channels
    (a, b)       = conv(hidden)           C -> 2
    gate * cand  = sigmoid(a) * tanh(b)   the head

    params holds two layers: the input layer, then the gate (output channel
    0) and candidate (channel 1) layers fused into one, since both read the
    hidden state; the layer check refuses the earlier three-layer layout.
    It runs the conv_residual tile loop and VJPs with this head in place of
    the identity. Spectral normalization bounds the fused layer as one
    operator, not the gate and candidate apart. Since |gate * cand| < 1, D
    moves no pixel by gamma or more. With all-zero parameters the candidate
    vanishes and D is exactly the identity.
    """

    gamma: float = 0.1
    kind = "gated_cell"

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        ch = [k.shape[:2] for k in self.params.kernels]  # (C_out, C_in) per layer
        if len(ch) != 2 or ch[0][1] != 1 or ch[1] != (2, ch[0][0]):
            raise ValueError("cell layers must map 1 -> C channels, then C -> 2")

    def _head(self, t, jac):
        g = sigmoid(t[..., 0])
        c = np.tanh(t[..., 1])
        if jac is not None:
            np.multiply(c * g, 1.0 - g, out=jac[..., 0])
            np.multiply(g, 1.0 - c * c, out=jac[..., 1])
        return g * c


def make_gated_cell(
    seed: int, channels: int = 8, kernel: int = 3, gamma: float = 0.1,
    init_scale: float = 0.0, sn_shape: tuple = (16, 16),
) -> GatedConvCell:
    """Build a gated cell; init_scale 0 gives the exact identity denoiser.
    Draws input, gate, candidate (each kernel, then bias), then stacks gate
    over candidate."""
    rng = np.random.default_rng(seed)

    def w(shape):
        if init_scale == 0.0:
            return np.zeros(shape)
        return rng.standard_normal(shape) * init_scale

    shapes = [(channels, 1, kernel, kernel), (1, channels, kernel, kernel),
              (1, channels, kernel, kernel)]
    (k_in, b_in), (k_g, b_g), (k_c, b_c) = [(w(s), w(s[:1])) for s in shapes]
    params = ConvParams([k_in, np.concatenate([k_g, k_c])], [b_in, np.concatenate([b_g, b_c])],
                        sn_shape=sn_shape, sn_seed=seed)
    return GatedConvCell(params, gamma)


def save_denoiser(prefix: str, d) -> None:
    """Write <prefix>.vsci (flat theta) and <prefix>.meta for a denoiser that
    holds a ConvParams at .params: its kind and gamma, every kernel's shape,
    and the power-iteration probe shape and seed."""
    p = d.params
    tensorio.write_tensor(prefix + ".vsci", p.flatten())
    meta = {
        "kind": d.kind,
        "gamma": repr(d.gamma),
        "kernels": " ".join("x".join(str(n) for n in k.shape) for k in p.kernels),
        "sn_h": p.sn_shape[0],
        "sn_w": p.sn_shape[1],
        "sn_seed": p.sn_seed,
    }
    tensorio.write_kv(prefix + ".meta", meta)


def load_denoiser(prefix: str, *classes):
    """Rebuild a denoiser written by save_denoiser, as the one of `classes`
    whose kind the checkpoint names.

    A missing or malformed key, a kind none of `classes` has, a theta that
    does not fit the kernel shapes or is not finite, or layers or a gamma
    the class rejects raises ConfigError.
    """
    meta = tensorio.read_kv(prefix + ".meta")
    theta = tensorio.read_tensor(prefix + ".vsci")
    by_kind = {c.kind: c for c in classes}
    try:
        if meta["kind"] not in by_kind:
            raise ValueError(f"a {meta['kind']} checkpoint, not {' or '.join(by_kind)}")
        shapes = [tuple(int(n) for n in s.split("x")) for s in meta["kernels"].split()]
        sn_shape = (int(meta["sn_h"]), int(meta["sn_w"]))
        if not shapes or min(sn_shape) < 1 or any(len(s) != 4 or min(s) < 1 for s in shapes):
            raise ValueError("kernels must be 4-d shapes and sn_h/sn_w sizes, all positive")
        kernels, biases = _split(theta, shapes)
        params = ConvParams(kernels, biases, sn_shape=sn_shape, sn_seed=int(meta["sn_seed"]))
        return by_kind[meta["kind"]](params, float(meta["gamma"]))
    except KeyError as exc:
        raise ConfigError(f"{prefix}.meta: missing key {exc}") from None
    except (ValueError, ShapeMismatchError) as exc:
        raise ConfigError(f"{prefix}: {exc}") from None
