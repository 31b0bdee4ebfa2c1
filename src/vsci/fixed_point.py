"""One fixed-point engine: Anderson acceleration, with Picard as its memory-1 case.

The engine is shape-agnostic (any float ndarray) so it drives the
reconstruction iteration of every method (the DE-GAP map, which DE-RNN
shares with its own denoiser, and the PnP-GAP baseline) and
the adjoint (backward) iteration. Stopping rule:
relative residual ||f(x_k) - x_k|| / (||x_k|| + 1e-12) <= tol; the returned
x_hat is always the point whose residual was measured, so a converged result
verifiably satisfies the tolerance.

Divergence guard: non-finite map output, or residual growth beyond 1e6x the
best residual seen, raises DivergedError carrying the partial trace.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedError, ShapeMismatchError, SingularAlphaError
from .metrics import psnr

_EPS = 1e-12
_GROWTH_LIMIT = 1e6
# Floats per block of the memory-1 residual f(x) - x. One 256x256x8 residual
# norm took 1.2 ms formed as one cube and 0.74 ms in 2^13-float blocks
# (2^10: 2.7 ms, 2^16: 0.77 ms; 2-vCPU x86_64 VM, numpy 2.4, one BLAS thread).
RESIDUAL_BLOCK = 1 << 13


@dataclass
class FixedPointConfig:
    tol: float = 1e-6
    max_iter: int = 150
    anderson_memory: int = 3
    anderson_damping: float = 1.0
    anderson_reg: float = 1e-8
    record_trace: bool = True

    def __post_init__(self):
        if not self.tol >= 0:  # also rejects NaN
            raise ValueError("tol must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.anderson_memory < 1:
            raise ValueError("anderson_memory must be >= 1")
        if not 0.0 < self.anderson_damping <= 1.0:
            raise ValueError("anderson_damping must be in (0, 1]")
        if not self.anderson_reg >= 0:
            raise ValueError("anderson_reg must be >= 0")


@dataclass
class IterationTrace:
    residuals: list = field(default_factory=list)
    rel_residuals: list = field(default_factory=list)
    times: list = field(default_factory=list)  # seconds per iteration
    psnrs: list = field(default_factory=list)  # empty when no reference given
    alpha_errors: list = field(default_factory=list)  # anderson |1^T alpha - 1|
    fallbacks: list = field(default_factory=list)  # anderson picard-fallback flags

    def __len__(self):
        return len(self.residuals)

    def append(self, residual, rel_residual, dt, psnr_val=None):
        self.residuals.append(residual)
        self.rel_residuals.append(rel_residual)
        self.times.append(dt)
        if psnr_val is not None:
            self.psnrs.append(psnr_val)

    def to_csv(self, path: str) -> None:
        """Columns iter,residual,rel_residual,psnr,time_ms (psnr may be empty)."""
        lines = ["iter,residual,rel_residual,psnr,time_ms"]
        for i in range(len(self.residuals)):
            p = f"{self.psnrs[i]:.17g}" if i < len(self.psnrs) else ""
            lines.append(
                f"{i + 1},{self.residuals[i]:.17g},{self.rel_residuals[i]:.17g},"
                f"{p},{self.times[i] * 1e3:.6f}"
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


@dataclass
class SolveResult:
    x_hat: np.ndarray
    converged: bool
    iterations: int
    trace: IterationTrace


def _check_shape(fx, shape, k):
    if fx.shape != shape:
        raise ShapeMismatchError(
            f"map returned shape {fx.shape} for an iterate of shape {shape} at iteration {k}"
        )


def _residual_norm(fx, x, buf):
    """(||fx - x||, ||x||), summed buf.size entries at a time: the difference
    is formed in buf, and neither fx nor x is written."""
    a, b = fx.reshape(-1), x.reshape(-1)
    step = buf.size
    dd = xx = 0.0
    for i in range(0, a.size, step):
        xb = b[i:i + step]
        d = np.subtract(a[i:i + step], xb, out=buf[: xb.size])
        dd += d.dot(d)
        xx += xb.dot(xb)
    return math.sqrt(dd), math.sqrt(xx)


def _residual_in_place(fx, x, delta, buf):
    """x <- fx - x, and when damped fx <- delta fx + (1 - delta) x (the old
    x), block by block in buf with the whole-array step's arithmetic."""
    a, b = fx.reshape(-1), x.reshape(-1)
    if delta == 1.0:
        np.subtract(a, b, out=b)
        return
    step = buf.size
    for i in range(0, a.size, step):
        ab, xb = a[i:i + step], b[i:i + step]
        scaled = np.multiply(xb, 1.0 - delta, out=buf[: xb.size])
        np.subtract(ab, xb, out=xb)
        ab *= delta
        ab += scaled


def _check_finite(fx, trace, k):
    if not np.isfinite(fx).all():
        raise DivergedError(
            f"map produced non-finite values at iteration {k}", trace=trace, iterations=k
        )


def _check_growth(res, best, trace, k):
    if best > 0 and res > _GROWTH_LIMIT * best:
        raise DivergedError(
            f"residual grew {_GROWTH_LIMIT:.0e}x past its minimum at iteration {k}",
            trace=trace,
            iterations=k,
        )


def solve_alpha(gram: np.ndarray, reg: float) -> np.ndarray:
    """Mixing weights minimizing ||A alpha||^2 subject to sum(alpha) = 1.

    Takes the m x m Gram matrix G = A^T A of the m residual columns A and
    solves the regularized normal equations
        (G + reg * tr(G)/m * I) w = 1,   alpha = w / sum(w).
    Entries may be negative; no sign constraint is imposed.
    """
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.shape[0] < 1:
        raise ValueError(f"Gram matrix must be square 2D with m >= 1, got {gram.shape}")
    m = gram.shape[0]
    lam = reg * float(np.trace(gram)) / m
    try:
        w = np.linalg.solve(gram + lam * np.eye(m), np.ones(m))
    except np.linalg.LinAlgError as exc:
        raise SingularAlphaError(str(exc)) from exc
    ssum = float(w.sum())
    if not np.isfinite(ssum) or ssum == 0.0 or not np.isfinite(w).all():
        raise SingularAlphaError("mixing system produced a non-normalizable solution")
    return w / ssum


def anderson_solve(f, x0: np.ndarray, cfg: FixedPointConfig, psnr_ref=None) -> SolveResult:
    """Anderson-accelerated fixed-point iteration; Picard is its memory-1,
    undamped case.

    Mixes the last m = `anderson_memory` iterates x_i and their images
    f(x_i) with solve_alpha weights:
        x_{k+1} = (1 - delta) sum_i alpha_i x_i + delta sum_i alpha_i f(x_i).
    With memory 1, alpha is exactly [1], so the step is computed directly as
    damped Picard, (1 - delta) x + delta f(x), with no mixing solve and no
    history; undamped (delta = 1) the next iterate is f(x) itself. A
    singular mixing system falls back to that damped Picard step for one
    iteration (recorded in trace.fallbacks).

    Ring layout (memory m >= 2): two preallocated (m, N) buffers, N =
    x.size; iteration k uses slot j = (k - 1) mod m. The iterate x lives in
    G[j], the row its residual overwrites: x0 is copied into G[0] and each
    mix is written into the next slot, G[k mod m], whose old column the
    Gram matrix already holds and whose Gram entries are recomputed before
    they are read again. After the convergence and growth checks, x turns
    into the residual column G[j] = f(x) - x in place and Y[j] into the
    damped image (1 - delta) x + delta f(x). A persistent m x m Gram
    matrix of G gets its row and column j from one G @ G[j] product, and
    the next iterate is the single product alpha @ Y, which is the mix
    above (a singular mix copies Y[j] there instead). Memory 1 keeps no
    ring: x and one partner buffer take turns as the iterate.

    The map is called as f(x, out), with out shaped like x and dead: Y[j],
    whose old column left the mix that made x, or memory 1's partner. f may
    write f(x) there and return it, or return a new array, which the engine
    then copies into out. ||f(x) - x|| and ||x|| are summed over
    RESIDUAL_BLOCK-float pieces, the difference formed in one small buffer,
    without writing f(x) or x. Damping turns out into the damped image in
    place, as delta f(x) + (1 - delta) x; memory m >= 2 does this block by
    block beside G[j]'s difference, with the same per-entry arithmetic.
    f(x) is scanned for non-finite values only when the residual norm is
    not finite, as it is whenever f(x) holds a NaN or an infinity.

    Memory contract: at every memory a solve holds 2m iterate-sized
    buffers (x and its partner, or the two rings with x in G), one
    RESIDUAL_BLOCK-float buffer and the m x m Gram matrix, all allocated
    before the first iteration. The engine copies x0 and drops its
    reference, so an x0 passed inline (as every caller passes
    adjoint(mask, y)) is freed before f first runs. With an f that
    fills out, an iteration allocates no array of the iterate's size: the
    trace's PSNR works in one block of at most metrics.PSNR_BLOCK floats,
    and only the trace grows, by a few scalars per iteration. On return
    the Y ring is freed before x_hat is copied out of G, so the 2m buffers
    are never exceeded, and a returned solve leaves only x_hat and the
    trace. The tests measure all of this with tracemalloc, at 20 and 200
    iterations, and check that the peak of a training gradient (forward and
    backward solves) grows by less than one iterate.

    No aliasing: f must not keep its input, nor the out it filled, past the
    call, since the engine overwrites both in later iterations. The engine
    never writes into an array f returned in place of out, and x_hat is
    never a view of a ring. Every map in this package writes only its
    result.

    Tolerance (memory >= 2): the columns sit in ring order rather than by
    age and the mix is one reassociated sum, so results agree with an Anderson
    loop that rebuilds its history each step to rounding, not bitwise: over
    40 wrapping iterations the tests hold residuals and x_hat to relative
    1e-10 (with a floor of 1e-12 of the first residual, once residuals reach
    the rounding level). Rounding grows with the map's sensitivity: on
    256x256x8 DE-GAP with K=20 x_hat moves by up to 1.5e-8 (max |x| = 2.1).
    Memory 1's iterates are bitwise the damped Picard loop's. At every
    memory the iterates do not depend on the blocked norms, which equal the
    whole-array np.linalg.norm while x has at most RESIDUAL_BLOCK entries;
    beyond that they sum the blocks in another order, so trace.residuals
    and trace.rel_residuals move by rounding (up to 7.2e-15 relative on
    256x256x8 DE-GAP with K=20). Undamped, every memory takes f(x) itself
    where the formula computes 0 * x + 1 * f(x): values are equal, and only
    a -0.0 in f(x) keeps its sign where the formula gives +0.0.

    f is called exactly once per iteration, in order, on the iterate whose
    residual it measures; stateful step closures (the PnP baselines) rely
    on this. A map output whose shape differs from the iterate's raises
    ShapeMismatchError.
    """
    trace = IterationTrace()
    s = cfg.anderson_memory
    delta = cfg.anderson_damping
    x0 = np.asarray(x0, dtype=np.float64)
    shape, n = x0.shape, x0.size
    if s == 1:
        x = x0.copy()
    else:
        g_ring = np.empty((s, n))
        x = g_ring[0].reshape(shape)
        np.copyto(x, x0)
    del x0  # the caller's inline estimate is freed here, before the rest is allocated
    if s == 1:
        partner = np.empty(shape)
    else:
        y_ring, gram = np.empty((s, n)), np.zeros((s, s))
    buf = np.empty(max(1, min(n, RESIDUAL_BLOCK)))
    best = np.inf
    converged = False
    for k in range(1, cfg.max_iter + 1):
        if s == 1:
            out = partner
        else:
            j, m = (k - 1) % s, min(k, s)
            out = y_ring[j].reshape(shape)
        t0 = time.perf_counter()
        fx = f(x, out)
        dt = time.perf_counter() - t0
        _check_shape(fx, shape, k)
        if fx is not out:
            np.copyto(out, fx)
        del fx
        res, x_norm = _residual_norm(out, x, buf)
        if not math.isfinite(res):
            _check_finite(out, trace, k)
        p = None
        if cfg.record_trace and psnr_ref is not None:
            p = psnr(out, psnr_ref)[1]
        rel = res / (x_norm + _EPS)
        if cfg.record_trace:
            trace.append(res, rel, dt, p)
        if rel <= cfg.tol:
            converged = True
            break
        _check_growth(res, best, trace, k)
        best = min(best, res)
        if s == 1:  # alpha is exactly [1]: the mix is the damped Picard step
            if delta != 1.0:  # out = (1 - delta) x + delta f(x); x is dead after
                out *= delta
                x *= 1.0 - delta
                out += x
            if cfg.record_trace:
                trace.alpha_errors.append(0.0)
                trace.fallbacks.append(False)
            x, partner = out, x
            continue
        _residual_in_place(out, x, delta, buf)  # x is G[j] = f(x) - x from here
        gram[j, :m] = gram[:m, j] = g_ring[:m] @ g_ring[j]
        x = g_ring[k % s].reshape(shape)
        try:
            alpha = solve_alpha(gram[:m, :m], cfg.anderson_reg)
            if cfg.record_trace:
                trace.alpha_errors.append(abs(float(alpha.sum()) - 1.0))
                trace.fallbacks.append(False)
            np.matmul(alpha, y_ring[:m], out=g_ring[k % s])
        except SingularAlphaError:
            if cfg.record_trace:
                trace.alpha_errors.append(0.0)
                trace.fallbacks.append(True)
            np.copyto(x, out)
    if s > 1:  # free Y before copying x out of G, so x_hat is no ring view
        del out, y_ring
        x = x.copy()
    return SolveResult(x_hat=x, converged=converged, iterations=k, trace=trace)


# the name the CLI calls, and the tests and the benchmark's tracer look up
solve = anderson_solve
