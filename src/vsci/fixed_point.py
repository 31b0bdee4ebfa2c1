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
from dataclasses import dataclass, field, replace

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
    """||fx - x||, with the difference formed buf.size entries at a time in buf."""
    a, b = fx.reshape(-1), x.reshape(-1)
    step = buf.size
    total = 0.0
    for i in range(0, a.size, step):
        d = np.subtract(a[i:i + step], b[i:i + step], out=buf[: min(step, a.size - i)])
        total += d.dot(d)
    return math.sqrt(total)


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


def anderson_solve(f, x0: np.ndarray, cfg: FixedPointConfig, method: str = "anderson",
                   psnr_ref=None) -> SolveResult:
    """Anderson-accelerated fixed-point iteration; method "picard" is its
    memory-1, undamped case.

    Mixes the last m = `anderson_memory` iterates x_i and their images
    f(x_i) with solve_alpha weights:
        x_{k+1} = (1 - delta) sum_i alpha_i x_i + delta sum_i alpha_i f(x_i).
    With memory 1, alpha is exactly [1], so the step is computed directly as
    damped Picard, (1 - delta) x + delta f(x), with no mixing solve and no
    history; undamped (delta = 1) the next iterate is f(x) itself. A
    singular mixing system falls back to that damped Picard step for one
    iteration (recorded in trace.fallbacks).

    Ring layout (memory m >= 2): iteration k writes ring slot
    j = (k - 1) mod m of two preallocated (m, N) buffers, N = x.size:
    G[j] = f(x) - x, the residual column, and Y[j] = (1 - delta) x +
    delta f(x), the damped image. A persistent m x m Gram matrix of G gets
    its row and column j from one G @ G[j] product, and the next iterate is
    the single product alpha @ Y, which is the mix above.

    Memory 1 keeps no ring: x and one partner buffer take turns as the
    iterate, and its residual norm sums RESIDUAL_BLOCK-float pieces of
    f(x) - x formed in one small buffer.

    The map is called as f(x, out), with out shaped like x and dead: Y[j],
    whose old column left the mix that made x, or memory 1's partner. f may
    write f(x) there and return it, or return a new array, which the engine
    then copies into out. Damping turns out into the damped image in place,
    as delta f(x) + (1 - delta) x, scaling x in place too: after the
    convergence and growth checks, x is dead until the mix, which np.matmul
    writes into x (a fallback copies Y[j] there), or until memory 1 swaps
    the two buffers. f(x) is scanned for non-finite values only when the
    residual norm is not finite, as it is whenever f(x) holds a NaN or an
    infinity.

    Memory contract: a solve holds the iterate x plus, for memory 1, one
    partner buffer and a RESIDUAL_BLOCK-float buffer, and for memory m >= 2
    the two (m, N) rings and the m x m Gram matrix, all allocated before
    the first iteration. The engine copies x0 and drops its reference, so
    an x0 passed inline (as every caller passes init_estimate(mask, y)) is
    freed before f first runs. With an f that fills out, an iteration
    allocates no array of the iterate's size, at any memory: the trace's
    PSNR works in one block of at most metrics.PSNR_BLOCK floats. No array
    grows with the iteration count; the trace adds a few scalars per
    iteration. The tests measure this with tracemalloc at 20 and 200
    iterations: a solve's peak stays under a fixed multiple of the
    iterate's bytes, what is live when f is called stays under 2m + 1
    iterates, or two and the residual buffer for memory 1 (and over the
    whole iteration, with an f that fills out, beside one PSNR block), an
    inline x0 is gone when f runs, and the peak of a training gradient
    (forward and backward solves) grows by less than one iterate.

    No aliasing: f must not keep its input, nor the out it filled, past the
    call, since the engine overwrites both in later iterations. The engine
    never writes into an array f returned in place of out, and x_hat is
    never a view of the ring. Every map in this package writes only its
    result.

    Tolerance (memory >= 2): the columns sit in ring order rather than by
    age and the mix is one reassociated sum, so results agree with an Anderson
    loop that rebuilds its history each step to rounding, not bitwise: over
    40 wrapping iterations the tests hold residuals and x_hat to relative
    1e-10 (with a floor of 1e-12 of the first residual, once residuals reach
    the rounding level). Rounding grows with the map's sensitivity: on
    256x256x8 DE-GAP with K=20 x_hat moves by up to 1.5e-8 (max |x| = 2.1).
    Memory 1's iterates are bitwise the damped Picard loop's; its residual
    norms are too while x has at most RESIDUAL_BLOCK entries, and beyond
    that they sum the blocks in another order, which moves them by
    rounding. Undamped, every memory takes f(x) itself where the formula
    computes 0 * x + 1 * f(x): values are equal, and only a -0.0 in f(x)
    keeps its sign where the formula gives +0.0.

    f is called exactly once per iteration, in order, on the iterate whose
    residual it measures; stateful step closures (the PnP baselines) rely
    on this. A map output whose shape differs from the iterate's raises
    ShapeMismatchError.
    """
    if method == "picard":
        cfg = replace(cfg, anderson_memory=1, anderson_damping=1.0)
    elif method != "anderson":
        raise ValueError(f"unknown solver {method!r}")
    trace = IterationTrace()
    s = cfg.anderson_memory
    delta = cfg.anderson_damping
    x = np.array(x0, dtype=np.float64, order="C")
    del x0  # the caller's inline estimate is freed here
    shape = x.shape
    if s == 1:
        partner = np.empty_like(x)
        diff = np.empty(max(1, min(x.size, RESIDUAL_BLOCK)))
    else:
        g_ring = np.empty((s, x.size))
        y_ring = np.empty((s, x.size))
        gram = np.zeros((s, s))
    best = np.inf
    for k in range(1, cfg.max_iter + 1):
        if s == 1:
            out = partner
        else:
            j, m = (k - 1) % s, min(k, s)
            g = g_ring[j]
            out = y_ring[j].reshape(shape)
        t0 = time.perf_counter()
        fx = f(x, out)
        dt = time.perf_counter() - t0
        _check_shape(fx, shape, k)
        if fx is not out:
            np.copyto(out, fx)
        del fx
        if s == 1:
            res = _residual_norm(out, x, diff)
        else:
            np.subtract(out, x, out=g.reshape(shape))
            res = math.sqrt(g.dot(g))
        if not math.isfinite(res):
            _check_finite(out, trace, k)
        p = None
        if cfg.record_trace and psnr_ref is not None:
            p = psnr(out, psnr_ref)[1]
        rel = res / (float(np.linalg.norm(x)) + _EPS)
        if cfg.record_trace:
            trace.append(res, rel, dt, p)
        if rel <= cfg.tol:
            return SolveResult(x_hat=x, converged=True, iterations=k, trace=trace)
        _check_growth(res, best, trace, k)
        best = min(best, res)
        if delta != 1.0:  # out = (1 - delta) x + delta f(x); x is dead until the mix
            out *= delta
            x *= 1.0 - delta
            out += x
        if s == 1:  # alpha is exactly [1]: the mix is the damped Picard step
            if cfg.record_trace:
                trace.alpha_errors.append(0.0)
                trace.fallbacks.append(False)
            x, partner = out, x
            continue
        gram[j, :m] = gram[:m, j] = g_ring[:m] @ g
        try:
            alpha = solve_alpha(gram[:m, :m], cfg.anderson_reg)
            if cfg.record_trace:
                trace.alpha_errors.append(abs(float(alpha.sum()) - 1.0))
                trace.fallbacks.append(False)
            np.matmul(alpha, y_ring[:m], out=x.reshape(-1))
        except SingularAlphaError:
            if cfg.record_trace:
                trace.alpha_errors.append(0.0)
                trace.fallbacks.append(True)
            np.copyto(x, out)
    return SolveResult(x_hat=x, converged=False, iterations=cfg.max_iter, trace=trace)


# the name the CLI calls, and the tests and the benchmark's tracer look up
solve = anderson_solve
