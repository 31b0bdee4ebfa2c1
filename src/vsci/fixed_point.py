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

    The map is called as f(x, out). With memory m >= 2, out is Y[j], shaped
    like x and dead (its old column left the mix that made x): f may write
    f(x) there and return it, or return a new array, which the engine then
    copies into Y[j]. With memory 1, out is None. Damping turns Y[j] into
    the damped image in place, as delta f(x) + (1 - delta) x, scaling x in
    place too: after the convergence and growth checks, x is dead until the
    mix, which np.matmul writes into x (a fallback copies Y[j] there).

    Memory contract: a solve holds the iterate x plus, for memory m >= 2,
    the two (m, N) rings and the m x m Gram matrix, all allocated before the
    first iteration. The engine copies x0 and drops its reference, so an x0
    passed inline (as every caller passes init_estimate(mask, y)) is freed
    before f first runs. With memory m >= 2 and an f that fills out, an
    iteration allocates no array of the iterate's size: the trace scores its
    PSNR in the dead residual slot G[j] before the residual is formed there.
    Memory 1 holds x and f(x), plus a scratch iterate for the trace's PSNR.
    No array grows with the iteration count; the trace adds a few scalars
    per iteration. The tests measure this with tracemalloc at 20 and 200
    iterations: a solve's peak stays under a fixed multiple of the iterate's
    bytes, what is live when f is called stays under 2m + 1 iterates (and
    over the whole iteration, with an f that fills out), an inline x0 is
    gone when f runs, and the peak of a training gradient (forward and
    backward solves) grows by less than one iterate.

    No aliasing: f must not keep its input, nor the out it filled, past the
    call, since the engine overwrites both in later iterations. The engine
    never writes into an array f returned in place of out, and x_hat is
    never a view of the ring. Undamped memory 1 passes f's output back to f
    and may return it as x_hat, so f must not write into an array it
    returned earlier. Every map in this package writes only its result.

    Tolerance (memory >= 2): the columns sit in ring order rather than by
    age and the mix is one reassociated sum, so results agree with an Anderson
    loop that rebuilds its history each step to rounding, not bitwise: over
    40 wrapping iterations the tests hold residuals and x_hat to relative
    1e-10 (with a floor of 1e-12 of the first residual, once residuals reach
    the rounding level). Rounding grows with the map's sensitivity: on
    256x256x8 DE-GAP with K=20 x_hat moves by up to 1.5e-8 (max |x| = 2.1).
    Memory 1 is bitwise the damped Picard loop. Undamped, every memory
    takes f(x) itself where the formula computes 0 * x + 1 * f(x) (memory
    1 as the next iterate, memory >= 2 as the ring slot Y[j]): values are
    equal, and only a -0.0 in f(x) keeps its sign where the formula gives
    +0.0.

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
    out = scratch = None
    if s > 1:
        g_ring = np.empty((s, x.size))
        y_ring = np.empty((s, x.size))
        gram = np.zeros((s, s))
    best = np.inf
    for k in range(1, cfg.max_iter + 1):
        if s > 1:
            j, m = (k - 1) % s, min(k, s)
            g = g_ring[j]
            out, scratch = y_ring[j].reshape(shape), g.reshape(shape)
        t0 = time.perf_counter()
        fx = f(x, out)
        dt = time.perf_counter() - t0
        _check_shape(fx, shape, k)
        _check_finite(fx, trace, k)
        if out is not None and fx is not out:
            np.copyto(out, fx)
            fx = out
        p = None
        if cfg.record_trace and psnr_ref is not None:
            p = psnr(fx, psnr_ref, out=scratch)[1]
        if s == 1:
            res = float(np.linalg.norm(fx - x))
        else:
            np.subtract(fx, x, out=scratch)
            res = math.sqrt(g.dot(g))
        rel = res / (float(np.linalg.norm(x)) + _EPS)
        if cfg.record_trace:
            trace.append(res, rel, dt, p)
        if rel <= cfg.tol:
            return SolveResult(x_hat=x, converged=True, iterations=k, trace=trace)
        _check_growth(res, best, trace, k)
        best = min(best, res)
        if s == 1:  # alpha is exactly [1]: the mix is the damped Picard step
            if cfg.record_trace:
                trace.alpha_errors.append(0.0)
                trace.fallbacks.append(False)
            x = fx if delta == 1.0 else (1.0 - delta) * x + delta * fx
            continue
        if delta != 1.0:  # Y[j] = (1 - delta) x + delta f(x); x is dead until the mix
            out *= delta
            x *= 1.0 - delta
            out += x
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
