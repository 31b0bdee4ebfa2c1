"""One fixed-point engine: Anderson acceleration, with Picard as its memory-1 case.

The engine is shape-agnostic (any float ndarray) so it drives the
reconstruction iteration of every method (DE-GAP, DE-RNN and the PnP-GAP and
PnP-ADMM baselines) and the adjoint (backward) iteration. Stopping rule:
relative residual ||f(x_k) - x_k|| / (||x_k|| + 1e-12) <= tol; the returned
x_hat is always the point whose residual was measured, so a converged result
verifiably satisfies the tolerance.

Divergence guard: non-finite map output, or residual growth beyond 1e6x the
best residual seen, raises DivergedError carrying the partial trace.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import memtrack
from .errors import DivergedError, SingularAlphaError
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
        if self.tol < 0:
            raise ValueError("tol must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.anderson_memory < 1:
            raise ValueError("anderson_memory must be >= 1")
        if not 0.0 < self.anderson_damping <= 1.0:
            raise ValueError("anderson_damping must be in (0, 1]")
        if self.anderson_reg < 0:
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


def _trace_psnr(fx, psnr_ref):
    if psnr_ref is None:
        return None
    _, mean_db = psnr(np.clip(fx, 0.0, 1.0), psnr_ref)
    return mean_db


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


def solve_alpha(residual_matrix: np.ndarray, reg: float) -> np.ndarray:
    """Mixing weights minimizing ||A alpha||^2 subject to sum(alpha) = 1.

    Solved through the regularized normal equations
        (A^T A + reg * tr(A^T A)/m * I) w = 1,   alpha = w / sum(w).
    Entries may be negative; no sign constraint is imposed.
    """
    a = np.asarray(residual_matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] < 1:
        raise ValueError(f"residual matrix must be 2D with >= 1 column, got {a.shape}")
    m = a.shape[1]
    gram = a.T @ a
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
    """Anderson-accelerated fixed-point iteration.

    Keeps the last `anderson_memory` iterates and their images; each step
    mixes them with solve_alpha weights:
        x_{k+1} = (1 - delta) sum_i alpha_i x_i + delta sum_i alpha_i f(x_i).
    With memory 1, alpha is exactly [1], so the step is computed directly as
    damped Picard, (1 - delta) x + delta f(x), with no mixing solve. A
    singular mixing system falls back to that damped Picard step for one
    iteration (recorded in trace.fallbacks).

    f is called exactly once per iteration, in order, on the iterate whose
    residual it measures; stateful step closures (the PnP baselines) rely
    on this.
    """
    trace = IterationTrace()
    s = cfg.anderson_memory
    delta = cfg.anderson_damping
    xs: deque = deque(maxlen=s)
    fxs: deque = deque(maxlen=s)
    x = memtrack.track(np.array(x0, dtype=np.float64))
    best = np.inf
    for k in range(1, cfg.max_iter + 1):
        t0 = time.perf_counter()
        fx = memtrack.track(f(x))
        dt = time.perf_counter() - t0
        _check_finite(fx, trace, k)
        res = float(np.linalg.norm(fx - x))
        rel = res / (float(np.linalg.norm(x)) + _EPS)
        if cfg.record_trace:
            trace.append(res, rel, dt, _trace_psnr(fx, psnr_ref))
        if rel <= cfg.tol:
            return SolveResult(x_hat=x, converged=True, iterations=k, trace=trace)
        _check_growth(res, best, trace, k)
        best = min(best, res)
        if s == 1:  # alpha is exactly [1]: the mix is the damped Picard step
            if cfg.record_trace:
                trace.alpha_errors.append(0.0)
                trace.fallbacks.append(False)
            x = memtrack.track((1.0 - delta) * x + delta * fx)
            continue
        xs.append(x)
        fxs.append(fx)
        cols = np.stack([(b - a).ravel() for a, b in zip(xs, fxs)], axis=1)
        try:
            alpha = solve_alpha(cols, cfg.anderson_reg)
            if cfg.record_trace:
                trace.alpha_errors.append(abs(float(alpha.sum()) - 1.0))
                trace.fallbacks.append(False)
            x_mix = sum(al * xi for al, xi in zip(alpha, xs))
            f_mix = sum(al * fi for al, fi in zip(alpha, fxs))
            x = memtrack.track((1.0 - delta) * x_mix + delta * f_mix)
        except SingularAlphaError:
            if cfg.record_trace:
                trace.alpha_errors.append(0.0)
                trace.fallbacks.append(True)
            x = memtrack.track((1.0 - delta) * x + delta * fx)
    return SolveResult(x_hat=x, converged=False, iterations=cfg.max_iter, trace=trace)


def solve(f, x0, cfg, method: str = "anderson", psnr_ref=None) -> SolveResult:
    """Run anderson_solve; method "picard" is its memory-1, undamped case."""
    if method == "picard":
        cfg = replace(cfg, anderson_memory=1, anderson_damping=1.0)
    elif method != "anderson":
        raise ValueError(f"unknown solver {method!r}")
    return anderson_solve(f, x0, cfg, psnr_ref=psnr_ref)
