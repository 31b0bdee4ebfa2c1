"""Training with implicit (Jacobian-free) differentiation through fixed points.

The loss 1/2 ||x_hat - x_star||^2 is differentiated without unrolling: with
J the map Jacobian at the fixed point, the adjoint vector solves
    a = J^T a + (x_hat - x_star),
either by the same Anderson engine used for the forward pass (mode
"fixed_point") or by a truncated Neumann sum (mode "neumann"). The parameter
gradient is then the map's parameter-VJP contracted with a. The whole
backward runs on one linearization of the map at x_hat (map.linearize, like
jax.vjp): the forward at x_hat runs once, and every adjoint iteration and the
final parameter-VJP run only the backward pass. Memory stays constant in the
forward iteration count because nothing is unrolled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivergedError, ShapeMismatchError, TrainingAbortedError
from .fixed_point import FixedPointConfig, SolveResult, anderson_solve
from .metrics import psnr
from .sci import adjoint


@dataclass
class TrainConfig:
    epochs: int = 30
    lr: float = 1e-3
    lr_decay: float = 0.1       # fraction removed every lr_decay_every epochs
    lr_decay_every: int = 10
    momentum: float = 0.0
    backward_mode: str = "fixed_point"  # or "neumann"
    neumann_order: int = 8
    backward_tol: float = 1e-8
    backward_max_iter: int = 100
    seed: int = 0
    sn_iters_step: int = 1      # power iterations after each update
    sn_iters_val: int = 20      # power iterations before validation
    forward: FixedPointConfig = field(default_factory=FixedPointConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 <= self.lr < np.inf:  # also rejects NaN
            raise ValueError(f"lr must be finite and positive or 0, got {self.lr}")
        if not self.backward_tol > 0 or self.backward_max_iter < 1:
            raise ValueError("rates and counts must be positive")
        if not 0.0 <= self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must be in [0, 1], got {self.lr_decay}")
        if self.lr_decay_every < 1:
            raise ValueError(f"lr_decay_every must be >= 1, got {self.lr_decay_every}")
        if not 0.0 <= self.momentum < 1.0:  # also rejects NaN
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.backward_mode not in ("fixed_point", "neumann"):
            raise ValueError(f"unknown backward mode {self.backward_mode!r}")
        if self.neumann_order < 0:
            raise ValueError("neumann_order must be >= 0")

    def backward_config(self) -> FixedPointConfig:
        return replace(
            self.forward,
            tol=self.backward_tol,
            max_iter=self.backward_max_iter,
            record_trace=False,
        )


def mse_loss(x_hat: np.ndarray, x_star: np.ndarray) -> float:
    """1/2 sum((x_hat - x_star)^2); gradient w.r.t. x_hat is x_hat - x_star."""
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_hat.shape != x_star.shape:
        raise ShapeMismatchError(f"{x_hat.shape} vs {x_star.shape}")
    return 0.5 * float(np.sum((x_hat - x_star) ** 2))


def backward_fixed_point(vjp_at_xhat, g: np.ndarray, cfg: FixedPointConfig) -> SolveResult:
    """Solve a = J^T a + g from a(0) = 0 with the Anderson engine.

    Returns the full SolveResult; x_hat is a(inf) ~ (I - J^T)^{-1} g.
    Raises DivergedError when the adjoint iteration blows up (empirically
    ||J^T|| >= 1 with no usable mixing direction).
    """
    if not np.isfinite(g).all():
        raise ValueError("g must be finite")
    g = np.asarray(g, dtype=np.float64)
    return anderson_solve(lambda a, out: np.add(vjp_at_xhat(a), g, out=out),
                          np.zeros_like(g), cfg)


def neumann_backward(vjp_at_xhat, g: np.ndarray, order: int) -> np.ndarray:
    """Truncated series sum_{p=0..order} (J^T)^p g via repeated VJPs."""
    if order < 0:
        raise ValueError("order must be >= 0")
    g = np.asarray(g, dtype=np.float64)
    acc = g.copy()
    term = g
    for _ in range(order):
        term = vjp_at_xhat(term)
        acc += term
    return acc


@dataclass
class LossGradResult:
    grad: np.ndarray
    loss: float
    x_hat: np.ndarray
    approximate: bool  # true when either solve stopped at its iteration cap


def loss_gradient(model, sample, cfg: TrainConfig) -> LossGradResult:
    """Full implicit gradient of the sample loss w.r.t. the model parameters.

    sample is (mask, y, x_star). The forward fixed point starts from the
    canonical initializer Phi^T y. The map is linearized once at x_hat, and
    that one linearization serves every J^T v of the adjoint solve and the
    final parameter-VJP. Non-converged solves still yield a gradient,
    flagged approximate.
    """
    mask, y, x_star = sample
    fmap = model.make_map(mask, y)
    fwd = anderson_solve(fmap.apply, adjoint(mask, y), cfg.forward)
    x_hat = fwd.x_hat
    g = x_hat - x_star
    loss = mse_loss(x_hat, x_star)
    lin = fmap.linearize(x_hat)
    if cfg.backward_mode == "neumann":
        a = neumann_backward(lin.vjp_input, g, cfg.neumann_order)
        backward_converged = True
    else:
        bwd = backward_fixed_point(lin.vjp_input, g, cfg.backward_config())
        a = bwd.x_hat
        backward_converged = bwd.converged
    return LossGradResult(grad=lin.grad_params(a), loss=loss, x_hat=x_hat,
                          approximate=not (fwd.converged and backward_converged))


def loss_eval(model, sample, cfg: TrainConfig) -> float:
    """Loss only (forward solve + MSE); used by finite differencing."""
    mask, y, x_star = sample
    fmap = model.make_map(mask, y)
    fwd = anderson_solve(fmap.apply, adjoint(mask, y), cfg.forward)
    return mse_loss(fwd.x_hat, x_star)


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    val_psnr: float
    skipped: int
    approximate: int  # applied gradients whose forward or backward solve hit its cap


def write_epoch_log(path: str, log: list) -> None:
    """One CSV row per EpochLog: epoch,mean_loss,val_psnr,skipped,approximate
    (val_psnr empty when no validation ran)."""
    lines = ["epoch,mean_loss,val_psnr,skipped,approximate"]
    for row in log:
        vp = f"{row.val_psnr:.17g}" if np.isfinite(row.val_psnr) else ""
        lines.append(f"{row.epoch},{row.mean_loss:.17g},{vp},{row.skipped},{row.approximate}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def evaluate_psnr(model, samples, solver_cfg: FixedPointConfig) -> float:
    """Mean PSNR (clamped reconstructions) of the model over samples."""
    vals = []
    for mask, y, x_star in samples:
        fmap = model.make_map(mask, y)
        res = anderson_solve(fmap.apply, adjoint(mask, y), solver_cfg)
        _, mean_db = psnr(res.x_hat, x_star)
        vals.append(mean_db)
    return float(np.mean(vals))


def train(model, dataset, cfg: TrainConfig, val_set=None) -> list:
    """Plain SGD (optional momentum) over per-sample implicit gradients;
    returns one EpochLog per epoch.

    After every parameter update the model is spectrally renormalized with
    sn_iters_step power iterations. A pass of sn_iters_val iterations runs
    before each validation and once at the end, but only when an update has
    changed the parameters since the previous such pass: spectral_normalize
    is not idempotent, so a model the caller already normalized is returned
    untouched when nothing was updated. Diverged samples are skipped and
    counted; an epoch skipping more than half the dataset aborts, and so
    does an update that leaves a parameter non-finite. Gradients
    from solves stopped at their cap are still applied, and EpochLog counts
    them in `approximate`. Deterministic per cfg.seed.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    velocity = np.zeros_like(model.get_params())
    log = []
    updated = False  # parameters changed since the last sn_iters_val pass
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (1.0 - cfg.lr_decay) ** (epoch // cfg.lr_decay_every)
        order = rng.permutation(len(dataset))
        losses = []
        skipped = 0
        approximate = 0
        for idx in order:
            try:
                r = loss_gradient(model, dataset[idx], cfg)
            except DivergedError:
                skipped += 1
                continue
            losses.append(r.loss)
            approximate += r.approximate
            velocity = cfg.momentum * velocity - lr * r.grad
            if np.any(velocity != 0.0):
                model.set_params(model.get_params() + velocity)
                model.spectral_normalize(cfg.sn_iters_step)
                if not np.isfinite(model.get_params()).all():
                    raise TrainingAbortedError(
                        f"epoch {epoch}: an update left a parameter non-finite", log=log
                    )
                updated = True
        if skipped > 0.5 * len(dataset):
            raise TrainingAbortedError(
                f"epoch {epoch}: {skipped}/{len(dataset)} samples diverged", log=log
            )
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        val_psnr = float("nan")
        if val_set:
            if updated:
                model.spectral_normalize(cfg.sn_iters_val)
                updated = False
            val_psnr = evaluate_psnr(model, val_set, cfg.forward)
        log.append(EpochLog(epoch=epoch, mean_loss=mean_loss, val_psnr=val_psnr,
                            skipped=skipped, approximate=approximate))
    if updated:
        model.spectral_normalize(cfg.sn_iters_val)
    return log


@dataclass
class GradCheckReport:
    indices: np.ndarray
    max_rel_error: float


def finite_diff_gradcheck(
    model, sample, h: float, n_probe: int, seed: int, cfg: TrainConfig
) -> GradCheckReport:
    """Central-difference check of loss_gradient on sampled coordinates.

    Relative error per coordinate is |analytic - fd| / max(|analytic|, |fd|),
    reported as 0 when both magnitudes are below 1e-10 (numerically dead
    coordinate). The model parameters are restored afterwards. n_probe < 1,
    and an h that is not finite and > 0, raise ValueError before any solve.
    """
    if not 0 < h < np.inf:  # also rejects NaN
        raise ValueError(f"h must be finite and > 0, got {h}")
    if n_probe < 1:
        raise ValueError(f"n_probe must be >= 1, got {n_probe}")
    analytic_full = loss_gradient(model, sample, cfg).grad
    theta = model.get_params()
    idx = np.random.default_rng(seed).permutation(theta.size)[:n_probe]
    fd = np.empty(idx.size)
    try:
        for j, i in enumerate(idx):
            bump = theta.copy()
            bump[i] = theta[i] + h
            model.set_params(bump)
            lp = loss_eval(model, sample, cfg)
            bump[i] = theta[i] - h
            model.set_params(bump)
            lm = loss_eval(model, sample, cfg)
            fd[j] = (lp - lm) / (2.0 * h)
    finally:
        model.set_params(theta)
    ana = analytic_full[idx]
    scale = np.maximum(np.abs(ana), np.abs(fd))
    rel = np.zeros(idx.size)
    alive = scale > 1e-10
    rel[alive] = np.abs(ana[alive] - fd[alive]) / scale[alive]
    return GradCheckReport(indices=idx, max_rel_error=float(rel.max()))
