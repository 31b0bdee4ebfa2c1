"""Trajectory benchmark: PSNR-vs-iteration stability across methods.

For every scene x method cell: simulate a coded measurement, run the method
for up to K iterations recording PSNR against the ground truth each
iteration, and write a per-cell trace CSV plus one summary CSV with the
stability figure of merit drop_db = max PSNR - final PSNR.

Timing columns record wall-clock by default; timing="none" writes zeros so
output files are bitwise reproducible.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace

from .errors import DivergedError
from .fixed_point import FixedPointConfig, solve
from .maps import DEFAULT_TV_ITERS, DEFAULT_TV_SCHEDULE, DeGapMap, pnp_gap_solve
from .metrics import ssim
from .models import equilibrium_denoiser
from .sci import add_noise, adjoint, forward, mask_generate
from .synth import SyntheticScene, synth_video


@dataclass
class MethodSpec:
    """One reconstruction method for the benchmark; its cells are labelled by name.

    name        pnp_gap | de_gap | de_rnn
    schedule    TV strengths per iteration for pnp_gap (cycled)
    checkpoint  parameter file prefix for de_gap / de_rnn; None = untrained
                (for both, the identity denoiser)
    """

    name: str
    schedule: tuple = DEFAULT_TV_SCHEDULE
    checkpoint: str | None = None

    def __post_init__(self):
        if self.name not in ("pnp_gap", "de_gap", "de_rnn"):
            raise ValueError(f"unknown method {self.name!r}")


@dataclass
class BenchSpec:
    scenes: list
    methods: list
    mask_seed: int = 0
    mask_kind: str = "bernoulli"
    mask_p: float = 0.5
    mask_policy: str = "floor"
    noise_sigma: float = 0.0
    noise_seed: int = 1234
    max_iter: int = 100
    tol: float = 0.0  # 0 = run the full iteration budget
    solver: str = "anderson"
    tv_iters: int = DEFAULT_TV_ITERS
    outdir: str = "bench_out"
    timing: str = "wall"  # "none" zeroes timing columns for bitwise output

    def __post_init__(self):
        if not self.scenes or not self.methods:
            raise ValueError("need at least one scene and one method")
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.tv_iters < 1:
            raise ValueError(f"tv_iters must be >= 1, got {self.tv_iters}")
        if self.solver not in ("picard", "anderson"):
            raise ValueError(f"solver must be picard or anderson, got {self.solver!r}")
        if self.timing not in ("wall", "none"):
            raise ValueError(f"timing must be wall or none, got {self.timing!r}")


def _scene_tag(scene: SyntheticScene) -> str:
    return f"{scene.kind}_s{scene.seed}"


def _run_method(method: MethodSpec, mask, y, cube, bench: BenchSpec):
    if method.name in ("de_gap", "de_rnn"):
        den = equilibrium_denoiser(method.name, method.checkpoint)
        fmap = DeGapMap(denoiser=den, mask=mask, y=y)
        cfg = FixedPointConfig(tol=bench.tol, max_iter=bench.max_iter)
        if bench.solver == "picard":
            cfg = replace(cfg, anderson_memory=1)
        return solve(fmap.apply, adjoint(mask, y), cfg, psnr_ref=cube)
    return pnp_gap_solve(mask, y, method.schedule, bench.max_iter, tol=bench.tol,
                         tv_iters=bench.tv_iters, psnr_ref=cube)


def _unique_labels(methods) -> list:
    """Each method's name; a repeat gets the first free suffix _2, _3, ... in spec order."""
    labels = []
    for m in methods:
        label, n = m.name, 1
        while label in labels:
            n += 1
            label = f"{m.name}_{n}"
        labels.append(label)
    return labels


def run_trajectory_bench(bench: BenchSpec):
    """Run every scene x method cell; returns the summary rows and writes CSVs.

    Cells are named by scene and method label; repeated labels are made
    unique (see _unique_labels), so no trace file overwrites another.
    Nothing is written until every cell has run (a diverged cell counts as
    run), so a run that raises leaves no partial output in outdir.
    """
    labels = _unique_labels(bench.methods)
    rows, traces = [], {}
    for scene in bench.scenes:
        cube = synth_video(scene)
        mask = mask_generate(
            bench.mask_seed, scene.h, scene.w, scene.b,
            kind=bench.mask_kind, p=bench.mask_p, policy=bench.mask_policy,
        )
        y = add_noise(forward(mask, cube), bench.noise_sigma, bench.noise_seed)
        for method, label in zip(bench.methods, labels):
            tag = f"{_scene_tag(scene)}_{label}"
            t0 = time.perf_counter()
            try:
                result = _run_method(method, mask, y, cube, bench)
                diverged = False
                trace = result.trace
                x_hat = result.x_hat
            except DivergedError as exc:  # the engine's, which carries its trace
                diverged = True
                trace = exc.trace
            wall = 0.0 if bench.timing == "none" else time.perf_counter() - t0
            if bench.timing == "none":
                trace = replace(trace, times=[0.0] * len(trace.times))
            traces[f"trace_{tag}.csv"] = trace
            if diverged or not trace.psnrs:
                rows.append({
                    "scene": _scene_tag(scene), "method": label,
                    "final_psnr": math.nan, "max_psnr": math.nan, "drop_db": math.nan,
                    "mean_ssim": math.nan, "sec_per_meas": wall, "diverged": True,
                })
                continue
            final_psnr = trace.psnrs[-1]
            max_psnr = max(trace.psnrs)
            _, mean_ssim = ssim(x_hat, cube)
            rows.append({
                "scene": _scene_tag(scene), "method": label,
                "final_psnr": final_psnr, "max_psnr": max_psnr,
                "drop_db": max_psnr - final_psnr, "mean_ssim": mean_ssim,
                "sec_per_meas": wall, "diverged": False,
            })
    os.makedirs(bench.outdir, exist_ok=True)
    for name, trace in traces.items():
        trace.to_csv(os.path.join(bench.outdir, name))
    _write_summary(os.path.join(bench.outdir, "summary.csv"), rows)
    return rows


def _fmt(v) -> str:
    if isinstance(v, float):
        return "nan" if math.isnan(v) else f"{v:.17g}"
    return str(v)


def _write_summary(path: str, rows) -> None:
    cols = ["scene", "method", "final_psnr", "max_psnr", "drop_db", "mean_ssim", "sec_per_meas"]
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(_fmt(r[c]) for c in cols))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
