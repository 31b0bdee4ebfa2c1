"""Command-line surface.

Subcommands: mask, simulate, reconstruct, train, gradcheck, spectrum, bench.
`vsci mask` writes the only mask. The other commands read that file with
--mask, as a camera ships its coded aperture with each capture, and every
cube they make or read has the mask's H x W x B. Exit codes: 0 ok, 2 config
error, 3 I/O error, 4 diverged (a solve, or a training run that aborted), 5
gradcheck over threshold. Every command is deterministic given its seeds
and its mask file (bench timing columns excepted unless bench.timing=none).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as cfgmod
from . import tensorio
from .analysis import estimate_map_lipschitz, projection_spectrum, report_kv
from .bench import BenchSpec, MethodSpec, run_trajectory_bench
from .denoisers import (
    ConvResidualDenoiser,
    GatedConvCell,
    IdentityDenoiser,
    load_denoiser,
    save_denoiser,
)
from .errors import (ConfigError, DivergedError, ShapeMismatchError, TensorFileError,
                     TrainingAbortedError, VsciError)
from .fixed_point import FixedPointConfig, solve
from .maps import DEFAULT_TV_ITERS, DEFAULT_TV_SCHEDULE, DeGapMap, pnp_gap_solve
from .metrics import psnr, ssim
from .models import DeGapModel, desk_denoiser, equilibrium_denoiser
from .sci import (
    DEFAULT_FLOOR_TAU,
    POLICY_REJECT,
    Measurement,
    SensingMask,
    add_noise,
    adjoint,
    forward,
    mask_generate,
    validate_cube,
)
from .synth import SCENE_KINDS, SyntheticScene, synth_video
from .training import TrainConfig, finite_diff_gradcheck, train, write_epoch_log

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DIVERGED = 4
EXIT_GRADCHECK = 5


def save_mask(prefix: str, mask: SensingMask) -> None:
    tensorio.write_tensor(prefix + ".vsci", mask.frames)
    tensorio.write_kv(
        prefix + ".meta",
        {"kind": "mask", "policy": mask.policy, "floor_tau": repr(mask.floor_tau)},
    )


def load_mask(prefix: str) -> SensingMask:
    frames = tensorio.read_tensor(prefix + ".vsci")
    meta = tensorio.read_kv(prefix + ".meta") if os.path.exists(prefix + ".meta") else {}
    return SensingMask(frames=frames, policy=meta.get("policy", POLICY_REJECT),
                       floor_tau=float(meta.get("floor_tau", DEFAULT_FLOOR_TAU)))


def _settings(args, cfg: dict, section: str, **flags) -> dict:
    """The `section.*` values by field name; flags maps a field to the args
    attribute that overrides it when given."""
    vals = {k.split(".")[1]: v for k, v in cfg.items() if k.startswith(section + ".")}
    vals.update((f, getattr(args, a)) for f, a in flags.items()
                if getattr(args, a, None) is not None)
    return vals


def _solver_cfg(args, cfg: dict) -> FixedPointConfig:
    """The solver.* values and flags; --solver picard is memory 1, undamped
    because its run reads no damping."""
    vals = _settings(args, cfg, "solver", tol="tol", max_iter="max_iter",
                     anderson_memory="memory", anderson_damping="damping", anderson_reg="reg")
    if getattr(args, "solver", None) == "picard":
        vals["anderson_memory"] = 1
    return FixedPointConfig(**vals)


# The config keys and optional flags each run reads. A run refuses every other
# --config key, and each flag that only other runs of its subcommand name; a
# flag that no row names is read by every run of its subcommand.
_TOL = ("solver.tol", "solver.max_iter")
_ANDERSON = ("solver.anderson_memory", "solver.anderson_damping", "solver.anderson_reg")
_ADJOINT = ("train.backward_mode", "train.neumann_order", "train.backward_max_iter")
RUN_READS = {
    # de-gap and de-rnn by solver; undamped Picard reads no Anderson setting
    "reconstruct --solver anderson": _TOL + _ANDERSON + ("--solver", "--memory", "--damping",
                                                         "--reg"),
    "reconstruct --solver picard": _TOL + ("--solver",),
    # GAP-TV runs undamped Picard; it ignores --checkpoint, which the benchmark
    # passes to every method
    "reconstruct --method pnp-gap": _TOL + ("--schedule", "--tv-iters"),
    "train": _TOL + _ANDERSON + _ADJOINT + ("train.epochs", "train.lr", "train.lr_decay",
                                            "train.lr_decay_every", "train.momentum",
                                            "train.backward_tol", "train.seed"),
    "gradcheck": ("solver.max_iter",) + _ANDERSON + _ADJOINT,  # --solve-tol sets both tols
    "bench": tuple(k for k in cfgmod.KNOWN_KEYS if k.startswith("bench.")),
}


def _load_run_config(args) -> dict:
    """The --config file's entries; the objects they configure default the rest.

    Refuses by name every entry and given flag that the run's row does not read.
    """
    entries = cfgmod.read_config(args.config) if args.config else {}
    run = args.command
    if run == "reconstruct":
        run += (" --method pnp-gap" if args.method == "pnp-gap"
                else f" --solver {args.solver or 'anderson'}")
    reads = RUN_READS[run]
    named = {s for r, row in RUN_READS.items() if r.split()[0] == args.command for s in row}
    refused = [s for s in sorted(named.difference(reads)) if s.startswith("--")
               and getattr(args, s[2:].replace("-", "_")) is not None]
    refused += [k for k in entries if k not in reads]
    if refused:
        raise ConfigError(f"{run} does not read {', '.join(refused)}")
    return entries


def cmd_mask(args) -> int:
    mask = mask_generate(
        args.seed, args.height, args.width, args.frames,
        kind=args.kind, p=args.p, policy=args.policy, floor_tau=args.tau,
    )
    save_mask(args.out, mask)
    print(f"mask {args.height}x{args.width}x{args.frames} kind={args.kind} -> {args.out}.vsci")
    return EXIT_OK


def _scene(mask: SensingMask, kind: str, seed: int) -> SyntheticScene:
    """The synthetic scene of the mask's H x W x B."""
    h, w, b = mask.frames.shape
    return SyntheticScene(kind=kind, seed=seed, h=h, w=w, b=b)


def cmd_simulate(args) -> int:
    mask = load_mask(args.mask)
    scene = _scene(mask, args.scene, args.seed)
    cube = synth_video(scene)
    y = add_noise(forward(mask, cube), args.sigma, args.noise_seed)
    tensorio.write_tensor(args.out_cube, cube)
    tensorio.write_tensor(args.out_meas, y.data)
    tensorio.write_kv(
        args.out_meas + ".meta",
        {
            "scene": scene.kind, "scene_seed": scene.seed,
            "h": scene.h, "w": scene.w, "b": scene.b,
            "mask": args.mask, "sigma": repr(args.sigma),
            "noise_seed": args.noise_seed,
        },
    )
    print(f"simulated {scene.kind} -> cube {args.out_cube}, measurement {args.out_meas}")
    return EXIT_OK


def _reconstruct(args, cfg):
    """Run the chosen method with the run's config values."""
    mask = load_mask(args.mask)
    y = Measurement(data=tensorio.read_tensor(args.measurement))
    solver_cfg = _solver_cfg(args, cfg)
    gt = validate_cube(tensorio.read_tensor(args.gt)) if args.gt else None
    if gt is not None and gt.shape != mask.frames.shape:
        raise ShapeMismatchError(f"--gt shape {gt.shape} does not match mask {mask.frames.shape}")
    if args.method in ("de-gap", "de-rnn"):
        den = equilibrium_denoiser(args.method.replace("-", "_"), args.checkpoint)
        fmap = DeGapMap(denoiser=den, mask=mask, y=y)
        result = solve(fmap.apply, adjoint(mask, y), solver_cfg, psnr_ref=gt)
    else:
        schedule = (DEFAULT_TV_SCHEDULE if args.schedule is None
                    else [float(s) for s in args.schedule.split(",")])
        tv_iters = DEFAULT_TV_ITERS if args.tv_iters is None else args.tv_iters
        result = pnp_gap_solve(mask, y, schedule, solver_cfg.max_iter, tol=solver_cfg.tol,
                               tv_iters=tv_iters, psnr_ref=gt)
    return mask, y, result, gt


def cmd_reconstruct(args) -> int:
    mask, y, result, gt = _reconstruct(args, _load_run_config(args))
    # every figure is computed before any file is written, so a run that
    # fails on one (an SSIM of frames below its window) writes nothing
    consistency = float(np.max(np.abs(forward(mask, result.x_hat).data - y.data)))
    lines = [f"converged={result.converged} iterations={result.iterations}",
             f"measurement_consistency_inf={consistency:.3e}"]
    if gt is not None:
        _, p = psnr(result.x_hat, gt)
        _, s = ssim(result.x_hat, gt)
        lines += [f"psnr_db={p:.4f}", f"ssim={s:.6f}"]
    tensorio.write_tensor(args.out, result.x_hat)
    if args.trace:
        result.trace.to_csv(args.trace)
    print("\n".join(lines))
    return EXIT_OK


def _make_dataset(args, mask: SensingMask, n: int, seed0: int):
    """n (mask, y, cube) samples, scene seeds seed0, seed0 + 1, ..., all under one mask."""
    samples = []
    for i in range(n):
        cube = synth_video(_scene(mask, args.scene, seed0 + i))
        y = add_noise(forward(mask, cube), args.sigma, seed0 + 1000 + i)
        samples.append((mask, y, cube))
    return samples


def _train_cfg(args, cfg: dict) -> TrainConfig:
    flags = {f: f for f in ("epochs", "lr", "momentum", "backward_mode", "seed")}
    return TrainConfig(**_settings(args, cfg, "train", **flags),
                       forward=replace(_solver_cfg(args, cfg), record_trace=False))


def _desk_model(args) -> DeGapModel:
    return DeGapModel(denoiser=desk_denoiser(args.model_seed, args.channels, args.layers,
                                             args.gamma))


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    if args.val_scenes < 0:
        raise ConfigError(f"--val-scenes must be >= 0, got {args.val_scenes}")
    tcfg = _train_cfg(args, cfg)
    mask = load_mask(args.mask)
    model = _desk_model(args)
    dataset = _make_dataset(args, mask, args.train_scenes, seed0=args.data_seed)
    val = _make_dataset(args, mask, args.val_scenes, seed0=args.data_seed + 10_000)
    try:
        log = train(model, dataset, tcfg, val_set=val or None)
    except TrainingAbortedError as exc:  # keep the epochs that ran; main exits 4
        if args.log:
            write_epoch_log(args.log, exc.log or [])
        raise
    save_denoiser(args.out_prefix, model.denoiser)
    if args.log:
        write_epoch_log(args.log, log)
    last = log[-1]
    print(f"trained {tcfg.epochs} epochs, final mean_loss={last.mean_loss:.6g} "
          f"val_psnr={last.val_psnr:.4f}")
    print(f"checkpoint -> {args.out_prefix}.vsci")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = _load_run_config(args)
    if not 0 <= args.threshold < np.inf:  # also refuses NaN; 0 fails any nonzero error
        raise ConfigError(f"--threshold must be finite and >= 0, got {args.threshold}")
    tcfg = _train_cfg(args, cfg)
    forward_cfg = replace(tcfg.forward, tol=args.solve_tol,
                          max_iter=max(tcfg.forward.max_iter, 400))
    tcfg = replace(tcfg, forward=forward_cfg, backward_tol=args.solve_tol)
    mask = load_mask(args.mask)
    model = _desk_model(args)
    dataset = _make_dataset(args, mask, 1, seed0=args.data_seed)
    report = finite_diff_gradcheck(model, dataset[0], h=args.h,
                                   n_probe=args.probes, seed=args.seed or 0, cfg=tcfg)
    print(f"probes={len(report.indices)} max_rel_error={report.max_rel_error:.3e} "
          f"threshold={args.threshold:.3e}")
    if report.max_rel_error > args.threshold:
        print("gradcheck FAILED")
        return EXIT_GRADCHECK
    print("gradcheck ok")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    mask = load_mask(args.mask)
    spectrum = projection_spectrum(mask)
    den = (load_denoiser(args.checkpoint, ConvResidualDenoiser, GatedConvCell)
           if args.checkpoint else IdentityDenoiser())
    cube = synth_video(_scene(mask, "moving_square", 0))
    y = forward(mask, cube)
    fmap = DeGapMap(denoiser=den, mask=mask, y=y)
    sigma = estimate_map_lipschitz(fmap, adjoint(mask, y), n_iters=args.iters, seed=0)
    report = report_kv(sigma, spectrum)
    for key, val in report.items():
        print(f"{key} = {val}")
    if args.out:
        tensorio.write_kv(args.out, report)
    return EXIT_OK


def _parse_method(text: str) -> MethodSpec:
    """pnp_gap[:lam,lam,...] | de_gap[:ckpt] | de_rnn[:ckpt]"""
    name, _, rest = text.partition(":")
    if name == "pnp_gap" and rest:
        return MethodSpec(name=name, schedule=tuple(float(s) for s in rest.split(",")))
    if name in ("pnp_gap", "de_gap", "de_rnn"):
        return MethodSpec(name=name, checkpoint=rest or None)
    raise ConfigError(f"unknown method spec {text!r}")


def cmd_bench(args) -> int:
    cfg = _load_run_config(args)
    mask = load_mask(args.mask)
    scenes = [_scene(mask, args.scene, s)
              for s in range(args.scene_seed, args.scene_seed + args.n_scenes)]
    methods = [_parse_method(m) for m in args.methods]
    spec = BenchSpec(scenes=scenes, methods=methods, mask=mask, outdir=args.outdir,
                     **_settings(args, cfg, "bench", max_iter="max_iter", timing="timing"))
    rows = run_trajectory_bench(spec)
    for r in rows:
        print(f"{r['scene']}/{r['method']}: final={r['final_psnr']:.3f} dB "
              f"max={r['max_psnr']:.3f} drop={r['drop_db']:.3f}"
              if not r["diverged"] else f"{r['scene']}/{r['method']}: DIVERGED")
    print(f"summary -> {os.path.join(spec.outdir, 'summary.csv')}")
    return EXIT_OK


def _add_model_flags(p):
    p.add_argument("--model-seed", type=int, default=0)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--gamma", type=float, default=0.3)


def _add_mask_flag(p):
    p.add_argument("--mask", required=True,
                   help="mask prefix (.vsci/.meta) written by `vsci mask`, the only command "
                   "that makes a mask; every cube takes the mask's H x W x B")


def _add_data_flags(p):
    _add_mask_flag(p)
    p.add_argument("--scene", default="moving_square", choices=list(SCENE_KINDS))
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--data-seed", type=int, default=100)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vsci",
        description="Snapshot-compressive-imaging reconstruction via fixed-point iteration maps.",
        epilog=cfgmod.help_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", help="generate a sensing mask")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--kind", default="bernoulli", choices=["bernoulli", "all_ones"])
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--policy", default=POLICY_REJECT, choices=["reject", "floor"])
    p.add_argument("--tau", type=float, default=DEFAULT_FLOOR_TAU)
    p.add_argument("--out", required=True, help="output prefix (.vsci/.meta)")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("simulate", help="synthetic scene -> coded measurement")
    p.add_argument("--scene", default="moving_square", choices=list(SCENE_KINDS))
    p.add_argument("--seed", type=int, default=0)
    _add_mask_flag(p)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--noise-seed", type=int, default=1234)
    p.add_argument("--out-cube", required=True)
    p.add_argument("--out-meas", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="recover a cube from a measurement")
    p.add_argument("--config")
    _add_mask_flag(p)
    p.add_argument("--measurement", required=True)
    p.add_argument("--method", default="de-gap",
                   choices=["de-gap", "de-rnn", "pnp-gap"])
    p.add_argument("--solver", choices=["picard", "anderson"], help="default anderson")
    p.add_argument("--checkpoint")
    p.add_argument("--schedule", help="pnp-gap TV strengths, comma separated; default "
                   + ",".join(map(str, DEFAULT_TV_SCHEDULE)))
    p.add_argument("--tv-iters", type=int,
                   help=f"pnp-gap TV prox steps; default {DEFAULT_TV_ITERS}")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--memory", type=int)
    p.add_argument("--damping", type=float)
    p.add_argument("--reg", type=float)
    p.add_argument("--gt", help="ground-truth cube for PSNR/SSIM")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="write trace CSV here")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("train", help="train the projection-denoiser model")
    p.add_argument("--config")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--train-scenes", type=int, default=16)
    p.add_argument("--val-scenes", type=int, default=4)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--backward-mode", choices=["fixed_point", "neumann"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--log", help="per-epoch CSV, also written when training aborts")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference check of the implicit gradient")
    p.add_argument("--config")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--probes", type=int, default=25)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--solve-tol", type=float, default=1e-12)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("spectrum", help="closed-form projector spectrum + sampled "
                       "Jacobian norm of the DE-GAP or DE-RNN map")
    _add_mask_flag(p)
    p.add_argument("--checkpoint")
    p.add_argument("--iters", type=int, default=30)
    p.add_argument("--out")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bench", help="PSNR-vs-iteration stability benchmark")
    p.add_argument("--config")
    p.add_argument("--scene", default="moving_square", choices=list(SCENE_KINDS))
    p.add_argument("--scene-seed", type=int, default=0)
    p.add_argument("--n-scenes", type=int, default=2)
    _add_mask_flag(p)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--methods", nargs="+", required=True,
                   help="e.g. de_gap:ckpt de_rnn pnp_gap:0.1,0.05")
    p.add_argument("--timing", choices=["wall", "none"])
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TensorFileError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DivergedError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except TrainingAbortedError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, VsciError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
