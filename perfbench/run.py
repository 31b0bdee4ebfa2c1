"""Benchmark of vsci: paper-scale reconstruction and desk-scale implicit gradients.

Run from the root of a checkout:

    python3 perfbench/run.py --workload recon_degap --seed 0 --seconds 24 --trace 0

Workloads (see perfbench/README.md for why each exists):

    recon_degap   `vsci reconstruct --method de-gap --solver anderson --tol 0`
                  on 256x256x8 bouncing_dots scenes, through vsci.cli.main
    recon_pnpgap  the same inputs through `--method pnp-gap` (GAP-TV)
    grad_degap    vsci.training.loss_gradient plus one spectral
                  normalization, at 32x32x4 on moving_square samples

Closed loop, one caller: one operation at a time in this process, until
``--seconds`` have passed and every input has been used at least once. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the operations run with every layer wrapped (see
spans.py) and the JSON carries the per-layer metrics, per operation.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is imported: the load is one caller.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import vsci.cli  # noqa: E402
import vsci.config  # noqa: E402
import vsci.denoisers  # noqa: E402
import vsci.fixed_point  # noqa: E402
import vsci.maps  # noqa: E402
import vsci.metrics  # noqa: E402
import vsci.models  # noqa: E402
import vsci.sci  # noqa: E402
import vsci.synth  # noqa: E402
import vsci.tensorio  # noqa: E402
import vsci.training  # noqa: E402
from spans import Tracer  # noqa: E402

REFERENCE_FILE = HERE / "reference.json"
WORK_DIR = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_out"

# Agreement required with references recorded at seed 0, and between two
# runs of the same input in one process. Anderson mixing amplifies rounding:
# a 1e-15 relative change of y moves PSNR by ~3e-8 dB (256x256x8, K=20) and
# the gradient by ~1e-11 relative (32x32x4). These bounds leave room for
# re-associated float arithmetic, not for a changed result.
PSNR_TOL_DB = 1e-4
SSIM_TOL = 1e-5  # the CLI prints ssim with 6 decimals
GRAD_RTOL = 1e-6
# The CLI prints psnr_db with 4 decimals.
PRINTED_PSNR_TOL_DB = 1e-4

# (name, unit, better); names and units match BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_s", "s", "lower"),
    ("psnr_db", "dB", "higher"),
    ("ssim", "1", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# (name, unit, better) per operation; set-up layers per set-up.
PER_LAYER = [
    ("conv.forward.calls", "count", "lower"),
    ("conv.forward.s", "s", "lower"),
    ("conv.forward.gflop", "GFLOP", "lower"),
    ("conv.forward.gflops", "GFLOP/s", "higher"),
    ("conv.forward.mb", "MB", "lower"),
    ("conv.adjoint_input.s", "s", "lower"),
    ("conv.grad_kernel.s", "s", "lower"),
    ("conv.sigmoid.s", "s", "lower"),
    ("conv.softplus.s", "s", "lower"),
    ("conv.operator_sigma.s", "s", "lower"),
    ("maps.apply.calls", "count", "lower"),
    ("maps.apply.s", "s", "lower"),
    ("maps.vjp_input.calls", "count", "lower"),
    ("maps.vjp_input.s", "s", "lower"),
    ("maps.grad_params.calls", "count", "lower"),
    ("maps.grad_params.s", "s", "lower"),
    ("maps.pnp_gap_solve.s", "s", "lower"),
    ("denoisers.denoise.s", "s", "lower"),
    ("denoisers.vjp_input.s", "s", "lower"),
    ("denoisers.grad_params.s", "s", "lower"),
    ("denoisers.spectral_normalize.s", "s", "lower"),
    ("denoisers.tv_denoise.s", "s", "lower"),
    ("fixed_point.fwd_iters", "count", "lower"),
    ("fixed_point.bwd_iters", "count", "lower"),
    ("fixed_point.converged_ratio", "1", "higher"),
    ("fixed_point.fallbacks", "count", "lower"),
    ("fixed_point.mix_s", "s", "lower"),
    ("training.forward_s", "s", "lower"),
    ("training.backward_s", "s", "lower"),
    ("training.grad_params_s", "s", "lower"),
    ("training.sn_s", "s", "lower"),
    ("training.exact_ratio", "1", "higher"),
    ("sci.gap_project.calls", "count", "lower"),
    ("sci.gap_project.s", "s", "lower"),
    ("sci.project_null.s", "s", "lower"),
    ("sci.mask_generate.s", "s", "lower"),
    ("metrics.ssim.s", "s", "lower"),
    ("metrics.psnr.calls", "count", "lower"),
    ("metrics.psnr.s", "s", "lower"),
    ("tensorio.read.s", "s", "lower"),
    ("tensorio.write.s", "s", "lower"),
    ("tensorio.mb", "MB", "lower"),
    ("synth.synth_video.s", "s", "lower"),
    ("cli.reconstruct.s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.drop_db", "dB", "lower"),
    ("checks.fail_ratio", "1", "lower"),
]


class OpFailed(Exception):
    """An operation ran but its output failed a check."""


@dataclass(frozen=True)
class Scale:
    h: int
    w: int
    b: int
    inputs: int  # distinct inputs; every run uses each at least once
    setups: int  # set-up repetitions; setup_s is their median
    max_iter: int = 0  # reconstruction iteration budget K


SCALES = {
    ("recon", "paper"): Scale(256, 256, 8, inputs=2, setups=11, max_iter=20),
    ("recon", "tiny"): Scale(16, 16, 2, inputs=2, setups=2, max_iter=3),
    ("grad", "paper"): Scale(32, 32, 4, inputs=16, setups=41),
    ("grad", "tiny"): Scale(12, 12, 2, inputs=2, setups=2),
}


# -- the benchmark's own output checks (independent of vsci.metrics) ------------


def own_psnr_db(x: np.ndarray, ref: np.ndarray) -> float:
    """Mean over frames of 10 log10(1 / MSE) of the clamped cube, capped at 100."""
    err = (np.clip(x, 0.0, 1.0) - ref) ** 2
    mse = err.reshape(-1, err.shape[-1]).mean(axis=0)
    with np.errstate(divide="ignore"):
        db = np.where(mse > 0, -10.0 * np.log10(mse), 100.0)
    return float(np.minimum(db, 100.0).mean())


def read_vsci(path: Path) -> np.ndarray:
    """Parse a .vsci tensor file without vsci.tensorio."""
    blob = path.read_bytes()
    if blob[:4] != b"VSCI" or blob[5] not in (0, 1):
        raise OpFailed(f"{path.name}: not a VSCI tensor")
    ndim = blob[6]
    dims = tuple(int(d) for d in np.frombuffer(blob, "<u4", count=ndim, offset=7))
    dtype = "<f8" if blob[5] == 1 else "<f4"
    return np.frombuffer(blob, dtype, offset=7 + 4 * ndim).reshape(dims)


def printed_value(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return float(line.split("=", 1)[1])
    raise OpFailed(f"`vsci reconstruct` printed no {key}")


def same_quality(first: dict, again: dict) -> bool:
    if abs(first["psnr_db"] - again["psnr_db"]) > PSNR_TOL_DB:
        return False
    if abs(first["ssim"] - again["ssim"]) > SSIM_TOL:
        return False
    if "grad" in first:
        ref = np.asarray(first["grad"])
        diff = np.linalg.norm(np.asarray(again["grad"]) - ref)
        return bool(diff <= GRAD_RTOL * np.linalg.norm(ref))
    return True


# -- workloads ---------------------------------------------------------------


def make_inputs(scale: Scale, scene_kind: str, first_scene: int, seed: int) -> list:
    """(mask, cube) per input: scene first_scene + i of a fixed test set, and
    its own Bernoulli p=0.5 mask (floor policy) drawn from seed."""
    s = scale
    inputs = []
    for i in range(s.inputs):
        mask = vsci.sci.mask_generate(seed * s.inputs + i, s.h, s.w, s.b, kind="bernoulli",
                                      p=0.5, policy="floor")
        scene = vsci.synth.SyntheticScene(kind=scene_kind, seed=first_scene + i,
                                          h=s.h, w=s.w, b=s.b)
        inputs.append((mask, vsci.synth.synth_video(scene)))
    return inputs


def make_checkpoint_model():
    """The CLI's default desk model: 2 layers, 8 channels, smooth init, SN'd."""
    den = vsci.denoisers.make_conv_residual(seed=0, channels=8, n_layers=2, gamma=0.3,
                                            init="smooth")
    den.spectral_normalize(vsci.training.TrainConfig.sn_iters_val)
    return den


class ReconWorkload:
    """`vsci reconstruct` through vsci.cli.main on measurement files.

    The scenes are a fixed test set (bouncing_dots seeds 0, 1, ...), as a
    paper evaluates on fixed videos; the workload seed draws each input's
    coded aperture and hence the measurements.
    """

    def __init__(self, method_args: list, scale: Scale):
        self.method_args = method_args
        self.scale = scale

    def setup(self, work: Path, seed: int) -> None:
        self.cubes = []
        for i, (mask, cube) in enumerate(make_inputs(self.scale, "bouncing_dots", 0, seed)):
            vsci.cli.save_mask(str(work / f"mask{i}"), mask)
            vsci.tensorio.write_tensor(str(work / f"gt{i}.vsci"), cube)
            vsci.tensorio.write_tensor(str(work / f"y{i}.vsci"),
                                       vsci.sci.forward(mask, cube).data)
            self.cubes.append(cube)
        vsci.denoisers.save_denoiser(str(work / "ckpt"), make_checkpoint_model())
        self.work = work

    def fingerprint(self) -> np.ndarray:
        return read_vsci(self.work / "y0.vsci")

    def run(self, i: int, tracer: Tracer | None) -> tuple[float, dict]:
        w = self.work
        out, trace_csv = w / "x_hat.vsci", w / "trace.csv"
        argv = ["reconstruct", "--mask", str(w / f"mask{i}"),
                "--measurement", str(w / f"y{i}.vsci"), "--gt", str(w / f"gt{i}.vsci"),
                "--out", str(out), "--trace", str(trace_csv),
                "--tol", "0", "--max-iter", str(self.scale.max_iter),
                "--checkpoint", str(w / "ckpt"), *self.method_args]
        stdout, stderr = io.StringIO(), io.StringIO()
        span = tracer.span("cli.reconstruct") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            with span:
                code = vsci.cli.main(argv)
            seconds = time.perf_counter() - t0
        if code != 0:
            raise OpFailed(f"exit code {code}: {stderr.getvalue().strip()}")
        x_hat = read_vsci(out)
        if x_hat.shape != self.cubes[i].shape or not np.isfinite(x_hat).all():
            raise OpFailed(f"x_hat has shape {x_hat.shape} or non-finite values")
        quality = {"psnr_db": own_psnr_db(x_hat, self.cubes[i]),
                   "ssim": printed_value(stdout.getvalue(), "ssim")}
        printed = printed_value(stdout.getvalue(), "psnr_db")
        if abs(printed - quality["psnr_db"]) > PRINTED_PSNR_TOL_DB:
            raise OpFailed(f"printed psnr_db {printed} but x_hat scores {quality['psnr_db']:.6f}")
        rows = trace_csv.read_text(encoding="utf-8").splitlines()[1:]
        trajectory = [float(r.split(",")[3]) for r in rows]
        quality["drop_db"] = max(trajectory) - trajectory[-1]
        return seconds, quality


class GradWorkload:
    """One training step at fixed parameters, minus the update.

    vsci.training.loss_gradient with the CLI's training defaults
    (backward_mode fixed_point; forward tol 1e-6, cap 150; backward tol
    1e-8, cap 100), then spectral_normalize(sn_iters_step) on a deep copy of
    the parameters. The samples are moving_square scenes 100, 101, ... (the
    seeds `vsci train` uses by default); the workload seed draws each
    sample's mask.
    """

    def __init__(self, scale: Scale):
        self.scale = scale

    def setup(self, work: Path, seed: int) -> None:
        d = vsci.config.defaults()
        forward = vsci.fixed_point.FixedPointConfig(
            tol=d["solver.tol"], max_iter=d["solver.max_iter"],
            anderson_memory=d["solver.anderson_memory"],
            anderson_damping=d["solver.anderson_damping"],
            anderson_reg=d["solver.anderson_reg"], record_trace=False,
        )
        self.cfg = vsci.training.TrainConfig(
            backward_mode=d["train.backward_mode"], neumann_order=d["train.neumann_order"],
            backward_tol=d["train.backward_tol"], backward_max_iter=d["train.backward_max_iter"],
            forward=forward,
        )
        self.samples = [(mask, vsci.sci.forward(mask, cube), cube)
                        for mask, cube in make_inputs(self.scale, "moving_square", 100, seed)]
        self.model = vsci.models.DeGapModel(denoiser=make_checkpoint_model())

    def fingerprint(self) -> np.ndarray:
        return self.samples[0][1].data

    def run(self, i: int, tracer: Tracer | None) -> tuple[float, dict]:
        params = copy.deepcopy(self.model.denoiser.params)
        t0 = time.perf_counter()
        res = vsci.training.loss_gradient(self.model, self.samples[i], self.cfg)
        vsci.denoisers.spectral_normalize(params, self.cfg.sn_iters_step)
        seconds = time.perf_counter() - t0
        if res.grad.shape != (self.model.n_params(),) or not np.isfinite(res.grad).all():
            raise OpFailed("gradient is non-finite or has the wrong size")
        if not math.isfinite(res.loss):
            raise OpFailed("loss is non-finite")
        x_hat = np.clip(res.x_hat, 0.0, 1.0)
        x_star = self.samples[i][2]
        quality = {"psnr_db": own_psnr_db(x_hat, x_star),
                   "ssim": vsci.metrics.ssim(x_hat, x_star)[1],
                   "loss": res.loss, "grad": res.grad.tolist(),
                   "exact": not res.approximate}
        return seconds, quality


def make_workload(name: str, scale_name: str):
    if name == "recon_degap":
        return ReconWorkload(["--method", "de-gap", "--solver", "anderson"],
                             SCALES[("recon", scale_name)])
    if name == "recon_pnpgap":
        return ReconWorkload(["--method", "pnp-gap", "--schedule", "0.05", "--tv-iters", "30"],
                             SCALES[("recon", scale_name)])
    if name == "grad_degap":
        return GradWorkload(SCALES[("grad", scale_name)])
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("recon_degap", "recon_pnpgap", "grad_degap")


# -- tracing -----------------------------------------------------------------


def _conv_cost(args, _result):
    x, kernel = args[0], args[1]
    f, h, w, _ = x.shape
    c_out, c_in, kh, kw = kernel.shape
    return {"flop": 2 * f * h * w * c_out * c_in * kh * kw,
            "bytes": 8 * (x.size + f * h * w * c_out + kernel.size)}


def trace_targets():
    """(owner, attribute, span name, hook) for every wrapped call site."""
    d, m, fp, tr = vsci.denoisers, vsci.maps, vsci.fixed_point, vsci.training
    solved = lambda _a, r: {"iters": r.iterations, "converged": bool(r.converged)}  # noqa: E731
    return [
        (d, "conv_forward", "conv.forward", _conv_cost),
        (d, "conv_adjoint_input", "conv.adjoint_input", None),
        (d, "conv_grad_kernel", "conv.grad_kernel", None),
        (d, "sigmoid", "conv.sigmoid", None),
        (d, "softplus", "conv.softplus", None),
        (d, "conv_operator_sigma", "conv.operator_sigma", None),
        (m.DeGapMap, "apply", "maps.apply", None),
        (m.DeGapMap, "vjp_input", "maps.vjp_input", None),
        (m.DeGapMap, "grad_params", "maps.grad_params", None),
        (vsci.cli, "pnp_gap_solve", "maps.pnp_gap_solve", None),
        (d.ConvResidualDenoiser, "denoise", "denoisers.denoise", None),
        (d.ConvResidualDenoiser, "vjp_input", "denoisers.vjp_input", None),
        (d.ConvResidualDenoiser, "grad_params", "denoisers.grad_params", None),
        (d, "spectral_normalize", "denoisers.spectral_normalize", None),
        (m, "tv_denoise", "denoisers.tv_denoise", None),
        (vsci.cli, "solve", "fixed_point.solve", solved),
        (tr, "anderson_solve", "fixed_point.solve", solved),
        (fp, "solve_alpha", "fixed_point.solve_alpha", None),
        (tr, "backward_fixed_point", "training.backward", None),
        (m, "gap_project", "sci.gap_project", None),
        (m, "project_null", "sci.project_null", None),
        (vsci.sci, "mask_generate", "sci.mask_generate", None),
        (vsci.cli, "ssim", "metrics.ssim", None),
        (vsci.cli, "psnr", "metrics.psnr", None),
        (fp, "psnr", "metrics.psnr", None),
        (vsci.tensorio, "read_tensor", "tensorio.read", lambda _a, r: {"bytes": r.nbytes}),
        (vsci.tensorio, "write_tensor", "tensorio.write",
         lambda a, _r: {"bytes": np.asarray(a[1]).nbytes}),
        (vsci.synth, "synth_video", "synth.synth_video", None),
    ]


def layer_metrics(tracer: Tracer, run: "Run", traced_times: list, untraced_s: float):
    """Per-layer metrics, per operation (set-up layers per set-up)."""
    ops = tracer.aggregate("op")
    qualities = run.qualities
    setups = tracer.aggregate("setup")
    n = max(ops.roots, 1)

    def per_op(value):
        return value / n

    solve = "fixed_point.solve"
    bwd_iters = ops.attr(("training.backward", solve), "iters")
    conv_flop = ops.attr("conv.forward", "flop")
    conv_s = ops.get("conv.forward")
    solves = ops.get(solve, "calls")
    drops = [q["drop_db"] for q in qualities if "drop_db" in q]
    m = {
        "conv.forward.calls": per_op(ops.get("conv.forward", "calls")),
        "conv.forward.s": per_op(conv_s),
        "conv.forward.gflop": per_op(conv_flop) / 1e9,
        "conv.forward.gflops": conv_flop / conv_s / 1e9 if conv_s > 0 else 0.0,
        "conv.forward.mb": per_op(ops.attr("conv.forward", "bytes")) / 1e6,
        "maps.apply.calls": per_op(ops.get("maps.apply", "calls")),
        "maps.vjp_input.calls": per_op(ops.get("maps.vjp_input", "calls")),
        "maps.grad_params.calls": per_op(ops.get("maps.grad_params", "calls")),
        "fixed_point.fwd_iters": per_op(ops.attr(solve, "iters") - bwd_iters),
        "fixed_point.bwd_iters": per_op(bwd_iters),
        "fixed_point.converged_ratio":
            ops.attr(solve, "converged:True") / solves if solves else 0.0,
        "fixed_point.fallbacks":
            per_op(ops.attr("fixed_point.solve_alpha", "raised:SingularAlphaError")),
        "fixed_point.mix_s":
            per_op(ops.get(solve) + ops.get("fixed_point.solve_alpha", "total_s")),
        "training.forward_s": per_op(ops.get(("op", solve), "total_s")),
        "training.backward_s": per_op(ops.get("training.backward", "total_s")),
        "training.grad_params_s": per_op(ops.get(("op", "maps.grad_params"), "total_s")),
        "training.sn_s": per_op(ops.get(("op", "denoisers.spectral_normalize"), "total_s")),
        "training.exact_ratio":
            sum(1 for q in qualities if q.get("exact")) / len(qualities) if qualities else 0.0,
        "sci.gap_project.calls": per_op(ops.get("sci.gap_project", "calls")),
        "sci.mask_generate.s": setups.get("sci.mask_generate") / max(setups.roots, 1),
        "metrics.psnr.calls": per_op(ops.get("metrics.psnr", "calls")),
        "tensorio.mb": per_op(ops.attr("tensorio.read", "bytes")
                              + ops.attr("tensorio.write", "bytes")) / 1e6,
        "synth.synth_video.s": setups.get("synth.synth_video") / max(setups.roots, 1),
        "trace.op_s": statistics.median(traced_times),
        "trace.overhead_s": statistics.median(traced_times) - untraced_s,
        "trace.drop_db": statistics.fmean(drops) if drops else 0.0,
        "checks.fail_ratio": run.failed / run.attempted,
    }
    for name, _, _ in PER_LAYER:
        if name not in m:
            span_name = name.rsplit(".", 1)[0]
            m[name] = per_op(ops.get(span_name))
    return m, ops


# -- run ---------------------------------------------------------------------


def provenance(args) -> dict:
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "machine": platform.machine(), "platform": platform.platform(),
    }


def tail_percentile(values: list) -> tuple[float, float] | None:
    """Highest percentile that leaves at least ten samples beyond it."""
    n = len(values)
    k = n - 10
    if k < n / 2:
        return None
    return 100.0 * k / n, sorted(values)[k - 1]


class Run:
    """One workload run: set-ups, then operations in a closed loop."""

    def __init__(self, workload, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.times: list[float] = []
        self.qualities: list[dict] = []
        self.first: dict[int, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def setup(self, tracer: Tracer | None = None) -> float:
        span = tracer.span("setup") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span:
            self.workload.setup(self.work, self.seed)
        return time.perf_counter() - t0

    def one_op(self, i: int, tracer: Tracer | None = None) -> None:
        span = tracer.span("op") if tracer else contextlib.nullcontext()
        self.attempted += 1
        try:
            with span:
                seconds, quality = self.workload.run(i, tracer)
            self.times.append(seconds)
            self.qualities.append(quality)
            if i not in self.first:
                self.first[i] = quality
            elif not same_quality(self.first[i], quality):
                raise OpFailed(f"input {i} gave a different result on a repeat")
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            self.notes.append(f"op on input {i} failed: {type(exc).__name__}: {exc}")

    def loop(self, start: float, tracer: Tracer | None = None, whole_cycles: bool = False) -> None:
        """Operations until the time is up and every input was used."""
        n_inputs = self.workload.scale.inputs
        ops = 0
        while (time.perf_counter() - start < self.seconds or ops < n_inputs
               or (whole_cycles and ops % n_inputs)):
            self.one_op(ops % n_inputs, tracer)
            ops += 1

    def check_reference(self, workload_name: str) -> bool:
        """Compare seed-0 outputs with those recorded in reference.json."""
        refs = json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(workload_name)
        if refs is None:
            self.notes.append(f"no reference recorded for {workload_name}")
            return False
        ok = True
        for i, ref in enumerate(refs):
            got = self.first.get(i)
            if got is None or not same_quality(ref, got):
                self.notes.append(f"input {i} differs from the recorded reference")
                ok = False
        return ok


def _metric_dict(values: dict, units: dict) -> dict:
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def untraced(run: Run) -> tuple[dict, bool]:
    setup_times = [run.setup() for _ in range(run.workload.scale.setups)]
    run.loop(time.perf_counter())
    if not run.first:
        raise SystemExit("perfbench: no operation succeeded; no result")
    firsts = [run.first[i] for i in sorted(run.first)]
    values = {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(run.times),
        "psnr_db": statistics.fmean(q["psnr_db"] for q in firsts),
        "ssim": statistics.fmean(q["ssim"] for q in firsts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"setup_s": len(setup_times), "op_s": len(run.times), "psnr_db": len(firsts),
              "ssim": len(firsts), "peak_rss_mb": 1}
    how = {"setup_s": "median of set-ups", "op_s": "median per operation",
           "psnr_db": "mean over inputs", "ssim": "mean over inputs",
           "peak_rss_mb": "peak RSS of this process"}
    print(f"# {'metric':<12} {'value':>14} {'unit':<4} {'better':<6} {'n':>4}  how")
    for name, unit, better in END_TO_END:
        print(f"# {name:<12} {values[name]:>14.6g} {unit:<4} {better:<6} {counts[name]:>4}  "
              f"{how[name]}")
    tail = tail_percentile(run.times)
    if tail is not None:
        print(f"# op_s p{tail[0]:.0f} = {tail[1]:.6g} s (n={len(run.times)})")
    drops = [q["drop_db"] for q in firsts if "drop_db" in q]
    if drops:
        print(f"# drop_db (max PSNR over iterations minus final, lower better) = "
              f"{statistics.fmean(drops):.6g} dB")
    return _metric_dict(values, {n: u for n, u, _ in END_TO_END}), True


def traced(run: Run, spans_path: Path) -> tuple[dict, bool]:
    run.setup()
    start = time.perf_counter()
    run.one_op(0)
    untraced_s = run.times[0] if run.times else float("nan")
    n_untraced = len(run.times)
    tracer = Tracer()
    targets = trace_targets()
    originals = [vars(owner).get(attr) for owner, attr, _, _ in targets]
    with tracer.installed(targets):
        run.setup(tracer)
        run.loop(start, tracer, whole_cycles=True)
    leaked = [f"{getattr(owner, '__name__', owner)}.{attr}"
              for (owner, attr, _, _), orig in zip(targets, originals)
              if vars(owner).get(attr) is not orig]
    if leaked:
        run.notes.append("wraps left installed after the traced run: " + ", ".join(leaked))
    traced_times = run.times[n_untraced:]
    if not traced_times:
        raise SystemExit("perfbench: no traced operation succeeded; no result")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(str(spans_path))
    values, ops = layer_metrics(tracer, run, traced_times, untraced_s)
    op_s = values["trace.op_s"]
    print(f"# traced op {op_s:.6g} s (median of {len(traced_times)}), "
          f"untraced {untraced_s:.6g} s, "
          f"overhead {values['trace.overhead_s']:+.6g} s; spans -> {spans_path}")
    print(f"# {'layer span':<32} {'calls/op':>10} {'self s/op':>11} {'share':>7}")
    rows = sorted(ops.names(), key=lambda k: -ops.get(k))
    for name in rows:
        self_s = ops.get(name) / ops.roots
        print(f"# {name:<32} {ops.get(name, 'calls') / ops.roots:>10.6g} {self_s:>11.6g} "
              f"{self_s / op_s:>7.1%}")
    for name, unit, better in PER_LAYER:
        print(f"# {name:<32} {values[name]:>14.6g} {unit:<8} {better}")
    return _metric_dict(values, {n: u for n, u, _ in PER_LAYER}), not leaked


def write_reference(workload_name: str, run: Run) -> None:
    refs = {}
    if REFERENCE_FILE.exists():
        refs = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    keep = ("psnr_db", "ssim", "loss", "grad")
    refs[workload_name] = [{k: run.first[i][k] for k in keep if k in run.first[i]}
                           for i in sorted(run.first)]
    # One line per input keeps the file reviewable.
    blocks = [f' "{name}": [\n' + ",\n".join("  " + json.dumps(e, sort_keys=True)
                                              for e in entries) + "\n ]"
              for name, entries in sorted(refs.items())]
    REFERENCE_FILE.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                    help="tiny runs the same code path on small inputs (tests)")
    ap.add_argument("--write-reference", action="store_true",
                    help="record this run's seed-0 outputs in reference.json")
    args = ap.parse_args(argv)
    if args.write_reference and (args.seed != 0 or args.scale != "paper"):
        ap.error("--write-reference records seed 0 at paper scale only")

    run = Run(make_workload(args.workload, args.scale), args.seed, args.seconds,
              WORK_DIR / f"{args.workload}-{os.getpid()}")
    print("# provenance " + json.dumps(provenance(args)))
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, correct = traced(run, spans)
        else:
            metrics, correct = untraced(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    if args.scale == "paper" and args.seed == 0:
        if args.write_reference:
            write_reference(args.workload, run)
        correct = run.check_reference(args.workload) and correct
    for note in run.notes:
        print(f"# note: {note}", file=sys.stderr)
    result = {"correct": bool(correct and run.failed == 0), "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
