"""The CLI's exit-code contract, driven through main(argv)."""

import dataclasses
import math
import os

import numpy as np
import pytest

import vsci.cli
import vsci.training
from helpers import traced_peak
from vsci import tensorio
from vsci.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_GRADCHECK, EXIT_IO, EXIT_OK, RUN_READS,
                      build_parser, main, save_mask)
from vsci.config import KNOWN_KEYS, defaults
from vsci.denoisers import make_conv_residual, make_gated_cell, save_denoiser
from vsci.errors import DivergedError
from vsci.sci import SensingMask, mask_generate


def _scene_files(tmp_path, h, w, b):
    """An h x w x b mask, measurement and ground truth; returns path prefixes."""
    p = {k: str(tmp_path / k) for k in ("mask", "y.vsci", "gt.vsci")}
    assert main(["mask", "--seed", "0", "--height", str(h), "--width", str(w),
                 "--frames", str(b), "--policy", "floor", "--out", p["mask"]]) == EXIT_OK
    assert main(["simulate", "--mask", p["mask"], "--out-cube", p["gt.vsci"],
                 "--out-meas", p["y.vsci"]]) == EXIT_OK
    return p


@pytest.fixture(scope="module")
def masks(tmp_path_factory):
    """masks(h, w, b): the prefix of the file `vsci mask --seed 0 --policy floor`
    writes at that size, kept apart from each test's tmp_path so a test that
    lists its directory sees only what its own run wrote."""
    root = tmp_path_factory.mktemp("masks")

    def prefix(h, w, b):
        path = str(root / f"m{h}x{w}x{b}")
        if not os.path.exists(path + ".meta"):
            save_mask(path, mask_generate(0, h, w, b, policy="floor"))
        return path
    return prefix


@pytest.fixture
def scene(tmp_path):
    return _scene_files(tmp_path, 16, 16, 4)


def _reconstruct(scene, out, *extra):
    return main(["reconstruct", "--mask", scene["mask"], "--measurement", scene["y.vsci"],
                 "--out", out, *extra])


def _bench(mask, outdir, *methods, extra=()):
    return main(["bench", "--mask", mask, "--n-scenes", "1", "--max-iter", "4", "--timing", "none",
                 "--outdir", outdir, *extra, "--methods", *methods])


def test_success_exits_0(scene, tmp_path):
    out = str(tmp_path / "x.vsci")
    assert _reconstruct(scene, out, "--gt", scene["gt.vsci"], "--max-iter", "5") == EXIT_OK
    assert os.path.exists(out)


def test_unknown_config_key_exits_2(scene, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("solver.tol = 1e-3\nsolver.no_such_key = 1\n", encoding="utf-8")
    out = str(tmp_path / "x.vsci")
    assert _reconstruct(scene, out, "--config", str(cfg)) == EXIT_CONFIG
    assert not os.path.exists(out)


def test_unknown_bench_method_exits_2(tmp_path, masks):
    for method in ("no_such_method", "admm:rho=0.1"):
        assert _bench(masks(12, 12, 2), str(tmp_path / "b"), method) == EXIT_CONFIG
    assert not os.path.exists(tmp_path / "b")


@pytest.mark.parametrize("extra", [("--method", "pnp-admm"), ("--rho", "0.1"),
                                   ("--tv-lam", "0.05")])
def test_pnp_admm_flags_are_gone(scene, tmp_path, extra):
    out = str(tmp_path / "x.vsci")
    with pytest.raises(SystemExit) as exc:
        _reconstruct(scene, out, "--max-iter", "3", *extra)
    assert exc.value.code == 2
    assert not os.path.exists(out)


def test_gt_metric_failure_exits_2_and_writes_nothing(tmp_path):
    # SSIM needs frames of at least 11x11; it fails only after the solve
    files = _scene_files(tmp_path, 8, 8, 2)
    out, trace = str(tmp_path / "x.vsci"), str(tmp_path / "tr.csv")
    assert _reconstruct(files, out, "--method", "pnp-gap", "--max-iter", "3",
                        "--gt", files["gt.vsci"], "--trace", trace) == EXIT_CONFIG
    assert not os.path.exists(out)
    assert not os.path.exists(trace)


@pytest.mark.parametrize("spoil, message", [("nan", "non-finite"), ("frames", "--gt shape")])
def test_bad_gt_cube_exits_2_and_writes_nothing(tmp_path, capsys, spoil, message):
    # a NaN in the reference once gave psnr_db=56.7700 and ssim=nan, exit 0
    files = _scene_files(tmp_path, 16, 16, 2)
    gt = tensorio.read_tensor(files["gt.vsci"])
    if spoil == "nan":
        gt[4, 5, 1] = math.nan
    tensorio.write_tensor(files["gt.vsci"], gt if spoil == "nan" else gt[:, :, :1])
    out, trace = str(tmp_path / "x.vsci"), str(tmp_path / "tr.csv")
    assert _reconstruct(files, out, "--method", "pnp-gap", "--max-iter", "3",
                        "--gt", files["gt.vsci"], "--trace", trace) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(trace)


@pytest.mark.parametrize("second, size, cfg_line, code", [
    ("pnp_gap:nan", 12, "", EXIT_CONFIG),
    ("de_gap:{tmp}/absent", 12, "", EXIT_IO),
    ("de_gap", 12, "bench.solver = pircard", EXIT_CONFIG),
    ("pnp_gap:0.1", 8, "", EXIT_CONFIG),  # SSIM below 11x11
], ids=["bad_schedule", "missing_checkpoint", "bad_solver", "ssim_too_small"])
def test_bench_failing_cell_writes_nothing(tmp_path, masks, second, size, cfg_line, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_line + "\n", encoding="utf-8")
    outdir = str(tmp_path / "b")
    assert _bench(masks(size, size, 2), outdir, "pnp_gap", second.format(tmp=tmp_path),
                  extra=("--config", str(cfg))) == code
    assert not os.path.exists(outdir)


@pytest.mark.parametrize("extra", [
    ("--method", "pnp-gap", "--schedule", "nan"),
    ("--method", "pnp-gap", "--schedule", "0.05,-1"),
    ("--method", "pnp-gap", "--schedule=-inf"),
    ("--method", "pnp-gap", "--schedule", "0.05,nan"),
])
def test_bad_tv_strength_exits_2_and_writes_nothing(scene, tmp_path, extra):
    out = str(tmp_path / "x.vsci")
    assert _reconstruct(scene, out, "--max-iter", "3", *extra) == EXIT_CONFIG
    assert not os.path.exists(out)


@pytest.mark.parametrize("iters", ["0", "-1"])
@pytest.mark.parametrize("method", ["pnp-gap"])
def test_tv_iters_below_one_exits_2_and_writes_nothing(scene, tmp_path, method, iters):
    out = str(tmp_path / "x.vsci")
    assert _reconstruct(scene, out, "--max-iter", "3", "--method", method,
                        "--tv-iters", iters) == EXIT_CONFIG
    assert not os.path.exists(out)


@pytest.mark.parametrize("extra", [("--tol", "nan"), ("--reg", "nan"), ("--tol", "-1")])
@pytest.mark.parametrize("method", ["de-gap", "pnp-gap"])
def test_bad_solver_setting_exits_2_and_writes_nothing(scene, tmp_path, method, extra):
    out = str(tmp_path / "x.vsci")
    assert _reconstruct(scene, out, "--max-iter", "3", "--method", method,
                        *extra) == EXIT_CONFIG
    assert not os.path.exists(out)


@pytest.mark.parametrize("extra", [("--solver", "picard"), ("--solver", "anderson"),
                                   ("--memory", "5"), ("--damping", "0.5"), ("--reg", "1e-6")])
def test_pnp_gap_rejects_solver_flags(scene, tmp_path, extra, capsys):
    # GAP-TV always runs undamped Picard; a solver flag would be ignored
    out, trace = str(tmp_path / "x.vsci"), str(tmp_path / "tr.csv")
    assert _reconstruct(scene, out, "--max-iter", "3", "--method", "pnp-gap",
                        "--trace", trace, *extra) == EXIT_CONFIG
    assert extra[0] in capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(trace)


@pytest.mark.parametrize("key, flag, value", [("solver.anderson_memory", "--memory", "5"),
                                              ("solver.anderson_damping", "--damping", "0.5"),
                                              ("solver.anderson_reg", "--reg", "1e-3")])
def test_pnp_gap_rejects_solver_keys_in_config(scene, tmp_path, key, flag, value, capsys):
    # the config file's Anderson keys are refused as the matching flags are;
    # de-gap reads them, and gives what the flag gives
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    out, trace = str(tmp_path / "x.vsci"), str(tmp_path / "tr.csv")
    assert _reconstruct(scene, out, "--max-iter", "3", "--method", "pnp-gap",
                        "--config", str(cfg), "--trace", trace) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(trace)
    x_cfg, x_flag = str(tmp_path / "x_cfg.vsci"), str(tmp_path / "x_flag.vsci")
    base = ("--max-iter", "6", "--tol", "0", "--method", "de-gap")
    assert _reconstruct(scene, x_cfg, *base, "--config", str(cfg)) == EXIT_OK
    assert _reconstruct(scene, x_flag, *base, flag, value) == EXIT_OK
    assert np.array_equal(tensorio.read_tensor(x_cfg), tensorio.read_tensor(x_flag))


@pytest.mark.parametrize("extra, cfg_line", [
    (("--memory", "5"), ""), (("--damping", "0.5"), ""), (("--reg", "1e-6"), ""),
    ((), "solver.anderson_memory = 5"), ((), "solver.anderson_damping = 0.5"),
    ((), "solver.anderson_reg = 1e-6"),
], ids=["memory", "damping", "reg", "memory_key", "damping_key", "reg_key"])
@pytest.mark.parametrize("method", ["de-gap", "de-rnn"])
def test_picard_solver_rejects_anderson_settings(scene, tmp_path, method, extra, cfg_line,
                                                 capsys):
    # --solver picard runs undamped Picard, as pnp-gap does; it would ignore them
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_line + "\n", encoding="utf-8")
    out, trace = str(tmp_path / "x.vsci"), str(tmp_path / "tr.csv")
    assert _reconstruct(scene, out, "--max-iter", "3", "--method", method, "--solver", "picard",
                        "--config", str(cfg), "--trace", trace, *extra) == EXIT_CONFIG
    assert (extra[0] if extra else cfg_line.split(" ")[0]) in capsys.readouterr().err
    assert not os.path.exists(out) and not os.path.exists(trace)


def test_anderson_memory_one_still_runs(scene, tmp_path):
    out = str(tmp_path / "x.vsci")
    assert _reconstruct(scene, out, "--max-iter", "3", "--solver", "anderson",
                        "--memory", "1") == EXIT_OK
    assert os.path.exists(out)


@pytest.mark.parametrize("extra", [("--schedule", "0.05"), ("--tv-iters", "30"),
                                   ("--schedule", "0.1,0.05", "--tv-iters", "5")])
@pytest.mark.parametrize("method", ["de-gap", "de-rnn"])
def test_equilibrium_methods_reject_tv_flags(scene, tmp_path, method, extra, capsys):
    # only pnp-gap runs a TV prox; de-gap/de-rnn would ignore these flags
    out, trace = str(tmp_path / "x.vsci"), str(tmp_path / "tr.csv")
    assert _reconstruct(scene, out, "--max-iter", "3", "--method", method,
                        "--trace", trace, *extra) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert all(flag in err for flag in extra if flag.startswith("--"))
    assert not os.path.exists(out) and not os.path.exists(trace)


def test_pnp_gap_tv_defaults_and_checkpoint(scene, tmp_path):
    # no --schedule/--tv-iters means 0.05 and 30; --checkpoint is accepted
    # and unused, as every benchmark method is given one
    ckpt = str(tmp_path / "ckpt")
    save_denoiser(ckpt, make_conv_residual(0, channels=4, n_layers=2))
    outs = [str(tmp_path / f"x{i}.vsci") for i in range(3)]
    runs = [(), ("--schedule", "0.05", "--tv-iters", "30"), ("--checkpoint", ckpt)]
    for out, extra in zip(outs, runs):
        assert _reconstruct(scene, out, "--max-iter", "3", "--tol", "0",
                            "--method", "pnp-gap", *extra) == EXIT_OK
    x_default, x_explicit, x_ckpt = (tensorio.read_tensor(o) for o in outs)
    assert np.array_equal(x_default, x_explicit)
    assert np.array_equal(x_default, x_ckpt)
    x_other = str(tmp_path / "x_other.vsci")
    assert _reconstruct(scene, x_other, "--max-iter", "3", "--tol", "0",
                        "--method", "pnp-gap", "--tv-iters", "29") == EXIT_OK
    assert not np.array_equal(x_default, tensorio.read_tensor(x_other))


def test_pnp_gap_accepts_other_solver_keys_in_config(scene, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("solver.max_iter = 3\nsolver.tol = 0\n", encoding="utf-8")
    out = str(tmp_path / "x.vsci")
    assert _reconstruct(scene, out, "--method", "pnp-gap", "--config", str(cfg)) == EXIT_OK
    assert os.path.exists(out)


def test_solver_flag_defaults_to_anderson(scene, tmp_path):
    outs = [str(tmp_path / f"x{i}.vsci") for i in range(3)]
    for out, extra in zip(outs, [(), ("--solver", "anderson"), ("--solver", "picard")]):
        assert _reconstruct(scene, out, "--max-iter", "6", "--tol", "0", *extra) == EXIT_OK
    x_default, x_anderson, x_picard = (tensorio.read_tensor(o) for o in outs)
    assert np.array_equal(x_default, x_anderson)
    assert not np.array_equal(x_default, x_picard)


@pytest.mark.parametrize("method", ["de-gap", "de-rnn"])
def test_picard_is_anderson_memory_one(scene, tmp_path, capsys, method):
    # --solver picard builds the memory-1 config that --memory 1 gives
    runs = {"picard": ("--solver", "picard"), "memory1": ("--memory", "1")}
    outputs = {}
    for name, extra in runs.items():
        out, trace = tmp_path / f"x_{name}.vsci", tmp_path / f"tr_{name}.csv"
        assert _reconstruct(scene, str(out), "--method", method, "--max-iter", "6", "--tol", "0",
                            "--gt", scene["gt.vsci"], "--trace", str(trace), *extra) == EXIT_OK
        rows = [line.split(",") for line in trace.read_text(encoding="utf-8").splitlines()]
        assert rows[0][-1] == "time_ms"
        outputs[name] = (out.read_bytes(), capsys.readouterr().out, [r[:-1] for r in rows])
    assert outputs["picard"] == outputs["memory1"]
    assert len(outputs["picard"][2]) == 7


@pytest.mark.parametrize("config", ["malformed", "missing"])
def test_unreadable_config_exits_2_and_writes_nothing(scene, tmp_path, capsys, config):
    cfg = tmp_path / "run.cfg"
    if config == "malformed":
        cfg.write_text("solver.tol = 1e-3\nsolver.max_iter 5\n", encoding="utf-8")
    out = str(tmp_path / "x.vsci")
    assert _reconstruct(scene, out, "--config", str(cfg)) == EXIT_CONFIG
    assert str(cfg) in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("method, bound", [("de-gap", 13.85), ("pnp-gap", 5.80)])
def test_reconstruct_peak_in_cubes(tmp_path, method, bound):
    # A 64x64x8 reconstruction, 20 iterations with a PSNR per iteration,
    # under tracemalloc. Live at the peak: the bool mask (1/8 cube) and the
    # reference; for de-gap the Anderson m=3 rings (6 rows), x in one G row
    # and one Y row receiving the projection and its in-place denoise, plus
    # the denoiser's tile working set; for pnp-gap x, its partner buffer and
    # the TV prox's working set. Measured 13.31-13.35 (de-gap) and
    # 5.15-5.30 (pnp-gap) cubes; each bound is the highest plus 0.5 cube.
    # With x held beside the rings, de-gap peaked at 14.06-14.21; with f(x),
    # the denoise, the trace's PSNR and the mix in new arrays, at 16.95;
    # with the initial estimate held through the solve and the PSNR,
    # projection and TV temporaries, the peaks were 17.95 and 7.67.
    files = _scene_files(tmp_path, 64, 64, 8)
    extra = ["--method", method]
    if method == "de-gap":
        ckpt = str(tmp_path / "ckpt")
        save_denoiser(ckpt, make_conv_residual(0, channels=8, n_layers=2, gamma=0.3))
        extra += ["--checkpoint", ckpt]
    argv = ["reconstruct", "--mask", files["mask"], "--measurement", files["y.vsci"],
            "--gt", files["gt.vsci"], "--out", str(tmp_path / "x.vsci"),
            "--trace", str(tmp_path / "tr.csv"), "--tol", "0", "--max-iter", "20", *extra]
    assert traced_peak(main, argv) <= bound * 64 * 64 * 8 * 8


def test_missing_measurement_exits_3(scene, tmp_path):
    out = str(tmp_path / "x.vsci")
    code = main(["reconstruct", "--mask", scene["mask"],
                 "--measurement", str(tmp_path / "absent.vsci"), "--out", out])
    assert code == EXIT_IO
    assert not os.path.exists(out)


@pytest.mark.parametrize("tau", ["0", "-1e-6", "nan", "inf"])
def test_bad_floor_tau_mask_exits_2_and_writes_nothing(tmp_path, tau):
    assert main(["mask", "--seed", "0", "--height", "4", "--width", "4", "--frames", "2",
                 "--policy", "floor", f"--tau={tau}", "--out", str(tmp_path / "m")]) == EXIT_CONFIG
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("key, value", [("floor_tau", "0"), ("floor_tau", "nan"),
                                        ("policy", "clamp")])
def test_bad_mask_meta_exits_2_and_writes_nothing(scene, tmp_path, key, value):
    meta = tensorio.read_kv(scene["mask"] + ".meta")
    meta[key] = value
    tensorio.write_kv(scene["mask"] + ".meta", meta)
    out = str(tmp_path / "x.vsci")
    assert _reconstruct(scene, out, "--max-iter", "3", "--method", "pnp-gap") == EXIT_CONFIG
    assert main(["simulate", "--mask", scene["mask"], "--out-cube", out,
                 "--out-meas", str(tmp_path / "y2.vsci")]) == EXIT_CONFIG
    assert not os.path.exists(out)
    assert not os.path.exists(tmp_path / "y2.vsci")


def _mask_entry(value):
    def spoil(prefix):
        frames = tensorio.read_tensor(prefix + ".vsci")
        frames[3, 5, 1] = value
        tensorio.write_tensor(prefix + ".vsci", frames)
    return spoil


def _one_frame_mask(prefix):
    tensorio.write_tensor(prefix + ".vsci", tensorio.read_tensor(prefix + ".vsci")[:, :, 0])


@pytest.mark.parametrize("spoil, reason", [
    (_mask_entry(math.nan), "non-finite"), (_mask_entry(math.inf), "non-finite"),
    (_mask_entry(-math.inf), "non-finite"), (_mask_entry(-0.5), "negative"),
    (_mask_entry(-1.0), "negative"), (_one_frame_mask, "3D"),
], ids=["nan", "inf", "-inf", "-0.5", "-1", "2d"])
def test_malformed_mask_file_exits_2_and_writes_nothing(scene, tmp_path, capsys, spoil, reason):
    spoil(scene["mask"])
    out, meas = str(tmp_path / "x.vsci"), str(tmp_path / "y2.vsci")
    assert _reconstruct(scene, out, "--max-iter", "3", "--method", "pnp-gap") == EXIT_CONFIG
    assert main(["simulate", "--mask", scene["mask"], "--out-cube", out,
                 "--out-meas", meas]) == EXIT_CONFIG
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2
    assert all("mask frames" in e and reason in e for e in errors)
    assert not os.path.exists(out)
    assert not os.path.exists(meas)


def test_unnormalized_checkpoint_diverges_exits_4(scene, tmp_path):
    ckpt = str(tmp_path / "wild")
    save_denoiser(ckpt, make_conv_residual(1, channels=4, n_layers=2, gamma=0.9,
                                           init="random", noise_scale=50))
    out = str(tmp_path / "x.vsci")
    assert _reconstruct(scene, out, "--method", "de-gap", "--checkpoint", ckpt) == EXIT_DIVERGED
    assert not os.path.exists(out)


def _drop_sn_seed(prefix):
    meta = tensorio.read_kv(prefix + ".meta")
    del meta["sn_seed"]
    tensorio.write_kv(prefix + ".meta", meta)


def _malformed_shape(prefix):
    meta = tensorio.read_kv(prefix + ".meta")
    meta["kernels"] = "4x3"
    tensorio.write_kv(prefix + ".meta", meta)


def _two_output_last_layer(prefix):
    # one more output channel on the last layer (two for conv_residual,
    # three for the gated cell); theta gets the entries the wider layer
    # needs, so only the model's own channel check can reject the checkpoint
    meta = tensorio.read_kv(prefix + ".meta")
    *first, last = meta["kernels"].split()
    c_out, rest = last.split("x", 1)
    meta["kernels"] = " ".join(first + [f"{int(c_out) + 1}x{rest}"])
    tensorio.write_kv(prefix + ".meta", meta)
    extra = np.zeros(int(np.prod([int(n) for n in rest.split("x")])) + 1)
    theta = tensorio.read_tensor(prefix + ".vsci")
    tensorio.write_tensor(prefix + ".vsci", np.concatenate([theta, extra]))


def _nan_theta(prefix):
    theta = tensorio.read_tensor(prefix + ".vsci")
    theta[0] = float("nan")
    tensorio.write_tensor(prefix + ".vsci", theta)


def _short_theta(prefix):
    tensorio.write_tensor(prefix + ".vsci", tensorio.read_tensor(prefix + ".vsci")[:-1])


def _three_channel_input(prefix):
    # the gated cell's old layout, whose input layer read x, Phi^T y and
    # Phi^T (y - Phi x); theta gets the entries that layer needs
    meta = tensorio.read_kv(prefix + ".meta")
    first, *rest = meta["kernels"].split()
    c_out, _, kh, kw = (int(n) for n in first.split("x"))
    meta["kernels"] = " ".join([f"{c_out}x3x{kh}x{kw}"] + rest)
    tensorio.write_kv(prefix + ".meta", meta)
    theta = tensorio.read_tensor(prefix + ".vsci")
    tensorio.write_tensor(prefix + ".vsci", np.concatenate([np.zeros(2 * c_out * kh * kw), theta]))


@pytest.mark.parametrize("method", ["de-gap", "de-rnn"])
@pytest.mark.parametrize("spoil", [_drop_sn_seed, _malformed_shape, _two_output_last_layer,
                                   _nan_theta, _short_theta, _three_channel_input,
                                   "other_kind"])
def test_bad_checkpoint_exits_2_and_writes_nothing(scene, tmp_path, method, spoil):
    gap, rnn = str(tmp_path / "gap"), str(tmp_path / "rnn")
    save_denoiser(gap, make_conv_residual(1, channels=4, n_layers=2, gamma=0.3))
    save_denoiser(rnn, make_gated_cell(2, channels=4, init_scale=0.1))
    own, other = (gap, rnn) if method == "de-gap" else (rnn, gap)
    if spoil == "other_kind":
        own = other
    else:
        spoil(own)
    out = str(tmp_path / "x.vsci")
    assert _reconstruct(scene, out, "--method", method, "--checkpoint", own) == EXIT_CONFIG
    assert not os.path.exists(out)


def _three_layer_cell(prefix):
    # the gated cell's earlier layout: input 1 -> C, then gate and candidate
    # C -> 1 each; theta has as many entries as the fused C -> 2 layout, so
    # only the layer-shape check can refuse it
    meta = tensorio.read_kv(prefix + ".meta")
    first, fused = meta["kernels"].split()
    one = "1x" + fused.split("x", 1)[1]
    meta["kernels"] = " ".join([first, one, one])
    tensorio.write_kv(prefix + ".meta", meta)


def test_three_layer_cell_checkpoint_exits_2_and_writes_nothing(scene, tmp_path, masks):
    ckpt = str(tmp_path / "cell")
    save_denoiser(ckpt, make_gated_cell(2, channels=4, init_scale=0.1))
    _three_layer_cell(ckpt)
    out = str(tmp_path / "x.vsci")
    assert _reconstruct(scene, out, "--method", "de-rnn", "--checkpoint", ckpt) == EXIT_CONFIG
    assert not os.path.exists(out)
    outdir = tmp_path / "bench"
    assert _bench(masks(12, 12, 2), str(outdir), f"de_rnn:{ckpt}") == EXIT_CONFIG
    assert not outdir.exists() or list(outdir.iterdir()) == []


def test_untrained_de_rnn_equals_untrained_de_gap(scene, tmp_path, capsys):
    x_hat = {}
    for method in ("de-gap", "de-rnn"):
        out = str(tmp_path / f"{method}.vsci")
        assert _reconstruct(scene, out, "--method", method) == EXIT_OK
        printed = dict(kv.split("=") for kv in capsys.readouterr().out.split())
        assert float(printed["measurement_consistency_inf"]) <= 1e-12
        x_hat[method] = tensorio.read_tensor(out)
    assert np.array_equal(x_hat["de-rnn"], x_hat["de-gap"])


def test_training_abort_exits_4_and_writes_no_checkpoint(tmp_path, masks, monkeypatch, capsys):
    def diverge(*_args, **_kwargs):
        raise DivergedError("forced")

    monkeypatch.setattr(vsci.training, "loss_gradient", diverge)
    prefix = str(tmp_path / "model")
    code = main(["train", "--mask", masks(8, 8, 2),
                 "--train-scenes", "2", "--val-scenes", "0", "--epochs", "1",
                 "--out-prefix", prefix])
    assert code == EXIT_DIVERGED
    assert "training aborted: epoch 0: 2/2 samples diverged" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_training_abort_writes_the_epochs_run_to_the_log(tmp_path, masks, monkeypatch, capsys):
    # epoch 0 trains; every solve of epoch 1 diverges, which aborts it
    real = vsci.training.loss_gradient
    calls = []

    def diverge_after_two(*args, **kwargs):
        calls.append(None)
        if len(calls) > 2:
            raise DivergedError("forced")
        return real(*args, **kwargs)

    monkeypatch.setattr(vsci.training, "loss_gradient", diverge_after_two)
    log = tmp_path / "log.csv"
    code = main(["train", "--mask", masks(8, 8, 2),
                 "--train-scenes", "2", "--val-scenes", "0", "--epochs", "3", "--lr", "0",
                 "--out-prefix", str(tmp_path / "model"), "--log", str(log)])
    assert code == EXIT_DIVERGED
    assert "training aborted: epoch 1: 2/2 samples diverged" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["log.csv"]
    header, *rows = log.read_text(encoding="utf-8").splitlines()
    assert header == "epoch,mean_loss,val_psnr,skipped,approximate"
    assert len(rows) == 1
    epoch, mean_loss, val_psnr, skipped, _ = rows[0].split(",")
    assert (epoch, val_psnr, skipped) == ("0", "", "0") and math.isfinite(float(mean_loss))


def test_train_log_records_approximate_gradients(tmp_path, masks, monkeypatch):
    results = []

    def train_and_keep(*args, **kwargs):
        results.append(vsci.training.train(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(vsci.cli, "train", train_and_keep)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("solver.tol = 0\nsolver.max_iter = 3\n", encoding="utf-8")  # every solve capped
    log = tmp_path / "log.csv"
    assert main(["train", "--config", str(cfg), "--mask", masks(8, 8, 2),
                 "--train-scenes", "2", "--val-scenes", "0", "--epochs", "2", "--lr", "0",
                 "--out-prefix", str(tmp_path / "model"), "--log", str(log)]) == EXIT_OK
    header, *rows = log.read_text(encoding="utf-8").splitlines()
    assert header == "epoch,mean_loss,val_psnr,skipped,approximate"
    column = [int(row.split(",")[4]) for row in rows]
    assert column == [epoch.approximate for epoch in results[0]]
    assert all(n > 0 for n in column)


def test_gradcheck_over_threshold_exits_5(masks):
    assert main(["gradcheck", "--mask", masks(8, 8, 2), "--probes", "2",
                 "--threshold", "0"]) == EXIT_GRADCHECK


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_gradcheck_bad_solve_tol_exits_2(masks, capsys, tol):
    assert main(["gradcheck", "--mask", masks(8, 8, 2), "--solve-tol", tol,
                 "--probes", "2"]) == EXIT_CONFIG
    assert "gradcheck ok" not in capsys.readouterr().out


@pytest.mark.parametrize("flag, value, message", [
    ("--probes", "0", "n_probe must"), ("--probes", "-1", "n_probe must"),
    ("--h", "nan", "h must"), ("--h", "0", "h must"), ("--h", "inf", "h must"),
    ("--h", "-1e-5", "h must"), ("--threshold", "nan", "--threshold must"),
    ("--threshold", "inf", "--threshold must"), ("--threshold", "-1", "--threshold must"),
])
def test_gradcheck_bad_probe_settings_exit_2_before_any_solve(masks, monkeypatch, capsys, flag,
                                                              value, message):
    calls = []
    monkeypatch.setattr(vsci.training, "loss_gradient", lambda *a, **k: calls.append(1))
    assert main(["gradcheck", "--mask", masks(8, 8, 2), f"{flag}={value}"]) == EXIT_CONFIG
    assert calls == []
    assert message in capsys.readouterr().err


def test_negative_val_scenes_exits_2_before_any_epoch(tmp_path, masks, monkeypatch):
    calls = []
    monkeypatch.setattr(vsci.training, "loss_gradient", lambda *a, **k: calls.append(1))
    assert main(["train", "--mask", masks(8, 8, 2), "--train-scenes", "1", "--val-scenes", "-1",
                 "--epochs", "1", "--out-prefix", str(tmp_path / "model")]) == EXIT_CONFIG
    assert calls == []
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("sigma", ["-1", "nan"])
def test_bad_noise_sigma_exits_2_and_writes_nothing(tmp_path, monkeypatch, sigma):
    calls = []
    monkeypatch.setattr(vsci.training, "loss_gradient", lambda *a, **k: calls.append(1))
    p = _scene_files(tmp_path, 12, 12, 2)
    made = sorted(os.listdir(tmp_path))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"bench.noise_sigma = {sigma}\n", encoding="utf-8")
    mask = ["--mask", p["mask"]]
    runs = [
        ["simulate", *mask, "--sigma", sigma,
         "--out-cube", str(tmp_path / "c.vsci"), "--out-meas", str(tmp_path / "y2.vsci")],
        ["train", *mask, "--train-scenes", "1", "--val-scenes", "0", "--sigma", sigma,
         "--out-prefix", str(tmp_path / "model")],
        ["gradcheck", *mask, "--sigma", sigma],
        ["bench", *mask, "--n-scenes", "1", "--outdir", str(tmp_path / "b"), "--config",
         str(cfg), "--methods", "pnp_gap"],
    ]
    for argv in runs:
        assert main(argv) == EXIT_CONFIG, argv[0]
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == sorted(made + ["run.cfg"])


@pytest.mark.parametrize("line", ["train.lr_decay_every = 0", "train.lr_decay = 1.5"])
def test_bad_lr_decay_exits_2_and_writes_no_checkpoint(tmp_path, masks, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    prefix = str(tmp_path / "model")
    assert main(["train", "--config", str(cfg), "--mask", masks(8, 8, 2), "--train-scenes", "1",
                 "--val-scenes", "0", "--epochs", "2", "--out-prefix", prefix]) == EXIT_CONFIG
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_nan_momentum_exits_2_before_any_epoch(tmp_path, masks, monkeypatch):
    calls = []
    monkeypatch.setattr(vsci.training, "loss_gradient", lambda *a, **k: calls.append(1))
    prefix = str(tmp_path / "model")
    assert main(["train", "--momentum", "nan", "--mask", masks(8, 8, 2), "--train-scenes", "1",
                 "--val-scenes", "0", "--epochs", "2", "--out-prefix", prefix]) == EXIT_CONFIG
    assert calls == []
    assert os.listdir(tmp_path) == []


def _train_8x8(tmp_path, mask, *extra):
    return main(["train", "--mask", mask, "--train-scenes", "1", "--epochs", "1",
                 "--out-prefix", str(tmp_path / "model"), "--log", str(tmp_path / "log.csv"),
                 *extra])


def test_infinite_lr_exits_2_and_writes_nothing(tmp_path, masks, capsys):
    assert _train_8x8(tmp_path, masks(8, 8, 2), "--lr", "inf", "--val-scenes", "0") == EXIT_CONFIG
    assert "lr must be finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("val_scenes", ["0", "1"])
def test_non_finite_update_exits_4_with_the_log_and_no_checkpoint(tmp_path, masks, capsys,
                                                                 val_scenes):
    # lr = 1e308 is finite, but the first update overflows the parameters
    assert _train_8x8(tmp_path, masks(8, 8, 2), "--lr", "1e308",
                      "--val-scenes", val_scenes) == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "training aborted: epoch 0: an update left a parameter non-finite" in err
    assert os.listdir(tmp_path) == ["log.csv"]
    rows = (tmp_path / "log.csv").read_text(encoding="utf-8").splitlines()
    assert rows == ["epoch,mean_loss,val_psnr,skipped,approximate"]


def test_spectrum_at_64x64x8_prints_what_it_writes(tmp_path, masks, capsys):
    out = str(tmp_path / "spectrum.kv")
    assert main(["spectrum", "--mask", masks(64, 64, 8), "--out", out]) == EXIT_OK
    printed = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert printed == tensorio.read_kv(out)
    assert list(printed) == ["sigma_hat", "idempotence_defect", "n_unit_eigenvalues",
                             "n_zero_eigenvalues"]
    # floor policy, default tau: live pixels give 1 and dead pixels 0
    assert int(printed["n_unit_eigenvalues"]) + int(printed["n_zero_eigenvalues"]) == 64 * 64 * 8


@pytest.mark.parametrize("make", [
    lambda: make_conv_residual(3, channels=4, n_layers=2, gamma=0.3),
    lambda: make_gated_cell(3, channels=4, init_scale=0.3, gamma=0.3),
], ids=["conv_residual", "gated_cell"])
def test_spectrum_reads_either_checkpoint_kind(tmp_path, masks, capsys, make):
    ckpt = str(tmp_path / "ckpt")
    save_denoiser(ckpt, make())
    assert main(["spectrum", "--mask", masks(6, 6, 3), "--checkpoint", ckpt]) == EXIT_OK
    printed = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert 0.0 < float(printed["sigma_hat"]) < float("inf")


def test_spectrum_pairs_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--mask", "m", "--pairs", "4"])
    assert exc.value.code == 2


def test_spectrum_reject_policy_on_dead_pixel_exits_2(tmp_path):
    # a camera's mask file with a pixel that no frame opens; `vsci mask`
    # refuses to write one under the reject policy, which a file without
    # .meta has
    frames = np.ones((8, 8, 2))
    frames[3, 5] = 0.0
    mask, out = str(tmp_path / "mask"), str(tmp_path / "spectrum.kv")
    tensorio.write_tensor(mask + ".vsci", frames)
    assert main(["spectrum", "--mask", mask, "--out", out]) == EXIT_CONFIG
    assert not os.path.exists(out)


def test_commands_run_on_a_non_binary_mask(tmp_path, capsys):
    # a float mask, as a hardware capture ships, which `vsci mask` cannot write
    frames = np.random.default_rng(0).uniform(0.2, 1.0, (12, 12, 2))
    mask = str(tmp_path / "mask")
    save_mask(mask, SensingMask(frames=frames))
    assert main(["spectrum", "--mask", mask]) == EXIT_OK
    printed = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines())
    assert int(printed["n_unit_eigenvalues"]) == 12 * 12  # every pixel is live
    cube, meas = str(tmp_path / "c.vsci"), str(tmp_path / "y.vsci")
    assert main(["simulate", "--mask", mask, "--out-cube", cube, "--out-meas", meas]) == EXIT_OK
    y = np.einsum("hwb,hwb->hw", frames, tensorio.read_tensor(cube))
    assert np.array_equal(tensorio.read_tensor(meas), y)
    assert main(["train", "--mask", mask, "--train-scenes", "1", "--val-scenes", "1",
                 "--epochs", "1", "--out-prefix", str(tmp_path / "model")]) == EXIT_OK
    assert main(["bench", "--mask", mask, "--n-scenes", "1", "--max-iter", "3", "--timing", "none",
                 "--outdir", str(tmp_path / "b"), "--methods", "de_gap", "pnp_gap"]) == EXIT_OK
    assert "DIVERGED" not in capsys.readouterr().out


def _trace_csvs(_stdout, files):
    return [data for name, data in files.items() if name.startswith("trace_")]


# each command's arguments for a small run; {out} is the run's own directory
_SMALL_RUN = {
    "train": ["--train-scenes", "1", "--val-scenes", "1", "--epochs", "1",
              "--out-prefix", "{out}/m", "--log", "{out}/log.csv"],
    "gradcheck": ["--probes", "3"],
    "bench": ["--n-scenes", "1", "--max-iter", "3", "--timing", "none", "--outdir", "{out}",
              "--methods", "pnp_gap"],
    "simulate": ["--sigma", "0.05", "--out-cube", "{out}/c.vsci", "--out-meas", "{out}/y.vsci"],
    "spectrum": ["--checkpoint", "{ckpt}", "--out", "{out}/s.kv"],
}


def _file(name):
    return lambda _stdout, files: files[name]


def _stdout(stdout, _files):
    return stdout


# the desk model's flags, each with its default and one other value
_MODEL_FLAGS = [("--data-seed", "100", "7"), ("--model-seed", "0", "1"),
                ("--channels", "8", "4"), ("--layers", "2", "3"), ("--gamma", "0.3", "0.5")]


# command, flag, two values, and what the second value must change
@pytest.mark.parametrize("command, flag, first, second, changed", [
    *[("train", *flag, _file("m.vsci")) for flag in _MODEL_FLAGS],
    *[("gradcheck", *flag, _stdout) for flag in _MODEL_FLAGS],
    ("bench", "--scene-seed", "0", "3", _trace_csvs),
    ("simulate", "--noise-seed", "1234", "5", _file("y.vsci")),
    ("spectrum", "--iters", "5", "6", _file("s.kv")),
], ids=[*(f"{c}-{f[0][2:]}" for c in ("train", "gradcheck") for f in _MODEL_FLAGS),
        "bench-scene-seed", "simulate-noise-seed", "spectrum-iters"])
def test_flag_changes_the_output_and_a_repeat_reproduces_it(tmp_path, masks, capsys, command,
                                                           flag, first, second, changed):
    ckpt = str(tmp_path / "ckpt")
    save_denoiser(ckpt, make_conv_residual(3, channels=4, n_layers=2, gamma=0.3))
    outputs = []
    for name, value in (("a", first), ("b", first), ("c", second)):
        out = tmp_path / name
        out.mkdir()
        argv = [a.format(out=out, ckpt=ckpt) for a in _SMALL_RUN[command]]
        assert main([command, "--mask", masks(12, 12, 2), flag, value, *argv]) == EXIT_OK
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        outputs.append((capsys.readouterr().out.replace(str(out), "{out}"), files))
    assert outputs[0] == outputs[1]
    assert changed(*outputs[0]) != changed(*outputs[2])


def test_bench_timing_none_is_bitwise_reproducible(tmp_path, masks):
    methods = ("de_gap", "de_rnn", "pnp_gap:0.1,0.05")
    dirs = [str(tmp_path / name) for name in ("a", "b")]
    for d in dirs:
        assert _bench(masks(12, 12, 2), d, *methods) == EXIT_OK
    names = sorted(os.listdir(dirs[0]))
    assert names == sorted(os.listdir(dirs[1]))
    assert len(names) == 4  # three trace CSVs and the summary
    for name in names:
        with open(os.path.join(dirs[0], name), "rb") as fa, \
                open(os.path.join(dirs[1], name), "rb") as fb:
            assert fa.read() == fb.read(), name
        if name.startswith("trace_"):
            with open(os.path.join(dirs[0], name), encoding="utf-8") as fh:
                header, *rows = fh.read().splitlines()
            assert header == "iter,residual,rel_residual,psnr,time_ms"
            assert rows and all(row.split(",")[4] == "0.000000" for row in rows), name


# a valid value other than the default, for the keys whose type alone gives none
_OTHER = {"solver.anderson_damping": 0.5, "train.lr_decay": 0.5, "train.momentum": 0.5,
          "train.backward_mode": "neumann", "bench.solver": "picard", "bench.timing": "none"}

# keys deleted with the commands' own mask generators, each with a value it took
_DELETED_KEYS = {"bench.mask_seed": 1, "bench.mask_kind": "all_ones", "bench.mask_p": 0.25,
                 "bench.mask_policy": "reject"}


def _other_value(key):
    default = defaults()[key]
    if key in _OTHER:
        return _OTHER[key]
    return default + 1 if isinstance(default, int) else default / 2 or 0.25


class _Captured(Exception):
    """Raised by a stand-in with the configuration object it was handed."""


def _capture(index):
    def stand_in(*args, **_kwargs):
        raise _Captured(args[index])
    return stand_in


@pytest.mark.parametrize("key", list(KNOWN_KEYS))
def test_every_key_reaches_the_object_it_configures(tmp_path, masks, monkeypatch, key):
    value = _other_value(key)
    assert value != defaults()[key]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    mask = ["--mask", masks(12, 12, 2)]
    section, field = key.split(".")
    if section == "solver":
        # vsci.cli.solve(map, x0, FixedPointConfig, ...)
        monkeypatch.setattr(vsci.cli, "solve", _capture(2))
        p = _scene_files(tmp_path, 12, 12, 2)
        argv = ["reconstruct", "--mask", p["mask"], "--measurement", p["y.vsci"],
                "--out", str(tmp_path / "x.vsci")]
    elif section == "train":
        # vsci.cli.train(model, dataset, TrainConfig, ...)
        monkeypatch.setattr(vsci.cli, "train", _capture(2))
        argv = ["train", *mask, "--train-scenes", "1", "--val-scenes", "0",
                "--out-prefix", str(tmp_path / "model")]
    else:
        # vsci.cli.run_trajectory_bench(BenchSpec)
        monkeypatch.setattr(vsci.cli, "run_trajectory_bench", _capture(0))
        argv = ["bench", *mask, "--outdir", str(tmp_path / "b"), "--methods", "pnp_gap"]
    with pytest.raises(_Captured) as captured:
        main([*argv, "--config", str(cfg)])
    configured = captured.value.args[0]
    got = getattr(configured, field)
    assert got == value
    # an int parsed as a float would pass the equality above (151.0 == 151)
    default = next(f.default for f in dataclasses.fields(configured) if f.name == field)
    assert type(got) is type(default)


# the keys each run reads, stated apart from cli.RUN_READS
_TOL = ["solver.tol", "solver.max_iter"]
_READS = {
    "reconstruct": [k for k in KNOWN_KEYS if k.startswith("solver.")],
    "reconstruct-picard": _TOL,
    "reconstruct-pnp-gap": _TOL,
    "train": [k for k in KNOWN_KEYS if not k.startswith("bench.")],
    "gradcheck": ["solver.max_iter", "solver.anderson_memory", "solver.anderson_damping",
                  "solver.anderson_reg", "train.backward_mode", "train.neumann_order",
                  "train.backward_max_iter"],
    "bench": [k for k in KNOWN_KEYS if k.startswith("bench.")],
}
_VARIANT = {"reconstruct-picard": ["--solver", "picard"],
            "reconstruct-pnp-gap": ["--method", "pnp-gap"]}


@pytest.fixture(scope="module")
def small_scene(tmp_path_factory):
    return _scene_files(tmp_path_factory.mktemp("scene"), 16, 16, 2)


# a deleted key is one that no run reads: each run refuses it as unknown
@pytest.mark.parametrize("run, key", [(run, key) for run, reads in _READS.items()
                                      for key in [*KNOWN_KEYS, *_DELETED_KEYS]
                                      if key not in reads])
def test_every_key_a_run_does_not_read_is_refused(small_scene, masks, tmp_path, capsys, run, key):
    cfg = tmp_path / "run.cfg"
    value = _DELETED_KEYS[key] if key in _DELETED_KEYS else _other_value(key)
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    command = run.split("-")[0]
    mask = ["--mask", masks(8, 8, 2)]
    argv = {
        "reconstruct": ["--mask", small_scene["mask"], "--measurement", small_scene["y.vsci"],
                        "--max-iter", "2", "--out", str(tmp_path / "x.vsci"),
                        "--trace", str(tmp_path / "tr.csv"), *_VARIANT.get(run, [])],
        "train": [*mask, "--train-scenes", "1", "--val-scenes", "0", "--epochs", "1",
                  "--out-prefix", str(tmp_path / "model"), "--log", str(tmp_path / "log.csv")],
        "gradcheck": [*mask, "--probes", "1"],
        "bench": [*mask, "--n-scenes", "1", "--max-iter", "2", "--outdir", str(tmp_path / "b"),
                  "--methods", "pnp_gap"],
    }[command]
    assert main([command, "--config", str(cfg), *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert key in err
    assert ("unknown config key" if key in _DELETED_KEYS else "does not read") in err
    assert os.listdir(tmp_path) == ["run.cfg"]


# optional flags that no row of RUN_READS names: every run of the subcommand
# accepts them (pnp-gap ignores --checkpoint, which the benchmark passes to
# every method)
_EVERY_RUN_FLAGS = {
    "reconstruct": {"--config", "--checkpoint", "--tol", "--max-iter", "--gt", "--trace"},
    "train": {"--config", "--epochs", "--lr", "--momentum", "--backward-mode", "--seed", "--log"},
    "gradcheck": {"--config", "--seed"},
    "bench": {"--config", "--max-iter", "--timing"},
}


def test_run_table_matches_the_keys_and_the_parser():
    # a key or flag that no run reads fails here rather than being ignored
    read = {s for row in RUN_READS.values() for s in row if not s.startswith("--")}
    assert read == set(KNOWN_KEYS)
    parsers = next(a for a in build_parser()._actions if a.choices and "bench" in a.choices)
    with_config = {name for name, p in parsers.choices.items()
                   if any("--config" in a.option_strings for a in p._actions)}
    assert with_config == set(_EVERY_RUN_FLAGS)
    for name in with_config:
        named = {s for run, row in RUN_READS.items() if run.split()[0] == name
                 for s in row if s.startswith("--")}
        actions = {a.option_strings[-1]: a for a in parsers.choices[name]._actions
                   if a.option_strings and a.default is None and not a.required}
        assert set(actions) == named | _EVERY_RUN_FLAGS[name], name
        assert not named & _EVERY_RUN_FLAGS[name], name
        # the refusal reads a flag's value from its attribute, --tv-iters -> tv_iters
        assert all(actions[f].dest == f[2:].replace("-", "_") for f in named), name


def test_deleted_key_is_refused_by_name(tmp_path, masks, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("train.batch_size = 2\n", encoding="utf-8")
    assert main(["train", "--config", str(cfg), "--mask", masks(8, 8, 2),
                 "--out-prefix", str(tmp_path / "m")]) == EXIT_CONFIG
    assert "train.batch_size" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


# each command's required arguments; argparse refuses a deleted flag before
# the run reads the mask, so "m" need not exist
_REQUIRED = {
    "simulate": ["--mask", "m", "--out-cube", "c", "--out-meas", "y"],
    "spectrum": ["--mask", "m"],
    "train": ["--mask", "m", "--out-prefix", "m"],
    "gradcheck": ["--mask", "m"],
    "bench": ["--mask", "m", "--outdir", "b", "--methods", "pnp_gap"],
}
_SIZE = ("--height", "--width", "--frames")
# the flags that drew a command's own mask or gave its cube shape, now the mask file's
_MASK_FLAGS = {"simulate": _SIZE, "spectrum": _SIZE + ("--mask-seed", "--kind", "--p", "--policy"),
               "train": _SIZE + ("--mask-seed", "--mask-p"),
               "gradcheck": _SIZE + ("--mask-seed", "--mask-p"), "bench": _SIZE}
_DELETED_FLAGS = {
    "simulate-amplitude": ("simulate", "--amplitude", "2"),
    "train-amplitude": ("train", "--amplitude", "2"),
    "gradcheck-amplitude": ("gradcheck", "--amplitude", "2"),
    "bench-amplitude": ("bench", "--amplitude", "2"),
    "train-batch-size": ("train", "--batch-size", "2"),
    "train-init": ("train", "--init", "random"),
    "gradcheck-init": ("gradcheck", "--init", "random"),
    "shifting-gradient": ("simulate", "--scene", "shifting_gradient"),
    **{f"{command}-{flag[2:]}": (command, flag, "4")
       for command, flags in _MASK_FLAGS.items() for flag in flags},
}


@pytest.mark.parametrize("command, flag, value", list(_DELETED_FLAGS.values()),
                         ids=list(_DELETED_FLAGS))
def test_deleted_flags_exit_2(tmp_path, monkeypatch, command, flag, value):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, *_REQUIRED[command], flag, value])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


_COMMANDS = ["mask", "simulate", "reconstruct", "train", "gradcheck", "spectrum", "bench"]


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: vsci")


def test_help_lists_every_command_and_exactly_the_config_keys(capsys):
    parsers = next(a for a in build_parser()._actions if a.choices and "bench" in a.choices)
    assert list(parsers.choices) == _COMMANDS
    with pytest.raises(SystemExit):
        main(["--help"])
    epilog = capsys.readouterr().out.split("\nconfig keys", 1)[1].splitlines()[1:]
    assert [line.split()[0] for line in epilog] == list(KNOWN_KEYS)
