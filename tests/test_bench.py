import math
import os

import pytest

from vsci.bench import BenchSpec, MethodSpec, run_trajectory_bench
from vsci.maps import pnp_gap_solve
from vsci.sci import forward, mask_generate
from vsci.synth import SyntheticScene, synth_video

SCENE = SyntheticScene(kind="moving_square", seed=0, h=12, w=12, b=2)
MASK = mask_generate(0, SCENE.h, SCENE.w, SCENE.b, kind="bernoulli", p=0.5, policy="floor")


def _spec(tmp_path, **kw):
    kw = {"max_iter": 4, "timing": "none", **kw}
    return BenchSpec(scenes=[SCENE], methods=[MethodSpec(name="pnp_gap")], mask=MASK,
                     outdir=str(tmp_path), **kw)


def test_pnp_gap_honours_tv_iters(tmp_path):
    cube = synth_video(SCENE)
    y = forward(MASK, cube)

    def direct(iters):
        res = pnp_gap_solve(MASK, y, (0.05,), 4, tv_iters=iters, tol=0.0, psnr_ref=cube)
        return res.trace.psnrs[-1]

    assert direct(3) != direct(30)
    (row,) = run_trajectory_bench(_spec(tmp_path, tv_iters=3))
    assert row["final_psnr"] == direct(3)


@pytest.mark.parametrize("tol", [-1e-6, math.nan])
def test_negative_tol_rejected(tmp_path, tol):
    with pytest.raises(ValueError, match="tol"):
        _spec(tmp_path, tol=tol)



@pytest.mark.parametrize("tv_iters", [0, -1])
def test_tv_iters_below_one_rejected(tmp_path, tv_iters):
    with pytest.raises(ValueError, match="tv_iters"):
        _spec(tmp_path, tv_iters=tv_iters)


@pytest.mark.parametrize("timing", ["None", "Wall", ""])
def test_unknown_timing_rejected(tmp_path, timing):
    with pytest.raises(ValueError, match="timing"):
        _spec(tmp_path, timing=timing)


@pytest.mark.parametrize("solver", ["pircard", "Anderson", ""])
def test_unknown_solver_rejected(tmp_path, solver):
    with pytest.raises(ValueError, match="solver"):
        _spec(tmp_path, solver=solver)


def test_repeated_method_labels_get_suffixes(tmp_path):
    methods = [MethodSpec(name="pnp_gap", schedule=(0.1,)),
               MethodSpec(name="pnp_gap", schedule=(0.05,))]
    rows = run_trajectory_bench(BenchSpec(scenes=[SCENE], methods=methods, mask=MASK, max_iter=4,
                                          timing="none", outdir=str(tmp_path)))
    assert [r["method"] for r in rows] == ["pnp_gap", "pnp_gap_2"]
    assert rows[0]["final_psnr"] != rows[1]["final_psnr"]
    assert sorted(os.listdir(tmp_path)) == [
        "summary.csv", "trace_moving_square_s0_pnp_gap.csv",
        "trace_moving_square_s0_pnp_gap_2.csv"]
    summary = (tmp_path / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[1] for line in summary[1:]] == ["pnp_gap", "pnp_gap_2"]
