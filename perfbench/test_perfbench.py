"""Tests of the benchmark itself, on tiny inputs through the same code path.

Run with:  python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import types
from pathlib import Path

import numpy as np
import pytest

import run
from spans import Tracer

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(tmp_path, monkeypatch, *argv) -> tuple[dict, str]:
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path / "spans")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--scale", "tiny", "--seconds", "0", *argv]) == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-1]), out.getvalue()


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(tmp_path, monkeypatch, workload, trace):
    result, _ = _run(tmp_path, monkeypatch, "--workload", workload, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert not (tmp_path / "work").exists()


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.PER_LAYER


def test_traced_counts_repeat_exactly(tmp_path, monkeypatch):
    counts = ("conv.forward.calls", "maps.apply.calls", "maps.vjp_input.calls",
              "fixed_point.fwd_iters", "fixed_point.bwd_iters")
    first, _ = _run(tmp_path, monkeypatch, "--workload", "grad_degap", "--trace", "1")
    again, _ = _run(tmp_path, monkeypatch, "--workload", "grad_degap", "--trace", "1")
    assert first["metrics"]["conv.forward.calls"]["value"] > 0
    for name in counts:
        assert first["metrics"][name] == again["metrics"][name]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seeds_give_different_inputs(tmp_path, workload):
    def inputs(seed):
        wl = run.make_workload(workload, "tiny")
        work = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
        work.mkdir()
        wl.setup(work, seed)
        return wl.fingerprint().copy()

    assert np.array_equal(inputs(3), inputs(3))
    assert not np.array_equal(inputs(3), inputs(4))


def test_tracer_self_time_and_unwrap():
    mod = types.SimpleNamespace()

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(mod.leaf(x))

    mod.leaf, mod.outer = leaf, outer
    tracer = Tracer()
    targets = [(mod, "outer", "outer", None), (mod, "leaf", "leaf", lambda a, r: {"n": r})]
    with tracer.installed(targets):
        with tracer.span("op"):
            assert mod.outer(1) == 3
    assert mod.leaf is leaf and mod.outer is outer
    summary = tracer.aggregate("op")
    assert summary.roots == 1
    assert summary.get("leaf", "calls") == 2 and summary.attr("leaf", "n") == 2 + 3
    assert summary.get(("outer", "leaf"), "calls") == 2
    outer_total = summary.get("outer", "total_s")
    assert summary.get("outer") == pytest.approx(outer_total - summary.get("leaf", "total_s"))


def test_failed_check_is_counted(tmp_path, monkeypatch):
    calls = []
    own_psnr_db = run.own_psnr_db

    def wrong_on_first_call(x, ref):
        calls.append(1)
        return -1.0 if len(calls) == 1 else own_psnr_db(x, ref)

    monkeypatch.setattr(run, "own_psnr_db", wrong_on_first_call)
    result, _ = _run(tmp_path, monkeypatch, "--workload", "recon_pnpgap", "--trace", "0")
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 2
