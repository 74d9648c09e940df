"""Tests of the benchmark itself: run with ``python3 -m pytest bench`` from the
checkout root. The mini runs take about a minute in all."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declaration_matches_the_runner():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(workloads.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.per_layer_units()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_mini_run_passes_the_output_check(workload):
    result = _result(_run(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = _result(_run("train-coma-desk", 1))
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["training.rollout.calls"] == workloads.DESK_MISSIONS
    assert metrics["policy.critic_builds_per_step"] == 2.0
    assert metrics["trace.accounted_share"] == pytest.approx(1.0, abs=1e-3)


def _bindings() -> dict:
    """Every attribute of every terrascout module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "terrascout" or name.startswith("terrascout.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = id(cvalue)
    return out


def test_tracer_restores_every_wrapped_function():
    workloads.load_program()
    from terrascout import environment, evaluation, gridmap

    before = _bindings()
    original = gridmap.map_entropy
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert gridmap.map_entropy is not original
        assert environment.map_entropy is gridmap.map_entropy
        assert evaluation.map_entropy is gridmap.map_entropy
        assert _bindings() != before
        workload = workloads.EvalBaselines()
        cfg = workload.cfg.__class__(num_agents=2, budget=2, map_resolution=0.5)
        tracer.run_unit(0, evaluation.run_benchmark, workload.specs, 2, 0, cfg)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert gridmap.map_entropy is original
    metrics = tracer.summarize()
    assert metrics["evaluation.run_mission.calls"] == 2 * len(workload.specs)
    assert 0.0 < metrics["gridmap.entropy_fresh_ratio"] <= 1.0


def test_fails_without_the_program():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    try:
        done = _run("eval-baselines-full", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert not done.stdout.strip()
