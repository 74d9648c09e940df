"""The benchmark's workloads: fixed units of work driven through terrascout's API.

A unit is the smallest piece of work whose outputs are deterministic files:
one paired evaluation of the three baselines, or one short training run
from freshly initialised networks. A run repeats units, each keyed by its
own seed, until its time is up; each workload's ``check`` range-checks a unit's
files for any seed, and the runner compares their digests with the
recorded references for the default seed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CFG = ROOT / "cfg"

PLANNERS = ("greedy-ig", "coverage", "random")
EVAL_MISSIONS_PER_PLANNER = 2  # run_benchmark's minimum
DESK_MISSIONS = 60  # three rollout/optimise blocks of 20 missions
FULL_MISSIONS = 2  # one mission per block, so two optimise phases
TRAIN_OUTPUTS = ("training_log.csv", "missions.csv", "actor.ckpt", "critic.ckpt")


def load_program() -> None:
    """Import terrascout from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "terrascout" / "__init__.py").is_file():
        raise ImportError(f"no terrascout package under {SRC}")
    sys.path.insert(0, str(SRC))
    import terrascout
    from terrascout import cli, evaluation, gridmap, nn, training  # noqa: F401

    if Path(terrascout.__file__).resolve().parent != SRC / "terrascout":
        raise ImportError(f"terrascout was imported from {terrascout.__file__}, not {SRC}")


def _configs(name: str):
    from terrascout import cli

    raw = cli.parse_config_file(CFG / name)
    return cli.build_env_config(raw), cli.build_feature_config(raw), cli.build_train_config(raw)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _in_unit_interval(value: float) -> bool:
    return -1e-9 <= value <= 1.0 + 1e-9


class EvalBaselines:
    """Paired evaluation of greedy-ig, coverage and random at full scale.

    gridmap (full-map entropy, full-field noise) and the greedy planner
    dominate; policy, nn and training do no work.
    """

    name = "eval-baselines-full"
    outputs = ("benchmark.csv",)
    missions = EVAL_MISSIONS_PER_PLANNER * len(PLANNERS)
    phases = tuple(p.replace("-", "_") for p in PLANNERS)

    def __init__(self) -> None:
        from terrascout.evaluation import PlannerSpec

        self.cfg, self.fcfg, _ = _configs("full.cfg")
        self.specs = [PlannerSpec(name) for name in PLANNERS]

    def run(self, seed: int, out_dir: Path) -> dict[str, float]:
        """One benchmark call per planner, merged into one table."""
        from terrascout import evaluation

        stats = {}
        phase_s = {}
        for spec, phase in zip(self.specs, self.phases):
            t0 = perf_counter()
            stats.update(evaluation.run_benchmark(
                [spec], EVAL_MISSIONS_PER_PLANNER, seed, self.cfg, fcfg=self.fcfg, threads=1))
            phase_s[phase] = perf_counter() - t0
        evaluation.write_benchmark_csv(out_dir / "benchmark.csv", stats)
        return phase_s

    def check(self, out_dir: Path) -> list[str]:
        rows = _read_rows(out_dir / "benchmark.csv")
        problems = []
        if sorted({r["planner"] for r in rows}) != sorted(PLANNERS) or len(rows) != 9:
            problems.append(f"benchmark.csv has unexpected rows: {len(rows)}")
        for r in rows:
            values = {k: float(r[k]) for k in ("entropy_mean", "entropy_std", "f1_mean", "f1_std")}
            if not all(math.isfinite(v) for v in values.values()):
                problems.append(f"benchmark.csv: non-finite value for {r['planner']}")
            elif not (_in_unit_interval(values["entropy_mean"]) and _in_unit_interval(values["f1_mean"])):
                problems.append(f"benchmark.csv: entropy or F1 outside [0, 1] for {r['planner']}")
            elif values["entropy_std"] < 0 or values["f1_std"] < 0:
                problems.append(f"benchmark.csv: negative spread for {r['planner']}")
        return problems


class _Training:
    """COMA actor-critic training from freshly initialised networks."""

    outputs = TRAIN_OUTPUTS
    cfg_file = ""
    missions = 0

    def __init__(self) -> None:
        self.cfg, self.fcfg, tcfg = _configs(self.cfg_file)
        self.tcfg = self.adjust(replace(tcfg, variant="coma", total_missions=self.missions))

    def adjust(self, tcfg):
        return tcfg

    def run(self, seed: int, out_dir: Path) -> dict[str, float]:
        from terrascout import training

        training.training_loop(self.cfg, self.tcfg, self.fcfg, seed, out_dir)
        return {}

    def check(self, out_dir: Path) -> list[str]:
        from terrascout import nn

        problems = []
        log = _read_rows(out_dir / "training_log.csv")
        if not log or int(log[-1]["missions_done"]) != self.missions:
            problems.append("training_log.csv does not end at the configured mission count")
        for r in log:
            if not all(math.isfinite(float(r[k])) for k in ("mean_return", "actor_loss", "critic_loss")):
                problems.append(f"training_log.csv: non-finite loss or return in block {r['block']}")
        missions = _read_rows(out_dir / "missions.csv")
        if len(missions) != self.missions:
            problems.append(f"missions.csv has {len(missions)} rows, expected {self.missions}")
        for r in missions:
            if not math.isfinite(float(r["return"])) or not _in_unit_interval(float(r["epsilon"])):
                problems.append(f"missions.csv: bad return or epsilon in mission {r['mission']}")
        for ckpt in ("actor.ckpt", "critic.ckpt"):
            params, _ = nn.load_checkpoint(out_dir / ckpt)
            if not all(np.isfinite(p).all() for p in params.values()):
                problems.append(f"{ckpt}: non-finite parameters")
        return problems


class TrainDesk(_Training):
    """Desk-scale training: the nn layer dominates, gridmap is light."""

    name = "train-coma-desk"
    cfg_file = "smoke.cfg"
    missions = DESK_MISSIONS


class TrainFull(_Training):
    """Full-scale training: feature building on 500x500 maps dominates, and
    every local map is both written by fusions and read in full each step."""

    name = "train-coma-full"
    cfg_file = "full.cfg"
    missions = FULL_MISSIONS

    def adjust(self, tcfg):
        per_mission = self.cfg.num_agents * self.cfg.budget
        return replace(tcfg, rollout_block=per_mission, batch_size=per_mission // 2, epochs=2)


WORKLOADS = {w.name: w for w in (EvalBaselines, TrainDesk, TrainFull)}
