"""Mission metrics and the paired benchmark harness.

A mission's progress is scored on the global map against the ground
truth: the normalized region-of-interest entropy (weighted entropy over
interesting cells, divided by its uniform-prior value) and the F1 score
of thresholded per-cell predictions. Benchmarks run every planner on the
same seeded terrains and noise streams (paired design) and aggregate
mean/std at the 1/3, 2/3, and final budget checkpoints.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .environment import (
    Action,
    EnvConfig,
    GroundTruthMap,
    NoiseStreams,
    TerrainEnv,
    generate_terrain,
    policy_rng,
    terrain_rng,
    write_episode_csv,
)
from .errors import ContractViolation, DegenerateTerrainError
from .gridmap import (
    ImportanceWeights,
    OccupancyGrid,
    map_entropy,
    save_grid_pgm,
    weighted_cell_entropy,
)
from .planners import make_planner
from .policy import FeatureConfig


@dataclass
class MetricsRecord:
    step: int
    roi_entropy: float  # normalized by the uniform-prior ROI entropy
    f1: float
    cumulative_reward: float

    def __post_init__(self) -> None:
        if not -1e-9 <= self.roi_entropy <= 1.0 + 1e-9:
            raise ContractViolation(f"normalized ROI entropy {self.roi_entropy} outside [0, 1]")
        if not 0.0 <= self.f1 <= 1.0:
            raise ContractViolation(f"F1 score {self.f1} outside [0, 1]")


@dataclass(frozen=True)
class PlannerSpec:
    """Picklable recipe for building a fresh planner inside a worker."""

    name: str
    actor_path: Optional[str] = None
    mode: str = "sample"

    def build(self, fcfg: FeatureConfig):
        return make_planner(self.name, actor_path=self.actor_path, fcfg=fcfg, mode=self.mode)


@dataclass
class TrialStats:
    planner: str
    checkpoints: list[int]  # step indices
    entropy_mean: list[float]
    entropy_std: list[float]
    f1_mean: list[float]
    f1_std: list[float]


@dataclass
class MissionResult:
    mission: int
    records: list[MetricsRecord]
    episode_rows: list[dict] = field(default_factory=list)
    final_map: Optional[OccupancyGrid] = None
    local_rows: list[dict] = field(default_factory=list)  # per-agent local-map metrics


def roi_entropy(grid: OccupancyGrid, gt: GroundTruthMap, w: ImportanceWeights,
                *, cell_entropy=None) -> float:
    """Weighted entropy over interesting cells, normalized to [0, 1].

    ``cell_entropy`` may carry ``weighted_cell_entropy(grid.probs(), w)``
    computed already; its ROI sum equals the one computed here bit for bit.
    """
    if grid.log_odds.shape != gt.cells.shape:
        raise ContractViolation("grid and ground truth dimensions differ")
    roi = gt.cells == 1
    count = int(roi.sum())
    if count == 0:
        raise DegenerateTerrainError("terrain has no interesting cells")
    h = map_entropy(grid, w, roi) if cell_entropy is None else float(cell_entropy[roi].sum())
    h0 = weighted_cell_entropy(0.5, w) * count
    return h / h0


def f1_score(grid: OccupancyGrid, gt: GroundTruthMap, *, probs=None) -> float:
    """F1 of 'p > 0.5' predictions with the interesting class as positive.

    A map with no confident positives (e.g. the uniform prior) scores 0.
    """
    if grid.log_odds.shape != gt.cells.shape:
        raise ContractViolation("grid and ground truth dimensions differ")
    pred = (grid.probs() if probs is None else probs) > 0.5
    truth = gt.cells == 1
    tp = int((pred & truth).sum())
    fp = int((pred & ~truth).sum())
    fn = int((~pred & truth).sum())
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def checkpoint_steps(budget: int) -> list[int]:
    """Budget thirds: measurement indices after 1/3, 2/3, and all of B."""
    import math

    return [math.ceil(budget / 3), math.ceil(2 * budget / 3), budget]


def run_mission(
    spec: PlannerSpec,
    cfg: EnvConfig,
    base_seed: int,
    mission_index: int = 0,
    *,
    fcfg: FeatureConfig = FeatureConfig(),
    terrain: Optional[GroundTruthMap] = None,
    local_metrics: bool = False,
) -> MissionResult:
    """One seeded mission; metrics are recorded against the global map.

    The step-0 record is taken at the uniform prior (normalized ROI
    entropy exactly 1), before the start measurement is fused; each of the
    B planning steps then appends one record. ``local_metrics`` adds
    per-agent rows scored against each agent's own (communication-limited)
    local map.
    """
    if terrain is None:
        terrain = generate_terrain(terrain_rng(base_seed, mission_index), cfg)
    env = TerrainEnv(cfg, terrain, NoiseStreams(base_seed, mission_index))
    planner = spec.build(fcfg)
    rng = policy_rng(base_seed, mission_index)

    prior = OccupancyGrid.uniform(cfg.map_cells, cfg.map_cells, cfg.map_resolution)
    records = [
        MetricsRecord(0, roi_entropy(prior, terrain, cfg.weights), f1_score(prior, terrain), 0.0)
    ]
    local_rows: list[dict] = []
    env.reset()
    rows = [
        _episode_row(0, i, env, "init", 0.0)
        for i in range(cfg.num_agents)
    ]
    cum = 0.0
    done = False
    t = 0
    while not done:
        t += 1
        masks = env.masks()
        joint = [
            planner.act(env.locals[i], masks[i], cfg, t, rng)
            for i in range(cfg.num_agents)
        ]
        r, done = env.step(joint)
        cum += r
        probs, cell_entropy = env.state.map_planes(cfg.weights)
        records.append(
            MetricsRecord(
                t,
                roi_entropy(env.state.global_map, terrain, cfg.weights, cell_entropy=cell_entropy),
                f1_score(env.state.global_map, terrain, probs=probs),
                cum,
            )
        )
        rows += [
            _episode_row(t, i, env, Action(joint[i]).name.lower(), r)
            for i in range(cfg.num_agents)
        ]
        if local_metrics:
            for i, loc in enumerate(env.locals):
                p = loc.local_map.probs()
                local_rows.append(
                    {
                        "step": t,
                        "agent": i,
                        "roi_entropy": roi_entropy(
                            loc.local_map, terrain, cfg.weights,
                            cell_entropy=weighted_cell_entropy(p, cfg.weights),
                        ),
                        "f1": f1_score(loc.local_map, terrain, probs=p),
                    }
                )
    if len(records) != cfg.budget + 1:
        raise ContractViolation(
            f"mission ended after {len(records) - 1} steps, budget is {cfg.budget}"
        )
    return MissionResult(mission_index, records, rows, env.state.global_map, local_rows)


def _episode_row(step: int, agent: int, env: TerrainEnv, action: str, r: float) -> dict:
    pos = env.cfg.position_m(env.state.positions[agent])
    return {
        "step": step,
        "agent": agent,
        "x": float(pos[0]),
        "y": float(pos[1]),
        "z": float(pos[2]),
        "action": action,
        "reward": r,
        "global_entropy": env.global_entropy(),
    }


def _mission_worker(args) -> tuple[int, list]:
    spec, cfg, base_seed, mission, fcfg, terrain = args
    result = run_mission(spec, cfg, base_seed, mission, fcfg=fcfg, terrain=terrain)
    return mission, result.records


def run_benchmark(
    specs: Sequence[PlannerSpec],
    n_missions: int,
    base_seed: int,
    cfg: EnvConfig,
    *,
    fcfg: FeatureConfig = FeatureConfig(),
    terrain: Optional[GroundTruthMap] = None,
    threads: int = 1,
    dump_dir=None,
) -> dict[str, TrialStats]:
    """Evaluate every planner on the same ``n_missions`` seeded missions.

    Terrain and sensor noise are keyed by (base_seed, mission) alone, so
    all planners see identical worlds. Aggregates use the unbiased (n-1)
    standard deviation.
    """
    if n_missions < 2:
        raise ContractViolation("benchmarks need at least 2 missions")
    steps = checkpoint_steps(cfg.budget)
    out: dict[str, TrialStats] = {}
    for spec in specs:
        label = _label(spec)
        per_mission: dict[int, list[MetricsRecord]] = {}
        jobs = [(spec, cfg, base_seed, m, fcfg, terrain) for m in range(n_missions)]
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                for mission, records in pool.map(_mission_worker, jobs):
                    per_mission[mission] = records
        else:
            for job in jobs:
                mission, records = _mission_worker(job)
                per_mission[mission] = records
        ent = np.array([[per_mission[m][s].roi_entropy for s in steps] for m in range(n_missions)])
        f1 = np.array([[per_mission[m][s].f1 for s in steps] for m in range(n_missions)])
        out[label] = TrialStats(
            planner=label,
            checkpoints=steps,
            entropy_mean=list(ent.mean(axis=0)),
            entropy_std=list(ent.std(axis=0, ddof=1)),
            f1_mean=list(f1.mean(axis=0)),
            f1_std=list(f1.std(axis=0, ddof=1)),
        )
        if dump_dir is not None:
            _dump_mission_details(dump_dir, label, spec, cfg, base_seed, n_missions, fcfg, terrain)
    return out


def benchmark_final_metrics(
    spec: PlannerSpec,
    n_missions: int,
    base_seed: int,
    cfg: EnvConfig,
    *,
    fcfg: FeatureConfig = FeatureConfig(),
    terrain: Optional[GroundTruthMap] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-mission final (entropy, f1) pairs, for paired significance tests."""
    ents, f1s = [], []
    for m in range(n_missions):
        records = run_mission(spec, cfg, base_seed, m, fcfg=fcfg, terrain=terrain).records
        ents.append(records[-1].roi_entropy)
        f1s.append(records[-1].f1)
    return np.array(ents), np.array(f1s)


def _label(spec: PlannerSpec) -> str:
    return spec.name if spec.mode == "sample" else f"{spec.name}:{spec.mode}"


def _dump_mission_details(dump_dir, label, spec, cfg, base_seed, n_missions, fcfg, terrain):
    dump_dir = Path(dump_dir)
    dump_dir.mkdir(parents=True, exist_ok=True)
    for m in range(n_missions):
        result = run_mission(spec, cfg, base_seed, m, fcfg=fcfg, terrain=terrain)
        write_episode_csv(dump_dir / f"{label}_mission{m:03d}.csv", result.episode_rows)
        save_grid_pgm(dump_dir / f"{label}_mission{m:03d}_belief.pgm", result.final_map)


def write_benchmark_csv(path, stats: dict[str, TrialStats]) -> None:
    """Table-layout export: one row per planner and budget checkpoint."""
    labels = ("33%", "67%", "100%")
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["planner", "checkpoint", "entropy_mean", "entropy_std", "f1_mean", "f1_std"]
        )
        for name in sorted(stats):
            st = stats[name]
            for k, label in enumerate(labels):
                writer.writerow(
                    [
                        name,
                        label,
                        f"{st.entropy_mean[k]:.12g}",
                        f"{st.entropy_std[k]:.12g}",
                        f"{st.f1_mean[k]:.12g}",
                        f"{st.f1_std[k]:.12g}",
                    ]
                )
