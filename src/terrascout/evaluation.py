"""Mission metrics and the paired benchmark harness.

A mission's progress is scored on the global map against the ground
truth: the normalized region-of-interest entropy (weighted entropy over
interesting cells, divided by its uniform-prior value) and the F1 score
of thresholded per-cell predictions. Benchmarks run every planner on the
same seeded terrains and noise streams (paired design) and aggregate
mean/std at the 1/3, 2/3, and final budget checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .environment import (
    Action,
    EnvConfig,
    GroundTruthMap,
    TerrainEnv,
    reward,
    start_mission,
    write_episode_csv,
)
from .errors import ConfigurationError, ContractViolation, DegenerateTerrainError
from .gridmap import (
    ImportanceWeights,
    OccupancyGrid,
    map_entropy,
    save_grid_pgm,
    weighted_cell_entropy,
    write_csv,
)
from .planners import LearnedPlanner, PLANNERS
from .policy import FeatureConfig, PolicyNet

LOCAL_METRICS_HEADER = ("mission", "step", "agent", "roi_entropy", "f1")


@dataclass
class MetricsRecord:
    roi_entropy: float  # normalized by the uniform-prior ROI entropy
    f1: float

    def __post_init__(self) -> None:
        if not -1e-9 <= self.roi_entropy <= 1.0 + 1e-9:
            raise ContractViolation(f"normalized ROI entropy {self.roi_entropy} outside [0, 1]")
        if not 0.0 <= self.f1 <= 1.0:
            raise ContractViolation(f"F1 score {self.f1} outside [0, 1]")


@dataclass(frozen=True)
class PlannerSpec:
    """Picklable recipe for building a fresh planner inside a worker."""

    name: str
    actor: Optional[PolicyNet] = field(default=None, compare=False)  # "learned" only
    mode: str = "sample"

    def build(self, fcfg: FeatureConfig):
        if self.name != "learned":
            return PLANNERS[self.name]()
        if self.actor is None:
            raise ConfigurationError("learned planner needs actor weights")
        return LearnedPlanner(self.actor, fcfg, self.mode)


@dataclass
class TrialStats:
    entropy_mean: list[float]
    entropy_std: list[float]
    f1_mean: list[float]
    f1_std: list[float]
    final_entropy: np.ndarray  # per mission, for paired significance tests
    final_f1: np.ndarray


@dataclass
class MissionResult:
    mission: int
    records: list[MetricsRecord]
    episode_rows: list[dict]  # empty unless run_mission was asked for them
    final_map: OccupancyGrid
    local_rows: list[tuple]  # LOCAL_METRICS_HEADER rows, one per (step, agent)


def _roi_count(grid: OccupancyGrid, gt: GroundTruthMap) -> int:
    """The number of interesting cells, checked against the grid it scores."""
    if grid.log_odds.shape != gt.cells.shape:
        raise ContractViolation("grid and ground truth dimensions differ")
    count = gt.roi_index.size
    if count == 0:
        raise DegenerateTerrainError("terrain has no interesting cells")
    return count


def roi_entropy(grid: OccupancyGrid, gt: GroundTruthMap, w: ImportanceWeights) -> float:
    """Weighted entropy over interesting cells, normalized to [0, 1]."""
    count = _roi_count(grid, gt)
    h = map_entropy(grid, w, gt.cells == 1)
    h0 = weighted_cell_entropy(0.5, w) * count
    return h / h0


def f1_score(grid: OccupancyGrid, gt: GroundTruthMap) -> float:
    """F1 of 'p > 0.5' predictions with the interesting class as positive.

    A map with no confident positives (e.g. the uniform prior) scores 0.
    """
    count = _roi_count(grid, gt)
    pred = grid.probs() > 0.5
    tp = int(np.count_nonzero(pred & (gt.cells == 1)))
    return _f1(tp, int(np.count_nonzero(pred)), count)


def _f1(tp: int, positives: int, count: int) -> float:
    """F1 from the true-positive, predicted-positive and interesting-cell counts."""
    if tp == 0:
        return 0.0
    precision = tp / positives
    recall = tp / count
    return 2.0 * precision * recall / (precision + recall)


class MapScorer:
    """``roi_entropy`` and ``f1_score`` of one grid, caught up from its fusion log.

    It keeps the weighted entropies of the interesting cells in
    ``roi_index`` order, the 'p > 0.5' plane with its predicted-positive and
    true-positive counts, and the number of ``grid.fused`` entries they
    include (see ``OccupancyGrid``). They start from ``grid.prior``;
    :meth:`catch_up` recomputes the probabilities under each later entry
    and the weighted entropies of its interesting cells only. The scores
    equal a from-scratch ``roi_entropy`` and ``f1_score`` bit for bit: both
    kernels work cell by cell, the ROI sum runs over the same values in the
    same order, and F1 comes from the same integer counts.
    """

    def __init__(self, grid: OccupancyGrid, gt: GroundTruthMap, w: ImportanceWeights):
        count = _roi_count(grid, gt)
        self.grid, self.gt, self.w = grid, gt, w
        p, h = grid.prior_cell(w)
        positive = bool(p[0, 0] > 0.5)
        self.roi_h = np.full(count, h[0, 0])
        self.pred = np.full(grid.log_odds.shape, positive)
        self.positives = grid.log_odds.size if positive else 0
        self.true_pos = count if positive else 0
        self.h0 = weighted_cell_entropy(0.5, w) * count
        self.seen = 0

    def catch_up(self) -> tuple[float, float]:
        """(normalized ROI entropy, F1) of the grid now."""
        gt = self.gt
        for rect in self.grid.fused[self.seen:]:
            cells = rect.slices
            roi = gt.cells[cells].view(bool)
            probs = self.grid.probs_slice(cells)
            roi_h = weighted_cell_entropy(probs[roi], self.w)
            pred, old = probs > 0.5, self.pred[cells]
            self.positives += np.count_nonzero(pred) - np.count_nonzero(old)
            self.true_pos += np.count_nonzero(pred & roi) - np.count_nonzero(old & roi)
            old[...] = pred
            # the interesting cells of a rect row are one run of roi_index, in order
            rows = np.arange(rect.y_lo, rect.y_hi + 1) * gt.width
            first = np.searchsorted(gt.roi_index, rows + rect.x_lo)
            runs = np.searchsorted(gt.roi_index, rows + rect.x_hi, side="right") - first
            self.roi_h[np.arange(roi_h.size) + np.repeat(first - np.cumsum(runs) + runs, runs)] = roi_h
        self.seen = len(self.grid.fused)
        return (float(self.roi_h.sum()) / self.h0,
                _f1(int(self.true_pos), int(self.positives), self.roi_h.size))


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
    episode_rows: bool = False,
) -> MissionResult:
    """One seeded mission; metrics are recorded against the global map.

    ``start_mission`` keys the terrain (unless given), the noise and the
    planner's draws by (base_seed, mission_index). The step-0 record is
    taken at the uniform prior (normalized ROI entropy exactly 1), before
    the start measurement is fused; each of the B planning steps then
    appends one record. ``local_metrics`` adds per-agent rows scored
    against each agent's own (communication-limited) local map, and
    ``episode_rows`` the trajectory rows, the only readers of the global
    entropy. Everything a benchmark writes about the mission comes from this one pass.
    """
    env, rng = start_mission(cfg, base_seed, mission_index, terrain)
    terrain = env.terrain
    planner = spec.build(fcfg)
    records = [_prior_record(cfg, terrain)]
    local_rows: list[tuple] = []
    env.reset()
    scores = MapScorer(env.state.global_map, terrain, cfg.weights)
    local_scores = [MapScorer(loc.local_map, terrain, cfg.weights)
                    for loc in env.locals] if local_metrics else []
    h = env.global_entropy() if episode_rows else None
    rows = _episode_rows(0, env, ["init"] * cfg.num_agents, 0.0, h) if episode_rows else []
    done = False
    t = 0
    while not done:
        t += 1
        joint = planner.act_team(env.locals, env.masks(), cfg, rng)
        done = env.step(joint)
        records.append(MetricsRecord(*scores.catch_up()))
        if episode_rows:
            h_before, h = h, env.global_entropy()
            r = reward(h_before, h, cfg.reward_alpha, cfg.reward_beta)
            rows += _episode_rows(t, env, [Action(a).name.lower() for a in joint], r, h)
        for i, (loc, local) in enumerate(zip(env.locals, local_scores)):
            loc.local_map  # reading it fuses what the step delivered
            local_rows.append((mission_index, t, i, *local.catch_up()))
    if len(records) != cfg.budget + 1:
        raise ContractViolation(
            f"mission ended after {len(records) - 1} steps, budget is {cfg.budget}"
        )
    return MissionResult(mission_index, records, rows, env.state.global_map, local_rows)


def _prior_record(cfg: EnvConfig, terrain: GroundTruthMap) -> MetricsRecord:
    """The t = 0 record, scored on a uniform grid that is freed before the mission runs."""
    prior = OccupancyGrid.uniform(cfg.map_cells, cfg.map_cells, cfg.map_resolution)
    return MetricsRecord(roi_entropy(prior, terrain, cfg.weights), f1_score(prior, terrain))


def _episode_rows(step: int, env: TerrainEnv, actions: Sequence[str], r: float,
                  h: float) -> list[dict]:
    """One trajectory row per agent, each with reward ``r`` and global entropy ``h``."""
    rows = []
    for agent, action in enumerate(actions):
        x, y, z = (float(v) for v in env.cfg.position_m(env.state.positions[agent]))
        rows.append(dict(step=step, agent=agent, x=x, y=y, z=z, action=action, reward=r,
                         global_entropy=h))
    return rows


def _keep_records(result: MissionResult, label: str, dump_dir: Optional[Path],
                  local_csv: Optional[Path]) -> list[MetricsRecord]:
    """Write one mission's artifacts, then let go of all but its records.

    File names carry no ``:``: the ``learned:argmax`` label's files are
    ``learned-argmax_*``."""
    if dump_dir is not None:
        stem = f"{label.replace(':', '-')}_mission{result.mission:03d}"
        write_episode_csv(dump_dir / f"{stem}.csv", result.episode_rows)
        save_grid_pgm(dump_dir / f"{stem}_belief.pgm", result.final_map)
    if local_csv is not None:
        write_csv(local_csv, result.local_rows)
    return result.records


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
    local_dir=None,
) -> dict[str, TrialStats]:
    """Evaluate every planner on the same ``n_missions`` seeded missions.

    Terrain and sensor noise are keyed by (base_seed, mission) alone, so
    all planners see identical worlds. Aggregates use the unbiased (n-1)
    standard deviation. Each mission runs once, in a pool of
    ``min(threads, n_missions)`` processes when ``threads > 1``, since a
    pool starts all its workers at once. As its result arrives, ``dump_dir``
    receives its trajectory CSV and final belief PGM, and ``local_dir``
    gets its local-map rows appended to ``<planner>_local_metrics.csv``;
    only the records are kept.
    """
    if n_missions < 2:
        raise ContractViolation("benchmarks need at least 2 missions")
    if dump_dir is not None:
        dump_dir = Path(dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
    steps = checkpoint_steps(cfg.budget)
    out: dict[str, TrialStats] = {}
    for spec in specs:
        label = _label(spec)
        local_csv = None
        if local_dir is not None:
            local_csv = Path(local_dir) / f"{spec.name}_local_metrics.csv"
            write_csv(local_csv, [], LOCAL_METRICS_HEADER)
        run = partial(run_mission, spec, cfg, base_seed, fcfg=fcfg, terrain=terrain,
                      local_metrics=local_csv is not None, episode_rows=dump_dir is not None)
        keep = partial(_keep_records, label=label, dump_dir=dump_dir, local_csv=local_csv)
        # map(keep, ...) holds no result past its keep() call, so a mission's
        # final map is freed before the next mission starts
        if threads > 1:
            # imported here: the pool pulls in multiprocessing, which a
            # single-process run never needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(threads, n_missions)) as pool:
                per_mission = list(map(keep, pool.map(run, range(n_missions))))
        else:
            per_mission = list(map(keep, map(run, range(n_missions))))
        ent = np.array([[records[s].roi_entropy for s in steps] for records in per_mission])
        f1 = np.array([[records[s].f1 for s in steps] for records in per_mission])
        out[label] = TrialStats(
            entropy_mean=list(ent.mean(axis=0)),
            entropy_std=list(ent.std(axis=0, ddof=1)),
            f1_mean=list(f1.mean(axis=0)),
            f1_std=list(f1.std(axis=0, ddof=1)),
            final_entropy=ent[:, -1],
            final_f1=f1[:, -1],
        )
    return out


def _label(spec: PlannerSpec) -> str:
    return spec.name if spec.mode == "sample" else f"{spec.name}:{spec.mode}"


def write_benchmark_csv(path, stats: dict[str, TrialStats]) -> None:
    """Table-layout export: one row per planner and budget checkpoint."""
    labels = ("33%", "67%", "100%")
    write_csv(
        path,
        (
            (name, label, st.entropy_mean[k], st.entropy_std[k], st.f1_mean[k], st.f1_std[k])
            for name, st in sorted(stats.items())
            for k, label in enumerate(labels)
        ),
        ["planner", "checkpoint", "entropy_mean", "entropy_std", "f1_mean", "f1_std"],
    )
