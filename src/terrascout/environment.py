"""Multi-agent terrain monitoring as a sequential decision process.

Agents fly on a discrete 3D lattice (planning resolution ``r_P``
horizontally, fixed altitude levels vertically), take one measurement per
step, exchange measurements within a communication radius, and share one
global team reward: the relative reduction of the weighted global map
entropy.

Lattice positions are integer triples ``(col, row, level)``; the metric
pose of lattice cell ``(i, j, k)`` is ``((i + .5) r_P, (j + .5) r_P,
min_alt + k * alt_step)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation, RejectedStepError
from .gridmap import (
    GroundTruthMap,
    ImportanceWeights,
    Measurement,
    OccupancyGrid,
    SensorModel,
    fuse_measurement,
    map_entropy,  # noqa: F401  re-exported; bench/test_bench.py traces it here
    simulate_measurement,
    weighted_cell_entropy,
    write_csv,
)


class Action(IntEnum):
    """Single-step movements; the order is the fixed tie-break order."""

    UP = 0
    NORTH = 1
    EAST = 2
    SOUTH = 3
    WEST = 4
    DOWN = 5


# (d_col, d_row, d_level) per action, aligned with the Action order.
ACTION_DELTAS = np.array(
    [[0, 0, 1], [0, 1, 0], [1, 0, 0], [0, -1, 0], [-1, 0, 0], [0, 0, -1]],
    dtype=np.int64,
)
NUM_ACTIONS = len(Action)

# SeedSequence stream tags so terrain, sensor noise, and policy draws
# never alias each other.
_TAG_TERRAIN = 101
_TAG_NOISE = 202
_TAG_POLICY = 303


@dataclass
class EnvConfig:
    """Scenario geometry, sensing, communication, and reward scaling."""

    terrain_size: float = 50.0  # square side, metres
    map_resolution: float = 0.1  # r_M
    planning_resolution: float = 5.0  # r_P
    min_altitude: float = 5.0
    max_altitude: float = 15.0
    altitude_step: float = 5.0
    num_agents: int = 4
    budget: int = 15  # measurements per agent after the start one
    comm_radius: float = 25.0  # metres, 3D Euclidean
    sensor: SensorModel = field(default_factory=SensorModel.default)
    weights: ImportanceWeights = field(default_factory=ImportanceWeights)
    reward_alpha: float = 1.0
    reward_beta: float = 0.0
    footprint_factor: float = 1.0
    coverage_altitude: float = 10.0

    def __post_init__(self) -> None:
        lengths = (self.terrain_size, self.map_resolution, self.planning_resolution,
                   self.altitude_step, self.footprint_factor)
        if any(not v > 0 for v in lengths):
            raise ConfigurationError(
                "terrain size, resolutions, altitude step and footprint factor must be positive"
            )
        if not self.comm_radius >= 0:
            raise ConfigurationError("communication radius must be nonnegative")
        cols = self.terrain_size / self.planning_resolution
        if not math.isfinite(cols) or abs(cols - round(cols)) > 1e-9 or round(cols) < 1:
            raise ConfigurationError("terrain side must be a multiple of the planning resolution")
        fac = self.planning_resolution / self.map_resolution
        if not math.isfinite(fac) or abs(fac - round(fac)) > 1e-9 or round(fac) < 1:
            raise ConfigurationError("planning resolution must be a multiple of map resolution")
        side = self.terrain_size / self.map_resolution
        if not math.isfinite(side) or round(side) ** 2 > np.iinfo(np.intp).max:
            raise ConfigurationError(f"a map of {side:.3g} cells per side is too large to index")
        levels = (self.max_altitude - self.min_altitude) / self.altitude_step
        if (not math.isfinite(levels) or abs(levels - round(levels)) > 1e-9
                or self.max_altitude < self.min_altitude):
            raise ConfigurationError("altitudes must form an arithmetic grid")
        top = self.altitude_of_level(self.altitude_levels - 1)
        if not math.isfinite(self.footprint_factor * top / self.map_resolution):
            raise ConfigurationError("footprint factor makes the top-level footprint side infinite")
        if self.num_agents < 1:
            raise ConfigurationError("need at least one agent")
        if self.num_agents > self.lattice_cols:
            raise ConfigurationError(
                f"{self.num_agents} agents do not fit on a {self.lattice_cols}-column lattice edge"
            )
        if self.budget < 1:
            raise ConfigurationError("budget must be at least 1")
        if self.altitude_levels > len(self.sensor.table):
            raise ConfigurationError("more flight levels than sensor altitudes")
        for k in range(self.altitude_levels):
            self.sensor.accuracy_at(self.altitude_of_level(k))

    @property
    def lattice_cols(self) -> int:
        return round(self.terrain_size / self.planning_resolution)

    @property
    def lattice_rows(self) -> int:
        return round(self.terrain_size / self.planning_resolution)

    @property
    def altitude_levels(self) -> int:
        return round((self.max_altitude - self.min_altitude) / self.altitude_step) + 1

    @property
    def map_cells(self) -> int:
        return round(self.terrain_size / self.map_resolution)

    @property
    def pool_factor(self) -> int:
        return round(self.planning_resolution / self.map_resolution)

    def altitude_of_level(self, level: int) -> float:
        return self.min_altitude + level * self.altitude_step

    def level_of_altitude(self, altitude: float) -> int:
        lvl = (altitude - self.min_altitude) / self.altitude_step
        if abs(lvl - round(lvl)) > 1e-9 or not (0 <= round(lvl) < self.altitude_levels):
            raise ConfigurationError(f"altitude {altitude} m is not a lattice level")
        return round(lvl)

    def position_m(self, lattice_pos: np.ndarray) -> np.ndarray:
        i, j, k = (int(v) for v in lattice_pos)
        r = self.planning_resolution
        return np.array([(i + 0.5) * r, (j + 0.5) * r, self.altitude_of_level(k)])


@dataclass
class GlobalState:
    """Everything the (training-time) centralised view can see."""

    global_map: OccupancyGrid
    positions: np.ndarray  # (N, 3) lattice indices (col, row, level)
    remaining_budget: int
    # The planes derived from global_map and the number of global_map.fused
    # entries they include (see OccupancyGrid): probs() and its per-cell
    # weighted entropy (map_planes). The team reward sums the second, and the
    # critic's pooled planes pool both (policy.critic_global_planes).
    probs: Optional[np.ndarray] = None
    cell_entropy: Optional[np.ndarray] = None
    seen: int = 0

    def map_planes(self, w: ImportanceWeights) -> tuple[np.ndarray, np.ndarray]:
        """(probs, cell_entropy) of the global map, equal bit for bit to a fresh
        full-map computation: filled from the prior cell when either is None,
        then refreshed on each rectangle logged since."""
        grid = self.global_map
        if self.probs is None or self.cell_entropy is None:
            p, h = grid.prior_cell(w)
            self.probs = np.full(grid.log_odds.shape, p[0, 0])
            self.cell_entropy = np.full(grid.log_odds.shape, h[0, 0])
            self.seen = 0
        for rect in grid.fused[self.seen:]:
            cells = rect.slices
            self.probs[cells] = grid.probs_slice(cells)
            self.cell_entropy[cells] = weighted_cell_entropy(self.probs[cells], w)
        self.seen = len(grid.fused)
        return self.probs, self.cell_entropy


@dataclass
class AgentLocalState:
    """What one agent knows on board: its map, pose, and stale teammate info."""

    agent_id: int
    grid: OccupancyGrid  # the on-board map as last fused; read it through local_map
    position: np.ndarray  # (3,) lattice indices
    known_positions: np.ndarray  # (N, 3) lattice indices, last heard (stale allowed)
    remaining_budget: int
    last_measurement: Optional[Measurement] = None
    inbox: list = field(default_factory=list)  # teammates' Measurements received this step
    # Measurements delivered but not yet fused into grid (own first, then the
    # inbox in order); reading local_map fuses them. An unread one holds its
    # labels only: the first local map that fuses it keeps its float patch
    # for the others, and the global fusion keeps none.
    pending: list = field(default_factory=list, repr=False, compare=False)
    # The row-tile sums behind the pooled local planes and the number of
    # local_map.fused entries they include (see OccupancyGrid), kept by
    # policy._local_planes.
    row_sums: Optional[np.ndarray] = None
    row_sums_seen: int = 0

    @property
    def local_map(self) -> OccupancyGrid:
        """``grid`` with ``pending`` fused in delivery order on the first read
        after a step: equal to eager fusion bit for bit, skipped if unread."""
        pending = self.pending
        while pending:  # a fusion that raises leaves itself and the rest pending
            m = pending[0]
            m.kept_patch = m.log_odds_patch()  # the first local map builds it for the rest
            fuse_measurement(self.grid, m)
            del pending[0]
        return self.grid


def keyed_generator(*key: int) -> np.random.Generator:
    """The generator of the stream keyed by ``key``, e.g. (seed, mission, tag)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def generate_terrain(rng: np.random.Generator, cfg: EnvConfig) -> GroundTruthMap:
    """Random half-plane split covering 30-60% of the terrain.

    A line of uniform random orientation splits the map; its offset is a
    cell's projection, so that the interesting side holds the largest share
    of cells that does not exceed the drawn target fraction. The interesting
    region is connected by construction.
    """
    n = cfg.map_cells
    res = cfg.map_resolution
    centers = (np.arange(n) + 0.5) * res

    for _ in range(16):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        target = rng.uniform(0.3, 0.6)
        # x varies along columns, y along rows: one full-map array, no meshgrid copies
        proj = math.cos(theta) * centers[None, :] + math.sin(theta) * centers[:, None]
        # v is the k-th largest value of proj for the smallest count k above
        # the target: the k or more cells at or above it exceed the target,
        # and the fewer than k above it do not
        size = proj.size
        k = int(target * size)
        while (k - 1) / size > target:
            k -= 1
        while k / size <= target:
            k += 1
        v = np.partition(proj, size - k, axis=None)[size - k]
        cells = proj > v
        if 0.3 <= cells.mean() <= 0.6:
            break
    return GroundTruthMap(cells.astype(np.uint8), res)


def start_mission(cfg: EnvConfig, seed: int, mission_index: int,
                  terrain: Optional[GroundTruthMap] = None) -> tuple[TerrainEnv, np.random.Generator]:
    """The mission's ``TerrainEnv`` and policy generator. The terrain (drawn
    unless given), the sensor noise and the policy draws are tagged streams
    of (seed, mission_index) alone, so every runner and planner meets the
    same world in the same mission."""
    if terrain is None:
        terrain = generate_terrain(keyed_generator(seed, mission_index, _TAG_TERRAIN), cfg)
    return (TerrainEnv(cfg, terrain, seed, mission_index),
            keyed_generator(seed, mission_index, _TAG_POLICY))


def check_terrain(terrain: GroundTruthMap, cfg: EnvConfig) -> None:
    """Reject a terrain whose cell grid or resolution differs from the configured map."""
    n = cfg.map_cells
    # the text format keeps 12 significant digits of the resolution
    if terrain.cells.shape != (n, n) or not math.isclose(
        terrain.resolution, cfg.map_resolution, rel_tol=1e-9
    ):
        raise ConfigurationError(
            f"terrain grid {terrain.cells.shape} at {terrain.resolution} m does not match "
            f"the configured {n}x{n} map at map_resolution {cfg.map_resolution} m"
        )


def initial_columns(cols: int, n_agents: int) -> list[int]:
    """Evenly spaced start columns along the southern edge."""
    return [(2 * k + 1) * cols // (2 * n_agents) for k in range(n_agents)]


def valid_actions(state: GlobalState, cfg: EnvConfig) -> np.ndarray:
    """(N, A) boolean action masks of the team, one row per agent.

    An action is invalid if it leaves the lattice box or if its target 2D
    cell is currently held by another agent.
    """
    pos = np.asarray(state.positions)
    targets = pos[:, None, :] + ACTION_DELTAS  # (N, A, 3)
    upper = (cfg.lattice_cols, cfg.lattice_rows, cfg.altitude_levels)
    mask = ((targets >= 0) & (targets < upper)).all(axis=2)
    # (N, A, N): the action's target 2D cell is held by agent k, k != i
    held = (targets[:, :, None, :2] == pos[:, :2]).all(axis=3)
    held &= ~np.eye(len(pos), dtype=bool)[:, None, :]
    mask &= ~held.any(axis=2)
    # Vertical moves always stay free with two or more altitude levels; with
    # one, an agent whose lateral neighbours are all off the lattice or taken
    # is trapped.
    free = mask.any(axis=1)
    if not free.all():
        raise ContractViolation(f"action mask of agent {int(np.argmin(free))} came out all-false")
    return mask


def exchange_messages(
    positions_m: np.ndarray,
    measurements: Sequence[Measurement],
    comm_radius: float,
) -> list[list[Measurement]]:
    """Deliver each agent's measurement to every teammate within range (3D)."""
    n = len(measurements)
    if positions_m.shape[0] != n:
        raise ContractViolation("one measurement per agent is required")
    inboxes: list[list[Measurement]] = [[] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            dist = float(np.linalg.norm(positions_m[i] - positions_m[k]))
            if dist <= comm_radius:
                inboxes[k].append(measurements[i])
    return inboxes


def reward(h_before: float, h_after: float, alpha: float, beta: float) -> float:
    """Relative weighted-entropy reduction, affinely scaled.

    Positive when the map got more certain. A depleted map (h_before <= 0)
    yields the offset beta by convention.
    """
    if h_before <= 0.0:
        return beta
    return alpha * (h_before - h_after) / h_before + beta


class TerrainEnv:
    """Owns one mission: terrain, state, step counter, and the noise key.

    ``reset`` starts a mission and ``step`` advances it; ``state`` and
    ``locals`` are the global and on-board views they update in place.
    Agent i's measurement at step t is seeded by ``SeedSequence([*key,
    _TAG_NOISE, t, i])``, and ``simulate_measurement`` reads each cell's
    noise from that seed's virtual full-map field, so planners on the same
    key see the same noise wherever they measure the same cells.
    """

    def __init__(self, cfg: EnvConfig, terrain: GroundTruthMap, *key: int):
        check_terrain(terrain, cfg)
        self.cfg = cfg
        self.terrain = terrain
        self.key = tuple(int(k) for k in key)
        self.state: GlobalState
        self.locals: list[AgentLocalState]
        self.step_index = 0

    def reset(self) -> tuple[GlobalState, list[AgentLocalState]]:
        """Deploy agents, take the start (t = 0) measurements, and exchange them.

        Agents start at minimum altitude, evenly spaced on the southern
        lattice edge. Every map begins at the uniform prior; the t = 0
        measurement is fused before the first planning decision so the first
        policy input is informative. Initial deployment counts as common
        knowledge, so each agent's teammate-position table starts at the
        true initial poses.
        """
        cfg = self.cfg
        positions = np.array(
            [[c, 0, 0] for c in initial_columns(cfg.lattice_cols, cfg.num_agents)], dtype=np.int64
        )
        n = cfg.map_cells
        self.state = GlobalState(
            OccupancyGrid.uniform(n, n, cfg.map_resolution), positions, cfg.budget
        )
        self.locals = [
            AgentLocalState(
                agent_id=i,
                grid=OccupancyGrid.uniform(n, n, cfg.map_resolution),
                position=positions[i].copy(),
                known_positions=positions.copy(),
                remaining_budget=cfg.budget,
            )
            for i in range(cfg.num_agents)
        ]
        self.step_index = 0
        self._measure_and_fuse()
        return self.state, self.locals

    def masks(self) -> np.ndarray:
        return valid_actions(self.state, self.cfg)

    def step(self, joint_action: Sequence[int]) -> bool:
        """Advance one synchronized decision step; returns whether the budget is spent.

        All agents move simultaneously (masks are checked against current
        positions; if two agents still pick the same free 2D cell, the
        lower-id agent moves and the other holds). Each agent then measures
        at its new pose, in-range measurements are exchanged and fused
        locally, and all measurements are fused globally. A rejected step
        changes nothing. The team reward is left to the reader that needs it:
        ``reward(h_before, global_entropy(), ...)``, ``h_before`` being the
        ``global_entropy()`` read before the step.
        """
        cfg, state = self.cfg, self.state
        n = cfg.num_agents
        if len(joint_action) != n:
            raise ContractViolation(f"joint action needs {n} components")
        if state.remaining_budget <= 0:
            raise RejectedStepError("mission budget already spent")

        masks = valid_actions(state, cfg)
        for i, a in enumerate(joint_action):
            if not (0 <= int(a) < NUM_ACTIONS) or not masks[i, int(a)]:
                raise RejectedStepError(f"agent {i} chose masked action {Action(int(a)).name}")

        new_positions = state.positions.copy()
        committed_2d: set[tuple[int, int]] = set()
        for i, a in enumerate(joint_action):  # ascending id: lower id wins contested cells
            target = state.positions[i] + ACTION_DELTAS[int(a)]
            if (int(target[0]), int(target[1])) not in committed_2d:
                new_positions[i] = target
            committed_2d.add((int(new_positions[i][0]), int(new_positions[i][1])))
        state.positions = new_positions
        for loc, pos in zip(self.locals, new_positions):
            loc.position = pos.copy()

        self.step_index += 1
        self._measure_and_fuse()
        state.remaining_budget -= 1
        for loc in self.locals:
            loc.remaining_budget = state.remaining_budget
        return state.remaining_budget == 0

    def _measure_and_fuse(self) -> None:
        """Sense at current positions, communicate, and fuse: each local map on
        its next read, the global map at once, without reading its entropy."""
        cfg, state = self.cfg, self.state
        positions_m = np.stack([cfg.position_m(p) for p in state.positions])
        measurements = [
            simulate_measurement(
                self.terrain,
                pos_m,
                cfg.sensor,
                np.random.SeedSequence([*self.key, _TAG_NOISE, self.step_index, i]),
                footprint_factor=cfg.footprint_factor,
                agent_id=i,
                step=self.step_index,
            )
            for i, pos_m in enumerate(positions_m)
        ]

        inboxes = exchange_messages(positions_m, measurements, cfg.comm_radius)
        for loc, m, inbox in zip(self.locals, measurements, inboxes):
            loc.last_measurement = m
            loc.inbox = inbox
            for heard in [m, *inbox]:  # own first; a sender's pose is where it measured
                loc.pending.append(heard)
                loc.known_positions[heard.agent_id] = state.positions[heard.agent_id]

        for m in measurements:
            fuse_measurement(state.global_map, m)

    def global_entropy(self) -> float:
        """Summed weighted entropy of the global map. Each call sums the whole
        map, so a runner reads it once per fused map and carries it: a step's
        ``h_before`` is the previous step's ``h_after``. The first read fills
        ``state``'s planes."""
        return float(self.state.map_planes(self.cfg.weights)[1].sum())


def write_episode_csv(path, rows: Sequence[dict]) -> None:
    """Trajectory export: (step, agent, x, y, z, action, reward, global_entropy)."""
    fields = ["step", "agent", "x", "y", "z", "action", "reward", "global_entropy"]
    write_csv(path, ([row[k] for k in fields] for row in rows), fields)
