"""Action selection: non-learned baselines and the learned team policy.

A planner's ``act_team`` returns each agent's action, in agent order, passing
its mask. Random and greedy are stateless, coverage keeps a per-agent sweep
cursor, and the learned planner is the actor of evaluation and of training.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .environment import (
    ACTION_DELTAS,
    Action,
    AgentLocalState,
    EnvConfig,
    NUM_ACTIONS,
)
from .errors import ConfigurationError, ContractViolation
from .gridmap import ImportanceWeights, footprint, weighted_cell_entropy
from .policy import FeatureConfig, PolicyNet, actor_forward, build_actor_features


class PerAgentPlanner:
    """Acts for the team through each agent's ``act``, in agent order, on one ``rng``."""

    def act_team(self, locals: Sequence[AgentLocalState], masks: Sequence[np.ndarray],
                 cfg: EnvConfig, rng: np.random.Generator) -> list[int]:
        return [self.act(local, mask, cfg, rng) for local, mask in zip(locals, masks)]


class RandomPlanner(PerAgentPlanner):
    """Uniform draw over the valid actions."""

    def act(self, local: AgentLocalState, mask: np.ndarray, cfg: EnvConfig,
            rng: np.random.Generator) -> int:
        valid = np.flatnonzero(mask)
        if valid.size == 0:
            raise ContractViolation("random planner needs at least one valid action")
        return int(rng.choice(valid))


def expected_entropy_reduction(patches: Sequence[np.ndarray], accuracy: float,
                               weights: ImportanceWeights) -> list[float]:
    """Expected weighted-entropy drop of each patch's cells after one noisy
    observation at ``accuracy``.

    The expectation decomposes over cells because per-cell posteriors are
    independent: each cell sees label 1 with probability p*acc +
    (1-p)*(1-acc) and is updated by Bayes either way. All patches are
    evaluated in one stacked pass; each gain is the sum of its patch's
    contiguous block, which adds in the same order as the patch alone.

    A cell's gain depends on its probability alone, so the kernels run on the
    cells off the prior (p != 0.5) plus one cell at 0.5, whose gain fills
    every prior cell: the blocks hold the same values as a full evaluation.
    """
    flat = [np.ravel(np.asarray(patch, dtype=np.float64)) for patch in patches]
    p = np.concatenate(flat)
    informed = p != 0.5
    x = np.append(p[informed], 0.5)
    q1 = x * accuracy + (1.0 - x) * (1.0 - accuracy)
    post1 = x * accuracy / q1
    post0 = x * (1.0 - accuracy) / (1.0 - q1)
    expected = q1 * weighted_cell_entropy(post1, weights) + (1.0 - q1) * weighted_cell_entropy(
        post0, weights
    )
    x_gain = weighted_cell_entropy(x, weights) - expected
    gain = np.full(p.size, x_gain[-1])
    gain[informed] = x_gain[:-1]
    blocks = np.split(gain, np.cumsum([f.size for f in flat])[:-1])
    return [float(block.sum()) for block in blocks]


class GreedyInfoGainPlanner(PerAgentPlanner):
    """Pick the move whose footprint promises the largest expected
    entropy reduction of the agent's local map; ties break in the fixed
    action order (up, north, east, south, west, down).

    Candidates at one altitude share a sensor accuracy, so they are
    evaluated together, in one stacked call per altitude.
    """

    def act(self, local: AgentLocalState, mask: np.ndarray, cfg: EnvConfig,
            rng: np.random.Generator) -> int:
        if not mask.any():
            raise ContractViolation("greedy planner needs at least one valid action")
        grid = local.local_map
        groups: dict[float, tuple[list[int], list[np.ndarray]]] = {}
        for a in np.flatnonzero(mask):
            pos_m = cfg.position_m(local.position + ACTION_DELTAS[a])
            rect = footprint(pos_m, cfg.footprint_factor, cfg.map_cells, cfg.map_cells,
                             cfg.map_resolution)
            actions, patches = groups.setdefault(cfg.sensor.accuracy_at(pos_m[2]), ([], []))
            actions.append(int(a))
            patches.append(grid.probs_slice(rect.slices))
        gains = np.full(NUM_ACTIONS, -np.inf)
        for acc, (actions, patches) in groups.items():
            gains[actions] = expected_entropy_reduction(patches, acc, cfg.weights)
        return int(np.argmax(gains))  # the first maximum: ties go to the earlier action


class CoveragePlanner(PerAgentPlanner):
    """Non-adaptive boustrophedon sweep of per-agent vertical stripes.

    The terrain is split into N near-equal-width column stripes; agent k
    first climbs/descends to the coverage altitude, walks to its stripe's
    south-west corner, then serpentines. When the sweep finishes early it
    runs backwards. A masked move (another agent crossing a stripe
    boundary during the approach) is dodged with a vertical move.
    """

    def __init__(self) -> None:
        self._sweeps: dict[int, list] = {}  # agent id -> [plan, cursor, direction]

    def act(self, local: AgentLocalState, mask: np.ndarray, cfg: EnvConfig,
            rng: np.random.Generator) -> int:
        target_level = cfg.level_of_altitude(cfg.coverage_altitude)
        level = int(local.position[2])
        if level < target_level and mask[Action.UP]:
            return int(Action.UP)
        if level > target_level and mask[Action.DOWN]:
            return int(Action.DOWN)

        sweep = self._sweeps.get(local.agent_id)
        if sweep is None:
            sweep = self._sweeps[local.agent_id] = [_sweep_plan(local, cfg), 0, 1]
        plan, cursor, direction = sweep
        col, row = int(local.position[0]), int(local.position[1])
        if plan[cursor] == (col, row):
            if not 0 <= cursor + direction < len(plan):
                direction = -direction  # bounce and re-sweep
            cursor += direction
            sweep[1:] = cursor, direction
        dx, dy = plan[cursor][0] - col, plan[cursor][1] - row
        action = (Action.EAST if dx > 0 else Action.WEST if dx < 0
                  else Action.NORTH if dy > 0 else Action.SOUTH if dy < 0
                  else Action.UP)  # already there; should not happen
        for move in (action, Action.UP, Action.DOWN):  # the move, else a vertical dodge
            if mask[move]:
                return int(move)
        return int(np.flatnonzero(mask)[0])


def _sweep_plan(local: AgentLocalState, cfg: EnvConfig) -> list[tuple[int, int]]:
    """The lattice cells of agent ``local.agent_id``'s sweep, in order: from
    its position along the row to the west column of its stripe (columns
    ``[k C / N, (k + 1) C / N)``), south to row 0, then a serpentine that
    runs row 0 eastbound."""
    cols, n = cfg.lattice_cols, cfg.num_agents
    west, east = local.agent_id * cols // n, (local.agent_id + 1) * cols // n - 1
    col, row = int(local.position[0]), int(local.position[1])
    plan = [(col, row)]
    while col != west:
        col += 1 if col < west else -1
        plan.append((col, row))
    while row != 0:
        row -= 1
        plan.append((col, row))
    for r in range(cfg.lattice_rows):
        span = range(west, east + 1) if r % 2 == 0 else range(east, west - 1, -1)
        plan += [(c, r) for c in span if (c, r) != plan[-1]]
    return plan


class LearnedPlanner:
    """The actor acting for the team: one ``actor_forward`` at exploration floor
    ``epsilon`` over every agent's local stack (kept in ``stacks`` until the
    next step), then one draw per agent in agent order, or each row's argmax."""

    def __init__(self, actor: PolicyNet, fcfg: FeatureConfig, mode: str = "sample",
                 epsilon: float = 0.0):
        if mode not in ("sample", "argmax"):
            raise ConfigurationError(f"unknown learned-planner mode '{mode}'")
        self.actor = actor
        self.fcfg = fcfg
        self.mode = mode
        self.epsilon = epsilon
        self.stacks: list[np.ndarray] = []

    def act_team(self, locals: Sequence[AgentLocalState], masks: Sequence[np.ndarray],
                 cfg: EnvConfig, rng: np.random.Generator) -> list[int]:
        self.stacks = [build_actor_features(local, cfg, self.fcfg) for local in locals]
        pis = actor_forward(self.actor, self.stacks, masks, self.epsilon)
        if self.mode == "argmax":
            return [int(np.argmax(pi)) for pi in pis]
        return [int(rng.choice(NUM_ACTIONS, p=pi)) for pi in pis]


PLANNERS = {"random": RandomPlanner, "coverage": CoveragePlanner,
            "greedy-ig": GreedyInfoGainPlanner, "learned": LearnedPlanner}
