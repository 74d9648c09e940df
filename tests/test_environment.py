"""Terrain generation, state transitions, masking, comms, and rewards."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terrascout.environment import (
    Action,
    AgentLocalState,
    EnvConfig,
    TerrainEnv,
    exchange_messages,
    generate_terrain,
    initial_columns,
    reward,
    valid_actions,
)
from terrascout.errors import ConfigurationError, ContractViolation, RejectedStepError
from terrascout.evaluation import PlannerSpec, run_benchmark, run_mission
from terrascout.gridmap import (
    CellRect,
    GroundTruthMap,
    Measurement,
    OccupancyGrid,
    SensorModel,
    fuse_measurement,
    map_entropy,
    weighted_cell_entropy,
)
from terrascout.planners import GreedyInfoGainPlanner
from terrascout.policy import FeatureConfig, NetArch, _local_planes, make_actor
from terrascout.training import run_training_mission

import reference_kernels as reference


def small_cfg(**kw):
    defaults = dict(
        terrain_size=10.0,
        map_resolution=0.5,
        planning_resolution=5.0,
        num_agents=1,
        budget=3,
        comm_radius=25.0,
        sensor=SensorModel(((5.0, 0.9), (10.0, 0.8), (15.0, 0.7))),
    )
    defaults.update(kw)
    return EnvConfig(**defaults)


def default_cfg(**kw):
    defaults = dict(num_agents=4, budget=15)
    defaults.update(kw)
    return EnvConfig(**defaults)


# ---------------------------------------------------------------------------
# terrain generation
# ---------------------------------------------------------------------------


def test_terrain_fraction_always_in_band():
    cfg = EnvConfig(terrain_size=10.0, map_resolution=0.2, num_agents=1)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        gt = generate_terrain(rng, cfg)
        assert 0.3 <= gt.interesting_fraction() <= 0.6


def test_terrain_deterministic_per_seed():
    cfg = EnvConfig()
    a = generate_terrain(np.random.default_rng(11), cfg)
    b = generate_terrain(np.random.default_rng(11), cfg)
    np.testing.assert_array_equal(a.cells, b.cells)


def square_cfg(cells: int) -> EnvConfig:
    """A ``cells`` x ``cells`` map at 1 m on a one-tile lattice."""
    side = float(cells)
    return EnvConfig(terrain_size=side, map_resolution=1.0, planning_resolution=side,
                     num_agents=1)


@settings(max_examples=200, deadline=None)
@given(
    cells=st.integers(1, 45),  # odd and even sizes; the smallest often take the retry path
    seed=st.integers(0, 2**16),
)
@example(cells=500, seed=0)  # full scale
def test_terrain_bisection_equals_the_reference_loop(cells, seed):
    cfg = square_cfg(cells)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = generate_terrain(rng, cfg)
    want = reference.generate_terrain(ref_rng, cfg)
    assert got.cells.tobytes() == want.cells.tobytes()
    assert got.resolution == want.resolution
    # both took the same number of attempts
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_terrain_retry_path_equals_the_reference_loop():
    cfg = square_cfg(3)
    retried = 0
    for seed in range(40):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = generate_terrain(rng, cfg)
        want = reference.generate_terrain(ref_rng, cfg)
        assert got.cells.tobytes() == want.cells.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        probe = np.random.default_rng(seed)
        probe.uniform(size=2)  # one attempt draws an angle and a target
        retried += rng.bit_generator.state != probe.bit_generator.state
    assert retried > 0


def test_full_scale_terrains_equal_the_meshgrid_form():
    # generate_terrain broadcasts the cell centres; the reference projects
    # through two meshgrid copies, so every projected value must be the same
    cfg = EnvConfig()
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = generate_terrain(rng, cfg)
        want = reference.generate_terrain(ref_rng, cfg)
        assert got.cells.tobytes() == want.cells.tobytes()


def test_terrain_region_connected_along_split():
    cfg = EnvConfig(terrain_size=10.0, map_resolution=0.2, num_agents=1)
    gt = generate_terrain(np.random.default_rng(5), cfg)
    # half-plane labels: every row's interesting cells are contiguous
    for row in gt.cells:
        idx = np.flatnonzero(row)
        if idx.size:
            assert idx[-1] - idx[0] + 1 == idx.size


# ---------------------------------------------------------------------------
# initial state
# ---------------------------------------------------------------------------


def test_initial_columns_even_spacing():
    assert initial_columns(10, 4) == [1, 3, 6, 8]
    assert initial_columns(10, 1) == [5]
    assert initial_columns(10, 8) == [0, 1, 3, 4, 5, 6, 8, 9]


def test_initial_state_places_agents_south_at_min_altitude():
    cfg = default_cfg()
    gt = generate_terrain(np.random.default_rng(0), cfg)
    state, locals_ = TerrainEnv(cfg, gt, 0).reset()
    np.testing.assert_array_equal(state.positions[:, 1], 0)
    np.testing.assert_array_equal(state.positions[:, 2], 0)
    assert list(state.positions[:, 0]) == [1, 3, 6, 8]
    assert state.remaining_budget == 15
    for loc in locals_:
        assert loc.local_map.width == cfg.map_cells


def test_initial_measurement_already_fused():
    cfg = default_cfg()
    gt = generate_terrain(np.random.default_rng(0), cfg)
    state, locals_ = TerrainEnv(cfg, gt, 0).reset()
    uniform_total = 0.5 * cfg.map_cells**2
    assert map_entropy(state.global_map, cfg.weights) < uniform_total


def test_env_rejects_a_terrain_that_differs_from_the_config():
    cfg = small_cfg()
    gt = generate_terrain(np.random.default_rng(0), cfg)
    n = cfg.map_cells
    with pytest.raises(ConfigurationError, match="does not match"):
        TerrainEnv(cfg, GroundTruthMap(gt.cells[:, : n - 1], cfg.map_resolution), 0)
    with pytest.raises(ConfigurationError, match="map_resolution"):
        TerrainEnv(cfg, GroundTruthMap(gt.cells, 2.0 * cfg.map_resolution), 0)
    with pytest.raises(ConfigurationError, match="map_resolution"):
        run_benchmark([PlannerSpec("random")], 2, 0, cfg,
                      terrain=GroundTruthMap(gt.cells, 2.0 * cfg.map_resolution))
    # the text format keeps 12 significant digits: such a resolution is the same
    close = GroundTruthMap(gt.cells, cfg.map_resolution * (1.0 + 1e-12))
    TerrainEnv(cfg, close, 0).reset()


def test_config_rejects_more_agents_than_lattice_columns():
    assert small_cfg(num_agents=2).lattice_cols == 2
    with pytest.raises(ConfigurationError, match="3 agents do not fit on a 2-column lattice edge"):
        small_cfg(num_agents=3)


def test_initial_state_too_many_agents():
    with pytest.raises(ConfigurationError):
        TerrainEnv(
            small_cfg(num_agents=3),
            generate_terrain(np.random.default_rng(0), small_cfg()),
            0,
        ).reset()


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def test_mask_blocks_boundary_moves():
    cfg = default_cfg(num_agents=1)
    gt = generate_terrain(np.random.default_rng(0), cfg)
    state, _ = TerrainEnv(cfg, gt, 0).reset()
    state.positions[0] = [0, 0, 0]  # west edge, south edge, min altitude
    mask = valid_actions(state, cfg)[0]
    assert not mask[Action.WEST]
    assert not mask[Action.SOUTH]
    assert not mask[Action.DOWN]
    assert mask[Action.NORTH] and mask[Action.EAST] and mask[Action.UP]


def test_mask_blocks_occupied_2d_cell_at_any_altitude():
    cfg = default_cfg(num_agents=2)
    gt = generate_terrain(np.random.default_rng(0), cfg)
    state, _ = TerrainEnv(cfg, gt, 0).reset()
    state.positions[0] = [4, 4, 0]
    state.positions[1] = [4, 5, 2]  # one step north, different altitude
    mask = valid_actions(state, cfg)[0]
    assert not mask[Action.NORTH]
    assert mask[Action.EAST] and mask[Action.SOUTH] and mask[Action.WEST]


def test_mask_all_valid_in_open_interior():
    cfg = default_cfg(num_agents=1)
    gt = generate_terrain(np.random.default_rng(0), cfg)
    state, _ = TerrainEnv(cfg, gt, 0).reset()
    state.positions[0] = [4, 4, 1]
    assert valid_actions(state, cfg)[0].all()


def test_trapped_agent_mask_raises():
    # one lattice cell and one altitude level: every move leaves the box
    cfg = EnvConfig(terrain_size=5.0, min_altitude=5.0, max_altitude=5.0, num_agents=1)
    gt = generate_terrain(np.random.default_rng(0), cfg)
    state, _ = TerrainEnv(cfg, gt, 0).reset()
    with pytest.raises(ContractViolation, match="agent 0 came out all-false"):
        valid_actions(state, cfg)


# ---------------------------------------------------------------------------
# communication
# ---------------------------------------------------------------------------


def fake_measurement(agent_id, x, y, z):
    return Measurement(
        np.array([x, y, z]),
        CellRect(0, 0, 0, 0),
        np.zeros((1, 1), dtype=np.uint8),
        0.9,
        agent_id,
        0,
    )


def test_exchange_within_radius_is_mutual():
    pos = np.array([[0.0, 0.0, 5.0], [20.0, 0.0, 5.0]])
    ms = [fake_measurement(i, *p) for i, p in enumerate(pos)]
    inboxes = exchange_messages(pos, ms, 25.0)
    assert len(inboxes[0]) == 1 and inboxes[0][0].agent_id == 1
    assert len(inboxes[1]) == 1 and inboxes[1][0].agent_id == 0


def test_exchange_zero_radius_silences_everyone():
    pos = np.array([[0.0, 0.0, 5.0], [20.0, 0.0, 5.0]])
    ms = [fake_measurement(i, *p) for i, p in enumerate(pos)]
    assert exchange_messages(pos, ms, 0.0) == [[], []]


def test_exchange_collinear_chain():
    pos = np.array([[0.0, 0.0, 5.0], [20.0, 0.0, 5.0], [40.0, 0.0, 5.0]])
    ms = [fake_measurement(i, *p) for i, p in enumerate(pos)]
    inboxes = exchange_messages(pos, ms, 25.0)
    assert [m.agent_id for m in inboxes[0]] == [1]
    assert sorted(m.agent_id for m in inboxes[1]) == [0, 2]
    assert [m.agent_id for m in inboxes[2]] == [1]


def test_exchange_infinite_radius_is_all_to_all():
    pos = np.array([[0.0, 0.0, 5.0], [20.0, 0.0, 5.0], [40.0, 0.0, 5.0]])
    ms = [fake_measurement(i, *p) for i, p in enumerate(pos)]
    inboxes = exchange_messages(pos, ms, math.inf)
    assert all(len(box) == 2 for box in inboxes)


def test_exchange_uses_3d_distance():
    pos = np.array([[0.0, 0.0, 5.0], [24.0, 0.0, 15.0]])
    ms = [fake_measurement(i, *p) for i, p in enumerate(pos)]
    # 2D distance 24 <= 25 but 3D distance sqrt(24^2 + 10^2) = 26 > 25
    assert exchange_messages(pos, ms, 25.0) == [[], []]


# ---------------------------------------------------------------------------
# reward
# ---------------------------------------------------------------------------


def test_reward_values():
    assert reward(100.0, 90.0, 1.0, 0.0) == pytest.approx(0.1)
    assert reward(50.0, 50.0, 1.0, 0.37) == pytest.approx(0.37)
    assert reward(50.0, 25.0, 2.0, 0.5) == pytest.approx(1.5)
    assert reward(0.0, 0.0, 1.0, 0.25) == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_full_comms_keeps_local_equal_to_global():
    cfg = default_cfg(num_agents=3, budget=4, comm_radius=math.inf)
    gt = generate_terrain(np.random.default_rng(1), cfg)
    env = TerrainEnv(cfg, gt, 1)
    env.reset()
    rng = np.random.default_rng(0)
    done = False
    while not done:
        joint = [int(rng.choice(np.flatnonzero(m))) for m in env.masks()]
        done = env.step(joint)
        for loc in env.locals:
            np.testing.assert_allclose(
                loc.local_map.probs(), env.state.global_map.probs(), atol=1e-12
            )


def test_first_step_reward_positive_with_accurate_sensor():
    cfg = default_cfg(num_agents=1, budget=2)
    gt = generate_terrain(np.random.default_rng(2), cfg)
    env = TerrainEnv(cfg, gt, 2)
    env.reset()
    h_before = env.global_entropy()
    done = env.step([int(Action.NORTH)])
    assert reward(h_before, env.global_entropy(), cfg.reward_alpha, cfg.reward_beta) > 0.0
    assert not done


def test_budget_exhaustion_sets_done():
    cfg = default_cfg(num_agents=1, budget=1)
    gt = generate_terrain(np.random.default_rng(3), cfg)
    env = TerrainEnv(cfg, gt, 3)
    env.reset()
    done = env.step([int(Action.NORTH)])
    assert done
    with pytest.raises(RejectedStepError):
        env.step([int(Action.NORTH)])


def test_masked_action_rejected_naming_agent():
    cfg = default_cfg(num_agents=2, budget=3)
    gt = generate_terrain(np.random.default_rng(4), cfg)
    env = TerrainEnv(cfg, gt, 4)
    env.reset()
    with pytest.raises(RejectedStepError, match="agent 0"):
        env.step([int(Action.SOUTH), int(Action.NORTH)])


def test_rejected_step_changes_nothing():
    cfg = default_cfg(num_agents=2, budget=3)
    gt = generate_terrain(np.random.default_rng(4), cfg)
    rejected, clean = (TerrainEnv(cfg, gt, 4) for _ in range(2))
    rejected.reset()
    clean.reset()
    with pytest.raises(RejectedStepError):
        rejected.step([int(Action.SOUTH), int(Action.NORTH)])
    assert rejected.step_index == 0
    assert rejected.state.remaining_budget == 3
    # the next step draws the noise of step 1, as if nothing had been rejected
    joint = [int(Action.NORTH), int(Action.NORTH)]
    assert rejected.step(joint) == clean.step(joint)
    assert rejected.global_entropy() == clean.global_entropy()
    assert rejected.step_index == 1
    np.testing.assert_array_equal(
        rejected.state.global_map.log_odds, clean.state.global_map.log_odds
    )


def test_teams_on_one_noise_key_see_the_same_noise_on_shared_cells():
    # Two teams on one mission key take different joint actions; at step 2
    # each agent measures at 10 m from poses 5 m apart in x and in y. The
    # 50-cell shift keeps the 2-cell sensor blocks aligned, so on the flat
    # terrain every shared cell must carry the same noisy label.
    cfg = default_cfg(num_agents=2, budget=3)
    n = cfg.map_cells
    gt = GroundTruthMap(np.ones((n, n), dtype=np.uint8), cfg.map_resolution)
    a, b = (TerrainEnv(cfg, gt, 11) for _ in range(2))
    a.reset()
    b.reset()
    up, north, east = int(Action.UP), int(Action.NORTH), int(Action.EAST)
    a.step([up, up])
    a.step([east, east])
    b.step([north, north])
    b.step([up, up])
    for loc_a, loc_b in zip(a.locals, b.locals):
        ma, mb = loc_a.last_measurement, loc_b.last_measurement
        assert ma.step == mb.step == 2 and ma.accuracy == mb.accuracy
        np.testing.assert_array_equal(ma.position - mb.position, [5.0, -5.0, 0.0])
        ys = slice(max(ma.rect.y_lo, mb.rect.y_lo), min(ma.rect.y_hi, mb.rect.y_hi) + 1)
        xs = slice(max(ma.rect.x_lo, mb.rect.x_lo), min(ma.rect.x_hi, mb.rect.x_hi) + 1)
        va = np.zeros((n, n), dtype=np.uint8)
        vb = np.zeros((n, n), dtype=np.uint8)
        va[ma.rect.slices] = ma.values
        vb[mb.rect.slices] = mb.values
        shared = va[ys, xs]
        assert shared.shape == (50, 50)
        np.testing.assert_array_equal(shared, vb[ys, xs])
        assert 0 < (shared == 0).sum() < shared.size  # the shared cells carry noise


def test_simultaneous_collision_lower_id_wins():
    cfg = default_cfg(num_agents=2, budget=3)
    gt = generate_terrain(np.random.default_rng(5), cfg)
    env = TerrainEnv(cfg, gt, 5)
    env.reset()
    env.state.positions[0] = [4, 4, 0]
    env.state.positions[1] = [6, 4, 0]
    env.locals[0].position = env.state.positions[0].copy()
    env.locals[1].position = env.state.positions[1].copy()
    # both aim at (5, 4)
    env.step([int(Action.EAST), int(Action.WEST)])
    assert list(env.state.positions[0][:2]) == [5, 4]
    assert list(env.state.positions[1][:2]) == [6, 4]


def test_positions_stay_distinct_and_on_lattice():
    cfg = default_cfg(num_agents=4, budget=10)
    gt = generate_terrain(np.random.default_rng(6), cfg)
    env = TerrainEnv(cfg, gt, 6)
    env.reset()
    rng = np.random.default_rng(1)
    done = False
    while not done:
        joint = [int(rng.choice(np.flatnonzero(m))) for m in env.masks()]
        done = env.step(joint)
        pos = env.state.positions
        cells = {(int(p[0]), int(p[1])) for p in pos}
        assert len(cells) == len(pos)
        assert (pos[:, 0] >= 0).all() and (pos[:, 0] < cfg.lattice_cols).all()
        assert (pos[:, 1] >= 0).all() and (pos[:, 1] < cfg.lattice_rows).all()
        assert (pos[:, 2] >= 0).all() and (pos[:, 2] < cfg.altitude_levels).all()


def test_local_maps_fuse_subset_of_global():
    # with finite comms every local belief is at most as sharp as global
    cfg = default_cfg(num_agents=4, budget=6, comm_radius=25.0)
    gt = generate_terrain(np.random.default_rng(7), cfg)
    env = TerrainEnv(cfg, gt, 7)
    env.reset()
    rng = np.random.default_rng(2)
    done = False
    while not done:
        joint = [int(rng.choice(np.flatnonzero(m))) for m in env.masks()]
        done = env.step(joint)
    for loc in env.locals:
        # every fused local observation is part of the global fusion
        assert np.abs(loc.local_map.log_odds).sum() <= np.abs(
            env.state.global_map.log_odds
        ).sum() + 1e-6


def test_rewards_telescope_against_entropy_log():
    cfg = default_cfg(num_agents=2, budget=8)
    gt = generate_terrain(np.random.default_rng(8), cfg)
    env = TerrainEnv(cfg, gt, 8)
    env.reset()
    rng = np.random.default_rng(3)
    # rewards as a reader computes them, from the cached sums; entropies from scratch
    entropies = [map_entropy(env.state.global_map, cfg.weights)]
    rewards = []
    done = False
    while not done:
        joint = [int(rng.choice(np.flatnonzero(m))) for m in env.masks()]
        h_before = env.global_entropy()
        done = env.step(joint)
        rewards.append(reward(h_before, env.global_entropy(), cfg.reward_alpha, cfg.reward_beta))
        entropies.append(map_entropy(env.state.global_map, cfg.weights))
    recomputed = [
        (h0 - h1) / h0 for h0, h1 in zip(entropies, entropies[1:])
    ]
    np.testing.assert_allclose(rewards, recomputed, atol=1e-12)
    # absolute reductions telescope exactly
    total = sum(h0 - h1 for h0, h1 in zip(entropies, entropies[1:]))
    assert total == pytest.approx(entropies[0] - entropies[-1], abs=1e-9)


def test_stale_positions_update_only_via_messages():
    cfg = default_cfg(num_agents=2, budget=4, comm_radius=0.0)
    gt = generate_terrain(np.random.default_rng(9), cfg)
    env = TerrainEnv(cfg, gt, 9)
    env.reset()
    start = env.state.positions.copy()
    done = False
    rng = np.random.default_rng(4)
    while not done:
        joint = [int(rng.choice(np.flatnonzero(m))) for m in env.masks()]
        done = env.step(joint)
    # no comms: each agent still believes the other is at its start pose
    np.testing.assert_array_equal(env.locals[0].known_positions[1], start[1])
    np.testing.assert_array_equal(env.locals[1].known_positions[0], start[0])
    # own entry tracks the true pose
    np.testing.assert_array_equal(env.locals[0].known_positions[0], env.state.positions[0])


def test_cached_map_planes_track_full_map_every_step():
    cfg = default_cfg(num_agents=3, budget=6)
    gt = generate_terrain(np.random.default_rng(12), cfg)
    env = TerrainEnv(cfg, gt, 12)
    env.reset()
    rng = np.random.default_rng(5)
    done = False
    while not done:
        h_before = map_entropy(env.state.global_map, cfg.weights)
        assert env.global_entropy() == h_before
        joint = [int(rng.choice(np.flatnonzero(m))) for m in env.masks()]
        done = env.step(joint)
        r = reward(h_before, env.global_entropy(), cfg.reward_alpha, cfg.reward_beta)
        fresh = env.state.global_map.probs()
        np.testing.assert_array_equal(env.state.probs, fresh)
        np.testing.assert_array_equal(
            env.state.cell_entropy, weighted_cell_entropy(fresh, cfg.weights)
        )
        h_after = map_entropy(env.state.global_map, cfg.weights)
        assert r == reward(h_before, h_after, cfg.reward_alpha, cfg.reward_beta)
        assert env.global_entropy() == h_after
    # an out-of-band write logs its rectangle, and the planes and the cached
    # entropy sum catch up on it
    stale = env.global_entropy()
    env.state.global_map.log_odds[:40, :40] = 3.0
    env.state.global_map.fused.append(CellRect(0, 39, 0, 39))
    fresh = env.state.global_map.probs()
    probs, cell_entropy = env.state.map_planes(cfg.weights)
    np.testing.assert_array_equal(probs, fresh)
    np.testing.assert_array_equal(cell_entropy, weighted_cell_entropy(fresh, cfg.weights))
    assert env.global_entropy() == map_entropy(env.state.global_map, cfg.weights) != stale


@pytest.mark.parametrize("runner", ["training", "evaluation"])
def test_each_runner_sums_the_global_map_once_per_step(monkeypatch, runner):
    """A mission's runner reads the global entropy once after reset and once
    after each of its B steps, each read a fresh sum of the map, and rewards
    step t with reward(h_{t-1}, h_t) of the values it read."""
    cfg = small_cfg(terrain_size=50.0, num_agents=2, budget=4, reward_alpha=1.5,
                    reward_beta=0.25)
    hs = []
    global_entropy = TerrainEnv.global_entropy

    def counted(env):
        h = global_entropy(env)
        assert h == map_entropy(env.state.global_map, env.cfg.weights)
        hs.append(h)
        return h

    monkeypatch.setattr(TerrainEnv, "global_entropy", counted)
    if runner == "training":
        fcfg = FeatureConfig()
        arch = NetArch(conv_channels=(2,), conv_strides=(1,), mlp_sizes=(4,))
        actor = make_actor(cfg, fcfg, np.random.default_rng(0), arch)
        rollout, mission_return = run_training_mission(actor, cfg, fcfg, 3, 1, 0.5, fcfg)
        rewards = rollout.rewards[:: cfg.num_agents].tolist()
        assert rollout.rewards.tolist() == [r for r in rewards for _ in range(cfg.num_agents)]
        assert mission_return == sum(rewards)
    else:
        result = run_mission(PlannerSpec("random"), cfg, 3, 1, episode_rows=True)
        rows = result.episode_rows[:: cfg.num_agents]
        assert [row["global_entropy"] for row in rows] == hs
        rewards = [row["reward"] for row in rows[1:]]
    assert len(hs) == cfg.budget + 1
    assert rewards == [reward(h_before, h, cfg.reward_alpha, cfg.reward_beta)
                       for h_before, h in zip(hs, hs[1:])]


# ---------------------------------------------------------------------------
# local maps fused on read
# ---------------------------------------------------------------------------


class _EagerTwin:
    """Each agent's map fused as soon as a step delivers its measurements."""

    def __init__(self, env):
        n = env.cfg.map_cells
        self.grids = [OccupancyGrid.uniform(n, n, env.cfg.map_resolution) for _ in env.locals]
        self.take(env)

    def take(self, env):
        for grid, loc in zip(self.grids, env.locals):
            for m in [loc.last_measurement, *loc.inbox]:
                fuse_measurement(grid, m)


def _assert_local_map_is_eager(env, twin, t):
    cfg, masks = env.cfg, env.masks()
    for loc, grid, mask in zip(env.locals, twin.grids, masks):
        eager = AgentLocalState(loc.agent_id, grid, loc.position, loc.known_positions,
                                loc.remaining_budget)
        rng = np.random.default_rng(0)
        assert (GreedyInfoGainPlanner().act(loc, mask, cfg, rng)
                == GreedyInfoGainPlanner().act(eager, mask, cfg, rng))
        assert loc.pending == []
        assert loc.local_map.log_odds.tobytes() == grid.log_odds.tobytes()
        assert loc.local_map.fused == grid.fused
        assert _local_planes(loc, cfg).tobytes() == _local_planes(eager, cfg).tobytes()


@pytest.mark.parametrize("reads", ["every step", "never", "random steps"])
def test_local_maps_fused_on_read_equal_eager_fusion(reads):
    cfg = small_cfg(terrain_size=50.0, num_agents=3, budget=8, comm_radius=20.0)
    env = TerrainEnv(cfg, generate_terrain(np.random.default_rng(9), cfg), 9)
    env.reset()
    twin = _EagerTwin(env)
    rng = np.random.default_rng(1)
    done, read = False, 0
    while not done:
        if reads == "every step" or (reads == "random steps" and rng.random() < 0.5):
            _assert_local_map_is_eager(env, twin, env.step_index)
            read += 1
        else:  # a step nobody read leaves its deliveries pending
            assert all(loc.pending for loc in env.locals)
        joint = [int(rng.choice(np.flatnonzero(m))) for m in env.masks()]
        done = env.step(joint)
        twin.take(env)
    if reads == "random steps":
        assert 0 < read < cfg.budget
    _assert_local_map_is_eager(env, twin, env.step_index)


@pytest.mark.parametrize("planner", ["random", "greedy-ig"])
def test_local_metrics_run_equals_eager_fusion(planner, monkeypatch):
    cfg = small_cfg(terrain_size=50.0, num_agents=3, budget=6, comm_radius=20.0)

    def run():
        return run_mission(PlannerSpec(planner), cfg, 4, 1, local_metrics=True,
                           episode_rows=True)

    lazy = run()
    measure_and_fuse = TerrainEnv._measure_and_fuse

    def eager(self):
        measure_and_fuse(self)
        for loc in self.locals:
            loc.local_map  # fuses what the step delivered

    monkeypatch.setattr(TerrainEnv, "_measure_and_fuse", eager)
    want = run()
    assert lazy.local_rows == want.local_rows
    assert lazy.records == want.records
    assert lazy.episode_rows == want.episode_rows
    assert lazy.final_map.log_odds.tobytes() == want.final_map.log_odds.tobytes()


def _holds_float_patch(m: Measurement) -> bool:
    # any float array shaped like the labels, wherever the measurement keeps it
    return any(isinstance(v, np.ndarray) and v.dtype.kind == "f" and v.shape == m.values.shape
               for v in vars(m).values())


@pytest.mark.parametrize("planner", ["coverage", "random"])
def test_unread_local_maps_pin_labels_only(planner, monkeypatch):
    # cfg/smoke.cfg's scenario; neither planner reads a local map
    cfg = small_cfg(terrain_size=50.0, num_agents=2, budget=8, comm_radius=25.0)
    step = TerrainEnv.step
    pending = []

    def checked_step(self, joint_action):
        done = step(self, joint_action)
        held = [m for loc in self.locals for m in loc.pending]
        assert not any(_holds_float_patch(m) for m in held)
        pending.append(len(held))
        return done

    monkeypatch.setattr(TerrainEnv, "step", checked_step)
    run_mission(PlannerSpec(planner), cfg, 3, 0)
    assert len(pending) == cfg.budget
    assert pending[-1] >= cfg.num_agents * (cfg.budget + 1)  # nothing was read


def test_first_local_fusion_keeps_the_patch_for_the_other_maps():
    cfg = small_cfg(terrain_size=50.0, num_agents=3, budget=4, comm_radius=math.inf)
    env = TerrainEnv(cfg, generate_terrain(np.random.default_rng(2), cfg), 2)
    env.reset()
    env.step([int(np.flatnonzero(m)[0]) for m in env.masks()])
    delivered = list(env.locals[0].pending)
    assert len(delivered) == 2 * cfg.num_agents  # the reset's and the step's, all heard
    assert not any(_holds_float_patch(m) for m in delivered)
    env.locals[0].local_map
    kept = [m.kept_patch for m in delivered]
    assert all(_holds_float_patch(m) for m in delivered)
    for m, patch in zip(delivered, kept):
        want = reference.fusion_patch(m.values, math.log(m.accuracy / (1.0 - m.accuracy)))
        assert patch.tobytes() == want.tobytes()
    assert {id(m) for m in env.locals[1].pending} == {id(m) for m in delivered}
    env.locals[1].local_map  # fuses the same measurements with the kept arrays
    assert env.locals[1].pending == []
    assert all(m.kept_patch is patch for m, patch in zip(delivered, kept))
