"""Baseline planners: mask compliance, sweeps, and the greedy oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as reference
from terrascout.environment import (
    ACTION_DELTAS,
    Action,
    AgentLocalState,
    EnvConfig,
    TerrainEnv,
    generate_terrain,
)
from terrascout.errors import ContractViolation
from terrascout.gridmap import (
    CellRect,
    ImportanceWeights,
    OccupancyGrid,
    SensorModel,
    footprint,
    weighted_cell_entropy,
)
from terrascout.nn import Tensor
from terrascout.planners import (
    CoveragePlanner,
    GreedyInfoGainPlanner,
    LearnedPlanner,
    RandomPlanner,
    expected_entropy_reduction,
)
from terrascout.policy import FeatureConfig, NetArch, build_actor_features, make_actor

W = ImportanceWeights(0.8, 0.2)


def small_env(seed=0, **kw):
    defaults = dict(terrain_size=50.0, map_resolution=0.5, num_agents=2, budget=10)
    defaults.update(kw)
    cfg = EnvConfig(**defaults)
    env = TerrainEnv(cfg, generate_terrain(np.random.default_rng(seed), cfg), seed)
    env.reset()
    return env


def tiny_footprint_env(seed=0):
    """2x2 lattice, single altitude, 4-cell footprints: oracle-enumerable."""
    cfg = EnvConfig(
        terrain_size=10.0,
        map_resolution=2.5,
        planning_resolution=5.0,
        min_altitude=5.0,
        max_altitude=5.0,
        num_agents=1,
        budget=4,
        sensor=SensorModel(((5.0, 0.8),)),
    )
    env = TerrainEnv(cfg, generate_terrain(np.random.default_rng(seed), cfg), seed)
    env.reset()
    return env


# ---------------------------------------------------------------------------
# random planner
# ---------------------------------------------------------------------------


def test_random_single_valid_action():
    mask = np.zeros(6, dtype=bool)
    mask[3] = True
    env = small_env()
    assert RandomPlanner().act(env.locals[0], mask, env.cfg, np.random.default_rng(0)) == 3


def test_random_uniform_frequencies():
    env = small_env()
    mask = np.ones(6, dtype=bool)
    rng = np.random.default_rng(123)
    planner = RandomPlanner()
    counts = np.zeros(6)
    for _ in range(6000):
        counts[planner.act(env.locals[0], mask, env.cfg, rng)] += 1
    freqs = counts / 6000
    assert (freqs >= 0.13).all() and (freqs <= 0.20).all()


def test_random_never_returns_masked():
    env = small_env()
    mask = np.array([True, False, True, False, True, False])
    rng = np.random.default_rng(7)
    planner = RandomPlanner()
    for _ in range(10000):
        assert mask[planner.act(env.locals[0], mask, env.cfg, rng)]
    with pytest.raises(ContractViolation):
        planner.act(env.locals[0], np.zeros(6, dtype=bool), env.cfg, rng)


# ---------------------------------------------------------------------------
# greedy information gain
# ---------------------------------------------------------------------------


def exhaustive_expected_reduction(probs, acc, w):
    """Brute-force expectation over all 2^k footprint observation outcomes."""
    probs = list(probs)
    prior = sum(weighted_cell_entropy(p, w) for p in probs)
    expected = 0.0
    for outcome in itertools.product((0, 1), repeat=len(probs)):
        likelihood = 1.0
        posterior_h = 0.0
        for p, o in zip(probs, outcome):
            q1 = p * acc + (1 - p) * (1 - acc)
            if o == 1:
                likelihood *= q1
                posterior_h += weighted_cell_entropy(p * acc / q1, w)
            else:
                likelihood *= 1 - q1
                posterior_h += weighted_cell_entropy(p * (1 - acc) / (1 - q1), w)
        expected += likelihood * posterior_h
    return prior - expected


def test_cellwise_reduction_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        probs = rng.uniform(0.01, 0.99, size=k)
        acc = float(rng.uniform(0.55, 0.99))
        fast = expected_entropy_reduction([probs], acc, W)[0]
        slow = exhaustive_expected_reduction(probs, acc, W)
        assert fast == pytest.approx(slow, abs=1e-12)


def greedy_oracle_choice(env, agent=0):
    """Argmax over valid actions of the exhaustive reduction, fixed tie-break."""
    loc = env.locals[agent]
    mask = env.masks()[agent]
    from terrascout.environment import ACTION_DELTAS
    from terrascout.gridmap import footprint

    best, best_gain = -1, -np.inf
    probs = loc.local_map.probs()
    for a in range(6):
        if not mask[a]:
            continue
        pos_m = env.cfg.position_m(loc.position + ACTION_DELTAS[a])
        rect = footprint(pos_m, env.cfg.footprint_factor, env.cfg.map_cells,
                         env.cfg.map_cells, env.cfg.map_resolution)
        gain = exhaustive_expected_reduction(
            probs[rect.slices].ravel(), env.cfg.sensor.accuracy_at(pos_m[2]), env.cfg.weights
        )
        if gain > best_gain:
            best, best_gain = a, gain
    return best


def test_greedy_matches_exhaustive_oracle_on_tiny_instances():
    planner = GreedyInfoGainPlanner()
    rng = np.random.default_rng(42)
    matches = 0
    for trial in range(250):
        env = tiny_footprint_env(seed=trial)
        loc = env.locals[0]
        loc.local_map.log_odds[...] = rng.normal(scale=3.0, size=loc.local_map.log_odds.shape)
        loc.position = np.array([int(rng.integers(0, 2)), int(rng.integers(0, 2)), 0])
        env.state.positions[0] = loc.position
        mask = env.masks()[0]
        choice = planner.act(loc, mask, env.cfg, rng)
        assert choice == greedy_oracle_choice(env)
        matches += 1
    assert matches == 250


def test_greedy_prefers_uncertain_region():
    env = tiny_footprint_env()
    loc = env.locals[0]
    # position at SW cell: footprint of EAST target covers the east half,
    # NORTH target the north half
    loc.position = np.array([0, 0, 0])
    env.state.positions[0] = loc.position
    lo = loc.local_map.log_odds
    lo[...] = 8.0  # everything certain
    lo[:, 2:] = 0.0  # east half unknown
    mask = env.masks()[0]
    planner = GreedyInfoGainPlanner()
    assert planner.act(loc, mask, env.cfg, np.random.default_rng(0)) == int(Action.EAST)


def test_greedy_tie_break_is_fixed_action_order():
    env = tiny_footprint_env()
    loc = env.locals[0]
    loc.position = np.array([0, 0, 0])
    env.state.positions[0] = loc.position
    loc.local_map.log_odds[...] = 0.0  # identical beliefs everywhere
    mask = env.masks()[0]
    planner = GreedyInfoGainPlanner()
    # single altitude: valid actions are north/east; north precedes east
    assert planner.act(loc, mask, env.cfg, np.random.default_rng(0)) == int(Action.NORTH)


GATE_WEIGHTS = [(0.8, 0.2), (0.7, 0.30000000000000004), (0.6, 0.4000000000005),
                (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]
GATE_SENSORS = [SensorModel.default(), SensorModel(((5.0, 1.0), (10.0, 0.8), (15.0, 0.6)))]


def candidate_patches(local, mask, cfg):
    """(action, sensor accuracy, footprint patch) of each valid candidate."""
    out = []
    for a in np.flatnonzero(mask):
        pos_m = cfg.position_m(local.position + ACTION_DELTAS[a])
        rect = footprint(pos_m, cfg.footprint_factor, cfg.map_cells, cfg.map_cells,
                         cfg.map_resolution)
        out.append((int(a), cfg.sensor.accuracy_at(pos_m[2]),
                    local.local_map.probs_slice(rect.slices)))
    return out


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    resolution=st.sampled_from([0.5, 0.625]),
    factor=st.sampled_from([1.0, 0.9, 1.3]),
    weights=st.sampled_from(GATE_WEIGHTS),
    sensor=st.sampled_from(GATE_SENSORS),
    certain_share=st.sampled_from([0.0, 0.3, 1.0]),
    position=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)),
    mask_bits=st.integers(1, 63),
)
def test_stacked_greedy_equals_per_candidate_reference(seed, resolution, factor, weights, sensor,
                                                       certain_share, position, mask_bits):
    cfg = EnvConfig(terrain_size=25.0, map_resolution=resolution, num_agents=1, budget=4,
                    footprint_factor=factor, sensor=sensor, weights=ImportanceWeights(*weights))
    rng = np.random.default_rng(seed)
    n = cfg.map_cells
    log_odds = rng.normal(0.0, 2.0, (n, n))
    log_odds[rng.random((n, n)) < 0.3] = 0.0  # unexplored cells, p = 0.5 exactly
    log_odds[rng.random((n, n)) < certain_share] = 40.0  # clamped at 1 - PROB_FLOOR
    local = AgentLocalState(0, OccupancyGrid(log_odds, resolution), np.array(position),
                            np.array([position]), 4)
    lattice = np.array([[cfg.lattice_cols, cfg.lattice_rows, cfg.altitude_levels]])
    targets = local.position + ACTION_DELTAS
    inside = ((targets >= 0) & (targets < lattice)).all(axis=1)
    mask = inside & np.array([bool(mask_bits >> a & 1) for a in range(6)])
    if not mask.any():
        mask = inside

    candidates = candidate_patches(local, mask, cfg)
    want = {a: reference.expected_entropy_reduction(patch, acc, cfg.weights)
            for a, acc, patch in candidates}
    for acc in {acc for _, acc, _ in candidates}:
        group = [(a, patch) for a, a_acc, patch in candidates if a_acc == acc]
        got = expected_entropy_reduction([patch for _, patch in group], acc, cfg.weights)
        assert np.array(got).tobytes() == np.array([want[a] for a, _ in group]).tobytes()
    best = max(want, key=lambda a: (want[a], -a))  # the first of equal maxima
    assert GreedyInfoGainPlanner().act(local, mask, cfg, rng) == best


def test_stacked_gains_are_the_standalone_sums():
    rng = np.random.default_rng(5)
    shapes = ((7, 13), (1, 1), (150, 149), (3, 1))
    patches = [rng.uniform(1e-4, 1 - 1e-4, shape) for shape in shapes]
    got = expected_entropy_reduction(patches, 0.735, W)
    want = [reference.expected_entropy_reduction(p, 0.735, W) for p in patches]
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("at_prior", ["all", "none", "some"])
@pytest.mark.parametrize("acc", [0.99, 0.735, 0.625, 1.0])
def test_gains_off_the_prior_equal_the_full_evaluation(at_prior, acc):
    """The kernels run only on cells off p = 0.5 and one cell at it; every
    gain still equals the full per-cell evaluation. Patch sides 1-17 cover
    the vector kernels' tails."""
    rng = np.random.default_rng(17)
    patches = []
    for side in range(1, 18):
        for shape in ((side, side), (1, side), (side, 3)):
            p = reference.probs(rng.normal(scale=3.0, size=shape))
            prior = {"all": np.ones(shape, bool), "none": np.zeros(shape, bool),
                     "some": rng.random(shape) < 0.5}[at_prior]
            p[prior] = 0.5
            patches.append(p)
    got = expected_entropy_reduction(patches, acc, W)
    want = [reference.expected_entropy_reduction(p, acc, W) for p in patches]
    assert np.array(got).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# coverage planner
# ---------------------------------------------------------------------------


def run_coverage(env, steps):
    planner = CoveragePlanner()
    actions, cells = [], [[tuple(p[:2])] for p in env.state.positions]
    rng = np.random.default_rng(0)
    for t in range(1, steps + 1):
        joint = [
            planner.act(env.locals[i], env.masks()[i], env.cfg, rng)
            for i in range(env.cfg.num_agents)
        ]
        env.step(joint)
        actions.append(joint)
        for i, p in enumerate(env.state.positions):
            cells[i].append((int(p[0]), int(p[1])))
    return actions, cells


def test_coverage_serpentine_actions():
    env = small_env(num_agents=1, budget=21, coverage_altitude=5.0)
    env.state.positions[0] = np.array([0, 0, 0])
    env.locals[0].position = env.state.positions[0].copy()
    actions, _ = run_coverage(env, 21)
    flat = [a[0] for a in actions]
    expected = [int(Action.EAST)] * 9 + [int(Action.NORTH)] + [int(Action.WEST)] * 9
    expected += [int(Action.NORTH)] + [int(Action.EAST)]
    assert flat == expected


def test_coverage_deterministic():
    a1, _ = run_coverage(small_env(seed=3, num_agents=2, budget=12), 12)
    a2, _ = run_coverage(small_env(seed=3, num_agents=2, budget=12), 12)
    assert a1 == a2


def test_coverage_two_agents_stay_in_disjoint_stripes():
    env = small_env(num_agents=2, budget=30, coverage_altitude=5.0)
    _, cells = run_coverage(env, 30)
    cols0 = {c for c, _ in cells[0]}
    cols1 = {c for c, _ in cells[1]}
    assert cols0 <= set(range(0, 5))
    assert cols1 <= set(range(5, 10))


def test_coverage_visits_every_stripe_cell_once_per_sweep():
    env = small_env(num_agents=1, budget=99, coverage_altitude=5.0)
    env.state.positions[0] = np.array([0, 0, 0])
    env.locals[0].position = env.state.positions[0].copy()
    _, cells = run_coverage(env, 99)
    visited = cells[0]
    assert len(visited) == 100
    assert len(set(visited)) == 100  # each lattice cell exactly once


def test_coverage_climbs_to_configured_altitude_first():
    env = small_env(num_agents=1, budget=8, coverage_altitude=15.0)
    planner = CoveragePlanner()
    a = planner.act(env.locals[0], env.masks()[0], env.cfg, np.random.default_rng(0))
    assert a == int(Action.UP)
    env.step([a])
    a = planner.act(env.locals[0], env.masks()[0], env.cfg, np.random.default_rng(0))
    assert a == int(Action.UP)


# ---------------------------------------------------------------------------
# learned planner
# ---------------------------------------------------------------------------


class StubNet:
    """Fixed-logits network standing in for a trained actor."""

    def __init__(self, logits):
        self.logits = np.asarray(logits, dtype=np.float64)

    def forward(self, x):
        return Tensor(np.tile(self.logits, (x.shape[0] if hasattr(x, "shape") else 1, 1)))


def test_learned_uniform_logits_sample_uniformly():
    env = small_env()
    planner = LearnedPlanner(StubNet(np.zeros(6)), FeatureConfig(), mode="sample")
    mask = np.ones(6, dtype=bool)
    rng = np.random.default_rng(5)
    counts = np.zeros(6)
    for _ in range(6000):
        counts[planner.act_team([env.locals[0]], [mask], env.cfg, rng)[0]] += 1
    freqs = counts / 6000
    assert (freqs >= 0.13).all() and (freqs <= 0.20).all()


def test_learned_dominant_logit():
    env = small_env()
    logits = np.zeros(6)
    logits[2] = 10.0
    mask = np.ones(6, dtype=bool)
    argmax = LearnedPlanner(StubNet(logits), FeatureConfig(), mode="argmax")
    assert argmax.act_team([env.locals[0]], [mask], env.cfg, np.random.default_rng(0))[0] == 2
    sampler = LearnedPlanner(StubNet(logits), FeatureConfig(), mode="sample")
    rng = np.random.default_rng(1)
    hits = sum(
        sampler.act_team([env.locals[0]], [mask], env.cfg, rng)[0] == 2 for _ in range(1000)
    )
    assert hits >= 990


def test_learned_masked_dominant_never_returned():
    env = small_env()
    logits = np.zeros(6)
    logits[2] = 10.0
    mask = np.ones(6, dtype=bool)
    mask[2] = False
    rng = np.random.default_rng(2)
    for mode in ("sample", "argmax"):
        planner = LearnedPlanner(StubNet(logits), FeatureConfig(), mode=mode)
        for _ in range(200):
            assert planner.act_team([env.locals[0]], [mask], env.cfg, rng)[0] != 2


@pytest.mark.parametrize("mode, epsilon", [("sample", 0.0), ("sample", 0.3), ("argmax", 0.0)])
def test_learned_team_call_equals_one_agent_calls_in_agent_order(mode, epsilon):
    # one forward for the team, then the draws of N one-agent calls on one generator
    env = small_env(seed=3, num_agents=4, budget=6)
    fcfg = FeatureConfig()
    actor = make_actor(env.cfg, fcfg, np.random.default_rng(1),
                       NetArch(conv_channels=(4,), conv_strides=(2,), mlp_sizes=(8,)))
    planner = LearnedPlanner(actor, fcfg, mode=mode, epsilon=epsilon)
    team_rng, one_rng = np.random.default_rng(11), np.random.default_rng(11)
    taken = set()
    done = False
    while not done:
        masks = env.masks()
        joint = planner.act_team(env.locals, masks, env.cfg, team_rng)
        stacks = planner.stacks
        singles = [planner.act_team([loc], [mask], env.cfg, one_rng)[0]
                   for loc, mask in zip(env.locals, masks)]
        assert joint == singles
        assert [s.tobytes() for s in stacks] == [
            build_actor_features(loc, env.cfg, fcfg).tobytes() for loc in env.locals]
        taken.update(joint)
        done = env.step(joint)
    assert len(taken) > 1


# ---------------------------------------------------------------------------
# mask compliance across planners
# ---------------------------------------------------------------------------


def test_every_planner_respects_masks_over_randomized_states():
    checked = 0
    # randomized masks with randomized local beliefs: random + greedy + learned
    env = small_env(seed=9)
    actor = make_actor(
        env.cfg, FeatureConfig(), np.random.default_rng(0),
        NetArch(conv_channels=(4,), conv_strides=(2,), mlp_sizes=(8,)),
    )
    mask_rng = np.random.default_rng(77)
    loc = env.locals[0]
    planners = {
        "random": RandomPlanner(),
        "greedy-ig": GreedyInfoGainPlanner(),
        "learned": LearnedPlanner(actor, FeatureConfig(), mode="sample"),
    }
    budgets = {"random": 6800, "greedy-ig": 1500, "learned": 1200}
    for name, planner in planners.items():
        for i in range(budgets[name]):
            loc.position = np.array(
                [int(mask_rng.integers(0, 10)), int(mask_rng.integers(0, 10)),
                 int(mask_rng.integers(0, 3))]
            )
            env.state.positions[0] = loc.position
            true_mask = env.masks()[0]
            mask = (mask_rng.random(6) < 0.6) & true_mask
            if not mask.any():
                mask[int(np.flatnonzero(true_mask)[0])] = True
            if i % 50 == 0:
                loc.local_map.log_odds[...] = mask_rng.normal(
                    scale=2.0, size=loc.local_map.log_odds.shape
                )
                # an out-of-band write logs its rectangle for the cached planes
                loc.local_map.fused.append(CellRect(0, 99, 0, 99))
            a = planner.act_team([loc], [mask], env.cfg, mask_rng)[0]
            assert mask[a]
            checked += 1
    # full env rollouts: coverage needs genuine trajectories
    for ep in range(30):
        env = small_env(seed=200 + ep, num_agents=2, budget=10)
        planner = CoveragePlanner()
        rng = np.random.default_rng(ep)
        done = False
        t = 0
        while not done:
            t += 1
            masks = env.masks()
            joint = [
                planner.act(env.locals[i], masks[i], env.cfg, rng) for i in range(2)
            ]
            for i, a in enumerate(joint):
                assert masks[i][a]
                checked += 1
            done = env.step(joint)
    assert checked >= 10000
