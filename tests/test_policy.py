"""Feature-plane construction and network forward behaviour."""

import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terrascout import cli, nn
from terrascout.environment import (
    NUM_ACTIONS,
    Action,
    AgentLocalState,
    EnvConfig,
    GlobalState,
    TerrainEnv,
    generate_terrain,
)
from terrascout.errors import ConfigurationError, ContractViolation, DomainError
from terrascout.gridmap import (
    CellRect,
    ImportanceWeights,
    Measurement,
    OccupancyGrid,
    SensorModel,
    footprint,
    fuse_measurement,
    weighted_cell_entropy,
)
from terrascout.policy import (
    ACTOR_PLANES,
    FeatureConfig,
    NetArch,
    PolicyNet,
    actor_forward,
    actor_manifest,
    build_actor_features,
    build_critic_features,
    critic_global_planes,
    critic_manifest,
    layer_shapes,
    load_network,
    make_actor,
    make_critic,
    make_value_net,
    save_network,
    _centred_position_plane,
    _finite,
    _global_position_plane,
    _local_planes,
    _measurement_entropy_plane,
    _pool_row_tile_sums,
    _row_tile_sums,
)
from terrascout.training import critic_feature_config

FCFG = FeatureConfig()
SMOKE_CFG = Path(__file__).resolve().parents[1] / "cfg" / "smoke.cfg"


def cfg_(**kw):
    defaults = dict(terrain_size=50.0, map_resolution=0.5, num_agents=2, budget=8)
    defaults.update(kw)
    return EnvConfig(**defaults)


def fresh_env(seed=0, **kw):
    cfg = cfg_(**kw)
    gt = generate_terrain(np.random.default_rng(seed), cfg)
    env = TerrainEnv(cfg, gt, seed)
    env.reset()
    return env


def agent0_critic(env, other_actions, fcfg=FCFG):
    base = build_actor_features(env.locals[0], env.cfg, FCFG)
    return build_critic_features(env.state, base, 0, other_actions, env.cfg, fcfg,
                                 global_planes=critic_global_planes(env.state, env.cfg))


def plane_of(stack, name, names=actor_manifest(FCFG)):
    return stack[names.index(name)]


# ---------------------------------------------------------------------------
# actor planes
# ---------------------------------------------------------------------------


def test_manifest_sizes():
    assert len(actor_manifest(FCFG)) == 7
    assert len(critic_manifest(FCFG, 2)) == 7 + 4 + 6
    assert len(critic_manifest(FCFG, 4)) == 7 + 4 + 18
    assert len(critic_manifest(critic_feature_config("actor-independent", FCFG), 4)) == 11
    assert len(critic_manifest(critic_feature_config("decentralised", FCFG), 4)) == 7


def test_entropy_plane_constant_half_at_uniform_prior():
    env = fresh_env()
    loc = env.locals[0]
    # wipe the t=0 fusion to test the uniform prior directly, logging the write
    loc.local_map.log_odds[...] = 0.0
    loc.local_map.fused.append(CellRect(0, 99, 0, 99))
    stack = build_actor_features(loc, env.cfg, FCFG)
    ent = plane_of(stack, "entropy_map")
    np.testing.assert_allclose(ent, 0.5, atol=1e-12)
    belief = plane_of(stack, "belief_map")
    np.testing.assert_allclose(belief, 0.5, atol=1e-12)


def test_footprint_plane_is_own_footprint_without_comms():
    env = fresh_env(comm_radius=0.0)
    loc = env.locals[0]
    assert loc.inbox == []
    stack = build_actor_features(loc, env.cfg, FCFG)
    fp = plane_of(stack, "footprint_map")
    expected = np.zeros((10, 10))
    col, row = int(loc.position[0]), int(loc.position[1])
    expected[row, col] = 1.0  # min-altitude footprint covers exactly its cell
    np.testing.assert_array_equal(fp, expected)


def test_centred_position_plane_marks_corner_quadrants():
    env = fresh_env(num_agents=1)
    loc = env.locals[0]
    loc.position = np.array([0, 0, 0])
    loc.known_positions[0] = loc.position
    stack = build_actor_features(loc, env.cfg, FCFG)
    plane = plane_of(stack, "position_map")
    c = 10 // 2
    assert plane[c, c] == pytest.approx(5.0 / 15.0)
    # south and west of the agent lies outside the map
    assert (plane[:c, :] == -1.0).all()
    assert (plane[:, :c] == -1.0).all()
    assert (plane[c:, c:] != -1.0).all()


def test_position_plane_shows_stale_teammate_altitude():
    env = fresh_env()
    loc = env.locals[0]
    loc.known_positions[1] = np.array([loc.position[0] + 1, loc.position[1], 2])
    stack = build_actor_features(loc, env.cfg, FCFG)
    plane = plane_of(stack, "position_map")
    c = 10 // 2
    assert plane[c, c + 1] == pytest.approx(1.0)  # 15 m / max 15 m


def test_scalar_planes():
    env = fresh_env()
    stack = build_actor_features(env.locals[1], env.cfg, FCFG)
    ids = plane_of(stack, "agent_id")
    budget = plane_of(stack, "budget")
    np.testing.assert_allclose(ids, 2 / 2)
    np.testing.assert_allclose(budget, 1.0)


def test_feature_builders_deterministic():
    env = fresh_env()
    a = build_actor_features(env.locals[0], env.cfg, FCFG)
    b = build_actor_features(env.locals[0], env.cfg, FCFG)
    np.testing.assert_array_equal(a, b)


def test_entropy_planes_bounded():
    env = fresh_env(seed=3)
    rng = np.random.default_rng(0)
    done = False
    while not done:
        joint = [int(rng.choice(np.flatnonzero(m))) for m in env.masks()]
        done = env.step(joint)
        for loc in env.locals:
            stack = build_actor_features(loc, env.cfg, FCFG)
            assert np.isfinite(stack).all()
            for name in ("entropy_map", "measurement_entropy"):
                plane = plane_of(stack, name)
                assert plane.min() >= 0.0
                assert plane.max() <= 0.54


def test_non_finite_feature_planes_raise():
    env = fresh_env()
    env.locals[0].local_map.log_odds[0, 0] = np.nan
    env.locals[0].local_map.fused.append(CellRect(0, 0, 0, 0))
    with pytest.raises(ContractViolation, match="non-finite"):
        build_actor_features(env.locals[0], env.cfg, FCFG)


def test_toggled_plane_absent():
    fcfg = FCFG.with_toggle("entropy_map", False)
    assert "entropy_map" not in actor_manifest(fcfg)
    env = fresh_env()
    stack = build_actor_features(env.locals[0], env.cfg, fcfg)
    assert stack.shape[0] == 6
    with pytest.raises(ConfigurationError):
        FCFG.with_toggle("no_such_plane", False)


# ---------------------------------------------------------------------------
# critic planes
# ---------------------------------------------------------------------------


def test_critic_appends_six_action_planes_per_teammate():
    env = fresh_env()
    stack = agent0_critic(env, [int(Action.UP)])
    assert stack.shape[0] == 7 + 4 + 6
    action_planes = stack[-6:]
    up_plane = action_planes[int(Action.UP)]
    other_pos = env.state.positions[1]
    assert up_plane[int(other_pos[1]), int(other_pos[0])] == 1.0
    assert up_plane.sum() == 1.0
    for a in range(6):
        if a != int(Action.UP):
            assert action_planes[a].sum() == 0.0


def test_critic_rejects_wrong_action_count():
    env = fresh_env()
    with pytest.raises(ContractViolation):
        agent0_critic(env, [0, 1])


def test_full_comms_makes_local_planes_equal_global():
    env = fresh_env(comm_radius=math.inf)
    stack = agent0_critic(env, [0])
    names = critic_manifest(FCFG, 2)
    np.testing.assert_allclose(
        plane_of(stack, "belief_map", names), plane_of(stack, "global_belief_map", names),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        plane_of(stack, "entropy_map", names), plane_of(stack, "global_entropy_map", names),
        atol=1e-12,
    )


def test_decentralised_critic_is_actor_planes_only():
    env = fresh_env()
    base = build_actor_features(env.locals[0], env.cfg, FCFG)
    ccfg = critic_feature_config("decentralised", FCFG)
    stack = build_critic_features(env.state, base, 0, [0], env.cfg, ccfg, global_planes=None)
    assert stack.tobytes() == base.tobytes() and stack.shape == base.shape
    assert critic_manifest(ccfg, 2) == actor_manifest(FCFG)


def test_critic_stack_starts_with_the_actor_stack():
    env = fresh_env()
    base = build_actor_features(env.locals[0], env.cfg, FCFG)
    for variant in ("coma", "actor-independent"):
        ccfg = critic_feature_config(variant, FCFG)
        stack = agent0_critic(env, [0] if ccfg.action_maps else [], ccfg)
        np.testing.assert_array_equal(stack[: len(base)], base)
        assert critic_manifest(ccfg, 2)[: len(base)] == actor_manifest(FCFG)


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------

TOY_ARCH = NetArch(conv_channels=(4, 4), conv_strides=(1, 2), mlp_sizes=(16,))


def critic_forward(net, features):
    """Raw Q (or V) values for one state; length equals the net's out_dim."""
    return net.forward(features[None]).data[0]


def test_actor_forward_respects_epsilon_floor_and_mask():
    env = fresh_env()
    actor = make_actor(env.cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    stack = build_actor_features(env.locals[0], env.cfg, FCFG)
    mask = env.masks()[0]
    probs = actor_forward(actor, [stack], [mask], 0.5)[0]
    n_valid = int(mask.sum())
    assert (probs[mask] >= 0.5 / n_valid - 1e-12).all()
    assert (probs[~mask] == 0.0).all()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_point_mass_with_single_valid_action():
    env = fresh_env()
    actor = make_actor(env.cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    stack = build_actor_features(env.locals[0], env.cfg, FCFG)
    mask = np.zeros(6, dtype=bool)
    mask[2] = True
    probs = actor_forward(actor, [stack], [mask], 0.0)[0]
    np.testing.assert_allclose(probs, np.eye(6)[2], atol=1e-15)


def test_agent_id_plane_changes_output():
    env = fresh_env()
    differing = 0
    for seed in range(20):
        actor = make_actor(env.cfg, FCFG, np.random.default_rng(seed), TOY_ARCH)
        s0 = build_actor_features(env.locals[0], env.cfg, FCFG)
        planes = s0.copy()
        planes[actor_manifest(FCFG).index("agent_id")] = 2 / 2  # pretend agent 1
        out0 = actor.forward(s0[None]).data
        out1 = actor.forward(planes[None]).data
        if np.abs(out0 - out1).max() > 0:
            differing += 1
    assert differing >= 19


def test_critic_outputs_six_values_and_reacts_to_action_planes():
    env = fresh_env()
    reactive = 0
    for seed in range(100):
        critic = make_critic(env.cfg, FCFG, np.random.default_rng(seed), TOY_ARCH)
        up = agent0_critic(env, [int(Action.UP)])
        down = agent0_critic(env, [int(Action.DOWN)])
        q_up = critic_forward(critic, up)
        q_down = critic_forward(critic, down)
        assert q_up.shape == (6,)
        if np.abs(q_up - q_down).max() > 0:
            reactive += 1
    assert reactive >= 99


def test_zeroed_critic_outputs_zero():
    env = fresh_env()
    critic = make_critic(env.cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    for p in critic.parameters():
        p.data[...] = 0.0
    stack = agent0_critic(env, [0])
    np.testing.assert_array_equal(critic_forward(critic, stack), np.zeros(6))


def test_value_net_scalar_output():
    env = fresh_env()
    vnet = make_value_net(env.cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    stack = agent0_critic(env, [], replace(FCFG, action_maps=False))
    assert critic_forward(vnet, stack).shape == (1,)


def test_channel_mismatch_is_configuration_error():
    env = fresh_env()
    actor = make_actor(env.cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    bad = np.zeros((1, 3, 10, 10))
    with pytest.raises(ConfigurationError):
        actor.forward(bad)


def test_network_checkpoint_round_trip(tmp_path):
    env = fresh_env()
    actor = make_actor(env.cfg, FCFG, np.random.default_rng(7), TOY_ARCH)
    manifest = actor_manifest(FCFG)
    path = tmp_path / "actor.ckpt"
    save_network(path, actor, kind="actor", manifest=manifest, extra={"epsilon": 0.0})
    loaded, meta = load_network(path)
    assert tuple(meta["manifest"]) == manifest
    assert meta["kind"] == "actor"
    env2 = fresh_env(seed=5)
    stack = build_actor_features(env2.locals[0], env2.cfg, FCFG)
    np.testing.assert_array_equal(
        actor.forward(stack[None]).data, loaded.forward(stack[None]).data
    )


@pytest.mark.parametrize("name", ["smoke.cfg", "full.cfg"])
def test_layer_shapes_list_the_layers_save_network_writes(tmp_path, name):
    raw = cli.parse_config_file(SMOKE_CFG.parent / name)
    cfg, arch = cli.build_env_config(raw), cli.build_train_config(raw).arch
    for make in (make_actor, make_critic, make_value_net):
        net = make(cfg, FCFG, np.random.default_rng(0), arch)
        save_network(tmp_path / "net.ckpt", net, kind="net", manifest=())
        params, _ = nn.load_checkpoint(tmp_path / "net.ckpt")
        want = layer_shapes(net.in_channels, net.grid_size, net.out_dim, arch)
        assert [(layer, value.shape) for layer, value in params.items()] == want
        layers = [f"conv{i}" for i in range(len(arch.conv_channels))]
        layers += [f"fc{i}" for i in range(len(arch.mlp_sizes))] + ["head"]
        assert [layer for layer, _ in want] == [f"{layer}.{kind}" for layer in layers
                                                for kind in ("weight", "bias")]


def test_full_network_gradient_check():
    # finite differences through conv encoder + MLP + bounded softmax
    from terrascout import nn as tnn
    from tests.test_nn import assert_grad_close, numeric_grad

    env = fresh_env()
    actor = make_actor(env.cfg, FCFG, np.random.default_rng(1), TOY_ARCH)
    stack = build_actor_features(env.locals[0], env.cfg, FCFG)
    mask = env.masks()[0]
    action = int(np.flatnonzero(mask)[0])

    def loss():
        logits = actor.forward(stack[None])
        p = tnn.masked_bounded_softmax(logits, mask[None], 0.1)
        return tnn.mean(-tnn.log(tnn.gather_last(p, np.array([action]))))

    out = loss()
    out.backward()
    for name, p in actor.params.items():
        if p.data.size > 200:  # keep FD affordable on the big conv kernels
            continue
        num = numeric_grad(lambda: float(loss().data), p.data)
        assert_grad_close(p.grad, num)


# ---------------------------------------------------------------------------
# cached planes against a full rebuild
# ---------------------------------------------------------------------------

# Reference: the builders as they were before pooled planes were cached, kept
# verbatim. They rebuild every plane from the whole map on every call.


def ref_pool(fine, factor):
    h, w = fine.shape
    if h % factor or w % factor:
        raise ConfigurationError("map size is not divisible by the pooling factor")
    return fine.reshape(h // factor, factor, w // factor, factor).mean(axis=(1, 3))


def ref_footprint_rects(positions, cfg):
    rects = []
    for pos in positions:
        pos_m = cfg.position_m(pos)
        rects.append(
            footprint(pos_m, cfg.footprint_factor, cfg.map_cells, cfg.map_cells,
                      cfg.map_resolution)
        )
    return rects


def ref_footprint_plane(rects, cfg):
    fine = np.zeros((cfg.map_cells, cfg.map_cells))
    for rect in rects:
        fine[rect.slices] = 1.0
    return (ref_pool(fine, cfg.pool_factor) > 0.0).astype(np.float64)


def ref_measurement_entropy_plane(local, cfg):
    fine = np.zeros((cfg.map_cells, cfg.map_cells))
    m = local.last_measurement
    if m is not None:
        p_obs = np.where(m.values == 1, m.accuracy, 1.0 - m.accuracy)
        fine[m.rect.slices] = weighted_cell_entropy(p_obs, cfg.weights)
    return ref_pool(fine, cfg.pool_factor)


def ref_build_actor_features(local, cfg, fcfg=FeatureConfig()):
    g = cfg.lattice_cols
    factor = cfg.pool_factor
    planes = []
    if fcfg.position_map:
        planes.append(_centred_position_plane(local, cfg))
    if fcfg.belief_map or fcfg.entropy_map:
        probs = local.local_map.probs()
    if fcfg.belief_map:
        planes.append(ref_pool(probs, factor))
    if fcfg.entropy_map:
        try:  # a NaN belief fails the entropy's domain check before the stack check
            planes.append(ref_pool(weighted_cell_entropy(probs, cfg.weights), factor))
        except DomainError as exc:
            raise ContractViolation("feature planes contain non-finite values") from exc
    if fcfg.measurement_entropy:
        planes.append(ref_measurement_entropy_plane(local, cfg))
    if fcfg.footprint_map:
        rects = []
        if local.last_measurement is not None:
            rects.append(local.last_measurement.rect)
        rects += [m.rect for m in local.inbox]
        planes.append(ref_footprint_plane(rects, cfg))
    if fcfg.agent_id:
        planes.append(np.full((g, g), (local.agent_id + 1) / cfg.num_agents))
    if fcfg.budget:
        planes.append(np.full((g, g), local.remaining_budget / cfg.budget))
    return _finite(np.stack(planes))


def ref_build_critic_features(state, base, agent_id, other_actions, cfg, fcfg=FeatureConfig()):
    planes = [base]
    factor = cfg.pool_factor
    probs, cell_entropy = state.map_planes(cfg.weights)
    if fcfg.global_position_map:
        planes.append(_global_position_plane(state.positions, cfg)[None])
    if fcfg.global_belief_map:
        planes.append(ref_pool(probs, factor)[None])
    if fcfg.global_entropy_map:
        planes.append(ref_pool(cell_entropy, factor)[None])
    if fcfg.global_footprint_map:
        planes.append(ref_footprint_plane(ref_footprint_rects(state.positions, cfg), cfg)[None])
    if fcfg.action_maps:
        others = [j for j in range(cfg.num_agents) if j != agent_id]
        if len(other_actions) != len(others):
            raise ContractViolation(
                f"expected {len(others)} teammate actions, got {len(other_actions)}"
            )
        g = cfg.lattice_cols
        onehots = np.zeros((len(others) * NUM_ACTIONS, g, g))
        for k, (j, act) in enumerate(zip(others, other_actions)):
            pos = state.positions[j]
            onehots[k * NUM_ACTIONS + int(act), int(pos[1]), int(pos[0])] = 1.0
        planes.append(onehots)
    return _finite(np.concatenate(planes))


def plane_test_cfg(scale: str, comm_radius: float) -> EnvConfig:
    if scale == "smoke":
        return replace(cli.build_env_config(cli.parse_config_file(SMOKE_CFG)),
                       comm_radius=comm_radius)
    # pool factor 1: one map cell per lattice tile
    return EnvConfig(terrain_size=30.0, map_resolution=3.0, planning_resolution=3.0,
                     num_agents=3, budget=6, comm_radius=comm_radius)


def assert_stacks_identical(new, ref):
    assert new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    scale=st.sampled_from(["smoke", "pool1"]),
    comm_radius=st.sampled_from([0.0, 25.0, math.inf]),
    toggles=st.lists(st.booleans(), min_size=len(fields(FeatureConfig)),
                     max_size=len(fields(FeatureConfig))),
    variant=st.sampled_from(["coma", "actor-independent", "decentralised"]),
    seed=st.integers(0, 2**16),
)
def test_cached_planes_equal_full_rebuild_bit_for_bit(scale, comm_radius, toggles, variant, seed):
    cfg = plane_test_cfg(scale, comm_radius)
    fcfg = FeatureConfig(**{f.name: on for f, on in zip(fields(FeatureConfig), toggles)})
    if not actor_manifest(fcfg):
        fcfg = fcfg.with_toggle("budget", True)
    ccfg = critic_feature_config(variant, fcfg)
    env = TerrainEnv(cfg, generate_terrain(np.random.default_rng(seed), cfg), seed)
    env.reset()
    rng = np.random.default_rng(seed)
    done = False
    while not done:
        actions = [int(rng.choice(np.flatnonzero(m))) for m in env.masks()]
        if rng.random() < 0.8:  # skipped steps leave several fusions for one refresh
            stacks = []
            for loc in env.locals:
                stacks.append(build_actor_features(loc, cfg, fcfg))
                assert len(stacks[-1]) == len(actor_manifest(fcfg))
                assert_stacks_identical(stacks[-1], ref_build_actor_features(loc, cfg, fcfg))
            shared = critic_global_planes(env.state, cfg)
            for i, stack in enumerate(stacks):
                others = actions[:i] + actions[i + 1 :]
                critic = build_critic_features(env.state, stack, i, others, cfg, ccfg,
                                               global_planes=shared)
                assert len(critic) == len(critic_manifest(ccfg, cfg.num_agents))
                assert_stacks_identical(
                    critic, ref_build_critic_features(env.state, stack, i, others, cfg, ccfg)
                )
        done = env.step(actions)


def test_out_of_band_write_then_logged_rect_matches_fresh_build():
    env = fresh_env(seed=4)
    loc = env.locals[0]
    build_actor_features(loc, env.cfg, FCFG)
    loc.local_map.log_odds[:7, :] = np.random.default_rng(0).normal(size=(7, 100))
    loc.local_map.fused.append(CellRect(0, 99, 0, 6))  # the documented log of the write
    assert_stacks_identical(
        build_actor_features(loc, env.cfg, FCFG), ref_build_actor_features(loc, env.cfg, FCFG)
    )
    base = build_actor_features(env.locals[1], env.cfg, FCFG)
    agent0_critic(env, [0])
    env.state.global_map.log_odds[...] = 1.5
    env.state.global_map.fused.append(CellRect(0, 99, 0, 99))
    env.state.positions[1] = [9, 9, 2]
    assert_stacks_identical(
        build_critic_features(env.state, base, 1, [0], env.cfg, FCFG,
                              global_planes=critic_global_planes(env.state, env.cfg)),
        ref_build_critic_features(env.state, base, 1, [0], env.cfg, FCFG),
    )


def test_failed_refresh_leaves_the_cache_as_it_was():
    env = fresh_env(seed=5)
    loc = env.locals[0]
    build_actor_features(loc, env.cfg, FCFG)
    before = loc.row_sums.copy(), loc.row_sums_seen
    env.step([int(np.flatnonzero(m)[0]) for m in env.masks()])
    last = loc.local_map.fused[-1]
    loc.local_map.log_odds[last.y_lo, last.x_lo] = np.nan  # in the last box read
    with pytest.raises(ContractViolation, match="non-finite"):
        build_actor_features(loc, env.cfg, FCFG)
    assert loc.row_sums.tobytes() == before[0].tobytes()
    assert loc.row_sums_seen == before[1] < len(loc.local_map.fused)


@settings(max_examples=200, deadline=None)
@given(
    factor=st.integers(1, 64),
    tile_rows=st.integers(1, 6),
    tile_cols=st.integers(2, 12),
    seed=st.integers(0, 2**16),
)
def test_two_step_pool_equals_the_one_step_mean(factor, tile_rows, tile_cols, seed):
    fine = np.random.default_rng(seed).random((tile_rows * factor, tile_cols * factor))
    fine[:, ::3] = 0.5
    pooled = _pool_row_tile_sums(_row_tile_sums(fine, factor), factor)
    assert pooled.tobytes() == ref_pool(fine, factor).tobytes()


# (terrain_size, map_resolution, planning_resolution): pool factors 10, 20 and 1
BOX_SCALES = [(50.0, 0.5, 5.0), (30.0, 0.5, 10.0), (30.0, 3.0, 3.0)]


# how a grid is born: at the p = 0.5 prior, at another uniform log-odds, or
# from non-uniform log-odds (logged as one whole-map rectangle)
BIRTHS = ("uniform", "constant", "noise")


def born(birth: str, n: int, res: float, rng) -> OccupancyGrid:
    if birth == "uniform":
        return OccupancyGrid.uniform(n, n, res)
    if birth == "constant":
        return OccupancyGrid(np.full((n, n), rng.normal(scale=3.0)), res)
    return OccupancyGrid(rng.normal(scale=3.0, size=(n, n)), res)


@settings(max_examples=90, deadline=None)
@given(scale=st.sampled_from(BOX_SCALES), birth=st.sampled_from(BIRTHS),
       seed=st.integers(0, 2**16))
def test_box_refresh_equals_a_fresh_full_build(scale, birth, seed):
    """Random fusion sequences: footprints clipped at the map's edges,
    footprints narrower than one tile and footprints exactly one tile wide,
    several fused between refreshes. The planes start from the grid's prior
    and its log, possibly before the first fusion; the local and the global
    map catch up at different times."""
    terrain, res, planning = scale
    cfg = EnvConfig(terrain_size=terrain, map_resolution=res, planning_resolution=planning,
                    num_agents=1, budget=4)
    n, f = cfg.map_cells, cfg.pool_factor
    rng = np.random.default_rng(seed)
    loc = AgentLocalState(0, born(birth, n, res, rng), np.zeros(3, dtype=int),
                          np.zeros((1, 3), dtype=int), cfg.budget)
    state = GlobalState(born(birth, n, res, rng), np.zeros((1, 3), dtype=int), cfg.budget)
    assert (loc.local_map.fused == []) == (birth != "noise")
    for _ in range(8):
        for _ in range(int(rng.integers(0, 4))):
            kind = rng.random()
            if kind < 0.25:  # whole tile columns [k f, (k + 1) f), any rows
                x_lo = int(rng.integers(0, n // f)) * f
                y_lo, y_hi = np.sort(rng.integers(0, n, size=2))
                rect = CellRect(x_lo, x_lo + f - 1, int(y_lo), int(y_hi))
            else:
                side = int(rng.integers(1, f + 1)) if kind < 0.6 else int(rng.integers(1, n))
                cx, cy = rng.integers(-side // 2, n + side // 2, size=2)
                x_lo, y_lo = max(0, int(cx) - side // 2), max(0, int(cy) - side // 2)
                x_hi, y_hi = min(n - 1, int(cx) + side // 2), min(n - 1, int(cy) + side // 2)
                if x_lo > x_hi or y_lo > y_hi:
                    continue
                rect = CellRect(x_lo, x_hi, y_lo, y_hi)
            values = rng.integers(0, 2, (rect.height, rect.width))
            m = Measurement(np.zeros(3), rect, values, float(rng.uniform(0.55, 0.95)), 0, 0)
            fuse_measurement(loc.local_map, m)
            fuse_measurement(state.global_map, m)
            loc.last_measurement = m
            assert (_measurement_entropy_plane(loc, cfg).tobytes()
                    == ref_measurement_entropy_plane(loc, cfg).tobytes())
        if rng.random() < 0.7:
            planes = _local_planes(loc, cfg)
            probs = loc.local_map.probs()
            entropy = weighted_cell_entropy(probs, cfg.weights)
            expected = np.stack([ref_pool(probs, f), ref_pool(entropy, f)])
            assert planes.tobytes() == expected.tobytes()
            assert loc.row_sums_seen == len(loc.local_map.fused)
        if rng.random() < 0.5:
            planes = critic_global_planes(state, cfg)
            probs = state.global_map.probs()
            entropy = weighted_cell_entropy(probs, cfg.weights)
            assert state.probs.tobytes() == probs.tobytes()
            assert state.cell_entropy.tobytes() == entropy.tobytes()
            expected = np.stack([ref_pool(probs, f), ref_pool(entropy, f)])
            assert planes[1:3].tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    acc=st.one_of(st.sampled_from([acc for _, acc in SensorModel.default().table]
                                  + [1.0, 1.0 - 1e-12]),
                  st.floats(0.5, 1.0, exclude_min=True)),
    w1=st.floats(0.0, 1.0),
    rows=st.integers(1, 30),
    cols=st.integers(1, 30),
    label=st.sampled_from(["mixed", "zeros", "ones"]),
    seed=st.integers(0, 2**16),
)
def test_two_entry_measurement_entropy_equals_the_direct_kernel(acc, w1, rows, cols, label, seed):
    """The patch's two observation probabilities, ``1 - acc`` and ``acc``, have
    equal weighted entropies bit for bit, so the kernel on every cell is the
    entropy of ``acc`` everywhere; the plane equals the per-cell reference and
    does not depend on the labels."""
    w = ImportanceWeights(w1, 1.0 - w1)
    rng = np.random.default_rng(seed)
    values = {"mixed": rng.integers(0, 2, (rows, cols)), "zeros": np.zeros((rows, cols)),
              "ones": np.ones((rows, cols))}[label].astype(np.uint8)
    pair = weighted_cell_entropy(np.array([1.0 - acc, acc]), w)
    assert pair[:1].tobytes() == pair[1:].tobytes()
    direct = weighted_cell_entropy(np.where(values == 1, acc, 1.0 - acc), w)
    assert direct.tobytes() == np.full(values.shape, weighted_cell_entropy(acc, w)).tobytes()
    cfg = EnvConfig(terrain_size=50.0, map_resolution=0.5, num_agents=1, budget=4, weights=w)
    n = cfg.map_cells
    x_lo, y_lo = (int(v) for v in rng.integers(0, n, 2))
    rect = CellRect(x_lo, min(n - 1, x_lo + cols - 1), y_lo, min(n - 1, y_lo + rows - 1))
    loc = AgentLocalState(0, OccupancyGrid.uniform(n, n, 0.5), np.zeros(3, dtype=int),
                          np.zeros((1, 3), dtype=int), cfg.budget)
    loc.last_measurement = Measurement(np.zeros(3), rect, values[: rect.height, : rect.width],
                                       acc, 0, 0)
    plane = _measurement_entropy_plane(loc, cfg).tobytes()
    assert plane == ref_measurement_entropy_plane(loc, cfg).tobytes()
    loc.last_measurement.values = 1 - loc.last_measurement.values
    assert _measurement_entropy_plane(loc, cfg).tobytes() == plane


@settings(max_examples=40, deadline=None)
@given(
    scale=st.sampled_from(["smoke", "pool1"]),
    comm_radius=st.sampled_from([0.0, 25.0, math.inf]),
    variant=st.sampled_from(["coma", "actor-independent"]),
    seed=st.integers(0, 2**16),
)
def test_once_per_step_global_planes_equal_per_agent_builds(scale, comm_radius, variant, seed):
    """The stack ``run_training_mission`` builds once per step gives every
    agent the critic features that agent's own build gives."""
    cfg = plane_test_cfg(scale, comm_radius)
    ccfg = critic_feature_config(variant, FCFG)
    env = TerrainEnv(cfg, generate_terrain(np.random.default_rng(seed), cfg), seed)
    env.reset()
    twin = TerrainEnv(cfg, env.terrain, seed)
    twin.reset()
    rng = np.random.default_rng(seed)
    done = False
    while not done:
        actions = [int(rng.choice(np.flatnonzero(m))) for m in env.masks()]
        if rng.random() < 0.7:  # skipped steps leave several fusions for one refresh
            shared = critic_global_planes(env.state, cfg)
            for i, (loc, twin_loc) in enumerate(zip(env.locals, twin.locals)):
                others = actions[:i] + actions[i + 1 :]
                once = build_critic_features(env.state, build_actor_features(loc, cfg, FCFG), i,
                                             others, cfg, ccfg, global_planes=shared)
                own = build_critic_features(twin.state, build_actor_features(twin_loc, cfg, FCFG),
                                            i, others, cfg, ccfg,
                                            global_planes=critic_global_planes(twin.state, cfg))
                assert_stacks_identical(once, own)
        env.step(actions)
        done = twin.step(actions)


# the default and the desk-scale architectures, and one with stride-2 layers only
# and no padding
FORWARD_ARCHS = [
    NetArch(),
    NetArch(conv_channels=(8, 16), conv_strides=(1, 2), mlp_sizes=(64,)),
    NetArch(conv_channels=(3, 5), conv_strides=(2, 2), padding=0, mlp_sizes=(12, 7)),
]


@settings(max_examples=40, deadline=None)
@given(
    arch=st.sampled_from(FORWARD_ARCHS),
    agents=st.integers(1, 8),
    epsilon=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_batched_actor_forward_rows_equal_taped_batch_one_forwards(arch, agents, epsilon, seed):
    rng = np.random.default_rng(seed)
    net = PolicyNet(len(ACTOR_PLANES), 10, NUM_ACTIONS, rng, arch)
    planes = rng.normal(size=(agents, len(ACTOR_PLANES), 10, 10))
    masks = rng.random((agents, NUM_ACTIONS)) < 0.6
    masks[np.arange(agents), rng.integers(0, NUM_ACTIONS, agents)] = True
    rows = actor_forward(net, list(planes), masks, epsilon)
    assert rows.shape == (agents, NUM_ACTIONS)
    for i in range(agents):
        logits = net.forward(planes[i][None])
        assert logits._backward is not None  # the reference keeps its tape
        ref = nn.masked_bounded_softmax(logits, masks[i][None], epsilon).data[0]
        assert rows[i].tobytes() == ref.tobytes()
