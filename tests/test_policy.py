"""Feature-plane construction and network forward behaviour."""

import math

import numpy as np
import pytest

from terrascout.environment import (
    Action,
    EnvConfig,
    NoiseStreams,
    TerrainEnv,
    generate_terrain,
)
from terrascout.errors import ConfigurationError, ContractViolation
from terrascout.policy import (
    CRITIC_MODE_FULL,
    CRITIC_MODE_LOCAL,
    CRITIC_MODE_NO_ACTIONS,
    FeatureConfig,
    NetArch,
    actor_forward,
    actor_manifest,
    build_actor_features,
    build_critic_features,
    critic_forward,
    critic_manifest,
    load_network,
    make_actor,
    make_critic,
    make_value_net,
    save_network,
)

FCFG = FeatureConfig()


def cfg_(**kw):
    defaults = dict(terrain_size=50.0, map_resolution=0.5, num_agents=2, budget=8)
    defaults.update(kw)
    return EnvConfig(**defaults)


def fresh_env(seed=0, **kw):
    cfg = cfg_(**kw)
    gt = generate_terrain(np.random.default_rng(seed), cfg)
    env = TerrainEnv(cfg, gt, NoiseStreams(seed))
    env.reset()
    return env


def agent0_critic(env, other_actions, mode=CRITIC_MODE_FULL):
    base = build_actor_features(env.locals[0], env.cfg, FCFG)
    return build_critic_features(env.state, base, 0, other_actions, env.cfg, FCFG, mode=mode)


# ---------------------------------------------------------------------------
# actor planes
# ---------------------------------------------------------------------------


def test_manifest_sizes():
    assert len(actor_manifest(FCFG)) == 7
    assert len(critic_manifest(FCFG, 2)) == 7 + 4 + 6
    assert len(critic_manifest(FCFG, 4)) == 7 + 4 + 18
    assert len(critic_manifest(FCFG, 4, CRITIC_MODE_NO_ACTIONS)) == 11
    assert len(critic_manifest(FCFG, 4, CRITIC_MODE_LOCAL)) == 7


def test_entropy_plane_constant_half_at_uniform_prior():
    env = fresh_env()
    loc = env.locals[0]
    # wipe the t=0 fusion to test the uniform prior directly
    loc.local_map.log_odds[...] = 0.0
    stack = build_actor_features(loc, env.cfg, FCFG)
    ent = stack.planes[list(stack.manifest).index("entropy_map")]
    np.testing.assert_allclose(ent, 0.5, atol=1e-12)
    belief = stack.planes[list(stack.manifest).index("belief_map")]
    np.testing.assert_allclose(belief, 0.5, atol=1e-12)


def test_footprint_plane_is_own_footprint_without_comms():
    env = fresh_env(comm_radius=0.0)
    loc = env.locals[0]
    assert loc.inbox == []
    stack = build_actor_features(loc, env.cfg, FCFG)
    fp = stack.planes[list(stack.manifest).index("footprint_map")]
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
    plane = stack.planes[list(stack.manifest).index("position_map")]
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
    plane = stack.planes[list(stack.manifest).index("position_map")]
    c = 10 // 2
    assert plane[c, c + 1] == pytest.approx(1.0)  # 15 m / max 15 m


def test_scalar_planes():
    env = fresh_env()
    stack = build_actor_features(env.locals[1], env.cfg, FCFG)
    ids = stack.planes[list(stack.manifest).index("agent_id")]
    budget = stack.planes[list(stack.manifest).index("budget")]
    np.testing.assert_allclose(ids, 2 / 2)
    np.testing.assert_allclose(budget, 1.0)


def test_feature_builders_deterministic():
    env = fresh_env()
    a = build_actor_features(env.locals[0], env.cfg, FCFG)
    b = build_actor_features(env.locals[0], env.cfg, FCFG)
    assert a.manifest == b.manifest
    np.testing.assert_array_equal(a.planes, b.planes)


def test_entropy_planes_bounded():
    env = fresh_env(seed=3)
    rng = np.random.default_rng(0)
    done = False
    while not done:
        joint = [int(rng.choice(np.flatnonzero(m))) for m in env.masks()]
        _, done = env.step(joint)
        for loc in env.locals:
            stack = build_actor_features(loc, env.cfg, FCFG)
            assert np.isfinite(stack.planes).all()
            for name in ("entropy_map", "measurement_entropy"):
                plane = stack.planes[list(stack.manifest).index(name)]
                assert plane.min() >= 0.0
                assert plane.max() <= 0.54


def test_non_finite_feature_planes_raise():
    env = fresh_env()
    env.locals[0].local_map.log_odds[0, 0] = np.nan
    with pytest.raises(ContractViolation, match="non-finite"):
        build_actor_features(env.locals[0], env.cfg, FCFG)


def test_toggled_plane_absent():
    fcfg = FCFG.with_toggle("entropy_map", False)
    assert "entropy_map" not in actor_manifest(fcfg)
    env = fresh_env()
    stack = build_actor_features(env.locals[0], env.cfg, fcfg)
    assert stack.planes.shape[0] == 6
    with pytest.raises(ConfigurationError):
        FCFG.with_toggle("no_such_plane", False)


# ---------------------------------------------------------------------------
# critic planes
# ---------------------------------------------------------------------------


def test_critic_appends_six_action_planes_per_teammate():
    env = fresh_env()
    stack = agent0_critic(env, [int(Action.UP)])
    assert stack.planes.shape[0] == 7 + 4 + 6
    action_planes = stack.planes[-6:]
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
    names = list(stack.manifest)
    np.testing.assert_allclose(
        stack.planes[names.index("belief_map")],
        stack.planes[names.index("global_belief_map")],
        atol=1e-12,
    )
    np.testing.assert_allclose(
        stack.planes[names.index("entropy_map")],
        stack.planes[names.index("global_entropy_map")],
        atol=1e-12,
    )


def test_local_mode_is_actor_planes_only():
    env = fresh_env()
    base = build_actor_features(env.locals[0], env.cfg, FCFG)
    stack = build_critic_features(
        env.state, base, 0, [0], env.cfg, FCFG, mode=CRITIC_MODE_LOCAL
    )
    assert stack is base
    assert stack.manifest == critic_manifest(FCFG, 2, CRITIC_MODE_LOCAL)


def test_critic_stack_starts_with_the_actor_stack():
    env = fresh_env()
    base = build_actor_features(env.locals[0], env.cfg, FCFG)
    for mode in (CRITIC_MODE_FULL, CRITIC_MODE_NO_ACTIONS):
        others = [0] if mode == CRITIC_MODE_FULL else []
        stack = build_critic_features(env.state, base, 0, others, env.cfg, FCFG, mode=mode)
        np.testing.assert_array_equal(stack.planes[: len(base.manifest)], base.planes)
        assert stack.manifest[: len(base.manifest)] == base.manifest


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------

TOY_ARCH = NetArch(conv_channels=(4, 4), conv_strides=(1, 2), mlp_sizes=(16,))


def test_actor_forward_respects_epsilon_floor_and_mask():
    env = fresh_env()
    actor = make_actor(env.cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    stack = build_actor_features(env.locals[0], env.cfg, FCFG)
    mask = env.masks()[0]
    probs = actor_forward(actor, stack, mask, 0.5)
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
    probs = actor_forward(actor, stack, mask, 0.0)
    np.testing.assert_allclose(probs, np.eye(6)[2], atol=1e-15)


def test_agent_id_plane_changes_output():
    env = fresh_env()
    differing = 0
    for seed in range(20):
        actor = make_actor(env.cfg, FCFG, np.random.default_rng(seed), TOY_ARCH)
        s0 = build_actor_features(env.locals[0], env.cfg, FCFG)
        planes = s0.planes.copy()
        planes[list(s0.manifest).index("agent_id")] = 2 / 2  # pretend agent 1
        out0 = actor.forward(s0.planes[None]).data
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
    stack = agent0_critic(env, [], mode=CRITIC_MODE_NO_ACTIONS)
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
        actor.forward(stack.planes[None]).data, loaded.forward(stack.planes[None]).data
    )


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
        logits = actor.forward(stack.planes[None])
        p = tnn.masked_bounded_softmax(logits, mask[None], 0.1)
        return tnn.mean(-tnn.log(tnn.gather_last(p, np.array([action]))))

    out = loss()
    out.backward()
    for name, p in actor.named_parameters():
        if p.data.size > 200:  # keep FD affordable on the big conv kernels
            continue
        num = numeric_grad(lambda: float(loss().data), p.data)
        assert_grad_close(p.grad, num)
