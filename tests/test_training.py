"""TD targets, counterfactual advantages, updates, and the training loop."""

import copy
import filecmp
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terrascout.environment import (
    Action,
    EnvConfig,
    NUM_ACTIONS,
    TerrainEnv,
    start_mission,
)
from terrascout.errors import ConfigurationError, ContractViolation, TrainingDivergenceError
from terrascout import nn
from terrascout.policy import (
    ACTOR_PLANES,
    CRITIC_GLOBAL_PLANES,
    FeatureConfig,
    NetArch,
    PolicyNet,
    build_actor_features,
    critic_manifest,
    load_network,
    make_actor,
    make_critic,
    make_value_net,
)
from terrascout.training import (
    VARIANTS,
    Rollout,
    TrainConfig,
    TrainState,
    _actor_probs,
    _fill_block_targets,
    _optimise_minibatch,
    actor_update,
    advantage_variant,
    critic_update,
    run_block,
    run_training_mission,
    td_lambda_targets,
    training_loop,
)
from terrascout import environment, evaluation, training
from terrascout.evaluation import PlannerSpec

import reference_kernels as reference

TOY_ARCH = NetArch(conv_channels=(3, 4), conv_strides=(1, 2), mlp_sizes=(12,))
FCFG = FeatureConfig()


def micro_cfg(**kw):
    defaults = dict(
        terrain_size=20.0, map_resolution=0.5, planning_resolution=5.0,
        num_agents=2, budget=3,
    )
    defaults.update(kw)
    return EnvConfig(**defaults)


def micro_tcfg(**kw):
    defaults = dict(
        rollout_block=12,
        epochs=1,
        batch_size=12,
        actor_lr=1e-3,
        critic_lr=1e-3,
        target_copy_interval=120,
        epsilon_anneal_missions=10,
        total_missions=4,
        arch=TOY_ARCH,
        checkpoint_every_blocks=100,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def fake_rollout(cfg, rng, actions=(0,), reward=0.1, epsilon=0.1):
    """One row per action: random critic planes, every action valid."""
    n = len(actions)
    g = cfg.lattice_cols
    n_critic = len(critic_manifest(FCFG, cfg.num_agents))
    return Rollout(
        features=rng.normal(size=(n, n_critic, g, g)),
        masks=np.ones((n, NUM_ACTIONS), dtype=bool),
        actions=np.array(actions),
        rewards=np.full(n, reward),
        epsilons=np.full(n, epsilon),
    )


# ---------------------------------------------------------------------------
# TD(lambda) targets
# ---------------------------------------------------------------------------


def test_td_lambda_zero_is_one_step_bootstrap():
    rewards = [1.0, 2.0, 3.0]
    qs = [10.0, 20.0, 30.0]
    out = td_lambda_targets(rewards, qs, 0.0, 0.9)
    assert out[2] == pytest.approx(3.0)
    assert out[1] == pytest.approx(2.0 + 0.9 * 30.0)
    assert out[0] == pytest.approx(1.0 + 0.9 * 20.0)


def test_td_lambda_one_is_monte_carlo():
    out = td_lambda_targets([1.0, 0.0, 2.0], [5.0, 5.0, 5.0], 1.0, 0.5)
    assert out[0] == pytest.approx(1.5)
    assert out[1] == pytest.approx(0.0 + 0.5 * 2.0)
    assert out[2] == pytest.approx(2.0)


def test_td_lambda_single_step_is_reward():
    for lam in (0.0, 0.3, 1.0):
        assert td_lambda_targets([0.7], [9.0], lam, 0.99)[0] == pytest.approx(0.7)


def test_td_lambda_rejects_misaligned_inputs():
    with pytest.raises(ContractViolation):
        td_lambda_targets([1.0, 2.0], [1.0], 0.8, 0.99)


def test_td_lambda_general_matches_forward_view():
    # recursive implementation vs the explicit (1-lam) sum of n-step returns
    rng = np.random.default_rng(0)
    for _ in range(20):
        T = int(rng.integers(2, 9))
        rewards = rng.normal(size=T)
        qs = rng.normal(size=T)
        lam, gamma = float(rng.uniform(0, 1)), float(rng.uniform(0.5, 1))
        out = td_lambda_targets(rewards, qs, lam, gamma)
        for t in range(T):
            total = 0.0
            # n-step returns with bootstrap, truncated at the terminal
            for n_ in range(1, T - t):
                g_n = sum(gamma**k * rewards[t + k] for k in range(n_))
                g_n += gamma**n_ * qs[t + n_]
                total += (1 - lam) * lam ** (n_ - 1) * g_n
            mc = sum(gamma**k * rewards[t + k] for k in range(T - t))
            total += lam ** (T - t - 1) * mc
            assert out[t] == pytest.approx(total, abs=1e-9)


# ---------------------------------------------------------------------------
# advantages
# ---------------------------------------------------------------------------


def test_counterfactual_point_mass_is_zero():
    pi = np.zeros(6)
    pi[3] = 1.0
    assert advantage_variant("coma", np.array([1.0, 2, 3, 4, 5, 6]), pi, 3) == 0.0


def test_counterfactual_uniform_arithmetic():
    q = np.array([1.0, 2, 3, 4, 5, 6])
    pi = np.full(6, 1 / 6)
    assert advantage_variant("coma", q, pi, 5) == pytest.approx(2.5)


def test_counterfactual_zero_expectation_identity():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        q = rng.normal(scale=5.0, size=6)
        pi = rng.dirichlet(np.ones(6))
        expect = sum(pi[a] * advantage_variant("coma", q, pi, a) for a in range(6))
        assert abs(expect) < 1e-10


def test_counterfactual_rejects_bad_policy():
    with pytest.raises(ContractViolation):
        advantage_variant("coma", np.ones(6), np.full(6, 0.3), 0)


def test_variant_central_qv():
    q = np.array([2.0, 2, 2, 2, 2, 2])
    assert advantage_variant("central-qv", q, np.full(6, 1 / 6), 1, v_value=2.0) == 0.0
    assert advantage_variant("central-qv", q, np.full(6, 1 / 6), 1, v_value=0.5) == 1.5
    with pytest.raises(ConfigurationError):
        advantage_variant("central-qv", q, np.full(6, 1 / 6), 1)


def test_variant_actor_independent_point_mass():
    pi = np.zeros(6)
    pi[2] = 1.0
    assert advantage_variant("actor-independent", np.arange(6.0), pi, 2) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    rows=st.integers(1, 64),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_advantages_equal_the_per_row_loop(variant, rows, scale, seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(scale=scale, size=(rows, NUM_ACTIONS))
    actions = rng.integers(0, NUM_ACTIONS, size=rows)
    keep = rng.random((rows, NUM_ACTIONS)) >= 0.2  # some actions masked out
    keep[np.arange(rows), actions] = True
    pi = rng.dirichlet(np.ones(NUM_ACTIONS), size=rows) * keep
    pi /= pi.sum(axis=1, keepdims=True)
    v = rng.normal(scale=scale, size=rows) if variant == "central-qv" else None
    got = advantage_variant(variant, q, pi, actions, v)
    want = reference.batch_advantages(variant, q, pi, actions, v)
    assert got.tobytes() == want.tobytes()
    for i in range(rows):  # one row still gives the parent's float
        v_i = None if v is None else float(v[i])
        assert advantage_variant(variant, q[i], pi[i], int(actions[i]), v_i) == want[i]


def test_coma_equals_actor_independent_on_action_blind_critic():
    cfg = micro_cfg()
    critic = make_critic(cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    n_planes = len(critic_manifest(FCFG, cfg.num_agents))
    n_action_planes = NUM_ACTIONS * (cfg.num_agents - 1)
    # zero every first-layer weight reading the action planes
    critic.params["conv0.weight"].data[:, n_planes - n_action_planes :] = 0.0
    rng = np.random.default_rng(2)
    feats_a = fake_rollout(cfg, rng).features[0]
    feats_b = feats_a.copy()
    feats_b[n_planes - n_action_planes :] = rng.normal(size=feats_b[n_planes - n_action_planes :].shape)
    qa = critic.forward(feats_a[None]).data[0]
    qb = critic.forward(feats_b[None]).data[0]
    np.testing.assert_array_equal(qa, qb)  # blind to plane (j)
    pi = np.random.default_rng(3).dirichlet(np.ones(6))
    assert advantage_variant("coma", qa, pi, 4) == advantage_variant("coma", qb, pi, 4)


# ---------------------------------------------------------------------------
# updates
# ---------------------------------------------------------------------------


def test_actor_update_zero_advantages_keep_parameters():
    cfg = micro_cfg()
    actor = make_actor(cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    before = [p.data.copy() for p in actor.parameters()]
    rng = np.random.default_rng(1)
    batch = fake_rollout(cfg, rng, actions=range(6))
    opt = nn.Adam(actor.parameters(), lr=1e-3)
    actor_update(batch, _actor_probs(batch, actor), actor, np.zeros(6), opt, grad_clip=10.0)
    for p, b in zip(actor.parameters(), before):
        assert np.abs(p.data - b).max() < 1e-12


def test_actor_update_moves_probability_with_advantage_sign():
    cfg = micro_cfg()
    rng = np.random.default_rng(2)
    for sign in (+1.0, -1.0):
        actor = make_actor(cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
        tr = fake_rollout(cfg, rng, actions=[2])
        opt = nn.Adam(actor.parameters(), lr=1e-3)

        def taken_prob():
            logits = actor.forward(tr.features[:, : actor.in_channels])
            probs = nn.masked_bounded_softmax(logits, tr.masks, tr.epsilons[:, None])
            return float(probs.data[0, 2])

        before = taken_prob()
        actor_update(tr, _actor_probs(tr, actor), actor, np.array([sign]), opt, grad_clip=10.0)
        after = taken_prob()
        if sign > 0:
            assert after > before
        else:
            assert after < before


def test_actor_update_does_not_touch_critic_gradients():
    cfg = micro_cfg()
    actor = make_actor(cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    critic = make_critic(cfg, FCFG, np.random.default_rng(1), TOY_ARCH)
    for p in critic.parameters():
        p.zero_grad()
    rng = np.random.default_rng(3)
    batch = fake_rollout(cfg, rng, actions=[0] * 4)
    opt = nn.Adam(actor.parameters(), lr=1e-3)
    actor_update(batch, _actor_probs(batch, actor), actor, np.ones(4), opt, grad_clip=10.0)
    for p in critic.parameters():
        assert (p.grad == 0.0).all()


def test_critic_update_noop_when_targets_match():
    cfg = micro_cfg()
    critic = make_critic(cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    rng = np.random.default_rng(4)
    batch = fake_rollout(cfg, rng, actions=[0] * 3)
    q = critic.forward(batch.features).data
    targets = q[np.arange(3), batch.actions]
    before = [p.data.copy() for p in critic.parameters()]
    opt = nn.Adam(critic.parameters(), lr=1e-3)
    loss = critic_update(batch, critic, targets, opt, grad_clip=10.0)
    assert loss == pytest.approx(0.0, abs=1e-20)
    for p, b in zip(critic.parameters(), before):
        assert np.abs(p.data - b).max() < 1e-12


def test_critic_update_converges_on_fixed_transition():
    cfg = micro_cfg()
    critic = make_critic(cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    tr = fake_rollout(cfg, np.random.default_rng(5), actions=[1])
    target = np.array([0.65])
    opt = nn.Adam(critic.parameters(), lr=3e-3)
    for step_count in range(1, 5001):
        critic_update(tr, critic, target, opt, grad_clip=10.0)
        q = critic.forward(tr.features).data[0, 1]
        if abs(q - 0.65) < 1e-3:
            break
    assert abs(q - 0.65) < 1e-3
    assert step_count <= 5000


def test_critic_loss_decreases_over_steps():
    cfg = micro_cfg()
    critic = make_critic(cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    rng = np.random.default_rng(6)
    batch = fake_rollout(cfg, rng, actions=range(6))
    targets = np.linspace(-1, 1, 6)
    opt = nn.Adam(critic.parameters(), lr=1e-4)
    losses = [critic_update(batch, critic, targets, opt, grad_clip=10.0) for _ in range(10)]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_non_finite_value_target_raises_before_any_gradient():
    cfg = micro_cfg()
    rng = np.random.default_rng(8)
    nets = [make(cfg, FCFG, np.random.default_rng(k), TOY_ARCH)
            for k, make in enumerate((make_actor, make_critic, make_value_net))]
    actor, critic, vnet = nets
    opts = tuple(nn.Adam(net.parameters(), lr=1e-3) for net in nets)
    batch = fake_rollout(cfg, rng, actions=[0, 1, 2])
    batch.targets = np.zeros((len(batch), 2))
    batch.targets[1, 1] = np.nan
    before = [p.data.copy() for p in vnet.parameters()]
    with pytest.raises(TrainingDivergenceError, match="non-finite TD target"):
        _optimise_minibatch(batch, TrainState(actor, [critic, vnet], [], opts, 0, 0, 0),
                            micro_tcfg(variant="central-qv"))
    for p, b in zip(vnet.parameters(), before):
        assert (p.grad == 0.0).all()
        assert p.data.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------


def test_rollout_take_and_concat_keep_rows_aligned():
    cfg = micro_cfg()
    rng = np.random.default_rng(7)
    a = fake_rollout(cfg, rng, actions=[0, 1, 2], reward=0.5)
    b = fake_rollout(cfg, rng, actions=[3, 4], reward=-0.5)
    both = Rollout.concat([a, b])
    assert len(both) == 5
    np.testing.assert_array_equal(both.actions, [0, 1, 2, 3, 4])
    np.testing.assert_array_equal(both.features[3:], b.features)
    part = both.take(np.array([4, 0]))
    np.testing.assert_array_equal(part.actions, [4, 0])
    np.testing.assert_array_equal(part.rewards, [-0.5, 0.5])
    np.testing.assert_array_equal(part.features[1], a.features[0])
    part.targets[:] = 1.0  # a taken batch is a copy
    assert (both.targets == 0.0).all()


def test_rollout_rejects_non_finite_reward():
    cfg = micro_cfg()
    with pytest.raises(ContractViolation):
        fake_rollout(cfg, np.random.default_rng(0), reward=float("nan"))


def test_training_mission_rows_are_critic_stacks_by_step_and_agent():
    cfg = micro_cfg()
    actor = make_actor(cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    rollout, ret = run_training_mission(actor, cfg, FCFG, 4, 2, 0.3, FCFG)
    n = cfg.budget * cfg.num_agents
    assert rollout.features.shape == (
        n, len(critic_manifest(FCFG, cfg.num_agents)), cfg.lattice_cols, cfg.lattice_cols
    )
    np.testing.assert_array_equal(rollout.epsilons, np.full(n, 0.3))
    step_rewards = rollout.rewards.reshape(cfg.budget, cfg.num_agents)
    assert (step_rewards == step_rewards[:, :1]).all()
    assert ret == pytest.approx(step_rewards[:, 0].sum())
    # the first step's rows start with each agent's actor stack at reset
    env, _ = start_mission(cfg, 4, 2)
    env.reset()
    for i, loc in enumerate(env.locals):
        actor_planes = build_actor_features(loc, cfg, FCFG)
        np.testing.assert_array_equal(rollout.features[i, : actor.in_channels], actor_planes)
        np.testing.assert_array_equal(rollout.masks[i], env.masks()[i])


def test_training_mission_rejects_a_short_mission(monkeypatch):
    cfg = micro_cfg()
    actor = make_actor(cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    step = TerrainEnv.step

    def stop_after_one(self, joint_action):
        step(self, joint_action)
        return True

    monkeypatch.setattr(TerrainEnv, "step", stop_after_one)
    with pytest.raises(ContractViolation):
        run_training_mission(actor, cfg, FCFG, 0, 0, 0.1, FCFG)


def test_a_mission_is_keyed_alike_by_both_runners(monkeypatch):
    # terrain, start measurements and policy draws depend on (seed, mission)
    # alone, whichever runner starts the mission
    cfg = micro_cfg()
    actor = make_actor(cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    started = []

    def recording_start(*args, **kwargs):
        env, rng = environment.start_mission(*args, **kwargs)
        started.append((copy.deepcopy(env), copy.deepcopy(rng)))
        return env, rng

    monkeypatch.setattr(evaluation, "start_mission", recording_start)
    monkeypatch.setattr(training, "start_mission", recording_start)
    evaluation.run_mission(PlannerSpec("random"), cfg, 5, 3)
    run_training_mission(actor, cfg, FCFG, 5, 3, 0.1, FCFG)
    run_training_mission(actor, cfg, FCFG, 5, 4, 0.1, FCFG)
    views = []
    for env, rng in started:
        env.reset()
        views.append((env.terrain.cells.tobytes(), env.state.global_map.log_odds.tobytes(),
                      rng.random()))
    assert len(views) == 3
    assert views[0] == views[1]
    assert all(a != b for a, b in zip(views[1], views[2]))  # another mission differs in each


@pytest.mark.parametrize("agents", [2, 4])
def test_training_rollout_at_epsilon_zero_acts_as_the_learned_planner(agents):
    # both runners act through one policy path: same (seed, mission), same actions
    cfg = micro_cfg(num_agents=agents, budget=5)
    actor = make_actor(cfg, FCFG, np.random.default_rng(3), TOY_ARCH)
    spec = PlannerSpec("learned", actor=actor)
    for mission in (0, 1):
        rollout, _ = run_training_mission(actor, cfg, FCFG, 6, mission, 0.0, FCFG)
        rows = evaluation.run_mission(spec, cfg, 6, mission, fcfg=FCFG,
                                      episode_rows=True).episode_rows
        taken = [int(Action[row["action"].upper()]) for row in rows if row["step"] > 0]
        assert rollout.actions.tolist() == taken
        assert len(set(taken)) > 1


def test_block_targets_follow_each_agent_episode():
    cfg = micro_cfg()
    tcfg = micro_tcfg(td_lambda=0.6, gamma=0.9)
    actor = make_actor(cfg, FCFG, np.random.default_rng(0), TOY_ARCH)
    critic = make_critic(cfg, FCFG, np.random.default_rng(1), TOY_ARCH)
    vnet = make_value_net(cfg, FCFG, np.random.default_rng(2), TOY_ARCH)
    block = Rollout.concat([
        run_training_mission(actor, cfg, FCFG, 1, m, 0.2, FCFG)[0] for m in (0, 1)
    ])
    _fill_block_targets(block, [critic, vnet], tcfg, cfg)
    n_value = len(critic_manifest(replace(FCFG, action_maps=False), cfg.num_agents))
    per_mission = cfg.budget * cfg.num_agents
    for m in (0, 1):
        for i in range(cfg.num_agents):
            rows = [m * per_mission + t * cfg.num_agents + i for t in range(cfg.budget)]
            feats = block.features[rows]
            qs = critic.forward(feats).data[np.arange(cfg.budget), block.actions[rows]]
            rewards = block.rewards[rows]
            np.testing.assert_array_equal(
                block.targets[rows, 0], td_lambda_targets(rewards, qs, 0.6, 0.9)
            )
            vs = vnet.forward(feats[:, :n_value]).data.reshape(-1)
            np.testing.assert_array_equal(
                block.targets[rows, 1], td_lambda_targets(rewards, vs, 0.6, 0.9)
            )


# ---------------------------------------------------------------------------
# config + loop
# ---------------------------------------------------------------------------


def test_epsilon_schedule_midpoint():
    tcfg = TrainConfig()
    assert tcfg.epsilon_at(5000) == pytest.approx(0.26)
    assert tcfg.epsilon_at(0) == pytest.approx(0.5)
    assert tcfg.epsilon_at(10000) == pytest.approx(0.02)
    assert tcfg.epsilon_at(20000) == pytest.approx(0.02)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(variant="nope")
    with pytest.raises(ConfigurationError):
        TrainConfig(epsilon_start=1.5)
    with pytest.raises(ConfigurationError):
        TrainConfig(batch_size=0)
    for key in ("actor_lr", "critic_lr", "gamma", "td_lambda"):
        with pytest.raises(ConfigurationError):
            TrainConfig(**{key: float("nan")})
    # a negative clip would turn every update uphill; 0 blocks would divide by zero
    for key, value in (("grad_clip", -1.0), ("grad_clip", 0.0), ("checkpoint_every_blocks", 0)):
        with pytest.raises(ConfigurationError):
            TrainConfig(**{key: value})


def test_training_loop_smoke_and_artifacts(tmp_path):
    cfg = micro_cfg()
    run = tmp_path / "run"
    trained = training_loop(cfg, micro_tcfg(), FCFG, seed=3, out_dir=run)
    for name in ("actor.ckpt", "critic.ckpt", "actor_init.ckpt", "training_log.csv",
                 "missions.csv", "timing.csv"):
        assert (run / name).exists()
    assert not (run / "vnet.ckpt").exists()
    missions = (run / "missions.csv").read_text().splitlines()
    assert missions[0] == "mission,return,epsilon"
    assert [line.split(",")[0] for line in missions[1:]] == ["0", "1", "2", "3"]
    actor, meta = load_network(run / "actor.ckpt")
    assert meta["variant"] == "coma"
    for name, p in actor.params.items():  # the returned actor is the one saved last
        np.testing.assert_array_equal(p.data, trained.params[name].data)
    rows = (run / "training_log.csv").read_text().splitlines()
    assert rows[0] == "block,missions_done,env_interactions,mean_return,actor_loss,critic_loss,epsilon"
    assert len(rows) >= 2


def test_checkpoint_header_records_every_train_and_feature_value(tmp_path):
    tcfg = micro_tcfg(total_missions=2, td_lambda=0.6, grad_clip=3.5)
    fcfg = FeatureConfig(agent_id=False, global_footprint_map=False)
    training_loop(micro_cfg(), tcfg, fcfg, seed=4, out_dir=tmp_path / "run")
    _, meta = load_network(tmp_path / "run" / "actor.ckpt")
    recorded = meta["train_config"]
    names = {f.name for f in fields(TrainConfig)} - {"variant", "arch", "checkpoint_every_blocks"}
    assert set(recorded) == names
    assert all(recorded[name] == getattr(tcfg, name) for name in names)
    assert meta["feature_config"] == asdict(fcfg)


def test_training_loop_deterministic(tmp_path):
    cfg = micro_cfg()
    training_loop(cfg, micro_tcfg(), FCFG, seed=9, out_dir=tmp_path / "a")
    training_loop(cfg, micro_tcfg(), FCFG, seed=9, out_dir=tmp_path / "b")
    for name in ("training_log.csv", "missions.csv", "actor.ckpt"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)


def test_training_loop_target_copy_instants(tmp_path, monkeypatch):
    # every (target, critic) pair that PolicyNet.copy_from syncs, in call order
    copies = []
    copy_from = PolicyNet.copy_from

    def record(target, source):
        copies.append((target, source))
        copy_from(target, source)

    monkeypatch.setattr(PolicyNet, "copy_from", record)
    cfg = micro_cfg()
    # 4 missions x 2 agents x 3 steps = 24 interactions; interval 24 copies
    # exactly once, right after the last optimize phase
    tcfg = micro_tcfg(target_copy_interval=24)
    training_loop(cfg, tcfg, FCFG, seed=5, out_dir=tmp_path / "copy")
    last = (tmp_path / "copy" / "training_log.csv").read_text().splitlines()[-1]
    assert last.split(",")[2] == "24"  # env_interactions
    assert len(copies) == 2  # the initial clone, then the one sync
    target, critic = copies[-1]
    for a, b in zip(critic.parameters(), target.parameters()):
        np.testing.assert_array_equal(a.data, b.data)
    # without a copy instant, target stays at its initial clone
    copies.clear()
    training_loop(
        cfg, micro_tcfg(target_copy_interval=10_000), FCFG, seed=5,
        out_dir=tmp_path / "nocopy",
    )
    [(target, critic)] = copies
    diffs = max(np.abs(a.data - b.data).max()
                for a, b in zip(critic.parameters(), target.parameters()))
    assert diffs > 0.0


def test_target_nets_forward_without_a_tape(tmp_path, monkeypatch):
    # central-qv has two target nets; a taped forward of each gives the same bits
    fill = training._fill_block_targets
    seen = []

    def spy(block, target_nets, tcfg, cfg):
        for net in target_nets:
            x = block.features[:, : net.in_channels]
            out = net.forward(x)
            assert out._parents == () and out._backward is None
            assert all(p.grad is None for p in net.parameters())
            taped = copy.deepcopy(net)
            for name, p in taped.params.items():
                taped.params[name] = nn.Tensor(p.data, requires_grad=True)
            want = taped.forward(x)
            assert want._backward is not None and out.data.tobytes() == want.data.tobytes()
            seen.append(net)
        fill(block, target_nets, tcfg, cfg)

    monkeypatch.setattr(training, "_fill_block_targets", spy)
    training_loop(micro_cfg(), micro_tcfg(variant="central-qv"), FCFG, seed=3, out_dir=tmp_path)
    assert len(seen) == 4  # two blocks, two target nets


def test_training_loop_variants_produce_checkpoints(tmp_path):
    cfg = micro_cfg()
    for variant in ("central-qv", "actor-independent", "decentralised"):
        tcfg = micro_tcfg(variant=variant, total_missions=2)
        training_loop(cfg, tcfg, FCFG, seed=1, out_dir=tmp_path / variant)
        assert (tmp_path / variant / "vnet.ckpt").exists() == (variant == "central-qv")
        critic, meta = load_network(tmp_path / variant / "critic.ckpt")
        assert meta["variant"] == variant
        expected_channels = {
            "central-qv": 7 + 4 + 6,
            "actor-independent": 7 + 4,
            "decentralised": 7,
        }[variant]
        assert critic.in_channels == expected_channels


@pytest.mark.parametrize("off", [None, "global_belief_map"])
def test_each_variant_checkpoints_the_planes_its_critic_reads(tmp_path, off):
    """The critic and V-net manifests per variant, with and without a user toggle."""
    cfg = micro_cfg(num_agents=4)
    fcfg = FCFG if off is None else FCFG.with_toggle(off, False)
    local = list(ACTOR_PLANES)
    shared = [name for name in CRITIC_GLOBAL_PLANES if name != off]
    actions = [f"other{k}_action_{a.name.lower()}" for k in range(3) for a in Action]
    expected = {
        "coma": (local + shared + actions, None),
        "central-qv": (local + shared + actions, local + shared),
        "actor-independent": (local + shared, None),
        "decentralised": (local, None),
    }
    if off is None:
        assert [len(local + shared + actions), len(local + shared), len(local)] == [29, 11, 7]
    for variant, (critic_planes, value_planes) in expected.items():
        tcfg = micro_tcfg(variant=variant, total_missions=1)
        run = tmp_path / variant
        training_loop(cfg, tcfg, fcfg, seed=1, out_dir=run)
        critic, meta = load_network(run / "critic.ckpt")
        assert meta["manifest"] == critic_planes
        assert critic.in_channels == len(critic_planes)
        assert meta["feature_config"] == asdict(fcfg)
        assert (run / "vnet.ckpt").exists() == (value_planes is not None)
        if value_planes is not None:
            vnet, vmeta = load_network(run / "vnet.ckpt")
            assert vmeta["manifest"] == value_planes
            assert vnet.in_channels == len(value_planes)


def test_training_log_is_streamed_per_block(tmp_path):
    cfg = micro_cfg()
    tcfg = micro_tcfg(rollout_block=6)  # one mission per block, four blocks
    training_loop(cfg, tcfg, FCFG, seed=2, out_dir=tmp_path / "full")

    def crash_after_block_1(row):
        if row["block"] == 1:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        training_loop(cfg, tcfg, FCFG, seed=2, out_dir=tmp_path / "cut",
                      progress=crash_after_block_1)
    # blocks 0 and 1 each ran one mission: a header and two rows in each file
    for name in ("training_log.csv", "missions.csv"):
        cut = (tmp_path / "cut" / name).read_bytes()
        whole = (tmp_path / "full" / name).read_bytes()
        assert cut.splitlines() == whole.splitlines()[:3]
        assert whole.startswith(cut)
    missions = (tmp_path / "cut" / "missions.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in missions[1:]] == ["0", "1"]
    timing = (tmp_path / "cut" / "timing.csv").read_text().splitlines()
    assert timing[0] == "block,wallclock_s"
    assert [line.split(",")[0] for line in timing[1:]] == ["0", "1"]


def _state_bits(state: TrainState):
    nets = [state.actor, *state.critics, *state.target_nets]
    return (
        [p.data.tobytes() for net in nets for p in net.parameters()],
        [(opt.t, [m.tobytes() for m in opt.m], [v.tobytes() for v in opt.v])
         for opt in state.opts],
        (state.missions_done, state.interactions, state.block),
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_copy_of_the_state_after_a_block_finishes_the_run_bit_for_bit(variant):
    # a TrainState is all that a run carries across a block end, which an
    # exact resume needs: a deep copy taken after block k runs the remaining
    # blocks to the rows and the bits of the run that went on
    cfg = micro_cfg()
    # one mission a block, five blocks; the targets sync after blocks 1 and 3
    tcfg = micro_tcfg(variant=variant, rollout_block=6, total_missions=5,
                      target_copy_interval=12, epochs=2, batch_size=4)
    state = TrainState.initial(cfg, tcfg, FCFG, seed=6)
    blocks, copies = [], []
    while state.missions_done < tcfg.total_missions:
        blocks.append(run_block(state, cfg, tcfg, FCFG, 6))
        copies.append(copy.deepcopy(state))
    assert len(blocks) == 5
    for k in (0, 1, len(blocks) - 2):
        resumed = copies[k]
        rest = [run_block(resumed, cfg, tcfg, FCFG, 6) for _ in blocks[k + 1 :]]
        assert rest == blocks[k + 1 :]
        assert _state_bits(resumed) == _state_bits(state)
