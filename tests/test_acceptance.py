"""Acceptance criteria, one test per criterion, with a PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines. The
full-scale benchmarks (criteria 4, 5) and the desk-scale training run
(criterion 6) dominate the runtime (~5-8 minutes total).
"""

import math

import numpy as np
from scipy import stats

from terrascout import nn as tnn
from terrascout.cli import load_ground_truth, main
from terrascout.environment import EnvConfig, NUM_ACTIONS
from terrascout.evaluation import PlannerSpec, run_benchmark, run_mission
from terrascout.gridmap import ImportanceWeights, weighted_cell_entropy, write_text_grid
from terrascout.planners import GreedyInfoGainPlanner
from terrascout.policy import (
    FeatureConfig,
    NetArch,
    build_actor_features,
    build_critic_features,
    critic_global_planes,
    load_network,
    make_actor,
    make_critic,
)
from terrascout.training import (
    TrainConfig,
    advantage_variant,
    run_training_mission,
    td_lambda_targets,
    training_loop,
)

FCFG = FeatureConfig()


def evaluate_policy_returns(actor, cfg, fcfg, seed, mission_indices, epsilon):
    """Returns of the given policy on the exact seeded training missions."""
    return [
        run_training_mission(actor, cfg, fcfg, seed, m, epsilon, fcfg)[1]
        for m in mission_indices
    ]


def benchmark_final_metrics(spec, n_missions, base_seed, cfg, *, terrain=None):
    """Per-mission final (entropy, f1) pairs, for paired significance tests."""
    (stats,) = run_benchmark([spec], n_missions, base_seed, cfg, terrain=terrain).values()
    return stats.final_entropy, stats.final_f1


def _report(criterion: int, text: str) -> None:
    print(f"\n[PASS] criterion {criterion}: {text}")


def fast_cfg(**kw):
    """Full-scale geometry at a coarser map resolution, for sub-second missions."""
    defaults = dict(terrain_size=50.0, map_resolution=0.5, num_agents=2, budget=8)
    defaults.update(kw)
    return EnvConfig(**defaults)


# ---------------------------------------------------------------------------
# 1. equation oracles
# ---------------------------------------------------------------------------


def naive_weighted_entropy(p: float, w1: float) -> float:
    """Straight transcription of the weighted-entropy definition."""
    w2 = 1.0 - w1
    if p > 0.5:
        w_pos, w_neg = w1, w2
    elif p < 0.5:
        w_pos, w_neg = w2, w1
    else:
        w_pos = w_neg = 0.5
    t_pos = p * math.log2(p) if p > 0.0 else 0.0
    t_neg = (1.0 - p) * math.log2(1.0 - p) if p < 1.0 else 0.0
    return -(w_pos * t_pos + w_neg * t_neg)


def test_criterion_1a_entropy_oracle():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        p = float(rng.uniform(0.0, 1.0))
        w1 = float(rng.uniform(0.0, 1.0))
        got = weighted_cell_entropy(p, ImportanceWeights(w1, 1.0 - w1))
        assert abs(got - naive_weighted_entropy(p, w1)) < 1e-12
    for p in (0.0, 0.5, 1.0):
        got = weighted_cell_entropy(p, ImportanceWeights(0.7, 0.3))
        assert abs(got - naive_weighted_entropy(p, 0.7)) < 1e-12
    _report(1, "weighted entropy matches the naive re-implementation (1e-12, 1000 pairs)")


def test_criterion_1b_zero_expectation_identity():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        q = rng.normal(scale=rng.uniform(0.1, 10.0), size=NUM_ACTIONS)
        pi = rng.dirichlet(np.full(NUM_ACTIONS, rng.uniform(0.2, 3.0)))
        expectation = sum(
            pi[a] * advantage_variant("coma", q, pi, a) for a in range(NUM_ACTIONS)
        )
        assert abs(expectation) < 1e-10
    _report(1, "counterfactual advantage has zero policy expectation (1e-10, 1000 pairs)")


def test_criterion_1c_telescoping_every_planner():
    cfg = fast_cfg()
    toy_actor = make_actor(
        cfg, FCFG, np.random.default_rng(0),
        NetArch(conv_channels=(4,), conv_strides=(2,), mlp_sizes=(8,)),
    )
    checked = 0
    for name in ("random", "coverage", "greedy-ig", "learned"):
        # fresh random-weight actor exercises the learned path
        spec = PlannerSpec(name, actor=toy_actor if name == "learned" else None)
        for mission in range(20):
            result = run_mission(spec, cfg, 404, mission, fcfg=FCFG, episode_rows=True)
            by_step = {}
            for row in result.episode_rows:
                by_step.setdefault(row["step"], row["global_entropy"])
            hs = [by_step[t] for t in sorted(by_step)]
            summed = sum(h0 - h1 for h0, h1 in zip(hs, hs[1:]))
            assert abs(summed - (hs[0] - hs[-1])) < 1e-9
            checked += 1
    assert checked == 80
    _report(1, "per-step entropy reductions telescope to H0 - HB (1e-9, 20 missions x 4 planners)")


# ---------------------------------------------------------------------------
# 2. gradient correctness
# ---------------------------------------------------------------------------


def _numeric_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return g


def _check(analytic, numeric, tol=1e-4):
    rel = np.abs(analytic - numeric) / (np.abs(analytic) + np.abs(numeric) + 1e-8)
    assert rel.max() < tol


def test_criterion_2_gradient_checks():
    rng = np.random.default_rng(201)

    # individual layer types
    x = tnn.Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    w = tnn.Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    b = tnn.Tensor(rng.normal(size=(4,)), requires_grad=True)

    def conv_loss():
        return tnn.mean(tnn.relu(tnn.conv2d(x, w, b, 2, 1)))

    conv_loss().backward()
    for p in (x, w, b):
        _check(p.grad, _numeric_grad(lambda: float(conv_loss().data), p.data))

    lin_w = tnn.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    lin_b = tnn.Tensor(rng.normal(size=(4,)), requires_grad=True)
    lin_x = tnn.Tensor(rng.normal(size=(3, 5)), requires_grad=True)

    def lin_loss():
        h = tnn.relu(tnn.add(tnn.matmul(lin_x, lin_w), lin_b))
        return tnn.mean(tnn.mul(h, h))

    lin_loss().backward()
    for p in (lin_x, lin_w, lin_b):
        _check(p.grad, _numeric_grad(lambda: float(lin_loss().data), p.data))

    # softmax cross-entropy composite with masking and the epsilon floor
    logits = tnn.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    mask = np.ones((3, 6), dtype=bool)
    mask[0, 2:5] = False
    acts = np.array([0, 3, 5])

    def sce_loss():
        probs = tnn.masked_bounded_softmax(logits, mask, 0.05)
        return tnn.mean(-tnn.log(tnn.gather_last(probs, acts)))

    sce_loss().backward()
    _check(logits.grad, _numeric_grad(lambda: float(sce_loss().data), logits.data))

    # full actor and critic graphs at toy sizes on real feature stacks
    cfg = fast_cfg()
    arch = NetArch(conv_channels=(2, 3), conv_strides=(1, 2), mlp_sizes=(8,))
    from terrascout.environment import start_mission

    env, _ = start_mission(cfg, 1, 0)
    env.reset()
    feats = build_actor_features(env.locals[0], cfg, FCFG)
    cfeats = build_critic_features(env.state, feats, 0, [0], cfg, FCFG,
                                   global_planes=critic_global_planes(env.state, cfg))
    env_mask = env.masks()[0]
    action = int(np.flatnonzero(env_mask)[0])

    actor = make_actor(cfg, FCFG, np.random.default_rng(5), arch)

    def actor_loss():
        lg = actor.forward(feats[None])
        p = tnn.masked_bounded_softmax(lg, env_mask[None], 0.1)
        return tnn.mean(-tnn.log(tnn.gather_last(p, np.array([action]))) * 1.7)

    actor_loss().backward()
    for name, p in actor.params.items():
        _check(p.grad, _numeric_grad(lambda: float(actor_loss().data), p.data))

    critic = make_critic(cfg, FCFG, np.random.default_rng(6), arch)

    def critic_loss():
        q = tnn.gather_last(critic.forward(cfeats[None]), np.array([action]))
        err = tnn.sub(q, tnn.Tensor(np.array([0.37])))
        return tnn.mean(tnn.mul(err, err))

    critic_loss().backward()
    for name, p in critic.params.items():
        _check(p.grad, _numeric_grad(lambda: float(critic_loss().data), p.data))

    _report(2, "finite-difference checks pass for all layers and full actor/critic graphs")


# ---------------------------------------------------------------------------
# 3. greedy oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_3_greedy_oracle_equivalence():
    from tests.test_planners import greedy_oracle_choice, tiny_footprint_env

    planner = GreedyInfoGainPlanner()
    rng = np.random.default_rng(301)
    instances = 0
    for trial in range(250):
        env = tiny_footprint_env(seed=trial)
        loc = env.locals[0]
        loc.local_map.log_odds[...] = rng.normal(
            scale=rng.uniform(0.5, 4.0), size=loc.local_map.log_odds.shape
        )
        loc.position = np.array([int(rng.integers(0, 2)), int(rng.integers(0, 2)), 0])
        env.state.positions[0] = loc.position
        choice = planner.act(loc, env.masks()[0], env.cfg, rng)
        assert choice == greedy_oracle_choice(env)
        instances += 1
    assert instances >= 200
    _report(3, f"greedy choice equals exhaustive enumeration on {instances} 4-cell instances")


# ---------------------------------------------------------------------------
# 4. baseline ordering at full scale
# ---------------------------------------------------------------------------


def _one_sided_paired(a, b):
    """p-value for H1: mean(a) < mean(b), paired."""
    t, p = stats.ttest_rel(a, b)
    return p / 2 if t < 0 else 1 - p / 2


def test_criterion_4_baseline_ordering_full_scale():
    cfg = EnvConfig()  # full-scale defaults: 50 m, r_M 10 cm, 4 agents, B 15, D 25
    greedy_e, greedy_f = benchmark_final_metrics(PlannerSpec("greedy-ig"), 50, 2024, cfg)
    cover_e, cover_f = benchmark_final_metrics(PlannerSpec("coverage"), 50, 2024, cfg)
    rand_e, _ = benchmark_final_metrics(PlannerSpec("random"), 50, 2024, cfg)

    assert greedy_e.mean() < cover_e.mean()
    assert greedy_e.mean() < rand_e.mean()
    assert greedy_f.mean() > cover_f.mean()
    p_ec = _one_sided_paired(greedy_e, cover_e)
    p_er = _one_sided_paired(greedy_e, rand_e)
    p_f = _one_sided_paired(cover_f, greedy_f)
    assert p_ec < 0.05 and p_er < 0.05 and p_f < 0.05
    _report(
        4,
        "greedy entropy {:.3f} < coverage {:.3f} (p={:.2g}) and < random {:.3f} "
        "(p={:.2g}); greedy F1 {:.3f} > coverage {:.3f} (p={:.2g})".format(
            greedy_e.mean(), cover_e.mean(), p_ec, rand_e.mean(), p_er,
            greedy_f.mean(), cover_f.mean(), p_f,
        ),
    )


# ---------------------------------------------------------------------------
# 5. team-size monotonicity
# ---------------------------------------------------------------------------


def test_criterion_5_team_size_monotonicity():
    from dataclasses import replace

    means = {}
    for n in (2, 4, 8):
        cfg = replace(EnvConfig(), num_agents=n)
        ents, _ = benchmark_final_metrics(PlannerSpec("greedy-ig"), 50, 777, cfg)
        means[n] = ents.mean()
    assert means[2] > means[4] > means[8]
    _report(
        5,
        "greedy final entropy strictly decreases with team size: "
        f"{means[2]:.3f} (2) > {means[4]:.3f} (4) > {means[8]:.3f} (8)",
    )


# ---------------------------------------------------------------------------
# 6. desk-scale learning progress
# ---------------------------------------------------------------------------


def smoke_train_config():
    return TrainConfig(
        rollout_block=320,
        epochs=6,
        batch_size=80,
        actor_lr=1e-4,
        critic_lr=2e-3,
        target_copy_interval=960,
        epsilon_start=0.5,
        epsilon_end=0.1,
        epsilon_anneal_missions=160,
        total_missions=240,
        checkpoint_every_blocks=1000,
        arch=NetArch(conv_channels=(8, 16), conv_strides=(1, 2), mlp_sizes=(64,)),
    )


def test_criterion_6_rl_learning_progress(tmp_path):
    cfg = fast_cfg()  # 10x10 lattice, 2 agents, B = 8
    tcfg = smoke_train_config()
    assert tcfg.variant == "coma"
    seed = 3
    run = tmp_path / "smoke"
    training_loop(cfg, tcfg, FCFG, seed=seed, out_dir=run)
    returns = np.loadtxt(run / "missions.csv", delimiter=",", skiprows=1, usecols=1)
    assert len(returns) == tcfg.total_missions
    last20 = returns[-20:]
    final_eps = tcfg.epsilon_at(tcfg.total_missions - 1)
    init_actor, _ = load_network(run / "actor_init.ckpt")
    idx = list(range(tcfg.total_missions - 20, tcfg.total_missions))
    untrained = evaluate_policy_returns(init_actor, cfg, FCFG, seed, idx, final_eps)
    t, p = stats.ttest_ind(last20, untrained, equal_var=False)
    one_sided = p / 2 if t > 0 else 1 - p / 2
    assert np.mean(last20) > np.mean(untrained)
    assert one_sided < 0.05
    _report(
        6,
        f"COMA smoke training: last-20 mean return {np.mean(last20):.4f} beats the "
        f"frozen untrained policy's {np.mean(untrained):.4f} (Welch p={one_sided:.2g})",
    )


# ---------------------------------------------------------------------------
# 7. determinism of CLI runs
# ---------------------------------------------------------------------------


def test_criterion_7_cli_determinism(tmp_path):
    cfg_path = tmp_path / "smoke.cfg"
    cfg_path.write_text(
        "terrain_size = 20.0\nmap_resolution = 0.5\nplanning_resolution = 5.0\n"
        "num_agents = 2\nbudget = 3\nsensor = 5:0.9, 10:0.8, 15:0.7\n"
        "train.total_missions = 6\ntrain.rollout_block = 12\ntrain.batch_size = 12\n"
        "train.epochs = 2\ntrain.actor_lr = 1e-3\ntrain.critic_lr = 1e-3\n"
        "train.epsilon_anneal_missions = 6\ntrain.conv_channels = 3, 4\n"
        "train.conv_strides = 1, 2\ntrain.mlp_sizes = 12\n"
    )
    for out in ("t1", "t2"):
        assert main(["train", "--config", str(cfg_path), "--seed", "13",
                     "--out", str(tmp_path / out), "--quiet"]) == 0
    log1 = (tmp_path / "t1" / "training_log.csv").read_bytes()
    log2 = (tmp_path / "t2" / "training_log.csv").read_bytes()
    assert log1 == log2
    m1 = (tmp_path / "t1" / "missions.csv").read_bytes()
    assert m1 == (tmp_path / "t2" / "missions.csv").read_bytes()

    for out in ("e1", "e2"):
        assert main(["evaluate", "--config", str(cfg_path), "--seed", "29",
                     "--planner", "random", "--planner", "greedy-ig",
                     "--missions", "4", "--out", str(tmp_path / out)]) == 0
    b1 = (tmp_path / "e1" / "benchmark.csv").read_bytes()
    assert b1 == (tmp_path / "e2" / "benchmark.csv").read_bytes()
    _report(7, "train and evaluate re-runs produce byte-identical CSVs")


# ---------------------------------------------------------------------------
# 8. TD(lambda) limits on logged episodes
# ---------------------------------------------------------------------------


def test_criterion_8_td_lambda_limits():
    cfg = EnvConfig(
        terrain_size=20.0, map_resolution=1.0, planning_resolution=5.0,
        num_agents=2, budget=4,
    )
    rng = np.random.default_rng(801)
    episodes = 0
    for mission in range(50):
        result = run_mission(PlannerSpec("random"), cfg, 800, mission, episode_rows=True)
        rewards = []
        seen = set()
        for row in result.episode_rows:
            if row["step"] >= 1 and row["step"] not in seen:
                seen.add(row["step"])
                rewards.append(row["reward"])
        qs = rng.normal(scale=2.0, size=len(rewards))
        gamma = float(rng.uniform(0.5, 0.999))

        mc = td_lambda_targets(rewards, qs, 1.0, gamma)
        for t in range(len(rewards)):
            ref = sum(gamma**k * rewards[t + k] for k in range(len(rewards) - t))
            assert abs(mc[t] - ref) < 1e-9

        one_step = td_lambda_targets(rewards, qs, 0.0, gamma)
        for t in range(len(rewards) - 1):
            assert abs(one_step[t] - (rewards[t] + gamma * qs[t + 1])) < 1e-9
        assert abs(one_step[-1] - rewards[-1]) < 1e-9
        episodes += 1
    assert episodes == 50
    _report(8, "lambda=1 equals Monte Carlo and lambda=0 equals one-step on 50 logged episodes")


# ---------------------------------------------------------------------------
# 9. real-data pipeline
# ---------------------------------------------------------------------------


def test_criterion_9_real_data_pipeline(tmp_path):
    # synthetic surface-temperature raster: warm blobs on an 18 C field
    n = 500
    xs = np.linspace(0.0, 40.0, n)
    grid_x, grid_y = np.meshgrid(xs, xs)
    rng = np.random.default_rng(4)
    temp = np.full((n, n), 18.0)
    for _ in range(5):
        cx, cy = rng.uniform(5, 35, 2)
        sigma = rng.uniform(4, 9)
        amp = rng.uniform(8, 14)
        temp += amp * np.exp(-((grid_x - cx) ** 2 + (grid_y - cy) ** 2) / (2 * sigma**2))
    raster = tmp_path / "field.txt"
    write_text_grid(raster, temp, 0.08)

    out = tmp_path / "ingest"
    assert main(["ingest", "--input", str(raster), "--threshold", "25.0",
                 "--out", str(out)]) == 0
    gt = load_ground_truth(out / "ground_truth.txt")
    assert gt.cells.shape == (500, 500)
    assert 0.1 < gt.interesting_fraction() < 0.9

    cfg = EnvConfig(terrain_size=40.0, map_resolution=0.08, planning_resolution=4.0)
    finals = {}
    for name in ("greedy-ig", "coverage", "random"):
        ents, _ = benchmark_final_metrics(PlannerSpec(name), 20, 900, cfg, terrain=gt)
        finals[name] = ents.mean()
    assert finals["greedy-ig"] < finals["coverage"]
    assert finals["greedy-ig"] < finals["random"]
    _report(
        9,
        "ingested raster pipeline: greedy entropy {:.3f} lowest vs coverage {:.3f} "
        "and random {:.3f} over 20 missions".format(
            finals["greedy-ig"], finals["coverage"], finals["random"]
        ),
    )
