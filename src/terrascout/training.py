"""On-policy actor-critic training with a counterfactual baseline.

The loop alternates between collecting a block of on-policy transitions
(one interaction = one agent decision) and optimizing: the critic
regresses TD(lambda) targets built from a periodically-copied target
network, and the actor ascends the policy gradient weighted by a
per-agent advantage. Four credit-assignment variants are supported:

  coma               A = Q(s, u) - sum_u' pi(u') Q(s, (u_-i, u')), critic
                     sees teammates' actions as one-hot planes
  central-qv         A = Q(s, u) - V(s), with a separately trained V net
  actor-independent  counterfactual form, critic blind to teammates' actions
  decentralised      counterfactual form, critic sees local features only
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .environment import (
    EnvConfig,
    GroundTruthMap,
    NoiseStreams,
    NUM_ACTIONS,
    TerrainEnv,
    generate_terrain,
    policy_rng,
    terrain_rng,
)
from .errors import ConfigurationError, ContractViolation, TrainingDivergenceError
from . import nn
from .gridmap import write_csv
from .policy import (
    CRITIC_MODE_FULL,
    CRITIC_MODE_LOCAL,
    CRITIC_MODE_NO_ACTIONS,
    FeatureConfig,
    NetArch,
    PolicyNet,
    actor_forward,
    actor_manifest,
    build_actor_features,
    build_critic_features,
    critic_manifest,
    make_actor,
    make_critic,
    make_value_net,
    save_network,
)

VARIANTS = ("coma", "central-qv", "actor-independent", "decentralised")

_CRITIC_MODE_OF = {
    "coma": CRITIC_MODE_FULL,
    "central-qv": CRITIC_MODE_FULL,
    "actor-independent": CRITIC_MODE_NO_ACTIONS,
    "decentralised": CRITIC_MODE_LOCAL,
}


@dataclass
class Transition:
    """One agent decision with everything needed to replay its losses."""

    mission: int
    step: int
    agent_id: int
    actor_features: np.ndarray
    critic_features: np.ndarray
    mask: np.ndarray
    action: int
    behavior_policy: np.ndarray
    reward: float
    terminal: bool
    epsilon: float
    target: float = 0.0  # TD(lambda) regression target, filled per block
    v_target: float = 0.0  # state-value target (central-qv only)

    def __post_init__(self) -> None:
        if abs(float(self.behavior_policy.sum()) - 1.0) > 1e-9:
            raise ContractViolation("behavior policy must sum to 1")
        if not np.isfinite(self.reward):
            raise ContractViolation("non-finite reward")


@dataclass
class TrainConfig:
    rollout_block: int = 3000  # agent decisions per collect phase
    epochs: int = 5
    batch_size: int = 600
    actor_lr: float = 1e-5
    critic_lr: float = 1e-4
    td_lambda: float = 0.8
    gamma: float = 0.99
    target_copy_interval: int = 30000  # agent decisions between target syncs
    epsilon_start: float = 0.5
    epsilon_end: float = 0.02
    epsilon_anneal_missions: int = 10000
    variant: str = "coma"
    total_missions: int = 10000
    grad_clip: float = 10.0
    checkpoint_every_blocks: int = 20
    arch: NetArch = field(default_factory=NetArch)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown training variant '{self.variant}'")
        positives = (
            self.rollout_block, self.epochs, self.batch_size, self.actor_lr,
            self.critic_lr, self.gamma, self.target_copy_interval,
            self.epsilon_anneal_missions, self.total_missions,
        )
        if any(v <= 0 for v in positives) or self.td_lambda < 0:
            raise ConfigurationError("training config values must be positive")
        for e in (self.epsilon_start, self.epsilon_end):
            if not (0.0 <= e <= 1.0):
                raise ConfigurationError("epsilon endpoints must lie in [0, 1]")

    def epsilon_at(self, missions_done: int) -> float:
        frac = min(missions_done / self.epsilon_anneal_missions, 1.0)
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac


def td_lambda_targets(rewards: Sequence[float], taken_qs: Sequence[float],
                      lam: float, gamma: float) -> np.ndarray:
    """Forward-view lambda-returns bootstrapped from Q of the taken actions.

    Recursively G_t = r_t + gamma * ((1 - lam) * q_{t+1} + lam * G_{t+1}),
    with no bootstrap past the terminal step. lam = 0 gives one-step
    SARSA-style targets, lam = 1 the Monte Carlo discounted return.
    """
    if len(rewards) != len(taken_qs):
        raise ContractViolation("rewards and Q sequences must align")
    T = len(rewards)
    if T == 0:
        raise ContractViolation("empty episode")
    out = np.empty(T)
    out[T - 1] = rewards[T - 1]
    for t in range(T - 2, -1, -1):
        out[t] = rewards[t] + gamma * ((1.0 - lam) * taken_qs[t + 1] + lam * out[t + 1])
    return out


def counterfactual_advantage(q_row: np.ndarray, pi: np.ndarray, action: int) -> float:
    """Q of the taken action minus the policy-marginalised Q baseline."""
    q_row = np.asarray(q_row, dtype=np.float64)
    pi = np.asarray(pi, dtype=np.float64)
    if not np.isfinite(q_row).all():
        raise ContractViolation("non-finite Q values")
    if abs(float(pi.sum()) - 1.0) > 1e-6 or (pi < 0).any():
        raise ContractViolation("policy vector is not a distribution")
    return float(q_row[action] - pi @ q_row)


def advantage_variant(variant: str, q_row: np.ndarray, pi: np.ndarray, action: int,
                      v_value: Optional[float] = None) -> float:
    """Per-variant advantage; central-qv needs the V-critic's value."""
    if variant in ("coma", "actor-independent", "decentralised"):
        return counterfactual_advantage(q_row, pi, action)
    if variant == "central-qv":
        if v_value is None:
            raise ConfigurationError("central-qv advantage needs a state value")
        return float(np.asarray(q_row)[action] - v_value)
    raise ConfigurationError(f"unknown training variant '{variant}'")


# ---------------------------------------------------------------------------
# batched updates
# ---------------------------------------------------------------------------


def _stack_features(batch: Sequence[Transition], kind: str) -> np.ndarray:
    if kind == "actor":
        return np.stack([t.actor_features for t in batch])
    return np.stack([t.critic_features for t in batch])


def actor_update(batch: Sequence[Transition], actor: PolicyNet, advantages: np.ndarray,
                 optimizer: nn.Adam, grad_clip: float) -> float:
    """One Adam step on mean(-log pi(u|omega) * A); advantages are constants."""
    feats = _stack_features(batch, "actor")
    masks = np.stack([t.mask for t in batch])
    actions = np.array([t.action for t in batch])
    eps = np.array([[t.epsilon] for t in batch])
    logits = actor.forward(feats)
    probs = nn.masked_bounded_softmax(logits, masks, eps)
    logp = nn.log(nn.gather_last(probs, actions))
    loss = nn.mean(nn.mul(logp, nn.Tensor(-np.asarray(advantages))))
    optimizer.zero_grad()
    loss.backward()
    nn.clip_grad_norm(actor.parameters(), grad_clip)
    optimizer.step()
    return float(loss.data)


def critic_update(batch: Sequence[Transition], critic: PolicyNet, targets: np.ndarray,
                  optimizer: nn.Adam, grad_clip: float) -> float:
    """One Adam step on the MSE between Q(s, taken action) and the targets."""
    targets = np.asarray(targets, dtype=np.float64)
    if not np.isfinite(targets).all():
        raise TrainingDivergenceError("non-finite TD target")
    feats = _stack_features(batch, "critic")
    actions = np.array([t.action for t in batch])
    q_taken = nn.gather_last(critic.forward(feats), actions)
    err = nn.sub(q_taken, nn.Tensor(targets))
    loss = nn.mean(nn.mul(err, err))
    optimizer.zero_grad()
    loss.backward()
    nn.clip_grad_norm(critic.parameters(), grad_clip)
    optimizer.step()
    return float(loss.data)


def _value_update(batch: Sequence[Transition], vnet: PolicyNet, n_value_planes: int,
                  optimizer: nn.Adam, grad_clip: float) -> float:
    feats = _stack_features(batch, "critic")[:, :n_value_planes]
    targets = np.array([t.v_target for t in batch])
    v = nn.reshape(vnet.forward(feats), (len(batch),))
    err = nn.sub(v, nn.Tensor(targets))
    loss = nn.mean(nn.mul(err, err))
    optimizer.zero_grad()
    loss.backward()
    nn.clip_grad_norm(vnet.parameters(), grad_clip)
    optimizer.step()
    return float(loss.data)


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------


def run_training_mission(
    actor: PolicyNet,
    cfg: EnvConfig,
    fcfg: FeatureConfig,
    seed: int,
    mission_index: int,
    epsilon: float,
    critic_mode: str,
    *,
    terrain: Optional[GroundTruthMap] = None,
    collect: bool = True,
) -> tuple[list[Transition], float]:
    """Play one on-policy mission; optionally record transitions."""
    if terrain is None:
        terrain = generate_terrain(terrain_rng(seed, mission_index), cfg)
    env = TerrainEnv(cfg, terrain, NoiseStreams(seed, mission_index))
    env.reset()
    rng = policy_rng(seed, mission_index)
    transitions: list[Transition] = []
    mission_return = 0.0
    done = False
    t = 0
    while not done:
        t += 1
        masks = env.masks()
        stacks = [build_actor_features(loc, cfg, fcfg) for loc in env.locals]
        pis = [
            actor_forward(actor, stacks[i], masks[i], epsilon)
            for i in range(cfg.num_agents)
        ]
        actions = [int(rng.choice(NUM_ACTIONS, p=pi)) for pi in pis]
        records = []
        if collect:
            for i in range(cfg.num_agents):
                others = [actions[j] for j in range(cfg.num_agents) if j != i]
                cstack = build_critic_features(
                    env.state, env.locals[i], others, cfg, fcfg, mode=critic_mode
                )
                records.append((stacks[i], cstack, masks[i], actions[i], pis[i]))
        r, done = env.step(actions)
        mission_return += r
        for i, (astack, cstack, mask, action, pi) in enumerate(records):
            transitions.append(
                Transition(
                    mission=mission_index,
                    step=t,
                    agent_id=i,
                    actor_features=astack.planes,
                    critic_features=cstack.planes,
                    mask=mask,
                    action=action,
                    behavior_policy=pi,
                    reward=r,
                    terminal=done,
                    epsilon=epsilon,
                )
            )
    return transitions, mission_return


def evaluate_policy_returns(
    actor: PolicyNet,
    cfg: EnvConfig,
    fcfg: FeatureConfig,
    seed: int,
    mission_indices: Sequence[int],
    epsilon: float,
) -> list[float]:
    """Returns of the given policy on the exact seeded training missions."""
    out = []
    for m in mission_indices:
        _, ret = run_training_mission(
            actor, cfg, fcfg, seed, m, epsilon, CRITIC_MODE_FULL, collect=False
        )
        out.append(ret)
    return out


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    out_dir: Path
    actor_path: Path
    critic_path: Path
    init_actor_path: Path
    log_path: Path
    missions_path: Path
    vnet_path: Optional[Path]
    mission_returns: list[float]
    block_rows: list[dict]
    actor: Optional[PolicyNet] = None
    critic: Optional[PolicyNet] = None
    target_critic: Optional[PolicyNet] = None


def _fill_block_targets(transitions: list[Transition], target_critic: PolicyNet,
                        target_vnet: Optional[PolicyNet], tcfg: TrainConfig,
                        n_value_planes: int) -> None:
    """Compute per-episode TD(lambda) targets from the frozen target nets."""
    episodes: dict[tuple[int, int], list[Transition]] = {}
    for tr in transitions:
        episodes.setdefault((tr.mission, tr.agent_id), []).append(tr)
    for key, eps_list in episodes.items():
        eps_list.sort(key=lambda tr: tr.step)
        feats = _stack_features(eps_list, "critic")
        qs_all = target_critic.forward(feats).data
        taken = np.array([tr.action for tr in eps_list])
        qs = qs_all[np.arange(len(eps_list)), taken]
        rewards = [tr.reward for tr in eps_list]
        targets = td_lambda_targets(rewards, qs, tcfg.td_lambda, tcfg.gamma)
        for tr, tgt in zip(eps_list, targets):
            tr.target = float(tgt)
        if target_vnet is not None:
            vs = target_vnet.forward(feats[:, :n_value_planes]).data.reshape(-1)
            v_targets = td_lambda_targets(rewards, vs, tcfg.td_lambda, tcfg.gamma)
            for tr, tgt in zip(eps_list, v_targets):
                tr.v_target = float(tgt)


def _batch_advantages(batch: Sequence[Transition], actor: PolicyNet, critic: PolicyNet,
                      vnet: Optional[PolicyNet], variant: str,
                      n_value_planes: int) -> np.ndarray:
    """Advantages from the current critic and current policy, grad-free."""
    cfeats = _stack_features(batch, "critic")
    q_rows = critic.forward(cfeats).data
    afeats = _stack_features(batch, "actor")
    masks = np.stack([t.mask for t in batch])
    eps = np.array([[t.epsilon] for t in batch])
    logits = actor.forward(afeats)
    pis = nn.masked_bounded_softmax(logits, masks, eps).data
    v_values = None
    if variant == "central-qv":
        v_values = vnet.forward(cfeats[:, :n_value_planes]).data.reshape(-1)
    out = np.empty(len(batch))
    for i, tr in enumerate(batch):
        v = float(v_values[i]) if v_values is not None else None
        out[i] = advantage_variant(variant, q_rows[i], pis[i], tr.action, v)
    return out


def training_loop(
    cfg: EnvConfig,
    tcfg: TrainConfig,
    fcfg: FeatureConfig,
    seed: int,
    out_dir,
    *,
    terrain: Optional[GroundTruthMap] = None,
    progress: Optional[Callable[[dict], None]] = None,
) -> TrainResult:
    """Alternate rollout blocks and optimization epochs until the mission
    budget is exhausted; emits checkpoints and a deterministic CSV log.

    Wallclock timings go to a separate ``timing.csv`` so the main log stays
    byte-identical across reruns of the same seed and config.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    variant = tcfg.variant
    critic_mode = _CRITIC_MODE_OF[variant]
    n_value_planes = len(critic_manifest(fcfg, cfg.num_agents, CRITIC_MODE_NO_ACTIONS))

    init_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 11])))
    actor = make_actor(cfg, fcfg, init_rng, tcfg.arch)
    critic = make_critic(cfg, fcfg, init_rng, tcfg.arch, mode=critic_mode)
    target_critic = make_critic(cfg, fcfg, init_rng, tcfg.arch, mode=critic_mode)
    target_critic.copy_from(critic)
    vnet = target_vnet = None
    if variant == "central-qv":
        vnet = make_value_net(cfg, fcfg, init_rng, tcfg.arch)
        target_vnet = make_value_net(cfg, fcfg, init_rng, tcfg.arch)
        target_vnet.copy_from(vnet)

    opt_actor = nn.Adam(actor.parameters(), tcfg.actor_lr)
    opt_critic = nn.Adam(critic.parameters(), tcfg.critic_lr)
    opt_vnet = nn.Adam(vnet.parameters(), tcfg.critic_lr) if vnet is not None else None

    meta = {
        "feature_config": {k: getattr(fcfg, k) for k in fcfg.__dataclass_fields__},
        "variant": variant,
        "seed": seed,
        "train_config": {
            "rollout_block": tcfg.rollout_block,
            "epochs": tcfg.epochs,
            "batch_size": tcfg.batch_size,
            "actor_lr": tcfg.actor_lr,
            "critic_lr": tcfg.critic_lr,
            "td_lambda": tcfg.td_lambda,
            "gamma": tcfg.gamma,
            "target_copy_interval": tcfg.target_copy_interval,
            "epsilon_start": tcfg.epsilon_start,
            "epsilon_end": tcfg.epsilon_end,
            "epsilon_anneal_missions": tcfg.epsilon_anneal_missions,
            "total_missions": tcfg.total_missions,
            "grad_clip": tcfg.grad_clip,
        },
    }
    init_actor_path = out_dir / "actor_init.ckpt"
    save_network(init_actor_path, actor, kind="actor", manifest=actor_manifest(fcfg), extra=meta)

    mission_returns: list[float] = []
    block_rows: list[dict] = []
    timing_rows: list[tuple[int, float]] = []
    missions_done = 0
    interactions = 0
    copies_done = 0
    block = 0

    while missions_done < tcfg.total_missions:
        t0 = time.perf_counter()
        block_transitions: list[Transition] = []
        block_returns: list[float] = []
        while len(block_transitions) < tcfg.rollout_block and missions_done < tcfg.total_missions:
            epsilon = tcfg.epsilon_at(missions_done)
            trs, ret = run_training_mission(
                actor, cfg, fcfg, seed, missions_done, epsilon, critic_mode,
                terrain=terrain,
            )
            block_transitions.extend(trs)
            block_returns.append(ret)
            mission_returns.append(ret)
            missions_done += 1
        interactions += len(block_transitions)

        _fill_block_targets(block_transitions, target_critic, target_vnet, tcfg, n_value_planes)

        n = len(block_transitions)
        actor_losses: list[float] = []
        critic_losses: list[float] = []
        for epoch in range(tcfg.epochs):
            shuffle_rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([seed, 13, block, epoch]))
            )
            perm = shuffle_rng.permutation(n)
            for lo in range(0, n, tcfg.batch_size):
                idx = perm[lo : lo + tcfg.batch_size]
                batch = [block_transitions[i] for i in idx]
                targets = np.array([tr.target for tr in batch])
                closs = critic_update(batch, critic, targets, opt_critic, tcfg.grad_clip)
                if vnet is not None:
                    _value_update(batch, vnet, n_value_planes, opt_vnet, tcfg.grad_clip)
                advantages = _batch_advantages(
                    batch, actor, critic, vnet, variant, n_value_planes
                )
                aloss = actor_update(batch, actor, advantages, opt_actor, tcfg.grad_clip)
                if not (np.isfinite(aloss) and np.isfinite(closs)):
                    raise TrainingDivergenceError(
                        f"non-finite loss in block {block} (actor {aloss}, critic {closs})"
                    )
                actor_losses.append(aloss)
                critic_losses.append(closs)

        while interactions // tcfg.target_copy_interval > copies_done:
            target_critic.copy_from(critic)
            if target_vnet is not None:
                target_vnet.copy_from(vnet)
            copies_done += 1

        row = {
            "block": block,
            "missions_done": missions_done,
            "env_interactions": interactions,
            "mean_return": float(np.mean(block_returns)),
            "actor_loss": float(np.mean(actor_losses)),
            "critic_loss": float(np.mean(critic_losses)),
            "epsilon": tcfg.epsilon_at(missions_done - 1),
        }
        block_rows.append(row)
        timing_rows.append((block, time.perf_counter() - t0))
        if progress is not None:
            progress(row)
        if (block + 1) % tcfg.checkpoint_every_blocks == 0:
            _save_all(out_dir, actor, critic, vnet, fcfg, cfg, meta)
        block += 1

    paths = _save_all(out_dir, actor, critic, vnet, fcfg, cfg, meta)
    log_path = out_dir / "training_log.csv"
    log_fields = ["block", "missions_done", "env_interactions", "mean_return", "actor_loss",
                  "critic_loss", "epsilon"]
    write_csv(log_path, ([row[k] for k in log_fields] for row in block_rows), log_fields)
    missions_path = out_dir / "missions.csv"
    write_csv(
        missions_path,
        ((i, r, tcfg.epsilon_at(i)) for i, r in enumerate(mission_returns)),
        ["mission", "return", "epsilon"],
    )
    write_csv(out_dir / "timing.csv", ((b, f"{dt:.3f}") for b, dt in timing_rows),
              ["block", "wallclock_s"])
    return TrainResult(
        out_dir=out_dir,
        actor_path=paths[0],
        critic_path=paths[1],
        init_actor_path=init_actor_path,
        log_path=log_path,
        missions_path=missions_path,
        vnet_path=paths[2],
        mission_returns=mission_returns,
        block_rows=block_rows,
        actor=actor,
        critic=critic,
        target_critic=target_critic,
    )


def _save_all(out_dir: Path, actor: PolicyNet, critic: PolicyNet,
              vnet: Optional[PolicyNet], fcfg: FeatureConfig, cfg: EnvConfig,
              meta: dict) -> tuple[Path, Path, Optional[Path]]:
    actor_path = out_dir / "actor.ckpt"
    critic_path = out_dir / "critic.ckpt"
    save_network(actor_path, actor, kind="actor", manifest=actor_manifest(fcfg), extra=meta)
    save_network(
        critic_path, critic, kind="critic",
        manifest=critic_manifest(fcfg, cfg.num_agents, _CRITIC_MODE_OF[meta["variant"]]),
        extra=meta,
    )
    vnet_path = None
    if vnet is not None:
        vnet_path = out_dir / "vnet.ckpt"
        save_network(
            vnet_path, vnet, kind="state-value",
            manifest=critic_manifest(fcfg, cfg.num_agents, CRITIC_MODE_NO_ACTIONS),
            extra=meta,
        )
    return actor_path, critic_path, vnet_path
