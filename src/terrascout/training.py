"""On-policy actor-critic training with a counterfactual baseline.

The loop alternates between collecting a block of on-policy decisions
(one interaction = one agent decision = one row of a ``Rollout``) and
optimizing: the critic regresses TD(lambda) targets built from a
periodically-copied target network, and the actor ascends the policy
gradient weighted by a per-agent advantage. Four credit-assignment variants are supported:

  coma               A = Q(s, u) - sum_u' pi(u') Q(s, (u_-i, u')), critic
                     sees teammates' actions as one-hot planes
  central-qv         A = Q(s, u) - V(s), with a separately trained V net
  actor-independent  counterfactual form, critic blind to teammates' actions
  decentralised      counterfactual form, critic sees local features only
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .environment import EnvConfig, keyed_generator, reward, start_mission
from .errors import ConfigurationError, ContractViolation, TrainingDivergenceError
from . import nn
from .gridmap import write_csv
from .planners import LearnedPlanner
from .policy import (
    CRITIC_GLOBAL_PLANES,
    FeatureConfig,
    NetArch,
    PolicyNet,
    actor_manifest,
    build_critic_features,
    critic_global_planes,
    critic_manifest,
    make_actor,
    make_critic,
    make_value_net,
    save_network,
)

VARIANTS = ("coma", "central-qv", "actor-independent", "decentralised")
# training_loop's files: the logs with their headers, the initial actor, a checkpoint per network
LOGS = {
    "training_log.csv": ("block", "missions_done", "env_interactions", "mean_return",
                         "actor_loss", "critic_loss", "epsilon"),
    "missions.csv": ("mission", "return", "epsilon"),
    "timing.csv": ("block", "wallclock_s"),
}
INIT_ACTOR = "actor_init.ckpt"
NETWORKS = (("actor", "actor"), ("critic", "critic"), ("vnet", "state-value"))


def run_outputs(variant: str) -> list[str]:
    """The files ``training_loop`` writes for ``variant``; only central-qv trains a V net."""
    nets = NETWORKS if variant == "central-qv" else NETWORKS[:2]
    return [*LOGS, INIT_ACTOR, *(f"{stem}.ckpt" for stem, _ in nets)]


def critic_feature_config(variant: str, fcfg: FeatureConfig) -> FeatureConfig:
    """The planes the variant's critic reads: the user's ``fcfg``, less the
    action planes (actor-independent) or also the global ones (decentralised)."""
    if variant == "actor-independent":
        return replace(fcfg, action_maps=False)
    if variant == "decentralised":
        return replace(fcfg, action_maps=False, **dict.fromkeys(CRITIC_GLOBAL_PLANES, False))
    return fcfg


@dataclass
class Rollout:
    """Agent decisions as arrays, one row each, ordered (mission, step, agent).

    ``features`` holds each decision's critic stack. The actor stack is its
    first ``actor.in_channels`` planes and the state-value stack its first
    ``vnet.in_channels``, so every network reads its own prefix.
    """

    features: np.ndarray  # (n, K, G, G) critic planes
    masks: np.ndarray  # (n, NUM_ACTIONS) valid actions
    actions: np.ndarray  # (n,) actions taken
    rewards: np.ndarray  # (n,) team reward of the step
    epsilons: np.ndarray  # (n,) exploration floor the action was drawn with
    targets: Optional[np.ndarray] = None  # (n, critics) TD(lambda) targets, filled per block

    def __post_init__(self) -> None:
        if not np.isfinite(self.rewards).all():
            raise ContractViolation("non-finite reward")
        if self.targets is None:
            self.targets = np.zeros((len(self), 1))

    def __len__(self) -> int:
        return len(self.actions)

    @classmethod
    def concat(cls, parts: Sequence["Rollout"]) -> "Rollout":
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(cls)))

    def take(self, idx) -> "Rollout":
        return Rollout(*(getattr(self, f.name)[idx] for f in fields(self)))


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
            self.epsilon_anneal_missions, self.total_missions, self.grad_clip,
            self.checkpoint_every_blocks,
        )
        if any(not v > 0 for v in positives) or not self.td_lambda >= 0:
            raise ConfigurationError("training config values must be positive")
        if self.gamma > 1 or self.td_lambda > 1:
            raise ConfigurationError("gamma and lambda must not exceed 1")
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


def advantage_variant(variant: str, q_row, pi, action, v_value=None):
    """Q of the taken action minus the variant's baseline.

    The counterfactual variants subtract the policy-marginalised Q, each
    row's the same vector product as ``pi @ q_row``; central-qv subtracts
    the V-critic's ``v_value``. Takes one row (``q_row`` and ``pi`` of shape
    (A,), an int ``action``; returns a float) or B stacked rows ((B, A),
    (B, A) and (B,); returns (B,)).
    """
    q_row = np.asarray(q_row, dtype=np.float64)
    if variant in ("coma", "actor-independent", "decentralised"):
        pi = np.asarray(pi, dtype=np.float64)
        if not np.isfinite(q_row).all():
            raise ContractViolation("non-finite Q values")
        if (np.abs(pi.sum(axis=-1) - 1.0) > 1e-6).any() or (pi < 0).any():
            raise ContractViolation("policy vector is not a distribution")
        baseline = np.matmul(pi[..., None, :], q_row[..., :, None])[..., 0, 0]
    elif variant == "central-qv":
        if v_value is None:
            raise ConfigurationError("central-qv advantage needs a state value")
        baseline = v_value
    else:
        raise ConfigurationError(f"unknown training variant '{variant}'")
    out = np.take_along_axis(q_row, np.asarray(action)[..., None], axis=-1)[..., 0] - baseline
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# batched updates
# ---------------------------------------------------------------------------


def _forward(net: PolicyNet, features: np.ndarray) -> nn.Tensor:
    """``net`` on its prefix of the critic planes (see ``Rollout``)."""
    return net.forward(features[:, : net.in_channels])


def actor_update(batch: Rollout, probs: nn.Tensor, actor: PolicyNet, advantages: np.ndarray,
                 optimizer: nn.Adam, grad_clip: float) -> float:
    """One Adam step on mean(-log pi(u|omega) * A); advantages are constants.

    ``probs`` is the taped policy of ``batch`` under the actor's current
    parameters (``_actor_probs``); its backward reaches the actor.
    """
    logp = nn.log(nn.gather_last(probs, batch.actions))
    loss = nn.mean(nn.mul(logp, nn.Tensor(-np.asarray(advantages))))
    optimizer.zero_grad()
    loss.backward()
    nn.clip_grad_norm(actor.parameters(), grad_clip)
    optimizer.step()
    return float(loss.data)


def _actor_probs(batch: Rollout, actor: PolicyNet) -> nn.Tensor:
    """The taped masked bounded-softmax policy of every row of ``batch``."""
    logits = _forward(actor, batch.features)
    return nn.masked_bounded_softmax(logits, batch.masks, batch.epsilons[:, None])


def _regressed(net: PolicyNet, actions: np.ndarray) -> np.ndarray:
    """The output column each row regresses: Q of the taken action, or V's only one."""
    return actions if net.out_dim > 1 else np.zeros_like(actions)


def critic_update(batch: Rollout, critic: PolicyNet, targets: np.ndarray,
                  optimizer: nn.Adam, grad_clip: float) -> float:
    """One Adam step on the MSE between the critic's regressed column (Q of the
    taken action, or V) and the targets, which are checked finite before any
    gradient is taken."""
    targets = np.asarray(targets, dtype=np.float64)
    if not np.isfinite(targets).all():
        raise TrainingDivergenceError("non-finite TD target")
    pred = nn.gather_last(_forward(critic, batch.features), _regressed(critic, batch.actions))
    err = nn.sub(pred, nn.Tensor(targets))
    loss = nn.mean(nn.mul(err, err))
    optimizer.zero_grad()
    loss.backward()
    nn.clip_grad_norm(critic.parameters(), grad_clip)
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
    critic_fcfg: FeatureConfig,
) -> tuple[Rollout, float]:
    """Play one on-policy mission through a ``LearnedPlanner`` on the planes of
    ``fcfg``, and record every agent decision; each row holds those of ``critic_fcfg``."""
    env, rng = start_mission(cfg, seed, mission_index)
    env.reset()
    planner = LearnedPlanner(actor, fcfg, epsilon=epsilon)
    features, masks, actions, rewards = [], [], [], []
    mission_return = 0.0
    h = env.global_entropy()
    done = False
    while not done:
        step_masks = env.masks()
        step_actions = planner.act_team(env.locals, step_masks, cfg, rng)
        shared = None
        if any(getattr(critic_fcfg, name) for name in CRITIC_GLOBAL_PLANES):
            shared = critic_global_planes(env.state, cfg)
        for i, stack in enumerate(planner.stacks):
            others = step_actions[:i] + step_actions[i + 1 :]
            features.append(build_critic_features(
                env.state, stack, i, others, cfg, critic_fcfg, global_planes=shared
            ))
        done = env.step(step_actions)
        h_before, h = h, env.global_entropy()
        r = reward(h_before, h, cfg.reward_alpha, cfg.reward_beta)
        mission_return += r
        masks.extend(step_masks)
        actions += step_actions
        rewards += [r] * cfg.num_agents
    if len(actions) != cfg.budget * cfg.num_agents:
        raise ContractViolation(
            f"mission recorded {len(actions)} decisions, expected "
            f"{cfg.budget} steps x {cfg.num_agents} agents"
        )
    rollout = Rollout(
        np.stack(features), np.stack(masks), np.array(actions), np.array(rewards),
        np.full(len(actions), epsilon),
    )
    return rollout, mission_return


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    """All that a run carries from one block to the next. Every draw is keyed
    by the seed and the counters, so no generator is kept."""

    actor: PolicyNet
    critics: list[PolicyNet]  # the Q critic, then central-qv's V net
    target_nets: list[PolicyNet]  # frozen copies of the critics, synced by run_block
    opts: tuple[nn.Adam, ...]  # the actor's, then each critic's
    missions_done: int
    interactions: int  # agent decisions collected
    block: int  # blocks run

    @classmethod
    def initial(cls, cfg: EnvConfig, tcfg: TrainConfig, fcfg: FeatureConfig,
                seed: int) -> "TrainState":
        """Fresh networks, all drawn from the (seed, 11) stream."""
        ccfg = critic_feature_config(tcfg.variant, fcfg)
        init_rng = keyed_generator(seed, 11)
        actor = make_actor(cfg, fcfg, init_rng, tcfg.arch)
        makers = (make_critic, make_value_net) if tcfg.variant == "central-qv" else (make_critic,)
        critics: list[PolicyNet] = []
        target_nets: list[PolicyNet] = []
        for make in makers:  # a target's draw is overwritten, but it keeps init_rng's order
            critics.append(make(cfg, ccfg, init_rng, tcfg.arch))
            target_nets.append(make(cfg, ccfg, init_rng, tcfg.arch))
            target_nets[-1].copy_from(critics[-1])
            target_nets[-1].freeze()
        opts = (nn.Adam(actor.parameters(), tcfg.actor_lr),
                *(nn.Adam(net.parameters(), tcfg.critic_lr) for net in critics))
        return cls(actor, critics, target_nets, opts, 0, 0, 0)


def _fill_block_targets(block: Rollout, target_nets: Sequence[PolicyNet], tcfg: TrainConfig,
                        cfg: EnvConfig) -> None:
    """Compute per-episode TD(lambda) targets from the frozen target nets,
    one column of ``block.targets`` each, bootstrapped from its regressed
    column (``_regressed``).

    Every mission runs exactly ``cfg.budget`` steps, so the rows of agent i
    in mission m are ``arange(n).reshape(-1, budget, N)[m, :, i]``.
    """
    rows = np.arange(len(block)).reshape(-1, cfg.budget, cfg.num_agents)
    episodes = rows.transpose(0, 2, 1).reshape(-1, cfg.budget)  # one (m, i) per row
    block.targets = np.empty((len(block), len(target_nets)))
    for idx in episodes:
        for k, net in enumerate(target_nets):
            out = _forward(net, block.features[idx]).data
            values = out[np.arange(len(idx)), _regressed(net, block.actions[idx])]
            block.targets[idx, k] = td_lambda_targets(block.rewards[idx], values,
                                                      tcfg.td_lambda, tcfg.gamma)


def _batch_advantages(batch: Rollout, actor: PolicyNet, critics: Sequence[PolicyNet],
                      variant: str) -> tuple[np.ndarray, nn.Tensor]:
    """Advantages from the current critics and current policy, and that policy's
    taped rows (``_actor_probs``) for the actor step.

    The critics' tapes are dropped before the actor's is built, so only one
    network's tape is alive at a time.
    """
    q_rows, *v_rows = (_forward(net, batch.features).data for net in critics)
    v_values = v_rows[0].reshape(-1) if v_rows else None
    probs = _actor_probs(batch, actor)
    return advantage_variant(variant, q_rows, probs.data, batch.actions, v_values), probs


def _optimise_minibatch(batch: Rollout, state: TrainState,
                        tcfg: TrainConfig) -> tuple[float, float]:
    """One step of each critic on its column of ``batch.targets``, then one
    actor step; returns (actor loss, Q-critic loss).

    One taped actor forward feeds both the advantages and the actor's
    backward: the actor's parameters do not change between the two. Its
    tape dies with this scope, before the next minibatch's critic step.
    """
    opt_actor, *critic_opts = state.opts
    losses = [critic_update(batch, net, batch.targets[:, k], opt, tcfg.grad_clip)
              for k, (net, opt) in enumerate(zip(state.critics, critic_opts))]
    advantages, probs = _batch_advantages(batch, state.actor, state.critics, tcfg.variant)
    return actor_update(batch, probs, state.actor, advantages, opt_actor, tcfg.grad_clip), losses[0]


def run_block(state: TrainState, cfg: EnvConfig, tcfg: TrainConfig, fcfg: FeatureConfig,
              seed: int) -> tuple[dict, dict[int, float]]:
    """Collect a rollout block, fill its targets, run the epochs and sync the
    targets if an interval ends in the block; advance ``state`` and return the
    block's ``training_log.csv`` row and its returns by mission. A mission is B*N
    rows, so a block is the fewest missions that reach ``rollout_block`` rows."""
    ccfg = critic_feature_config(tcfg.variant, fcfg)
    per_block = -(-tcfg.rollout_block // (cfg.budget * cfg.num_agents))
    missions = range(state.missions_done, min(state.missions_done + per_block, tcfg.total_missions))
    parts, returns = zip(*(
        run_training_mission(state.actor, cfg, fcfg, seed, m, tcfg.epsilon_at(m), ccfg)
        for m in missions
    ))
    rollout = Rollout.concat(parts)
    rows = len(rollout)
    state.missions_done = missions.stop
    state.interactions += rows

    _fill_block_targets(rollout, state.target_nets, tcfg, cfg)

    losses: list[tuple[float, float]] = []  # (actor, Q-critic) of each minibatch
    for epoch in range(tcfg.epochs):
        perm = keyed_generator(seed, 13, state.block, epoch).permutation(rows)
        for lo in range(0, rows, tcfg.batch_size):
            batch = rollout.take(perm[lo : lo + tcfg.batch_size])
            aloss, closs = _optimise_minibatch(batch, state, tcfg)
            if not (np.isfinite(aloss) and np.isfinite(closs)):
                raise TrainingDivergenceError(
                    f"non-finite loss in block {state.block} (actor {aloss}, critic {closs})"
                )
            losses.append((aloss, closs))

    interval = tcfg.target_copy_interval
    if (state.interactions - rows) // interval < state.interactions // interval:
        for target, net in zip(state.target_nets, state.critics):
            target.copy_from(net)

    row = {
        "block": state.block,
        "missions_done": state.missions_done,
        "env_interactions": state.interactions,
        "mean_return": float(np.mean(returns)),
        "actor_loss": float(np.mean([a for a, _ in losses])),
        "critic_loss": float(np.mean([c for _, c in losses])),
        "epsilon": tcfg.epsilon_at(state.missions_done - 1),
    }
    state.block += 1
    return row, dict(zip(missions, returns))


def training_loop(
    cfg: EnvConfig,
    tcfg: TrainConfig,
    fcfg: FeatureConfig,
    seed: int,
    out_dir,
    *,
    progress: Optional[Callable[[dict], None]] = None,
) -> PolicyNet:
    """Run blocks until the mission budget is spent; return the trained actor.
    Each block appends its rows to the ``LOGS`` before ``progress`` sees them,
    so a crash keeps the finished blocks' rows; only ``timing.csv`` holds clock
    times, so the rest repeats byte for byte. Every ``checkpoint_every_blocks``-th
    block and the last save each network with the critic planes it reads."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state = TrainState.initial(cfg, tcfg, fcfg, seed)
    # variant and arch are recorded on their own; the checkpoint interval says nothing of a net
    meta = {
        "feature_config": asdict(fcfg),
        "variant": tcfg.variant,
        "seed": seed,
        "train_config": {f.name: getattr(tcfg, f.name) for f in fields(tcfg)
                         if f.name not in ("variant", "arch", "checkpoint_every_blocks")},
    }
    save_network(out_dir / INIT_ACTOR, state.actor, kind="actor",
                 manifest=actor_manifest(fcfg), extra=meta)
    for name, header in LOGS.items():
        write_csv(out_dir / name, [], header)
    planes = critic_manifest(critic_feature_config(tcfg.variant, fcfg), cfg.num_agents)

    while state.missions_done < tcfg.total_missions:
        t0 = time.perf_counter()
        row, returns = run_block(state, cfg, tcfg, fcfg, seed)
        write_csv(out_dir / "timing.csv", [(row["block"], f"{time.perf_counter() - t0:.3f}")])
        write_csv(out_dir / "training_log.csv", [[row[k] for k in LOGS["training_log.csv"]]])
        write_csv(out_dir / "missions.csv", ((m, r, tcfg.epsilon_at(m)) for m, r in returns.items()))
        if progress is not None:
            progress(row)
        last = state.missions_done == tcfg.total_missions
        if last or state.block % tcfg.checkpoint_every_blocks == 0:
            for (stem, kind), net in zip(NETWORKS, (state.actor, *state.critics)):
                save_network(out_dir / f"{stem}.ckpt", net, kind=kind,
                             manifest=planes[: net.in_channels], extra=meta)
    return state.actor
