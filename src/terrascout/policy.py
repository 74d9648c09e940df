"""Spatial feature planes and the actor/critic networks consuming them.

All planes live on the coarse planning grid (G x G, G = terrain side /
r_P). Map-resolution quantities are mean-pooled down by the factor
r_P / r_M; belief and entropy are pooled separately because the entropy of
a mean is not the mean of entropies.

Actor input:  (a) agent-centred position plane, (b) local belief,
(c) weighted local entropy, (d) weighted entropy of the latest own
measurement, (e) in-range footprint map, plus constant agent-id and
remaining-budget planes.

Critic input: the same, followed by (f) global position plane, (g) global
belief, (h) its weighted entropy, (i) all agents' footprints, and (j) one
one-hot plane per (other agent, action) marking who chose what where.
A network reads the planes its ``FeatureConfig`` enables.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from itertools import zip_longest
from typing import Optional, Sequence

import numpy as np

from .environment import Action, AgentLocalState, EnvConfig, GlobalState, NUM_ACTIONS
from .errors import ConfigurationError, ContractViolation, DataError, DomainError
from .gridmap import footprint, weighted_cell_entropy
from . import nn
from .nn import Tensor

OUT_OF_MAP = -1.0

ACTOR_PLANES = (
    "position_map",
    "belief_map",
    "entropy_map",
    "measurement_entropy",
    "footprint_map",
    "agent_id",
    "budget",
)
CRITIC_GLOBAL_PLANES = (
    "global_position_map",
    "global_belief_map",
    "global_entropy_map",
    "global_footprint_map",
)


@dataclass(frozen=True)
class FeatureConfig:
    """Per-plane toggles; switching one off shrinks the network inputs."""

    position_map: bool = True
    belief_map: bool = True
    entropy_map: bool = True
    measurement_entropy: bool = True
    footprint_map: bool = True
    agent_id: bool = True
    budget: bool = True
    global_position_map: bool = True
    global_belief_map: bool = True
    global_entropy_map: bool = True
    global_footprint_map: bool = True
    action_maps: bool = True

    def with_toggle(self, name: str, enabled: bool) -> "FeatureConfig":
        if name not in {f.name for f in fields(self)}:
            raise ConfigurationError(f"unknown feature plane toggle '{name}'")
        return replace(self, **{name: enabled})


def _finite(planes: np.ndarray) -> np.ndarray:
    if not np.isfinite(planes).all():
        raise ContractViolation("feature planes contain non-finite values")
    return planes


def actor_manifest(fcfg: FeatureConfig) -> tuple[str, ...]:
    return tuple(name for name in ACTOR_PLANES if getattr(fcfg, name))


def critic_manifest(fcfg: FeatureConfig, num_agents: int) -> tuple[str, ...]:
    names = list(actor_manifest(fcfg))
    names += [name for name in CRITIC_GLOBAL_PLANES if getattr(fcfg, name)]
    if fcfg.action_maps:
        for k in range(num_agents - 1):
            for action in Action:
                names.append(f"other{k}_action_{action.name.lower()}")
    return tuple(names)


def _row_tile_sums(fine: np.ndarray, factor: int) -> np.ndarray:
    """(..., H, W) -> (..., H, W / factor): each cell row summed over each tile's columns."""
    if fine.shape[-1] % factor:
        raise ConfigurationError("map size is not divisible by the pooling factor")
    return fine.reshape(*fine.shape[:-1], fine.shape[-1] // factor, factor).sum(axis=-1)


def _pool_row_tile_sums(sums: np.ndarray, factor: int) -> np.ndarray:
    """(..., H, G) row-tile sums -> (..., H / factor, G) tile means.

    Applied to ``_row_tile_sums`` of a plane this equals ``mean(axis=(1, 3))``
    of its (g, f, G, f) view bit for bit when G >= 2, and the row-tile sums
    of any cell rows by whole tile columns equal the same entries of a full
    pass, so sums kept per box pool like a fresh build. Pool at full width:
    at G = 1 numpy merges the two reduced axes, and the last bit may differ.
    """
    *lead, h, g = sums.shape
    if h % factor:
        raise ConfigurationError("map size is not divisible by the pooling factor")
    return sums.reshape(*lead, h // factor, factor, g).sum(axis=-2) / (factor * factor)


def _footprint_plane(rects, cfg: EnvConfig) -> np.ndarray:
    """1 on every tile a rectangle touches, set from its bounds (exact: the plane is boolean)."""
    f, g = cfg.pool_factor, cfg.lattice_cols
    plane = np.zeros((g, g))
    for rect in rects:
        plane[rect.y_lo // f : rect.y_hi // f + 1, rect.x_lo // f : rect.x_hi // f + 1] = 1.0
    return plane


def _centred_position_plane(local: AgentLocalState, cfg: EnvConfig) -> np.ndarray:
    """Window of the lattice centred on the agent; out-of-map cells are -1.

    Cell values are normalized altitudes of the agents believed to sit
    there (teammate entries may be stale); empty in-map cells are 0.
    """
    g = cfg.lattice_cols
    centre = g // 2
    plane = np.full((g, g), OUT_OF_MAP)
    row0 = int(local.position[1]) - centre  # real lattice row of output row 0
    col0 = int(local.position[0]) - centre
    r_lo, r_hi = max(0, -row0), min(g, cfg.lattice_rows - row0)
    c_lo, c_hi = max(0, -col0), min(g, cfg.lattice_cols - col0)
    plane[r_lo:r_hi, c_lo:c_hi] = 0.0
    for j, pos in enumerate(local.known_positions):
        rr = int(pos[1]) - row0
        cc = int(pos[0]) - col0
        if 0 <= rr < g and 0 <= cc < g:
            plane[rr, cc] = cfg.altitude_of_level(int(pos[2])) / cfg.max_altitude
    return plane


def _global_position_plane(positions, cfg: EnvConfig) -> np.ndarray:
    g = cfg.lattice_cols
    plane = np.zeros((g, g))
    for pos in positions:
        plane[int(pos[1]), int(pos[0])] = cfg.altitude_of_level(int(pos[2])) / cfg.max_altitude
    return plane


def _measurement_entropy_plane(local: AgentLocalState, cfg: EnvConfig) -> np.ndarray:
    """Row-tile sums of the footprint's whole tiles only, pooled at full width.

    A patch holds two observation probabilities, ``1 - acc`` for label 0 and
    ``acc`` for label 1, with acc in (0.5, 1]. The entropy kernel reads both
    as y = 1 - acc and m = acc, because ``1 - acc`` is exact there, so every
    footprint cell holds the entropy of ``acc`` bit for bit, whatever its label.
    """
    f, g = cfg.pool_factor, cfg.lattice_cols
    plane = np.zeros((g, g))
    m = local.last_measurement
    if m is not None:
        r = m.rect
        lo, hi, c_lo, c_hi = r.y_lo // f, r.y_hi // f + 1, r.x_lo // f, r.x_hi // f + 1
        box = np.zeros(((hi - lo) * f, (c_hi - c_lo) * f))
        box[r.y_lo - lo * f : r.y_hi + 1 - lo * f, r.x_lo - c_lo * f : r.x_hi + 1 - c_lo * f] = (
            weighted_cell_entropy(m.accuracy, cfg.weights)
        )
        sums = np.zeros(((hi - lo) * f, g))
        sums[:, c_lo:c_hi] = _row_tile_sums(box, f)
        plane[lo:hi] = _pool_row_tile_sums(sums, f)
    return plane


def _local_planes(local: AgentLocalState, cfg: EnvConfig) -> np.ndarray:
    """The agent's (2, G, G) pooled belief and weighted entropy.

    ``local.row_sums`` keeps the (2, H, G) row-tile sums of both planes and
    ``local.row_sums_seen`` the number of ``local_map.fused`` entries they
    include. When ``row_sums`` is None they are filled from the map's
    ``prior_cell`` and include no entry. A call then takes them over the cell
    rows by whole tile columns of each later entry. Every box is computed
    before any is written, so a failed refresh changes nothing.
    """
    grid, f = local.local_map, cfg.pool_factor
    seen = 0 if local.row_sums is None else local.row_sums_seen
    boxes = [(slice(r.y_lo, r.y_hi + 1), slice(r.x_lo // f, r.x_hi // f + 1))
             for r in grid.fused[seen:]]
    fresh = []
    for rows, tiles in boxes:
        probs = grid.probs_slice((rows, slice(tiles.start * f, tiles.stop * f)))
        try:  # a NaN belief fails the entropy's domain check before the stack check
            entropy = weighted_cell_entropy(probs, cfg.weights)
        except DomainError as exc:
            raise ContractViolation("feature planes contain non-finite values") from exc
        fresh.append(np.stack([_row_tile_sums(probs, f), _row_tile_sums(entropy, f)]))
    if local.row_sums is None:
        cell = grid.prior_cell(cfg.weights)
        tile = np.stack([_row_tile_sums(np.repeat(c, f, axis=1), f) for c in cell])
        local.row_sums = np.broadcast_to(tile, (2, cfg.map_cells, cfg.lattice_cols)).copy()
    for (rows, tiles), sums in zip(boxes, fresh):
        local.row_sums[:, rows, tiles] = sums
    local.row_sums_seen = len(grid.fused)
    return _pool_row_tile_sums(local.row_sums, f)


def build_actor_features(local: AgentLocalState, cfg: EnvConfig,
                         fcfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Local planes (a)-(e) plus the constant id and budget planes, as
    ``actor_manifest(fcfg)`` orders them."""
    g = cfg.lattice_cols
    planes: list[np.ndarray] = []
    if fcfg.position_map:
        planes.append(_centred_position_plane(local, cfg))
    if fcfg.belief_map or fcfg.entropy_map:
        pooled = _local_planes(local, cfg)
    if fcfg.belief_map:
        planes.append(pooled[0])
    if fcfg.entropy_map:
        planes.append(pooled[1])
    if fcfg.measurement_entropy:
        planes.append(_measurement_entropy_plane(local, cfg))
    if fcfg.footprint_map:
        rects = []
        if local.last_measurement is not None:
            rects.append(local.last_measurement.rect)
        rects += [m.rect for m in local.inbox]
        planes.append(_footprint_plane(rects, cfg))
    if fcfg.agent_id:
        planes.append(np.full((g, g), (local.agent_id + 1) / cfg.num_agents))
    if fcfg.budget:
        planes.append(np.full((g, g), local.remaining_budget / cfg.budget))
    return _finite(np.stack(planes))


def critic_global_planes(state: GlobalState, cfg: EnvConfig) -> np.ndarray:
    """The four global planes (f)-(i), the same for every agent of a step; the
    pooled two are pooled in full from the two of ``state.map_planes``."""
    f = cfg.pool_factor
    pooled = [_pool_row_tile_sums(_row_tile_sums(plane, f), f)
              for plane in state.map_planes(cfg.weights)]
    rects = [
        footprint(cfg.position_m(pos), cfg.footprint_factor, cfg.map_cells,
                  cfg.map_cells, cfg.map_resolution)
        for pos in state.positions
    ]
    return np.stack([
        _global_position_plane(state.positions, cfg),
        *pooled,
        _footprint_plane(rects, cfg),
    ])


def build_critic_features(
    state: GlobalState,
    base: np.ndarray,
    agent_id: int,
    other_actions: Sequence[int],
    cfg: EnvConfig,
    fcfg: FeatureConfig = FeatureConfig(),
    *,
    global_planes: Optional[np.ndarray],
) -> np.ndarray:
    """The agent's actor stack ``base`` followed by the centralised planes
    (f)-(j) that ``fcfg`` enables, in ``critic_manifest`` order.

    ``other_actions`` lists the actions of the N-1 teammates ordered by
    agent id (skipping ``agent_id``); each marks a one-hot plane at that
    teammate's current cell. ``global_planes`` is the step's
    ``critic_global_planes(state, cfg)``, built once for all its agents; it
    may be None when ``fcfg`` enables none of them.
    """
    keep = [k for k, name in enumerate(CRITIC_GLOBAL_PLANES) if getattr(fcfg, name)]
    planes = [base]
    if keep:
        planes.append(global_planes[keep])
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


# ---------------------------------------------------------------------------
# networks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetArch:
    conv_channels: tuple = (16, 32, 32)
    conv_strides: tuple = (1, 1, 2)
    kernel_size: int = 3
    padding: int = 1
    mlp_sizes: tuple = (128, 64)

    def __post_init__(self) -> None:
        for name in ("conv_channels", "conv_strides", "mlp_sizes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.conv_channels) != len(self.conv_strides):
            raise ConfigurationError("conv_channels and conv_strides must have equal lengths")
        sizes = (*self.conv_channels, *self.conv_strides, self.kernel_size, *self.mlp_sizes)
        if any(not v > 0 for v in sizes) or not self.padding >= 0:
            raise ConfigurationError(
                "channels, strides, kernel size and widths must be positive, padding nonnegative"
            )


def layer_shapes(in_channels: int, grid_size: int, out_dim: int,
                 arch: NetArch) -> list[tuple[str, tuple]]:
    """Each parameter's (name, shape), in checkpoint order: per conv layer an
    (out, in, k, k) kernel and its bias, then per dense layer and the head an
    (in, out) weight and its bias."""
    if min(in_channels, grid_size, out_dim) < 1:
        raise ConfigurationError(f"a network needs positive in_channels, grid_size and out_dim, "
                                 f"got {in_channels}, {grid_size} and {out_dim}")
    k = arch.kernel_size
    shapes = []
    ch, side = in_channels, grid_size
    for i, (out_ch, stride) in enumerate(zip(arch.conv_channels, arch.conv_strides)):
        shapes += [(f"conv{i}.weight", (out_ch, ch, k, k)), (f"conv{i}.bias", (out_ch,))]
        side = (side + 2 * arch.padding - k) // stride + 1
        if side < 1:
            raise ConfigurationError("encoder strides collapse the grid below 1x1")
        ch = out_ch
    dim = ch * side * side
    names = [f"fc{i}" for i in range(len(arch.mlp_sizes))] + ["head"]
    for name, width in zip(names, (*arch.mlp_sizes, out_dim)):
        shapes += [(f"{name}.weight", (dim, width)), (f"{name}.bias", (width,))]
        dim = width
    return shapes


class PolicyNet:
    """Conv encoder + MLP head over a stack of G x G feature planes. ``params``
    holds a tensor per ``layer_shapes`` entry: each weight drawn He-normal over
    its fan-in (a kernel's in * k * k, a dense weight's rows) in that order,
    each bias zero; or, with ``values``, its array there, drawing nothing."""

    def __init__(self, in_channels: int, grid_size: int, out_dim: int,
                 rng: Optional[np.random.Generator], arch: NetArch = NetArch(),
                 values: Optional[dict[str, np.ndarray]] = None):
        self.in_channels = in_channels
        self.grid_size = grid_size
        self.out_dim = out_dim
        self.arch = arch
        self.params: dict[str, Tensor] = {}
        for name, shape in layer_shapes(in_channels, grid_size, out_dim, arch):
            if values is not None:
                value = values[name]
            elif name.endswith(".bias"):
                value = np.zeros(shape)
            else:
                fan_in = math.prod(shape[1:]) if len(shape) == 4 else shape[0]
                value = rng.normal(0.0, math.sqrt(2.0 / fan_in), shape)
            self.params[name] = Tensor(value, requires_grad=True)

    def forward(self, x) -> Tensor:
        """x: (B, C, G, G) array or Tensor -> (B, out_dim) Tensor."""
        t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        if t.data.ndim != 4 or t.data.shape[1] != self.in_channels:
            raise ConfigurationError(
                f"network expects (B, {self.in_channels}, {self.grid_size}, "
                f"{self.grid_size}) inputs, got {t.data.shape}"
            )
        p = self.params
        h = t
        for i, stride in enumerate(self.arch.conv_strides):
            h = nn.relu(nn.conv2d(h, p[f"conv{i}.weight"], p[f"conv{i}.bias"], stride,
                                  self.arch.padding))
        h = nn.reshape(h, (t.data.shape[0], -1))
        for i in range(len(self.arch.mlp_sizes)):
            h = nn.relu(nn.linear(h, p[f"fc{i}.weight"], p[f"fc{i}.bias"]))
        return nn.linear(h, p["head.weight"], p["head.bias"])

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def copy_from(self, other: "PolicyNet") -> None:
        for p, q in zip(self.params.values(), other.params.values()):
            p.data = q.data.copy()

    def freeze(self) -> None:
        """Drop every parameter's gradient, so forwards record no tape; the
        ops stay those of a taped forward, and so do the output's bits."""
        for name, p in self.params.items():
            self.params[name] = Tensor(p.data)


def make_actor(cfg: EnvConfig, fcfg: FeatureConfig, rng: np.random.Generator,
               arch: NetArch = NetArch()) -> PolicyNet:
    return PolicyNet(len(actor_manifest(fcfg)), cfg.lattice_cols, NUM_ACTIONS, rng, arch)


def make_critic(cfg: EnvConfig, fcfg: FeatureConfig, rng: np.random.Generator,
                arch: NetArch = NetArch()) -> PolicyNet:
    channels = len(critic_manifest(fcfg, cfg.num_agents))
    return PolicyNet(channels, cfg.lattice_cols, NUM_ACTIONS, rng, arch)


def make_value_net(cfg: EnvConfig, fcfg: FeatureConfig, rng: np.random.Generator,
                   arch: NetArch = NetArch()) -> PolicyNet:
    """State-value network: the critic config's planes minus action planes, scalar output."""
    channels = len(critic_manifest(replace(fcfg, action_maps=False), cfg.num_agents))
    return PolicyNet(channels, cfg.lattice_cols, 1, rng, arch)


def actor_forward(net: PolicyNet, stacks: Sequence[np.ndarray], masks: Sequence[np.ndarray],
                  epsilon: float) -> np.ndarray:
    """(N, A) masked bounded-softmax policy rows of N agents, from one tape-free
    forward; each row equals that agent's batch-1 forward bit for bit."""
    with nn.no_grad():
        logits = net.forward(np.stack(stacks))
        probs = nn.masked_bounded_softmax(logits, np.asarray(masks, dtype=bool), epsilon)
    return probs.data


# ---------------------------------------------------------------------------
# network checkpoints with feature metadata
# ---------------------------------------------------------------------------


def save_network(path, net: PolicyNet, *, kind: str, manifest: Sequence[str],
                 extra: Optional[dict] = None) -> None:
    metadata = {
        "kind": kind,
        "manifest": list(manifest),
        "in_channels": net.in_channels,
        "grid_size": net.grid_size,
        "out_dim": net.out_dim,
        "arch": asdict(net.arch),
    }
    if extra:
        metadata.update(extra)
    nn.save_checkpoint(path, [(name, p.data) for name, p in net.params.items()], metadata)


def load_network(path) -> tuple[PolicyNet, dict]:
    """The network of a ``save_network`` file, whose layers must be exactly
    the ``layer_shapes`` of its header's sizes."""
    params, meta = nn.load_checkpoint(path)
    try:
        arch = NetArch(**meta["arch"])
        sizes = (int(meta["in_channels"]), int(meta["grid_size"]), int(meta["out_dim"]))
        want = layer_shapes(*sizes, arch)
    except (KeyError, TypeError, ValueError, OverflowError, ConfigurationError) as exc:
        raise DataError(f"{path}: not a network checkpoint ({exc!r})") from exc
    got = [(name, value.shape) for name, value in params.items()]
    for w, g in zip_longest(want, got, fillvalue=("no layer",)):
        if w != g:
            raise DataError(f"{path}: the header's sizes give {' '.join(map(str, w))} where "
                            f"the file holds {' '.join(map(str, g))}")
    bad = [name for name, value in params.items() if not np.isfinite(value).all()]
    if bad:
        raise DataError(f"{path}: non-finite parameters in {', '.join(bad)}")
    return PolicyNet(*sizes, None, arch, values=params), meta
