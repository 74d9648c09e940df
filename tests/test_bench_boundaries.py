"""The benchmark tracer's view of the package: every boundary it wraps exists.

``bench/spans.py`` looks functions and methods up by name and reads the
mission index of the mission runners by position. A rename or a reordered
signature would only show up when the benchmark runs; this module makes it
a unit-test failure instead. It reads ``bench/spans.py`` and changes nothing.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("terrascout_bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _resolve(module_name: str, target: str):
    owner = importlib.import_module(module_name)
    for part in target.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("name, module_name, target", spans.BOUNDARIES,
                         ids=[b[0] for b in spans.BOUNDARIES])
def test_boundary_resolves_to_a_function(name, module_name, target):
    assert callable(_resolve(module_name, target)), name


@pytest.mark.parametrize("name, position", [
    ("evaluation.run_mission", 3),
    ("training.rollout", 4),
])
def test_mission_index_sits_where_the_tracer_reads_it(name, position):
    assert spans._MISSION_ARG[name] == position
    _, module_name, target = next(b for b in spans.BOUNDARIES if b[0] == name)
    params = list(inspect.signature(_resolve(module_name, target)).parameters)
    assert params[position] == "mission_index"


@pytest.mark.parametrize("level, groups", [(1, 3), (0, 2)])
def test_greedy_act_makes_one_stacked_call_per_altitude(level, groups):
    """Six candidates at a middle altitude span three altitudes, five at the
    lowest span two: one ``expected_entropy_reduction`` span per altitude,
    each with three ``weighted_cell_entropy`` spans under it."""
    import numpy as np

    from terrascout.environment import AgentLocalState, EnvConfig
    from terrascout.gridmap import OccupancyGrid
    from terrascout.planners import GreedyInfoGainPlanner

    cfg = EnvConfig(terrain_size=25.0, map_resolution=0.5, num_agents=1, budget=4)
    n = cfg.map_cells
    log_odds = np.random.default_rng(0).normal(size=(n, n))
    local = AgentLocalState(0, OccupancyGrid(log_odds, 0.5), np.array([2, 2, level]),
                            np.array([[2, 2, level]]), 4)
    mask = np.array([True, True, True, True, True, level > 0])
    tracer = spans.Tracer()
    tracer.install()
    try:
        GreedyInfoGainPlanner().act(local, mask, cfg, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    stacked = [i for i, name in enumerate(names) if name == "planners.expected_entropy_reduction"]
    assert len(stacked) == groups
    for i in stacked:
        children = [s[0] for s in tracer.spans if s[3] == i]
        assert children == ["gridmap.weighted_cell_entropy"] * 3


def _traced(fn, *args):
    tracer = spans.Tracer()
    tracer.install()
    try:
        fn(*args)
    finally:
        tracer.uninstall()
    return tracer.spans


def _training_fixture():
    import numpy as np

    from terrascout.environment import EnvConfig
    from terrascout.policy import FeatureConfig, NetArch, make_actor, make_critic

    cfg = EnvConfig(terrain_size=20.0, map_resolution=0.5, planning_resolution=5.0,
                    num_agents=3, budget=3)
    arch = NetArch(conv_channels=(3, 4), conv_strides=(1, 2), mlp_sizes=(12,))
    fcfg = FeatureConfig()
    rng = np.random.default_rng(0)
    return cfg, fcfg, make_actor(cfg, fcfg, rng, arch), make_critic(cfg, fcfg, rng, arch)


def test_a_rollout_step_makes_one_batched_actor_call():
    """One ``policy.actor_forward`` span per step, and under it one
    ``nn.conv2d_fwd`` span per conv layer, each with the whole team as batch."""
    from terrascout.training import run_training_mission

    cfg, fcfg, actor, _ = _training_fixture()
    recorded = _traced(run_training_mission, actor, cfg, fcfg, 0, 0, 0.5, fcfg)

    def under_actor_forward(span):
        while span[3] >= 0:
            span = recorded[span[3]]
            if span[0] == "policy.actor_forward":
                return True
        return False

    names = [s[0] for s in recorded]
    assert names.count("policy.actor_forward") == names.count("environment.step") == cfg.budget
    convs = [s for s in recorded if s[0] == "nn.conv2d_fwd"]
    assert all(under_actor_forward(s) for s in convs)
    layers = len(actor.arch.conv_channels)
    assert [s[6] for s in convs] == [cfg.num_agents] * (cfg.budget * layers)


def test_a_minibatch_runs_the_actor_forward_once():
    """Per minibatch: the critic step's forward, the advantages' critic and
    actor forwards, and no forward inside the actor step."""
    from terrascout import nn
    from terrascout.training import (TrainConfig, TrainState, _optimise_minibatch,
                                     run_training_mission)

    cfg, fcfg, actor, critic = _training_fixture()
    batch, _ = run_training_mission(actor, cfg, fcfg, 0, 0, 0.5, fcfg)
    opts = (nn.Adam(actor.parameters(), 1e-3), nn.Adam(critic.parameters(), 1e-3))
    state = TrainState(actor, [critic], [], opts, 0, 0, 0)
    recorded = _traced(_optimise_minibatch, batch, state, TrainConfig())
    parents = sorted(recorded[s[3]][0] for s in recorded if s[0] == "policy.net_forward")
    assert parents == ["training.advantages", "training.advantages", "training.critic_update"]
