"""Span tracing of terrascout's layer boundaries, installed from outside.

``Tracer.install`` replaces each boundary function (or method) in every
terrascout module that looks it up with a wrapper that records a span:
(name, start, end, parent span, unit, mission, a, b). ``a`` and ``b`` carry
the counts behind the ratios (cells used and drawn, fresh and evaluated
cells, conv2d batch size). ``Tracer.uninstall`` puts the originals back.
Spans stay in memory; ``summarize`` derives the per-layer metrics from
them and ``write_csv`` saves them when the run ends.
"""

from __future__ import annotations

import csv
import sys
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

# (span name, defining module, function or Class.method)
BOUNDARIES = (
    ("gridmap.simulate_measurement", "terrascout.gridmap", "simulate_measurement"),
    ("gridmap.fuse_measurement", "terrascout.gridmap", "fuse_measurement"),
    ("gridmap.map_entropy", "terrascout.gridmap", "map_entropy"),
    ("gridmap.weighted_cell_entropy", "terrascout.gridmap", "weighted_cell_entropy"),
    ("gridmap.probs", "terrascout.gridmap", "OccupancyGrid.probs"),
    ("environment.reset", "terrascout.environment", "TerrainEnv.reset"),
    ("environment.step", "terrascout.environment", "TerrainEnv.step"),
    ("environment.valid_actions", "terrascout.environment", "valid_actions"),
    ("environment.exchange_messages", "terrascout.environment", "exchange_messages"),
    ("environment.generate_terrain", "terrascout.environment", "generate_terrain"),
    ("planners.greedy_ig.act", "terrascout.planners", "GreedyInfoGainPlanner.act"),
    ("planners.coverage.act", "terrascout.planners", "CoveragePlanner.act"),
    ("planners.random.act", "terrascout.planners", "RandomPlanner.act"),
    ("planners.expected_entropy_reduction", "terrascout.planners", "expected_entropy_reduction"),
    ("policy.build_actor_features", "terrascout.policy", "build_actor_features"),
    ("policy.build_critic_features", "terrascout.policy", "build_critic_features"),
    ("policy.actor_forward", "terrascout.policy", "actor_forward"),
    ("policy.net_forward", "terrascout.policy", "PolicyNet.forward"),
    ("nn.conv2d_fwd", "terrascout.nn", "conv2d"),
    ("nn.backward", "terrascout.nn", "Tensor.backward"),
    ("nn.adam_step", "terrascout.nn", "Adam.step"),
    ("nn.clip_grad_norm", "terrascout.nn", "clip_grad_norm"),
    ("training.training_loop", "terrascout.training", "training_loop"),
    ("training.rollout", "terrascout.training", "run_training_mission"),
    ("training.fill_targets", "terrascout.training", "_fill_block_targets"),
    ("training.critic_update", "terrascout.training", "critic_update"),
    ("training.actor_update", "terrascout.training", "actor_update"),
    ("training.advantages", "terrascout.training", "_batch_advantages"),
    ("training.save", "terrascout.policy", "save_network"),
    ("evaluation.run_benchmark", "terrascout.evaluation", "run_benchmark"),
    ("evaluation.run_mission", "terrascout.evaluation", "run_mission"),
    ("evaluation.roi_entropy", "terrascout.evaluation", "roi_entropy"),
    ("evaluation.f1_score", "terrascout.evaluation", "f1_score"),
    ("evaluation.write_benchmark_csv", "terrascout.evaluation", "write_benchmark_csv"),
)
CONV_BACKWARD = "nn.conv2d_bwd"  # the closure conv2d leaves on its output tensor
UNIT = "bench.unit"  # root span around one unit; its self time is the runner's own
SPAN_NAMES = tuple(b[0] for b in BOUNDARIES) + (CONV_BACKWARD, UNIT)
LAYERS = tuple(dict.fromkeys(name.split(".", 1)[0] for name in SPAN_NAMES))

# positional index of the mission index in the functions that run one mission
_MISSION_ARG = {"evaluation.run_mission": 3, "training.rollout": 4}


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.unit = -1
        self.mission = -1
        self._stack: list[int] = []
        self._patches: list = []
        self._fresh: dict = {}
        self._after = {
            "gridmap.simulate_measurement": self._noise_cells,
            "gridmap.fuse_measurement": self._note_fused,
            "gridmap.map_entropy": self._fresh_cells,
            "nn.conv2d_fwd": self._conv_batch,
        }

    # --- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "terrascout" or n.startswith("terrascout."))]
        try:
            for name, module, target in BOUNDARIES:
                owner = sys.modules[module]
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
                    continue
                original = getattr(owner, target)
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped)
        except (KeyError, AttributeError):
            self.uninstall()
            raise

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._fresh.clear()

    # --- recording --------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        after = self._after.get(name)
        mission_pos = _MISSION_ARG.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            outer_mission = self.mission
            if mission_pos is not None:
                self.mission = int(_arg(args, kwargs, mission_pos, "mission_index", 0))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, t0, perf_counter(), parent, self.unit, self.mission, 0, 0)
                raise
            else:
                t1 = perf_counter()
                a, b = after(args, kwargs, result) if after is not None else (0, 0)
                spans[idx] = (name, t0, t1, parent, self.unit, self.mission, a, b)
                return result
            finally:
                stack.pop()
                self.mission = outer_mission

        traced.__wrapped__ = fn
        return traced

    def run_unit(self, unit: int, fn, *args):
        """Call ``fn(*args)`` inside a root span for one unit of work."""
        self.unit = unit
        try:
            return self._wrap(UNIT, fn)(*args)
        finally:
            self.unit = -1

    def _noise_cells(self, args, kwargs, m):
        gt = _arg(args, kwargs, 0, "gt")
        return m.rect.width * m.rect.height, gt.height * gt.width

    def _grid_entry(self, grid) -> list:
        """[weak ref, rects fused since the last map_entropy, never evaluated]."""
        key = id(grid)
        entry = self._fresh.get(key)
        if entry is None or entry[0]() is not grid:
            fresh = self._fresh
            entry = [weakref.ref(grid, lambda _ref: fresh.pop(key, None)), [], True]
            fresh[key] = entry
        return entry

    def _note_fused(self, args, kwargs, grid):
        rect = _arg(args, kwargs, 1, "m").rect
        self._grid_entry(grid)[1].append(rect)
        return rect.width * rect.height, 0

    def _fresh_cells(self, args, kwargs, _result):
        """Cells fused since the previous map_entropy on this grid, and cells
        evaluated. The first evaluation of a grid counts every cell fresh."""
        grid = _arg(args, kwargs, 0, "grid")
        mask = _arg(args, kwargs, 2, "mask")
        entry = self._grid_entry(grid)
        evaluated = grid.log_odds.size if mask is None else int(np.count_nonzero(mask))
        if entry[2]:
            fresh = evaluated
        elif not entry[1]:
            fresh = 0
        else:
            touched = np.zeros(grid.log_odds.shape, dtype=bool)
            for rect in entry[1]:
                touched[rect.slices] = True
            if mask is not None:
                touched &= np.asarray(mask, dtype=bool)
            fresh = int(np.count_nonzero(touched))
        entry[1], entry[2] = [], False
        return fresh, evaluated

    def _conv_batch(self, args, kwargs, out):
        if out._backward is not None:
            out._backward = self._wrap(CONV_BACKWARD, out._backward)
        return _arg(args, kwargs, 0, "x").shape[0], 0

    # --- reporting --------------------------------------------------------

    def summarize(self) -> dict[str, float]:
        """Calls and inclusive seconds per boundary, self seconds per layer
        (span time minus direct child spans), and the ratios."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_s[s[3]] += s[2] - s[1]
        calls = dict.fromkeys(SPAN_NAMES, 0)
        incl = dict.fromkeys(SPAN_NAMES, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        a_sum = defaultdict(int)
        b_sum = defaultdict(int)
        for i, s in enumerate(spans):
            name, dur = s[0], s[2] - s[1]
            calls[name] += 1
            incl[name] += dur
            self_s[name.split(".", 1)[0]] += dur - child_s[i]
            a_sum[name] += s[6]
            b_sum[name] += s[7]

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out["gridmap.noise_cells_used_ratio"] = ratio(
            a_sum["gridmap.simulate_measurement"], b_sum["gridmap.simulate_measurement"])
        out["gridmap.entropy_fresh_ratio"] = ratio(
            a_sum["gridmap.map_entropy"], b_sum["gridmap.map_entropy"])
        out["policy.critic_builds_per_step"] = ratio(
            calls["policy.build_critic_features"], calls["environment.step"])
        out["nn.conv2d_fwd.mean_batch"] = ratio(a_sum["nn.conv2d_fwd"], calls["nn.conv2d_fwd"])
        return out

    def write_csv(self, path, origin: float) -> None:
        with open(path, "w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "start_s", "end_s", "parent", "unit", "mission", "a", "b"])
            for name, t0, t1, parent, unit, mission, a, b in self.spans:
                writer.writerow([name, f"{t0 - origin:.9f}", f"{t1 - origin:.9f}",
                                 parent, unit, mission, a, b])
