"""Command-line entry points and plain-text configuration parsing.

Commands: ``train``, ``evaluate``, ``ablate-features``, ``ingest``,
``sweep-coverage-altitude``. Every command writes a ``manifest.json``
(resolved config, seed, version, command line, output paths) before doing
any work, so a run can be reproduced from its manifest alone.

Exit codes: 0 success, 2 usage error, 3 data error, 4 training divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .environment import EnvConfig
from .errors import (
    ConfigurationError,
    DataError,
    TerrascoutError,
    TrainingDivergenceError,
    UsageError,
)
from .evaluation import PlannerSpec, run_benchmark, write_benchmark_csv
from .gridmap import (
    GroundTruthMap,
    ImportanceWeights,
    SensorModel,
    fmt,
    read_text_grid,
    write_text_grid,
)
from .planners import PLANNER_NAMES
from .policy import FeatureConfig, NetArch, actor_manifest, load_network
from .training import TrainConfig, VARIANTS, training_loop


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    seed: int
    version: str
    config: dict
    outputs: list[str]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# config files: `key = value` lines, '#' comments, dotted sections
# ---------------------------------------------------------------------------

ENV_KEYS = {
    "terrain_size": float,
    "map_resolution": float,
    "planning_resolution": float,
    "min_altitude": float,
    "max_altitude": float,
    "altitude_step": float,
    "num_agents": int,
    "budget": int,
    "comm_radius": "radius",
    "reward_alpha": float,
    "reward_beta": float,
    "footprint_factor": float,
    "coverage_altitude": float,
    "sensor": "sensor",
    "weight_interesting": float,
    "weight_uninteresting": float,
}

TRAIN_KEYS = {
    "train.rollout_block": int,
    "train.epochs": int,
    "train.batch_size": int,
    "train.actor_lr": float,
    "train.critic_lr": float,
    "train.lambda": float,
    "train.gamma": float,
    "train.target_copy_interval": int,
    "train.epsilon_start": float,
    "train.epsilon_end": float,
    "train.epsilon_anneal_missions": int,
    "train.variant": str,
    "train.total_missions": int,
    "train.grad_clip": float,
    "train.checkpoint_every_blocks": int,
    "train.conv_channels": "ints",
    "train.conv_strides": "ints",
    "train.kernel_size": int,
    "train.padding": int,
    "train.mlp_sizes": "ints",
}

FEATURE_PREFIX = "features."


def parse_config_file(path) -> dict[str, str]:
    raw: dict[str, str] = {}
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    for ln_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {ln_no}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        raw[key] = value
    _validate_keys(raw, path)
    return raw


def _validate_keys(raw: dict[str, str], path) -> None:
    feature_names = set(FeatureConfig.__dataclass_fields__)
    for key in raw:
        if key in ENV_KEYS or key in TRAIN_KEYS:
            continue
        if key.startswith(FEATURE_PREFIX) and key[len(FEATURE_PREFIX):] in feature_names:
            continue
        raise UsageError(f"{path}: unknown config key '{key}'")


def _finite(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("not a finite number")
    return number


def _parse_value(key: str, value: str, kind):
    try:
        if kind is float:
            return _finite(value)
        if kind is int or kind is str:
            return kind(value)
        if kind == "radius":
            if value.lower() in ("inf", "infinite", "unlimited"):
                return math.inf
            return _finite(value)
        if kind == "ints":
            return tuple(int(tok) for tok in value.replace(",", " ").split())
        if kind == "sensor":
            pairs = []
            for tok in value.split(","):
                alt, acc = tok.split(":")
                pairs.append((_finite(alt), _finite(acc)))
            return SensorModel(tuple(pairs))
    except (ValueError, ConfigurationError) as exc:
        raise UsageError(f"bad value for config key '{key}': {value} ({exc})") from exc
    raise UsageError(f"bad value for config key '{key}'")


def build_env_config(raw: dict[str, str]) -> EnvConfig:
    kwargs = {}
    w1 = w2 = None
    for key, kind in ENV_KEYS.items():
        if key not in raw:
            continue
        value = _parse_value(key, raw[key], kind)
        if key == "weight_interesting":
            w1 = value
        elif key == "weight_uninteresting":
            w2 = value
        else:
            kwargs[key] = value
    if w1 is not None or w2 is not None:
        w1 = 0.8 if w1 is None else w1
        w2 = (1.0 - w1) if w2 is None else w2
        kwargs["weights"] = ImportanceWeights(w1, w2)
    try:
        return EnvConfig(**kwargs)
    except ConfigurationError as exc:
        raise UsageError(str(exc)) from exc


def build_train_config(raw: dict[str, str]) -> TrainConfig:
    kwargs = {}
    arch_kwargs = {}
    rename = {"train.lambda": "td_lambda"}
    arch_fields = {
        "train.conv_channels": "conv_channels",
        "train.conv_strides": "conv_strides",
        "train.kernel_size": "kernel_size",
        "train.padding": "padding",
        "train.mlp_sizes": "mlp_sizes",
    }
    for key, kind in TRAIN_KEYS.items():
        if key not in raw:
            continue
        value = _parse_value(key, raw[key], kind)
        if key in arch_fields:
            arch_kwargs[arch_fields[key]] = value
        else:
            kwargs[rename.get(key, key.removeprefix("train."))] = value
    if arch_kwargs:
        from dataclasses import replace

        kwargs["arch"] = replace(NetArch(), **arch_kwargs)
    try:
        return TrainConfig(**kwargs)
    except ConfigurationError as exc:
        raise UsageError(str(exc)) from exc


def build_feature_config(raw: dict[str, str]) -> FeatureConfig:
    fcfg = FeatureConfig()
    for key, value in raw.items():
        if not key.startswith(FEATURE_PREFIX):
            continue
        name = key[len(FEATURE_PREFIX):]
        flag = value.strip().lower()
        if flag not in ("on", "off", "true", "false", "1", "0"):
            raise UsageError(f"feature toggle '{key}' must be on or off, got '{value}'")
        fcfg = fcfg.with_toggle(name, flag in ("on", "true", "1"))
    return fcfg


def _config_snapshot(cfg: EnvConfig, fcfg: FeatureConfig,
                     tcfg: Optional[TrainConfig] = None) -> dict:
    snap = {
        "terrain_size": cfg.terrain_size,
        "map_resolution": cfg.map_resolution,
        "planning_resolution": cfg.planning_resolution,
        "min_altitude": cfg.min_altitude,
        "max_altitude": cfg.max_altitude,
        "altitude_step": cfg.altitude_step,
        "num_agents": cfg.num_agents,
        "budget": cfg.budget,
        "comm_radius": "inf" if math.isinf(cfg.comm_radius) else cfg.comm_radius,
        "sensor": [list(pair) for pair in cfg.sensor.table],
        "weights": [cfg.weights.w1, cfg.weights.w2],
        "reward_alpha": cfg.reward_alpha,
        "reward_beta": cfg.reward_beta,
        "footprint_factor": cfg.footprint_factor,
        "coverage_altitude": cfg.coverage_altitude,
        "features": {k: getattr(fcfg, k) for k in fcfg.__dataclass_fields__},
    }
    if tcfg is not None:
        snap["train"] = {
            "rollout_block": tcfg.rollout_block,
            "epochs": tcfg.epochs,
            "batch_size": tcfg.batch_size,
            "actor_lr": tcfg.actor_lr,
            "critic_lr": tcfg.critic_lr,
            "lambda": tcfg.td_lambda,
            "gamma": tcfg.gamma,
            "target_copy_interval": tcfg.target_copy_interval,
            "epsilon_start": tcfg.epsilon_start,
            "epsilon_end": tcfg.epsilon_end,
            "epsilon_anneal_missions": tcfg.epsilon_anneal_missions,
            "variant": tcfg.variant,
            "total_missions": tcfg.total_missions,
            "grad_clip": tcfg.grad_clip,
            "checkpoint_every_blocks": tcfg.checkpoint_every_blocks,
            "arch": tcfg.arch.to_metadata(),
        }
    return snap


# ---------------------------------------------------------------------------
# raster ingestion
# ---------------------------------------------------------------------------


def ingest_raster(path, threshold: float) -> tuple[GroundTruthMap, float]:
    """Threshold a scalar raster into a binary ground-truth map.

    Cells with value >= threshold become interesting. Returns the map and
    its interesting fraction.
    """
    values, res = read_text_grid(path)
    gt = GroundTruthMap((values >= threshold).astype(np.uint8), res)
    return gt, gt.interesting_fraction()


def load_ground_truth(path) -> GroundTruthMap:
    values, res = read_text_grid(path)
    if not np.isin(values, (0.0, 1.0)).all():
        raise DataError(f"{path}: ground-truth cells must be 0 or 1")
    return GroundTruthMap(values.astype(np.uint8), res)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _load_configs(args) -> tuple[EnvConfig, FeatureConfig, TrainConfig, dict]:
    raw = parse_config_file(args.config) if args.config else {}
    return build_env_config(raw), build_feature_config(raw), build_train_config(raw), raw


def cmd_train(args) -> int:
    from dataclasses import replace

    cfg, fcfg, tcfg, _ = _load_configs(args)
    if args.variant:
        tcfg = replace(tcfg, variant=args.variant)
    if args.missions:
        tcfg = replace(tcfg, total_missions=args.missions)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command="train",
        argv=list(sys.argv[1:]),
        seed=args.seed,
        version=__version__,
        config=_config_snapshot(cfg, fcfg, tcfg),
        outputs=[str(out / "training_log.csv"), str(out / "actor.ckpt")],
    )
    manifest.write(out / "manifest.json")
    result = training_loop(
        cfg, tcfg, fcfg, args.seed, out,
        progress=None if args.quiet else _print_block,
    )
    print(f"trained {len(result.mission_returns)} missions -> {result.actor_path}")
    return 0


def _print_block(row: dict) -> None:
    print(
        f"block {row['block']:4d}  missions {row['missions_done']:6d}  "
        f"return {row['mean_return']:8.4f}  eps {row['epsilon']:.3f}"
    )


def _planner_specs(args, fcfg: FeatureConfig) -> list[PlannerSpec]:
    specs = []
    actor = None
    for name in args.planner:
        if name not in PLANNER_NAMES:
            raise UsageError(f"unknown planner '{name}' (choose from {PLANNER_NAMES})")
        if name == "learned":
            if not args.actor_weights:
                raise UsageError("--actor-weights is required for the learned planner")
            if not args.actor_weights.is_file():
                raise UsageError(f"actor weights not found: {args.actor_weights}")
            if actor is None:
                actor, meta = load_network(args.actor_weights)
                kind, planes = meta.get("kind"), meta.get("manifest")
                if kind != "actor" or planes != list(actor_manifest(fcfg)):
                    raise DataError(
                        f"{args.actor_weights}: a {kind} network reading {planes}; the "
                        f"configured features need an actor reading {list(actor_manifest(fcfg))}"
                    )
            specs.append(PlannerSpec("learned", actor=actor, mode=args.learned_mode))
        else:
            specs.append(PlannerSpec(name))
    if not specs:
        raise UsageError("at least one --planner is required")
    return specs


def _apply_overrides(cfg: EnvConfig, args) -> EnvConfig:
    from dataclasses import replace
    kwargs = {}
    if getattr(args, "agents", None):
        kwargs["num_agents"] = args.agents
    if getattr(args, "comm_radius", None) is not None:
        kwargs["comm_radius"] = _parse_value("comm_radius", args.comm_radius, "radius")
    return replace(cfg, **kwargs) if kwargs else cfg


def cmd_evaluate(args) -> int:
    cfg, fcfg, _, _ = _load_configs(args)
    cfg = _apply_overrides(cfg, args)
    if args.missions < 2:
        raise UsageError("--missions must be at least 2")
    specs = _planner_specs(args, fcfg)
    terrain = load_ground_truth(args.terrain) if args.terrain else None
    if terrain is not None:
        expected = cfg.map_cells
        if terrain.cells.shape != (expected, expected):
            raise DataError(
                f"terrain grid {terrain.cells.shape} does not match the configured "
                f"{expected}x{expected} map"
            )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command="evaluate",
        argv=list(sys.argv[1:]),
        seed=args.seed,
        version=__version__,
        config=_config_snapshot(cfg, fcfg),
        outputs=[str(out / "benchmark.csv")],
    )
    manifest.write(out / "manifest.json")
    stats = run_benchmark(
        specs, args.missions, args.seed, cfg,
        fcfg=fcfg, terrain=terrain, threads=args.threads,
        dump_dir=(out / "missions") if args.dump_maps else None,
        local_dir=out if args.local_metrics else None,
    )
    write_benchmark_csv(out / "benchmark.csv", stats)
    for name in sorted(stats):
        st = stats[name]
        print(
            f"{name:12s} final entropy {st.entropy_mean[-1]:.4f} "
            f"+- {st.entropy_std[-1]:.4f}  f1 {st.f1_mean[-1]:.4f}"
        )
    return 0


def cmd_ablate_features(args) -> int:
    cfg, fcfg, tcfg, _ = _load_configs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    toggles = [tok.strip() for tok in (args.toggles or "").split(",") if tok.strip()]
    feature_names = set(FeatureConfig.__dataclass_fields__)
    plans: list[tuple[str, FeatureConfig]] = []
    if not toggles:
        plans.append(("full", fcfg))
    for tok in toggles:
        enable = tok.startswith("+")
        name = tok.lstrip("+-")
        if name not in feature_names:
            raise UsageError(f"unknown feature plane '{name}'")
        plans.append((("with_" if enable else "without_") + name,
                      fcfg.with_toggle(name, enable)))
    manifest = RunManifest(
        command="ablate-features",
        argv=list(sys.argv[1:]),
        seed=args.seed,
        version=__version__,
        config=_config_snapshot(cfg, fcfg, tcfg),
        outputs=[str(out / label / "benchmark.csv") for label, _ in plans],
    )
    manifest.write(out / "manifest.json")
    for label, toggled in plans:
        run_dir = out / label
        result = training_loop(cfg, tcfg, toggled, args.seed, run_dir)
        stats = run_benchmark(
            [PlannerSpec("learned", actor=result.actor)],
            max(args.missions, 2), args.seed + 1, cfg, fcfg=toggled,
        )
        write_benchmark_csv(run_dir / "benchmark.csv", stats)
        st = stats["learned"]
        print(f"{label:28s} final entropy {st.entropy_mean[-1]:.4f}")
    return 0


def cmd_ingest(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command="ingest",
        argv=list(sys.argv[1:]),
        seed=0,
        version=__version__,
        config={"input": str(args.input), "threshold": args.threshold},
        outputs=[str(out / "ground_truth.txt")],
    )
    manifest.write(out / "manifest.json")
    gt, fraction = ingest_raster(args.input, args.threshold)
    write_text_grid(out / "ground_truth.txt", gt.cells.astype(np.float64), gt.resolution)
    print(f"ingested {gt.width}x{gt.height} raster: interesting fraction {fraction:.4f}")
    if fraction == 0.0:
        print("warning: degenerate terrain, no cell reaches the threshold")
    return 0


def cmd_sweep_coverage_altitude(args) -> int:
    cfg, fcfg, _, _ = _load_configs(args)
    if args.missions < 2:
        raise UsageError("--missions must be at least 2")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command="sweep-coverage-altitude",
        argv=list(sys.argv[1:]),
        seed=args.seed,
        version=__version__,
        config=_config_snapshot(cfg, fcfg),
        outputs=[str(out / "coverage_sweep.csv")],
    )
    manifest.write(out / "manifest.json")
    from dataclasses import replace
    rows = []
    for level in range(cfg.altitude_levels):
        alt = cfg.altitude_of_level(level)
        stats = run_benchmark(
            [PlannerSpec("coverage")], args.missions, args.seed,
            replace(cfg, coverage_altitude=alt), fcfg=fcfg,
        )["coverage"]
        rows.append((alt, stats.entropy_mean[-1], stats.f1_mean[-1]))
    with open(out / "coverage_sweep.csv", "w", encoding="ascii") as fh:
        fh.write("altitude,entropy_mean,f1_mean\n")
        for row in rows:
            fh.write(",".join(map(fmt, row)) + "\n")
    best = min(rows, key=lambda r: r[1])
    print(f"best coverage altitude by final entropy: {best[0]} m")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="terrascout",
        description="Cooperative multi-UAV terrain monitoring: training, "
        "evaluation, and data tooling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_seed=True):
        p.add_argument("--config", type=Path, default=None, help="key=value config file")
        if with_seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path, required=True, help="output directory")

    p_train = sub.add_parser("train", help="run the actor-critic training loop")
    common(p_train)
    p_train.add_argument("--variant", choices=VARIANTS, default=None)
    p_train.add_argument("--missions", type=int, default=None,
                         help="override train.total_missions")
    p_train.add_argument("--quiet", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="benchmark planners on seeded missions")
    common(p_eval)
    p_eval.add_argument("--planner", action="append", default=[],
                        help=f"one of {PLANNER_NAMES}; repeatable")
    p_eval.add_argument("--missions", type=int, default=50)
    p_eval.add_argument("--threads", type=int, default=1,
                        help="worker processes that run the missions")
    p_eval.add_argument("--agents", type=int, default=None, help="override team size")
    p_eval.add_argument("--comm-radius", default=None,
                        help="override communication radius in metres, or 'inf'")
    p_eval.add_argument("--actor-weights", type=Path, default=None)
    p_eval.add_argument("--learned-mode", choices=("sample", "argmax"), default="sample")
    p_eval.add_argument("--terrain", type=Path, default=None,
                        help="fixed ground-truth text grid instead of random terrains")
    p_eval.add_argument("--dump-maps", action="store_true")
    p_eval.add_argument("--local-metrics", action="store_true",
                        help="also score each agent's own local map")
    p_eval.set_defaults(func=cmd_evaluate)

    p_abl = sub.add_parser("ablate-features", help="train/evaluate with planes toggled")
    common(p_abl)
    p_abl.add_argument("--toggles", default="",
                       help="comma list of plane names; prefix '+' to add, default removes")
    p_abl.add_argument("--missions", type=int, default=10,
                       help="benchmark missions per toggle")
    p_abl.set_defaults(func=cmd_ablate_features)

    p_ing = sub.add_parser("ingest", help="threshold a scalar raster into ground truth")
    p_ing.add_argument("--input", type=Path, required=True)
    p_ing.add_argument("--threshold", type=float, required=True)
    p_ing.add_argument("--out", type=Path, required=True)
    p_ing.set_defaults(func=cmd_ingest)

    p_sweep = sub.add_parser("sweep-coverage-altitude",
                             help="pick the best coverage altitude empirically")
    common(p_sweep)
    p_sweep.add_argument("--missions", type=int, default=20)
    p_sweep.set_defaults(func=cmd_sweep_coverage_altitude)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except TrainingDivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    except TerrascoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
