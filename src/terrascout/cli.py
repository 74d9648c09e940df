"""Command-line entry points and plain-text configuration parsing.

Commands: ``train``, ``evaluate``, ``ablate-features``, ``ingest``,
``sweep-coverage-altitude``. Every command writes a ``manifest.json``
(seed, version, command line, output paths, and under ``config`` the text
of every config key the command reads) before doing any work. Those
``config`` entries written back as ``key = value`` lines rebuild equal
configs, so a run can be reproduced from its manifest alone.

Exit codes: 0 success, 2 usage error, 3 data error, 4 training divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .environment import NUM_ACTIONS, EnvConfig, check_terrain
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
    atomic_open,
    read_text_grid,
    write_csv,
    write_text_grid,
)
from .planners import PLANNERS
from .policy import ACTOR_PLANES, FeatureConfig, NetArch, actor_manifest, layer_shapes, load_network
from .training import TrainConfig, VARIANTS, run_outputs, training_loop


# ---------------------------------------------------------------------------
# the config schema: `key = value` lines, '#' comments, dotted sections
# ---------------------------------------------------------------------------

# Every field of these dataclasses is a config key. A field named after a
# section (EnvConfig.weights, TrainConfig.arch) nests that section instead.
_SECTIONS = {
    "env": EnvConfig,
    "weights": ImportanceWeights,
    "train": TrainConfig,
    "arch": NetArch,
    "features": FeatureConfig,
}
_PREFIX = {"train": "train.", "arch": "train.", "features": "features."}
_KEY_NAMES = {
    ("weights", "w1"): "weight_interesting",
    ("weights", "w2"): "weight_uninteresting",
    ("train", "td_lambda"): "train.lambda",
}
_DEFAULTS = {section: cls() for section, cls in _SECTIONS.items()}

# config key -> (section, field)
CONFIG_KEYS: dict[str, tuple[str, str]] = {
    _KEY_NAMES.get((section, f.name), _PREFIX.get(section, "") + f.name): (section, f.name)
    for section, cls in _SECTIONS.items()
    for f in fields(cls)
    if f.name not in _SECTIONS
}

_FLAGS = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}


def parse_config_file(path) -> dict[str, str]:
    raw: dict[str, str] = {}
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc})") from exc
    for ln_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}: line {ln_no}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}: unknown config key '{key}'")
        raw[key] = value
    return raw


def _finite(text: str) -> float:
    number = float(text)
    if not math.isfinite(number):
        raise ValueError("not a finite number")
    return number


def _parse_value(key: str, text: str):
    """Parse one value; its kind is the type of its field's default."""
    section, name = CONFIG_KEYS[key]
    kind = type(getattr(_DEFAULTS[section], name))
    try:
        if kind is bool:
            flag = _FLAGS.get(text.strip().lower())
            if flag is None:
                raise ValueError("must be on or off")
            return flag
        if kind is float:
            if key == "comm_radius" and text.lower() in ("inf", "infinite", "unlimited"):
                return math.inf
            return _finite(text)
        if kind is tuple:
            return tuple(int(tok) for tok in text.replace(",", " ").split())
        if kind is SensorModel:
            pairs = [tok.split(":") for tok in text.split(",")]
            return SensorModel(tuple((_finite(alt), _finite(acc)) for alt, acc in pairs))
        return kind(text)  # int or str
    except (ValueError, ConfigurationError) as exc:
        raise UsageError(f"bad value for config key '{key}': {text} ({exc})") from exc


def _render(value) -> str:
    """The config-file text of a value; ``_parse_value`` reads it back equal."""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    if isinstance(value, SensorModel):
        return ", ".join(f"{alt!r}:{acc!r}" for alt, acc in value.table)
    return repr(value) if isinstance(value, float) else str(value)


def _build(raw: dict[str, str], section: str):
    """One section's dataclass from the keys present in ``raw``; defaults fill the rest."""
    kwargs = {name: _parse_value(key, raw[key])
              for key, (sec, name) in CONFIG_KEYS.items() if sec == section and key in raw}
    if section == "weights" and "w1" in kwargs and "w2" not in kwargs:
        kwargs["w2"] = 1.0 - kwargs["w1"]
    cls = _SECTIONS[section]
    kwargs.update({f.name: _build(raw, f.name) for f in fields(cls) if f.name in _SECTIONS})
    try:
        return cls(**kwargs)
    except ConfigurationError as exc:
        raise UsageError(str(exc)) from exc


def build_env_config(raw: dict[str, str]) -> EnvConfig:
    return _build(raw, "env")


def build_train_config(raw: dict[str, str]) -> TrainConfig:
    return _build(raw, "train")


def build_feature_config(raw: dict[str, str]) -> FeatureConfig:
    return _build(raw, "features")


def _config_record(cfg: EnvConfig, fcfg: FeatureConfig,
                   tcfg: Optional[TrainConfig] = None) -> dict[str, str]:
    """Every key of the sections a command uses, as its config-file text."""
    sections = {"env": cfg, "weights": cfg.weights, "features": fcfg}
    if tcfg is not None:
        sections.update(train=tcfg, arch=tcfg.arch)
    return {key: _render(getattr(sections[section], name))
            for key, (section, name) in CONFIG_KEYS.items() if section in sections}


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


def _load_configs(args) -> tuple[EnvConfig, FeatureConfig, TrainConfig]:
    """The configs of ``--config``; a flag whose dest is a config key overrides that key."""
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    raw = parse_config_file(args.config) if args.config else {}
    raw.update({key: str(value) for key, value in vars(args).items()
                if key in CONFIG_KEYS and value is not None})
    return build_env_config(raw), build_feature_config(raw), build_train_config(raw)


def _start_run(args, config: dict, outputs: Sequence[str]) -> Path:
    """Create ``--out`` and write its manifest.json before any work is done.
    An ``--out`` that already holds a manifest is another run's: writing
    beside its files would mix the two runs, so it is a usage error."""
    out = Path(args.out)
    if (out / "manifest.json").exists():
        raise UsageError(f"--out {out} already holds a run's manifest.json; choose a new directory")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise UsageError(f"--out {out}: cannot make a directory there ({exc.strerror})") from exc
    manifest = {
        "command": args.command,
        "argv": list(sys.argv[1:]),
        "seed": getattr(args, "seed", 0),
        "version": __version__,
        "config": config,
        "outputs": [str(out / name) for name in outputs],
    }
    with atomic_open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _check_networks(cfg: EnvConfig, fcfg: FeatureConfig, tcfg: TrainConfig, what: str) -> None:
    """Checks before ``--out`` exists what training finds only later: the
    actor needs an input plane, and the arch must keep the lattice at least
    1x1. The actor, the critic and central-qv's V net read the same lattice
    through the same arch, so the actor's ``layer_shapes`` checks all three."""
    if not actor_manifest(fcfg):
        raise UsageError(f"{what} leaves the actor no input plane; enable one of "
                         f"{', '.join(ACTOR_PLANES)}")
    try:
        layer_shapes(len(actor_manifest(fcfg)), cfg.lattice_cols, NUM_ACTIONS, tcfg.arch)
    except ConfigurationError as exc:
        raise UsageError(str(exc)) from exc


def cmd_train(args) -> int:
    cfg, fcfg, tcfg = _load_configs(args)
    _check_networks(cfg, fcfg, tcfg, "the feature config")
    out = _start_run(args, _config_record(cfg, fcfg, tcfg), run_outputs(tcfg.variant))
    training_loop(cfg, tcfg, fcfg, args.seed, out, progress=None if args.quiet else _print_block)
    print(f"trained {tcfg.total_missions} missions -> {out / 'actor.ckpt'}")
    return 0


def _print_block(row: dict) -> None:
    print(
        f"block {row['block']:4d}  missions {row['missions_done']:6d}  "
        f"return {row['mean_return']:8.4f}  eps {row['epsilon']:.3f}"
    )


def _planner_specs(args, cfg: EnvConfig, fcfg: FeatureConfig) -> list[PlannerSpec]:
    specs = []
    for k, name in enumerate(args.planner):
        if name not in PLANNERS:
            raise UsageError(f"unknown planner '{name}' (choose from {tuple(PLANNERS)})")
        if name in args.planner[:k]:
            raise UsageError(f"--planner '{name}' is given more than once")
        if name == "learned":
            if not args.actor_weights:
                raise UsageError("--actor-weights is required for the learned planner")
            if not args.actor_weights.is_file():
                raise UsageError(f"actor weights not found: {args.actor_weights}")
            actor, meta = load_network(args.actor_weights)
            kind, planes = meta.get("kind"), meta.get("manifest")
            if kind != "actor" or planes != list(actor_manifest(fcfg)):
                raise DataError(
                    f"{args.actor_weights}: a {kind} network reading {planes}; the "
                    f"configured features need an actor reading {list(actor_manifest(fcfg))}"
                )
            if actor.grid_size != cfg.lattice_cols:
                raise DataError(f"{args.actor_weights}: an actor for a {actor.grid_size}-column "
                                f"lattice; the config's lattice has {cfg.lattice_cols} columns")
            specs.append(PlannerSpec("learned", actor=actor, mode=args.learned_mode or "sample"))
        else:
            specs.append(PlannerSpec(name))
    if not specs:
        raise UsageError("at least one --planner is required")
    if "learned" not in args.planner:
        for flag, value in (("--actor-weights", args.actor_weights),
                            ("--learned-mode", args.learned_mode)):
            if value is not None:
                raise UsageError(f"{flag} is read only with --planner learned")
    return specs


def cmd_evaluate(args) -> int:
    cfg, fcfg, _ = _load_configs(args)
    if args.missions < 2:
        raise UsageError("--missions must be at least 2")
    if args.threads < 1:
        raise UsageError("--threads must be at least 1")
    specs = _planner_specs(args, cfg, fcfg)
    if "coverage" in args.planner:
        try:
            cfg.level_of_altitude(cfg.coverage_altitude)
        except ConfigurationError as exc:
            raise UsageError(f"coverage_altitude: {exc}") from exc
    if args.terrain and not args.terrain.is_file():
        raise UsageError(f"terrain file not found: {args.terrain}")
    terrain = load_ground_truth(args.terrain) if args.terrain else None
    if terrain is not None:
        try:
            check_terrain(terrain, cfg)
        except ConfigurationError as exc:
            raise DataError(str(exc)) from exc
        if not terrain.cells.any():
            raise DataError(f"{args.terrain}: terrain has no interesting cells")
    out = _start_run(args, _config_record(cfg, fcfg), ["benchmark.csv"])
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
    cfg, fcfg, tcfg = _load_configs(args)
    if args.missions < 2:
        raise UsageError("--missions must be at least 2")
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
        label = ("with_" if enable else "without_") + name
        if label in dict(plans):
            raise UsageError(f"toggle '{tok}' repeats an earlier toggle of '{name}'")
        plans.append((label, fcfg.with_toggle(name, enable)))
    for label, toggled in plans:
        _check_networks(cfg, toggled, tcfg, f"plan '{label}'")
    out = _start_run(args, _config_record(cfg, fcfg, tcfg),
                     [f"{label}/benchmark.csv" for label, _ in plans])
    for label, toggled in plans:
        run_dir = out / label
        actor = training_loop(cfg, tcfg, toggled, args.seed, run_dir)
        stats = run_benchmark(
            [PlannerSpec("learned", actor=actor)],
            args.missions, args.seed + 1, cfg, fcfg=toggled,
        )
        write_benchmark_csv(run_dir / "benchmark.csv", stats)
        st = stats["learned"]
        print(f"{label:28s} final entropy {st.entropy_mean[-1]:.4f}")
    return 0


def cmd_ingest(args) -> int:
    if not math.isfinite(args.threshold):
        raise UsageError(f"--threshold must be a finite number, got {args.threshold}")
    if not args.input.is_file():
        raise UsageError(f"input raster not found: {args.input}")
    gt, fraction = ingest_raster(args.input, args.threshold)
    out = _start_run(args, {"input": str(args.input), "threshold": args.threshold},
                     ["ground_truth.txt"])
    write_text_grid(out / "ground_truth.txt", gt.cells.astype(np.float64), gt.resolution)
    print(f"ingested {gt.width}x{gt.height} raster: interesting fraction {fraction:.4f}")
    if fraction == 0.0:
        print("warning: degenerate terrain, no cell reaches the threshold")
    return 0


def cmd_sweep_coverage_altitude(args) -> int:
    cfg, fcfg, _ = _load_configs(args)
    if args.missions < 2:
        raise UsageError("--missions must be at least 2")
    out = _start_run(args, _config_record(cfg, fcfg), ["coverage_sweep.csv"])
    rows = []
    for level in range(cfg.altitude_levels):
        alt = cfg.altitude_of_level(level)
        stats = run_benchmark(
            [PlannerSpec("coverage")], args.missions, args.seed,
            replace(cfg, coverage_altitude=alt), fcfg=fcfg,
        )["coverage"]
        rows.append((alt, stats.entropy_mean[-1], stats.f1_mean[-1]))
    write_csv(out / "coverage_sweep.csv", rows, ["altitude", "entropy_mean", "f1_mean"])
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

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path, required=True, help="output directory")

    p_train = sub.add_parser("train", help="run the actor-critic training loop")
    common(p_train)
    p_train.add_argument("--variant", dest="train.variant", choices=VARIANTS, default=None)
    p_train.add_argument("--missions", dest="train.total_missions", metavar="MISSIONS",
                         type=int, default=None, help="override train.total_missions")
    p_train.add_argument("--quiet", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="benchmark planners on seeded missions")
    common(p_eval)
    p_eval.add_argument("--planner", action="append", default=[],
                        help=f"one of {tuple(PLANNERS)}; repeatable")
    p_eval.add_argument("--missions", type=int, default=50)
    p_eval.add_argument("--threads", type=int, default=1,
                        help="worker processes that run the missions")
    p_eval.add_argument("--agents", dest="num_agents", metavar="AGENTS", type=int,
                        default=None, help="override team size")
    p_eval.add_argument("--comm-radius", dest="comm_radius", metavar="COMM_RADIUS", default=None,
                        help="override communication radius in metres, or 'inf'")
    p_eval.add_argument("--actor-weights", type=Path, default=None)
    p_eval.add_argument("--learned-mode", choices=("sample", "argmax"), help="default: sample")
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
