"""Config parsing, raster ingestion, and end-to-end command behaviour."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from terrascout.cli import (
    CONFIG_KEYS,
    _config_record,
    _load_configs,
    _planner_specs,
    build_env_config,
    build_feature_config,
    build_parser,
    build_train_config,
    ingest_raster,
    load_ground_truth,
    main,
    parse_config_file,
)
from terrascout.errors import DataError, UsageError
from terrascout.gridmap import write_text_grid
from terrascout.nn import load_checkpoint


SMOKE_CONFIG = """
# compact scenario for fast tests
terrain_size = 20.0
map_resolution = 0.5
planning_resolution = 5.0
num_agents = 2
budget = 3
comm_radius = 25.0
sensor = 5:0.9, 10:0.8, 15:0.7
weight_interesting = 0.8
weight_uninteresting = 0.2

train.total_missions = 4
train.rollout_block = 12
train.batch_size = 12
train.epochs = 1
train.actor_lr = 1e-3
train.critic_lr = 1e-3
train.epsilon_anneal_missions = 10
train.conv_channels = 3, 4
train.conv_strides = 1, 2
train.mlp_sizes = 12
"""


@pytest.fixture
def smoke_config(tmp_path):
    path = tmp_path / "smoke.cfg"
    path.write_text(SMOKE_CONFIG)
    return path


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_round_trip(smoke_config):
    raw = parse_config_file(smoke_config)
    cfg = build_env_config(raw)
    assert cfg.terrain_size == 20.0
    assert cfg.num_agents == 2
    assert cfg.sensor.accuracy_at(10.0) == 0.8
    assert cfg.weights.w1 == 0.8
    tcfg = build_train_config(raw)
    assert tcfg.total_missions == 4
    assert tcfg.arch.conv_channels == (3, 4)
    assert build_feature_config(raw) == build_feature_config({})


def test_unknown_config_key_is_named(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("terrain_sizzle = 50\n")
    with pytest.raises(UsageError, match="terrain_sizzle"):
        parse_config_file(path)


def test_feature_toggles_parse(tmp_path):
    path = tmp_path / "f.cfg"
    path.write_text("features.entropy_map = off\nfeatures.footprint_map = on\n")
    fcfg = build_feature_config(parse_config_file(path))
    assert not fcfg.entropy_map
    assert fcfg.footprint_map


def test_comm_radius_inf(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("comm_radius = inf\n")
    cfg = build_env_config(parse_config_file(path))
    assert math.isinf(cfg.comm_radius)


@pytest.mark.parametrize("line, flags", [
    ("train.actor_lr = nan", []),
    ("train.lambda = nan", []),
    ("train.grad_clip = inf", []),
    ("terrain_size = inf", []),
    ("terrain_size = -inf", []),
    ("comm_radius = nan", []),
    ("reward_alpha = nan", []),
    ("sensor = nan:0.9, 10:0.8", []),
    ("", ["--comm-radius", "nan"]),
])
def test_non_finite_config_value_is_usage_error(tmp_path, capsys, line, flags):
    path = tmp_path / "c.cfg"
    path.write_text(line + "\n")
    out = tmp_path / "out"
    rc = main(["evaluate", "--config", str(path), "--planner", "random",
               "--missions", "2", "--out", str(out)] + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


def test_directory_as_config_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["evaluate", "--config", str(tmp_path), "--planner", "random",
               "--missions", "2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"usage error: config file not found: {tmp_path}\n"
    assert not out.exists()


def test_non_utf8_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_bytes(b"num_agents = 2\n# \xff\n")
    out = tmp_path / "out"
    rc = main(["evaluate", "--config", str(path), "--planner", "random",
               "--missions", "2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {path}: not UTF-8 text") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("lines", [
    "terrain_size = 0",
    "map_resolution = 0",
    "map_resolution = -0.5",
    "planning_resolution = 0",
    "altitude_step = 0",
    "altitude_step = 1e-300",
    "footprint_factor = 0",
    "footprint_factor = -1",
    "comm_radius = -5",
    "weight_interesting = 1.5",
    "train.gamma = 1.5",
    "train.lambda = 1.5",
    "train.conv_strides = 0, 1",
    "train.conv_channels = 0, 4",
    "train.conv_channels = -2, 4",
    "train.mlp_sizes = 0",
    "train.kernel_size = 0",
    "train.padding = -1",
    "train.conv_channels = 8, 16, 32\ntrain.conv_strides = 1",
    # finite values whose map side, top-level footprint side or cell count is not
    "terrain_size = 1e308",
    "footprint_factor = 1e308",
    "map_resolution = 1e-300",
])
def test_out_of_range_config_value_is_usage_error(smoke_config, tmp_path, capsys, lines):
    config = tmp_path / "bad.cfg"
    config.write_text(smoke_config.read_text() + lines + "\n")
    out = tmp_path / "out"
    rc = main(["train", "--config", str(config), "--missions", "1", "--out", str(out), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


def test_td_zero_config_trains(smoke_config, tmp_path):
    # lambda = 0 is TD(0), one-step targets: a valid setting, not a zero to reject
    assert build_train_config({"train.lambda": "0"}).td_lambda == 0.0
    config = tmp_path / "td0.cfg"
    config.write_text(smoke_config.read_text() + "train.lambda = 0\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--missions", "1", "--out", str(out),
                 "--quiet"]) == 0
    _, meta = load_checkpoint(out / "critic.ckpt")
    assert meta["train_config"]["td_lambda"] == 0.0


@pytest.mark.parametrize("argv", [
    ["train", "--missions", "0", "--quiet"],
    ["evaluate", "--planner", "random", "--agents", "0"],
], ids=["train-missions-0", "evaluate-agents-0"])
def test_zero_override_is_usage_error(smoke_config, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--config", str(smoke_config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--quiet"],
    ["evaluate", "--planner", "random"],
    ["ablate-features"],
    ["sweep-coverage-altitude"],
], ids=["train", "evaluate", "ablate-features", "sweep-coverage-altitude"])
def test_negative_seed_is_usage_error(smoke_config, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(argv + ["--config", str(smoke_config), "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "usage error: --seed must be nonnegative, got -1\n"
    assert not out.exists()


def test_more_agents_than_lattice_columns_is_usage_error(smoke_config, tmp_path, capsys):
    # the smoke lattice is 20 m at 5 m: 4 columns
    out = tmp_path / "out"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "random",
               "--missions", "2", "--agents", "5", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "usage error: 5 agents do not fit on a 4-column lattice edge\n"
    assert not out.exists()


def test_non_integer_pool_factor_is_usage_error(smoke_config, tmp_path, capsys):
    # evaluate --planner random never pools a map, so only the config check catches it
    config = tmp_path / "pool.cfg"
    config.write_text(smoke_config.read_text() + "map_resolution = 0.3\n")
    out = tmp_path / "out"
    rc = main(["evaluate", "--config", str(config), "--planner", "random",
               "--missions", "2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "usage error: planning resolution must be a multiple of map resolution\n"
    assert not out.exists()


def _configs(raw):
    return build_env_config(raw), build_feature_config(raw), build_train_config(raw)


CFG_DIR = Path(__file__).resolve().parents[1] / "cfg"


@pytest.mark.parametrize("name", ["smoke.cfg", "full.cfg", "field.cfg"])
def test_committed_configs_build_and_round_trip(name):
    configs = _configs(parse_config_file(CFG_DIR / name))
    assert _configs(_config_record(*configs)) == configs


EDGE_TEXTS = [
    "0", "-1", "1", "0.5", "1e308", "-1e308", "1e-300", "5e-324", "nan", "inf", "-inf", "", " ",
    "1,", ",", "1, 2", "2, 4, 8", "5:0.9, 10:0.8, 15:0.7", "5:0.9", "0:0.9", str(2 ** 64),
    str(-2 ** 70), "on", "off", "coma", "decentralised",
]


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(
    st.sampled_from(sorted(CONFIG_KEYS)),
    st.one_of(st.sampled_from(EDGE_TEXTS), st.integers().map(str),
              st.floats().map(repr), st.text(max_size=12)),
    min_size=1, max_size=3,
))
def test_fuzzed_config_values_build_or_are_usage_errors(raw):
    # only the configs are built: a value like 1e308 or 10**9 channels is
    # valid and would allocate without bound in an environment or a network
    try:
        configs = _configs(raw)
    except UsageError:
        return
    assert _configs(_config_record(*configs)) == configs


# ---------------------------------------------------------------------------
# raster ingestion
# ---------------------------------------------------------------------------


def test_ingest_threshold_and_fraction(tmp_path):
    values = np.array([[20.0, 26.0], [30.0, 10.0]])
    raster = tmp_path / "raster.txt"
    write_text_grid(raster, values, 0.5)
    gt, fraction = ingest_raster(raster, 25.0)
    np.testing.assert_array_equal(gt.cells, [[0, 1], [1, 0]])
    assert fraction == pytest.approx(0.5)


def test_ingest_extreme_thresholds(tmp_path):
    values = np.array([[20.0, 26.0], [30.0, 10.0]])
    raster = tmp_path / "raster.txt"
    write_text_grid(raster, values, 0.5)
    gt_all, _ = ingest_raster(raster, -math.inf)
    assert gt_all.cells.all()
    gt_none, fraction = ingest_raster(raster, 100.0)
    assert not gt_none.cells.any()
    assert fraction == 0.0


def test_ingest_monotone_in_threshold(tmp_path):
    rng = np.random.default_rng(0)
    raster = tmp_path / "raster.txt"
    write_text_grid(raster, rng.uniform(0, 40, size=(20, 20)), 0.5)
    counts = []
    for thr in np.linspace(0, 40, 15):
        gt, _ = ingest_raster(raster, thr)
        counts.append(int(gt.cells.sum()))
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_ingest_rejects_non_finite(tmp_path):
    raster = tmp_path / "raster.txt"
    raster.write_text("2 1 0.5\nnan 3.0\n")
    with pytest.raises(DataError):
        ingest_raster(raster, 1.0)


# ---------------------------------------------------------------------------
# commands end to end
# ---------------------------------------------------------------------------


def test_train_command_writes_manifest_and_checkpoints(smoke_config, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "train", "--config", str(smoke_config), "--seed", "7", "--out", str(out), "--quiet",
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 7
    assert manifest["config"]["num_agents"] == "2"
    assert (out / "actor.ckpt").exists()
    assert (out / "training_log.csv").exists()


def test_train_determinism_byte_identical(smoke_config, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--config", str(smoke_config), "--seed", "3",
                 "--out", str(out1), "--quiet"]) == 0
    assert main(["train", "--config", str(smoke_config), "--seed", "3",
                 "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "training_log.csv").read_bytes() == (out2 / "training_log.csv").read_bytes()
    assert (out1 / "missions.csv").read_bytes() == (out2 / "missions.csv").read_bytes()


def test_train_variant_recorded_in_checkpoints(smoke_config, tmp_path):
    out = tmp_path / "qv"
    rc = main([
        "train", "--config", str(smoke_config), "--seed", "1", "--out", str(out),
        "--variant", "central-qv", "--missions", "2", "--quiet",
    ])
    assert rc == 0
    assert (out / "vnet.ckpt").exists()
    _, meta = load_checkpoint(out / "actor.ckpt")
    assert meta["variant"] == "central-qv"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train.variant"] == "central-qv"


@pytest.mark.parametrize("variant", ["coma", "central-qv", "actor-independent", "decentralised"])
def test_train_manifest_lists_exactly_the_files_written(variant, smoke_config, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--config", str(smoke_config), "--seed", "2", "--out", str(out),
                 "--variant", variant, "--missions", "2", "--quiet"]) == 0
    listed = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(listed) == sorted(str(p) for p in out.iterdir() if p.name != "manifest.json")
    assert (str(out / "vnet.ckpt") in listed) == (variant == "central-qv")


@pytest.mark.parametrize("under", [False, True])
def test_train_out_that_is_a_file_is_usage_error(under, smoke_config, tmp_path, capsys):
    out = smoke_config / "run" if under else smoke_config
    before = smoke_config.read_bytes()
    assert main(["train", "--config", str(smoke_config), "--missions", "2",
                 "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: --out {out}: ") and err.count("\n") == 1
    assert smoke_config.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["smoke.cfg"]


def test_train_out_holding_another_run_is_usage_error(smoke_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(smoke_config), "--variant", "central-qv",
                 "--missions", "2", "--out", str(out), "--quiet"]) == 0
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["train", "--config", str(smoke_config), "--missions", "2",
                 "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: --out {out} already holds") and err.count("\n") == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written


def test_manifest_records_every_train_key(smoke_config, tmp_path):
    config = tmp_path / "keys.cfg"
    config.write_text(smoke_config.read_text()
                      + "train.grad_clip = 2.5\ntrain.checkpoint_every_blocks = 7\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--missions", "1",
                 "--out", str(out), "--quiet"]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["train.grad_clip"] == "2.5"
    assert config["train.checkpoint_every_blocks"] == "7"
    for key in CONFIG_KEYS:
        assert key in config, key


def test_evaluate_command_and_determinism(smoke_config, tmp_path):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    argv = ["evaluate", "--config", str(smoke_config), "--seed", "5",
            "--planner", "random", "--planner", "coverage", "--missions", "3"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    b1 = (out1 / "benchmark.csv").read_bytes()
    assert b1 == (out2 / "benchmark.csv").read_bytes()
    assert b1.startswith(b"planner,checkpoint,entropy_mean")


def test_evaluate_rejects_single_mission(smoke_config, tmp_path):
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "random",
               "--missions", "1", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_evaluate_learned_requires_weights(smoke_config, tmp_path):
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "learned",
               "--missions", "2", "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["train", "--variant", "central-qv", "--missions", "1", "--quiet"],
    ["evaluate", "--planner", "random", "--missions", "2", "--agents", "3",
     "--comm-radius", "inf"],
    ["ablate-features", "--toggles", "entropy_map", "--missions", "2"],
], ids=["train", "evaluate", "ablate-features"])
def test_manifest_config_rebuilds_the_run_configs(smoke_config, tmp_path, argv):
    out = tmp_path / "run"
    args = argv + ["--config", str(smoke_config), "--out", str(out)]
    assert main(args) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    lines = tmp_path / "manifest.cfg"
    lines.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
    rebuilt = _configs(parse_config_file(lines))
    used = _load_configs(build_parser().parse_args(args))
    # evaluate reads no train.* key, so it records none
    compared = 2 if argv[0] == "evaluate" else 3
    assert rebuilt[:compared] == used[:compared]
    assert rebuilt[0].num_agents == (3 if argv[0] == "evaluate" else 2)


def test_evaluate_with_fixed_terrain(smoke_config, tmp_path):
    terrain = tmp_path / "gt.txt"
    cells = np.zeros((40, 40))
    cells[:20] = 1.0
    write_text_grid(terrain, cells, 0.5)
    out = tmp_path / "fixed"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "greedy-ig",
               "--missions", "2", "--terrain", str(terrain), "--out", str(out)])
    assert rc == 0
    assert (out / "benchmark.csv").exists()


def test_evaluate_terrain_shape_mismatch_is_data_error(smoke_config, tmp_path):
    terrain = tmp_path / "gt.txt"
    write_text_grid(terrain, np.ones((4, 4)), 0.5)
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "random",
               "--missions", "2", "--terrain", str(terrain), "--out", str(tmp_path / "x")])
    assert rc == 3


def test_evaluate_terrain_resolution_mismatch_is_data_error(smoke_config, tmp_path, capsys):
    # a 40x40 grid matches the 20 m config's cell count only at 0.5 m
    terrain = tmp_path / "gt.txt"
    cells = np.zeros((40, 40))
    cells[:20] = 1.0
    write_text_grid(terrain, cells, 1.0)
    out = tmp_path / "x"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "random",
               "--missions", "2", "--terrain", str(terrain), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "map_resolution" in err
    assert not out.exists()


def test_evaluate_terrain_without_interest_is_data_error(smoke_config, tmp_path, capsys):
    terrain = tmp_path / "gt.txt"
    write_text_grid(terrain, np.zeros((40, 40)), 0.5)
    out = tmp_path / "x"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "random",
               "--missions", "2", "--terrain", str(terrain), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert not out.exists()


def test_coverage_altitude_off_the_lattice_rejects_only_coverage(smoke_config, tmp_path, capsys):
    config = tmp_path / "alt7.cfg"
    config.write_text(smoke_config.read_text() + "coverage_altitude = 7\n")
    out = tmp_path / "coverage"
    rc = main(["evaluate", "--config", str(config), "--planner", "coverage",
               "--missions", "2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "coverage_altitude" in err
    assert not out.exists()
    # a config that never runs the coverage planner stays valid
    rc = main(["evaluate", "--config", str(config), "--planner", "greedy-ig",
               "--missions", "2", "--out", str(tmp_path / "greedy")])
    assert rc == 0


def test_evaluate_agent_override(smoke_config, tmp_path):
    out = tmp_path / "agents"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "random",
               "--missions", "2", "--agents", "3", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["num_agents"] == "3"


def test_ingest_command(tmp_path):
    raster = tmp_path / "raster.txt"
    write_text_grid(raster, np.array([[30.0, 10.0], [26.0, 24.0]]), 0.5)
    out = tmp_path / "ing"
    rc = main(["ingest", "--input", str(raster), "--threshold", "25.0", "--out", str(out)])
    assert rc == 0
    gt = load_ground_truth(out / "ground_truth.txt")
    np.testing.assert_array_equal(gt.cells, [[1, 0], [1, 0]])


def test_ingest_parse_error_exit_code(tmp_path):
    raster = tmp_path / "broken.txt"
    raster.write_text("not a header\n")
    rc = main(["ingest", "--input", str(raster), "--threshold", "25.0",
               "--out", str(tmp_path / "x")])
    assert rc == 3


@pytest.mark.parametrize("res", ["nan", "inf"])
def test_ingest_non_finite_resolution_is_data_error(tmp_path, capsys, res):
    raster = tmp_path / "raster.txt"
    raster.write_text(f"2 2 {res}\n30 10\n26 24\n")
    out = tmp_path / "ing"
    rc = main(["ingest", "--input", str(raster), "--threshold", "25.0", "--out", str(out)])
    assert rc == 3
    assert "line 1" in capsys.readouterr().err
    assert not out.exists()


def _text_grid_argv(command, path, out):
    if command == "ingest":
        return ["ingest", "--input", str(path), "--threshold", "25.0", "--out", str(out)]
    config = path.parent / "smoke.cfg"
    config.write_text(SMOKE_CONFIG)
    return ["evaluate", "--config", str(config), "--planner", "random", "--missions", "2",
            "--terrain", str(path), "--out", str(out)]


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command", ["ingest", "evaluate"])
def test_text_grid_that_is_not_a_file_is_usage_error(tmp_path, capsys, command, kind):
    path = tmp_path / "grid.txt"
    if kind == "directory":
        path.mkdir()
    out = tmp_path / "x"
    rc = main(_text_grid_argv(command, path, out))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "evaluate"])
def test_text_grid_that_is_not_ascii_is_data_error(tmp_path, capsys, command):
    path = tmp_path / "grid.txt"
    path.write_text("40 40 0.5\n" + "1 " * 1600 + "\n", encoding="utf-16")
    out = tmp_path / "x"
    rc = main(_text_grid_argv(command, path, out))
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "not ASCII" in err
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_ingest_non_finite_threshold_is_usage_error(tmp_path, capsys, threshold):
    raster = tmp_path / "raster.txt"
    write_text_grid(raster, np.array([[30.0, 10.0], [26.0, 24.0]]), 0.5)
    out = tmp_path / "ing"
    rc = main(["ingest", "--input", str(raster), f"--threshold={threshold}", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


def test_ablate_features_channel_bookkeeping(smoke_config, tmp_path):
    out = tmp_path / "abl"
    rc = main(["ablate-features", "--config", str(smoke_config), "--seed", "2",
               "--out", str(out), "--toggles", "entropy_map", "--missions", "2"])
    assert rc == 0
    _, meta = load_checkpoint(out / "without_entropy_map" / "actor.ckpt")
    assert "entropy_map" not in meta["manifest"]
    assert meta["in_channels"] == 6
    assert (out / "without_entropy_map" / "benchmark.csv").exists()


@pytest.mark.parametrize("argv, keep", [
    (["train", "--missions", "1"], ()),
    (["ablate-features", "--toggles", "budget", "--missions", "2"], ("budget",)),
    (["ablate-features", "--toggles", "entropy_map,budget", "--missions", "2"], ("budget",)),
], ids=["train", "ablate", "ablate-second-toggle"])
def test_a_config_leaving_the_actor_no_plane_is_usage_error(smoke_config, tmp_path, capsys,
                                                            argv, keep):
    from terrascout.policy import ACTOR_PLANES

    config = tmp_path / "bare.cfg"
    config.write_text(smoke_config.read_text() + "".join(
        f"features.{name} = off\n" for name in ACTOR_PLANES if name not in keep))
    out = tmp_path / "x"
    rc = main([argv[0], "--config", str(config), "--out", str(out), *argv[1:]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "no input plane" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train"],
    ["train", "--variant", "central-qv"],
    ["ablate-features", "--toggles", "budget", "--missions", "2"],
], ids=["train", "train-central-qv", "ablate"])
def test_an_arch_that_collapses_the_lattice_is_usage_error(tmp_path, capsys, argv):
    # a 15-cell unpadded kernel on a 10-column lattice leaves no output cell
    config = tmp_path / "collapse.cfg"
    config.write_text("terrain_size = 50.0\nmap_resolution = 0.5\nnum_agents = 2\nbudget = 2\n"
                      "train.total_missions = 2\ntrain.kernel_size = 15\ntrain.padding = 0\n")
    out = tmp_path / "x"
    rc = main([argv[0], "--config", str(config), "--out", str(out), *argv[1:]])
    assert rc == 2
    assert capsys.readouterr().err == "usage error: encoder strides collapse the grid below 1x1\n"
    assert not out.exists()


@pytest.mark.parametrize("toggles", ["+budget,+budget", "budget,-budget"])
def test_ablate_repeated_toggle_is_usage_error(smoke_config, tmp_path, capsys, toggles):
    out = tmp_path / "x"
    rc = main(["ablate-features", "--config", str(smoke_config), "--out", str(out),
               "--toggles", toggles, "--missions", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("planners", [
    ["random", "random"],
    ["greedy-ig", "coverage", "greedy-ig"],
    ["learned", "random", "learned"],
], ids=["random-twice", "greedy-ig-twice", "learned-twice"])
def test_evaluate_repeated_planner_is_usage_error(smoke_config, tmp_path, capsys, planners):
    # a repeat would run every mission twice, and its dumps would overwrite the first run's
    actor = _toy_actor_checkpoint(smoke_config, tmp_path / "actor.ckpt")
    out = tmp_path / "x"
    argv = ["evaluate", "--config", str(smoke_config), "--out", str(out), "--missions", "2",
            "--actor-weights", str(actor), "--dump-maps", "--local-metrics"]
    for name in planners:
        argv += ["--planner", name]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"usage error: --planner '{planners[0]}' is given more than once\n"
    assert not out.exists()


def test_ablate_unknown_plane_is_usage_error(smoke_config, tmp_path):
    rc = main(["ablate-features", "--config", str(smoke_config), "--out",
               str(tmp_path / "x"), "--toggles", "sharpness_map"])
    assert rc == 2


@pytest.mark.parametrize("missions", ["0", "1"])
def test_ablate_too_few_missions_is_usage_error(smoke_config, tmp_path, capsys, missions):
    out = tmp_path / "x"
    rc = main(["ablate-features", "--config", str(smoke_config), "--out", str(out),
               "--toggles", "entropy_map", "--missions", missions])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert not out.exists()


def test_sweep_coverage_altitude(smoke_config, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep-coverage-altitude", "--config", str(smoke_config),
               "--missions", "2", "--out", str(out)])
    assert rc == 0
    lines = (out / "coverage_sweep.csv").read_text().splitlines()
    assert lines[0] == "altitude,entropy_mean,f1_mean"
    assert len(lines) == 4  # three altitude levels


def test_learned_actor_transfers_across_team_sizes(smoke_config, tmp_path):
    # actors are team-size agnostic (id plane is normalized), so a 2-agent
    # checkpoint drives 3-agent missions without retraining
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(smoke_config), "--seed", "4",
                 "--out", str(train_out), "--missions", "2", "--quiet"]) == 0
    eval_out = tmp_path / "eval"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "learned",
               "--actor-weights", str(train_out / "actor.ckpt"),
               "--agents", "3", "--comm-radius", "inf",
               "--missions", "2", "--out", str(eval_out)])
    assert rc == 0
    assert (eval_out / "benchmark.csv").exists()


def test_evaluate_local_metrics_flag(smoke_config, tmp_path):
    out = tmp_path / "localm"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "random",
               "--missions", "2", "--local-metrics", "--out", str(out)])
    assert rc == 0
    lines = (out / "random_local_metrics.csv").read_text().splitlines()
    assert lines[0] == "mission,step,agent,roi_entropy,f1"
    # 2 missions x 3 steps x 2 agents
    assert len(lines) == 1 + 12


# ---------------------------------------------------------------------------
# one pass per mission; actor checkpoints
# ---------------------------------------------------------------------------


def _toy_actor_checkpoint(smoke_config, path):
    from terrascout.policy import NetArch, actor_manifest, make_actor, save_network

    cfg, fcfg = build_env_config(parse_config_file(smoke_config)), build_feature_config({})
    actor = make_actor(cfg, fcfg, np.random.default_rng(0),
                       NetArch(conv_channels=(2,), conv_strides=(2,), mlp_sizes=(4,)))
    save_network(path, actor, kind="actor", manifest=actor_manifest(fcfg))
    return path


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def test_evaluate_runs_each_mission_once(smoke_config, tmp_path, monkeypatch):
    from terrascout import evaluation

    calls = []
    run_mission = evaluation.run_mission

    def counted(*args, **kwargs):
        calls.append(args[3])
        return run_mission(*args, **kwargs)

    monkeypatch.setattr(evaluation, "run_mission", counted)
    out = tmp_path / "once"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "random",
               "--planner", "greedy-ig", "--missions", "3", "--dump-maps",
               "--local-metrics", "--out", str(out)])
    assert rc == 0
    assert calls == [0, 1, 2, 0, 1, 2]
    assert len(list((out / "missions").glob("*_belief.pgm"))) == 6
    assert len((out / "greedy-ig_local_metrics.csv").read_text().splitlines()) == 1 + 3 * 3 * 2


def test_evaluate_threads_write_the_serial_files(smoke_config, tmp_path):
    actor = _toy_actor_checkpoint(smoke_config, tmp_path / "actor.ckpt")
    argv = ["evaluate", "--config", str(smoke_config), "--seed", "8", "--planner", "random",
            "--planner", "learned", "--actor-weights", str(actor), "--missions", "3",
            "--dump-maps", "--local-metrics"]
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    assert main(argv + ["--threads", "2", "--out", str(tmp_path / "pool")]) == 0
    serial = _files(tmp_path / "serial")
    assert len(serial) == 1 + 2 + 2 * 3 * 2
    assert serial == _files(tmp_path / "pool")


def test_dumped_file_names_are_file_safe(smoke_config, tmp_path):
    """No ':' or other character a file system or an scp-style host:path
    argument may reject: the argmax label ``learned:argmax`` stays in
    benchmark.csv, while its dumps are named ``learned-argmax_*``."""
    import re

    actor = _toy_actor_checkpoint(smoke_config, tmp_path / "actor.ckpt")
    out = tmp_path / "run"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "random",
               "--planner", "learned", "--learned-mode", "argmax", "--actor-weights", str(actor),
               "--missions", "2", "--dump-maps", "--local-metrics", "--out", str(out)])
    assert rc == 0
    names = [p.name for p in out.rglob("*")]
    assert [name for name in names if not re.fullmatch(r"[A-Za-z0-9._-]+", name)] == []
    assert "learned-argmax_mission001_belief.pgm" in names
    assert "learned:argmax" in (out / "benchmark.csv").read_text()


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    """Only ``evaluate --threads`` above 1 needs ``multiprocessing``; a plain
    import, which every command pays for, does not load it."""
    import os
    import subprocess
    import sys

    import terrascout

    src = str(Path(terrascout.__file__).resolve().parents[1])
    probe = "import sys, terrascout.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_evaluate_threads_below_one_is_usage_error(smoke_config, tmp_path, capsys, threads):
    out = tmp_path / "t"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "random",
               "--missions", "2", "--threads", threads, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "--threads" in err
    assert not out.exists()


def test_threads_is_an_evaluate_option_only(smoke_config, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(smoke_config), "--threads", "2",
              "--out", str(tmp_path / "t")])
    assert exc.value.code == 2


@pytest.mark.parametrize("damage", [
    lambda data: b"NOTACKPT" + data[8:],  # foreign file
    lambda data: data[:10],  # header length cut short
    lambda data: data[:12] + b"{not json" + data[21:],  # unparsable header
    lambda data: data[:-8],  # parameter data cut short
], ids=["bad-magic", "short-header", "unparsable-header", "short-parameters"])
def test_evaluate_bad_checkpoint_is_data_error(smoke_config, tmp_path, capsys, damage):
    ckpt = _toy_actor_checkpoint(smoke_config, tmp_path / "actor.ckpt")
    ckpt.write_bytes(damage(ckpt.read_bytes()))
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "learned",
               "--actor-weights", str(ckpt), "--missions", "2", "--out", str(tmp_path / "x")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


def test_evaluate_checkpoint_without_network_metadata_is_data_error(smoke_config, tmp_path):
    from terrascout.nn import save_checkpoint

    ckpt = tmp_path / "raw.ckpt"
    save_checkpoint(ckpt, [("w", np.zeros(3))], {"kind": "actor"})
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "learned",
               "--actor-weights", str(ckpt), "--missions", "2", "--out", str(tmp_path / "x")])
    assert rc == 3


def test_evaluate_rejects_a_critic_checkpoint(smoke_config, tmp_path, capsys):
    from terrascout.policy import NetArch, critic_manifest, make_critic, save_network

    cfg, fcfg = build_env_config(parse_config_file(smoke_config)), build_feature_config({})
    critic = make_critic(cfg, fcfg, np.random.default_rng(0),
                         NetArch(conv_channels=(2,), conv_strides=(2,), mlp_sizes=(4,)))
    ckpt = tmp_path / "critic.ckpt"
    save_network(ckpt, critic, kind="critic", manifest=critic_manifest(fcfg, cfg.num_agents))
    out = tmp_path / "x"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "learned",
               "--actor-weights", str(ckpt), "--missions", "2", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert not out.exists()


def test_evaluate_rejects_an_actor_of_other_features(smoke_config, tmp_path, capsys):
    config = tmp_path / "no_entropy.cfg"
    config.write_text(smoke_config.read_text() + "features.entropy_map = off\n")
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(config), "--missions", "1",
                 "--out", str(train_out), "--quiet"]) == 0
    capsys.readouterr()
    out = tmp_path / "x"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "learned",
               "--actor-weights", str(train_out / "actor.ckpt"), "--missions", "2",
               "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "entropy_map" in err
    assert not out.exists()


def test_evaluate_rejects_an_actor_of_another_lattice(smoke_config, tmp_path, capsys):
    ckpt = _toy_actor_checkpoint(smoke_config, tmp_path / "actor.ckpt")  # 4 lattice columns
    config = tmp_path / "wide.cfg"
    config.write_text(smoke_config.read_text() + "terrain_size = 40.0\n")  # 8 columns
    out = tmp_path / "x"
    rc = main(["evaluate", "--config", str(config), "--planner", "learned",
               "--actor-weights", str(ckpt), "--missions", "2", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "4-column" in err and "8 columns" in err
    assert not out.exists()


def test_evaluate_checkpoint_with_a_bad_arch_is_data_error(smoke_config, tmp_path, capsys):
    from terrascout.nn import save_checkpoint

    ckpt = _toy_actor_checkpoint(smoke_config, tmp_path / "actor.ckpt")
    params, meta = load_checkpoint(ckpt)
    meta["arch"]["conv_strides"] = [0]
    save_checkpoint(ckpt, list(params.items()), meta)
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "learned",
               "--actor-weights", str(ckpt), "--missions", "2", "--out", str(tmp_path / "x")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("data error: ")


@pytest.mark.parametrize("key", ["in_channels", "grid_size", "out_dim"])
def test_evaluate_checkpoint_with_a_zero_size_is_data_error(smoke_config, tmp_path, capsys, key):
    from terrascout.nn import save_checkpoint

    ckpt = _toy_actor_checkpoint(smoke_config, tmp_path / "actor.ckpt")
    params, meta = load_checkpoint(ckpt)
    meta[key] = 0
    save_checkpoint(ckpt, list(params.items()), meta)
    out = tmp_path / "x"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "learned",
               "--actor-weights", str(ckpt), "--missions", "2", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_evaluate_checkpoint_with_non_finite_parameters_is_data_error(
        smoke_config, tmp_path, capsys, value):
    from terrascout.nn import save_checkpoint

    ckpt = _toy_actor_checkpoint(smoke_config, tmp_path / "actor.ckpt")
    params, meta = load_checkpoint(ckpt)
    params["head.bias"][0] = value
    save_checkpoint(ckpt, list(params.items()), meta)
    out = tmp_path / "x"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "learned",
               "--actor-weights", str(ckpt), "--missions", "2", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "head.bias" in err
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    lambda params, meta: meta.update(grid_size=2_000_000),
    lambda params, meta: meta.update(in_channels=10**12),
    lambda params, meta: meta["arch"].update(mlp_sizes=[10**12, 64]),
    lambda params, meta: params.update(extra=np.zeros(2)),
    lambda params, meta: params.pop("head.bias"),
    lambda params, meta: params.update({"fc0.bias": np.zeros(5)}),
], ids=["huge-grid-size", "huge-in-channels", "huge-mlp-sizes", "extra-layer", "missing-layer",
        "wrong-shape"])
def test_evaluate_checkpoint_whose_layers_are_not_its_headers_is_data_error(
        smoke_config, tmp_path, capsys, edit):
    # a header whose sizes imply a network of many TB is refused before any is built
    from terrascout.nn import save_checkpoint

    ckpt = _toy_actor_checkpoint(smoke_config, tmp_path / "actor.ckpt")
    params, meta = load_checkpoint(ckpt)
    edit(params, meta)
    save_checkpoint(ckpt, list(params.items()), meta)
    out = tmp_path / "x"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "learned",
               "--actor-weights", str(ckpt), "--missions", "2", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert not out.exists()


def test_evaluate_missing_checkpoint_is_usage_error(smoke_config, tmp_path):
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "learned",
               "--actor-weights", str(tmp_path / "none.ckpt"), "--missions", "2",
               "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("flags", [
    ["--actor-weights", "/nonexistent.ckpt"],
    ["--learned-mode", "argmax"],
    ["--learned-mode", "sample"],
    ["--actor-weights", "/nonexistent.ckpt", "--learned-mode", "argmax"],
], ids=["weights", "argmax", "sample", "both"])
def test_evaluate_learned_flags_without_learned_planner_are_usage_error(
    smoke_config, tmp_path, capsys, flags
):
    # a flag no planner of the run reads would be dropped without a word
    out = tmp_path / "x"
    rc = main(["evaluate", "--config", str(smoke_config), "--planner", "random",
               "--planner", "greedy-ig", "--missions", "2", "--out", str(out), *flags])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"usage error: {flags[0]} is read only with --planner learned\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("flags, mode", [
    ([], "sample"), (["--learned-mode", "sample"], "sample"), (["--learned-mode", "argmax"], "argmax"),
], ids=["default", "sample", "argmax"])
def test_evaluate_learned_mode_defaults_to_sample(smoke_config, tmp_path, flags, mode):
    actor = _toy_actor_checkpoint(smoke_config, tmp_path / "actor.ckpt")
    args = build_parser().parse_args(["evaluate", "--config", str(smoke_config), "--out",
                                      str(tmp_path / "x"), "--planner", "learned",
                                      "--actor-weights", str(actor), *flags])
    cfg, fcfg, _ = _load_configs(args)
    assert [spec.mode for spec in _planner_specs(args, cfg, fcfg)] == [mode]
