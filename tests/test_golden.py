"""Golden digests of seeded runs: a change that keeps every output leaves
each file's sha256 where it was recorded.

``train`` of every variant runs in-process at a micro scale that crosses a
target sync, a mid-run checkpoint and a last block shorter than the rest.
Every file the run writes is compared with ``golden/train.json``, except
``timing.csv``, which holds wall-clock times. The checkpoints are also
digested as they stand when each block's row is reported, so a mid-run
checkpoint that a later one overwrites is checked too.

``evaluate`` runs through the command line with ``--dump-maps
--local-metrics``: every planner, the learned one sampling from a keyed
initial actor, and then the learned one in argmax mode. Each runs serially
and with ``--threads 2``, and both must write the files of
``golden/evaluate.json``; ``manifest.json``, which holds paths and argv, is
left out.

``ablate-features`` (two plane toggles: without ``entropy_map`` the actor
and the critic have a narrower first conv, without ``global_belief_map``
the critic), ``sweep-coverage-altitude`` and ``ingest`` also run through
the command line, each at a micro scale; every file they write is compared
with ``golden/commands.json``, except ``manifest.json`` and ``timing.csv``.

A change that moves outputs on purpose re-records the digests, and its
CHANGES.md entry says which moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from terrascout.cli import build_env_config, main, parse_config_file
from terrascout.environment import EnvConfig, keyed_generator
from terrascout.gridmap import write_text_grid
from terrascout.planners import PLANNERS
from terrascout.policy import FeatureConfig, NetArch, actor_manifest, make_actor, save_network
from terrascout.training import INIT_ACTOR, VARIANTS, TrainConfig, training_loop

GOLDEN = Path(__file__).with_name("golden") / "train.json"
EVAL_GOLDEN = GOLDEN.with_name("evaluate.json")
COMMANDS_GOLDEN = GOLDEN.with_name("commands.json")

# 2 agents 10 m apart at the start, out of each other's 8 m range, so the
# local maps differ from the global one
EVAL_CONFIG = """\
terrain_size = 20.0
map_resolution = 0.5
planning_resolution = 5.0
num_agents = 2
budget = 4
comm_radius = 8.0
"""
# the learned planner's two modes; the first run holds every planner
EVAL_RUNS = {
    "sample": [arg for name in PLANNERS for arg in ("--planner", name)],
    "argmax": ["--planner", "learned", "--learned-mode", "argmax"],
}

# ablate-features trains on EVAL_CONFIG's scenario: 8 rows a mission, so 3
# missions are a 2-mission block and a 1-mission block
TRAIN_CONFIG = """\
train.total_missions = 3
train.rollout_block = 10
train.epochs = 2
train.batch_size = 5
train.conv_channels = 3, 4
train.conv_strides = 1, 2
train.mlp_sizes = 12
"""
# the other commands, by their arguments after the command name
COMMAND_RUNS = {
    "ablate-features": ["--toggles", "entropy_map,global_belief_map", "--missions", "2"],
    "sweep-coverage-altitude": ["--missions", "2"],
    "ingest": ["--threshold", "3.0"],
}
UNDIGESTED = {"manifest.json", "timing.csv"}


def host() -> dict:
    """What the digests depend on besides the program: numpy, its BLAS build,
    and the core and thread count that BLAS runs with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            **blas_runtime()}


def blas_runtime() -> dict:
    """The running core and thread count of numpy's bundled OpenBLAS, read
    through ctypes; "unknown" where the library or the symbol is missing.
    A ``DYNAMIC_ARCH`` build picks its kernels for the CPU at load time, so
    the core, not the build, says which kernels made the checkpoint bits."""
    found = {"blas_core": "unknown", "blas_threads": "unknown"}
    queries = (("blas_core", "get_corename", ctypes.c_char_p),
               ("blas_threads", "get_num_threads", ctypes.c_int))
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*"))[:1]:
        handle = ctypes.CDLL(str(lib))
        for key, query, restype in queries:
            symbols = (f"scipy_openblas_{query}64_", f"scipy_openblas_{query}",
                       f"openblas_{query}64_", f"openblas_{query}")
            fn = next((getattr(handle, s) for s in symbols if hasattr(handle, s)), None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                value = fn()
                found[key] = value.decode() if isinstance(value, bytes) else value
    return found


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_digests(variant: str, out_dir: Path) -> dict[str, str]:
    """Digests of one micro ``train`` run: each file at the end, and each
    checkpoint as it stood when a block's row was reported."""
    cfg = EnvConfig(terrain_size=20.0, map_resolution=0.5, planning_resolution=5.0,
                    num_agents=2, budget=3)
    # 6 rows a mission, so a 10-row block is 2 missions and 7 missions are 4
    # blocks, the last of one mission; an 18-row interval syncs the targets
    # after blocks 1 and 2, and checkpoints follow blocks 1 and 3
    tcfg = TrainConfig(
        rollout_block=10, epochs=2, batch_size=5, actor_lr=1e-3, critic_lr=1e-3,
        target_copy_interval=18, epsilon_anneal_missions=5, total_missions=7,
        checkpoint_every_blocks=2, variant=variant,
        arch=NetArch(conv_channels=(3, 4), conv_strides=(1, 2), mlp_sizes=(12,)),
    )
    digests = {}

    def snapshot(row):
        for path in sorted(out_dir.glob("*.ckpt")):
            if path.name != INIT_ACTOR:
                digests[f"block {row['block']}: {path.name}"] = sha256(path)

    training_loop(cfg, tcfg, FeatureConfig(), seed=5, out_dir=out_dir, progress=snapshot)
    digests.update({p.name: sha256(p) for p in sorted(out_dir.iterdir()) if p.name != "timing.csv"})
    return digests


def evaluate_digests(run: str, threads: int, work: Path) -> dict[str, str]:
    """Digests of one micro ``evaluate`` run, by path under ``--out``."""
    work.mkdir(parents=True, exist_ok=True)
    config, actor, out = work / "eval.cfg", work / "actor.ckpt", work / "out"
    config.write_text(EVAL_CONFIG, encoding="ascii")
    cfg, fcfg = build_env_config(parse_config_file(config)), FeatureConfig()
    net = make_actor(cfg, fcfg, keyed_generator(5, 11),
                     NetArch(conv_channels=(3, 4), conv_strides=(1, 2), mlp_sizes=(12,)))
    save_network(actor, net, kind="actor", manifest=actor_manifest(fcfg))
    argv = ["evaluate", "--config", str(config), "--seed", "7", "--missions", "2",
            "--threads", str(threads), "--actor-weights", str(actor), "--dump-maps",
            "--local-metrics", "--out", str(out), *EVAL_RUNS[run]]
    if main(argv) != 0:
        raise AssertionError(f"evaluate {run} exited non-zero")
    return tree_digests(out)


def tree_digests(out: Path) -> dict[str, str]:
    """Digests of every file under ``out`` by its path, but those of ``UNDIGESTED``."""
    return {p.relative_to(out).as_posix(): sha256(p) for p in sorted(out.rglob("*"))
            if p.is_file() and p.name not in UNDIGESTED}


def command_digests(command: str, work: Path) -> dict[str, str]:
    """Digests of one micro run of ``command``, by path under ``--out``."""
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    if command == "ingest":
        raster = work / "raster.txt"
        write_text_grid(raster, np.arange(24.0).reshape(4, 6) % 7.0, 0.5)
        source = ["--input", str(raster)]
    else:
        config = work / "run.cfg"
        config.write_text(EVAL_CONFIG + TRAIN_CONFIG, encoding="ascii")
        source = ["--config", str(config), "--seed", "3"]
    if main([command, *source, "--out", str(out), *COMMAND_RUNS[command]]) != 0:
        raise AssertionError(f"{command} exited non-zero")
    return tree_digests(out)


def assert_unmoved(golden: dict, want: dict, got: dict, what: str) -> None:
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    recorded, running = golden["host"], host()
    note = "" if recorded == running else f"; recorded on {recorded}, running on {running}"
    assert not moved, f"{what}: moved {', '.join(moved)}{note}"


def test_each_golden_file_records_the_host_fields():
    # a re-record on another machine must name its BLAS core and threads too
    fields = host().keys()
    for path in (GOLDEN, EVAL_GOLDEN, COMMANDS_GOLDEN):
        assert json.loads(path.read_text(encoding="utf-8"))["host"].keys() == fields, path.name


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_outputs_match_the_golden_digests(variant, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert_unmoved(golden, golden["train"][variant], train_digests(variant, tmp_path),
                   f"train {variant}")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("run", EVAL_RUNS)
def test_evaluate_outputs_match_the_golden_digests(run, threads, tmp_path):
    golden = json.loads(EVAL_GOLDEN.read_text(encoding="utf-8"))
    assert_unmoved(golden, golden["evaluate"][run], evaluate_digests(run, threads, tmp_path),
                   f"evaluate {run} with {threads} thread(s)")


@pytest.mark.parametrize("command", COMMAND_RUNS)
def test_command_outputs_match_the_golden_digests(command, tmp_path):
    golden = json.loads(COMMANDS_GOLDEN.read_text(encoding="utf-8"))
    assert_unmoved(golden, golden["commands"][command], command_digests(command, tmp_path),
                   command)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = {
            GOLDEN: {"host": host(),
                     "train": {v: train_digests(v, Path(tmp) / v) for v in VARIANTS}},
            EVAL_GOLDEN: {"host": host(),
                          "evaluate": {r: evaluate_digests(r, 1, Path(tmp) / r) for r in EVAL_RUNS}},
            COMMANDS_GOLDEN: {"host": host(),
                              "commands": {c: command_digests(c, Path(tmp) / c)
                                           for c in COMMAND_RUNS}},
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, record in records.items():
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {path}")
