"""Golden digests of seeded runs: a change that keeps every output leaves
each file's sha256 where it was recorded.

``train`` of every variant runs in-process at a micro scale that crosses a
target sync, a mid-run checkpoint and a last block shorter than the rest.
Every file the run writes is compared with ``golden/train.json``, except
``timing.csv``, which holds wall-clock times. The checkpoints are also
digested as they stand when each block's row is reported, so a mid-run
checkpoint that a later one overwrites is checked too.

A change that moves outputs on purpose re-records the digests, and its
CHANGES.md entry says which moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from terrascout.environment import EnvConfig
from terrascout.policy import FeatureConfig, NetArch
from terrascout.training import INIT_ACTOR, VARIANTS, TrainConfig, training_loop

GOLDEN = Path(__file__).with_name("golden") / "train.json"


def host() -> dict:
    """What the digests depend on besides the program: numpy and its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


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


@pytest.mark.parametrize("variant", VARIANTS)
def test_train_outputs_match_the_golden_digests(variant, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    want = golden["train"][variant]
    got = train_digests(variant, tmp_path)
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    recorded, running = golden["host"], host()
    note = "" if recorded == running else f"; recorded on {recorded}, running on {running}"
    assert not moved, f"train {variant}: moved {', '.join(moved)}{note}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {"host": host(),
                  "train": {v: train_digests(v, Path(tmp) / v) for v in VARIANTS}}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {GOLDEN}")
