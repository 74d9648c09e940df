#!/usr/bin/env python3
"""terrascout benchmark: closed-loop workloads in one process, one caller.

Run from the root of a checkout:

    python3 bench/run.py --workload eval-baselines-full --seed 1 --seconds 30 --trace 0

The run first executes one check unit at the default seed and compares
its output digests with ``bench/reference.json``; it also warms the
process up. It then repeats units keyed by ``--seed`` for about
``--seconds`` seconds. With ``--trace 0`` it reports the end-to-end
metrics. With ``--trace 1`` it runs each unit twice, untraced and then
traced, and reports the per-layer metrics from the traced copies; the two
copies must write identical files. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
An operation is one mission; every mission of a unit that raised or whose
outputs failed a check counts as failed.

``--write-reference`` records the check unit's digests for a workload.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import LAYERS, SPAN_NAMES, Tracer
from workloads import (
    EVAL_MISSIONS_PER_PLANNER,
    ROOT,
    WORKLOADS,
    EvalBaselines,
    load_program,
    sha256,
)

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 9
FULL_RUN_MISSIONS = 10_000  # the full-scale training run of cfg/full.cfg

# Reported on every --trace 0 run; full_run_hours is only printed, because it
# is 10 000 / missions_per_s / 3600 and adds nothing to the gate.
END_TO_END = {
    "setup_s": "s",
    "missions_per_s": "missions/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["gridmap.noise_cells_used_ratio"] = "ratio"
    units["gridmap.entropy_fresh_ratio"] = "ratio"
    units["policy.critic_builds_per_step"] = "count/step"
    units["nn.conv2d_fwd.mean_batch"] = "count"
    for phase in EvalBaselines.phases:
        units[f"evaluation.{phase}_missions_per_s"] = "missions/s"
    units["trace.overhead_share"] = "ratio"
    units["trace.accounted_share"] = "ratio"
    return units


def unit_seed(seed: int, k: int) -> int:
    return seed * 10_000 + k


@dataclass
class Unit:
    seed: int
    seconds: float
    traced: bool
    phases: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def run_unit(workload, seed: int, work: Path, tracer=None, index: int = -1) -> Unit:
    out = work / f"unit-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    unit = Unit(seed, 0.0, tracer is not None)
    if tracer is not None:
        tracer.install()
    t0 = perf_counter()
    try:
        if tracer is None:
            unit.phases = workload.run(seed, out)
        else:
            unit.phases = tracer.run_unit(index, workload.run, seed, out)
    except Exception:  # a failing unit is counted as failed and the run goes on
        traceback.print_exc(file=sys.stderr)
        unit.problems.append("raised " + traceback.format_exc().strip().splitlines()[-1])
    finally:
        unit.seconds = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if not unit.problems:
        try:
            unit.digests = {name: sha256(out / name) for name in workload.outputs}
            unit.problems += workload.check(out)
        except Exception as exc:  # missing or malformed outputs fail the unit
            unit.problems.append(f"unreadable outputs: {exc!r}")
    shutil.rmtree(out, ignore_errors=True)
    return unit


def check_reference(unit: Unit, reference: dict | None) -> None:
    if unit.seed != unit_seed(DEFAULT_SEED, 0) or unit.problems:
        return
    if reference is None:
        unit.problems.append("no reference digests recorded for this workload")
    elif unit.digests != reference:
        differ = sorted(k for k in reference if unit.digests.get(k) != reference[k])
        unit.problems.append(f"outputs differ from the reference: {', '.join(differ)}")


def load_reference(name: str) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text())["digests"].get(name)


def measure_setup(workload: str) -> list[float]:
    """Seconds from process start to ready, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-only"],
            cwd=ROOT, check=True,
        )
        samples.append(perf_counter() - t0)
    return samples


def blas_threads() -> int | str:
    """OpenBLAS thread count of numpy's bundled library, left at its default."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record() -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
    }


def measure(workload, args, work: Path, tracer) -> tuple[Unit, list[Unit], list[Unit]]:
    """The check unit, then untraced units (each followed by its traced copy
    when tracing) until about ``args.seconds`` have passed."""
    reference = load_reference(workload.name)
    check = run_unit(workload, unit_seed(DEFAULT_SEED, 0), work)
    check_reference(check, reference)
    untraced: list[Unit] = []
    traced: list[Unit] = []
    start = perf_counter()
    k = 0
    while True:
        unit = run_unit(workload, unit_seed(args.seed, k), work)
        check_reference(unit, reference)
        untraced.append(unit)
        last = unit.seconds
        if tracer is not None:
            copy = run_unit(workload, unit.seed, work, tracer, k)
            if not copy.problems and copy.digests != unit.digests:
                copy.problems.append("traced outputs differ from the untraced copy")
            traced.append(copy)
            last += copy.seconds
        k += 1
        if perf_counter() - start + 0.5 * last >= args.seconds:
            return check, untraced, traced


def planner_rates(untraced: list[Unit]) -> dict[str, float]:
    """Median missions per second of each eval planner; 0 on other workloads."""
    out = {}
    for phase in EvalBaselines.phases:
        rates = [EVAL_MISSIONS_PER_PLANNER / u.phases[phase] for u in untraced if phase in u.phases]
        out[f"evaluation.{phase}_missions_per_s"] = statistics.median(rates) if rates else 0.0
    return out


def end_to_end_metrics(workload, untraced: list[Unit], setup_samples: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "missions_per_s": statistics.median(workload.missions / u.seconds for u in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer: Tracer, untraced: list[Unit], traced: list[Unit]) -> dict:
    metrics = tracer.summarize()
    metrics.update(planner_rates(untraced))
    metrics["trace.overhead_share"] = statistics.median(
        t.seconds / u.seconds for u, t in zip(untraced, traced)) - 1.0
    metrics["trace.accounted_share"] = (
        sum(metrics[f"{layer}.self_s"] for layer in LAYERS) / sum(t.seconds for t in traced))
    return metrics


def write_reference(workload, work: Path) -> int:
    unit = run_unit(workload, unit_seed(DEFAULT_SEED, 0), work)
    if unit.problems:
        print(f"check unit failed: {unit.problems}", file=sys.stderr)
        return 1
    data = {"default_seed": DEFAULT_SEED, "unit_seed": unit.seed, "digests": {}}
    if REFERENCE.is_file():
        data = json.loads(REFERENCE.read_text())
    data["digests"][workload.name] = unit.digests
    REFERENCE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"recorded {workload.name}: {unit.digests}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"bench: cannot import terrascout: {exc}", file=sys.stderr)
        return 2
    from terrascout.errors import TerrascoutError

    try:
        workload = WORKLOADS[args.workload]()
    except (OSError, TerrascoutError) as exc:
        print(f"bench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0

    work = OUT / f"work-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        if args.write_reference:
            return write_reference(workload, work)
        record = run_record()
        setup_samples = [] if args.trace else measure_setup(args.workload)
        origin = perf_counter()
        check, untraced, traced = measure(workload, args, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_end"] = list(os.getloadavg())

    if tracer is None:
        metrics, declared = end_to_end_metrics(workload, untraced, setup_samples), END_TO_END
    else:
        metrics, declared = per_layer_metrics(tracer, untraced, traced), per_layer_units()
    units = [check] + untraced + traced
    reported = {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}
    failed = workload.missions * sum(1 for u in units if u.problems)
    attempted = workload.missions * len(units)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": reported}
    extra = {"measured_units": len(untraced), "error_rate": failed / attempted,
             **planner_rates(untraced)}
    if tracer is None:
        extra["full_run_hours"] = FULL_RUN_MISSIONS / metrics["missions_per_s"] / 3600.0

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}"
    if tracer is not None:
        tracer.write_csv(f"{stem}-spans.csv", origin)
    Path(f"{stem}-trace{args.trace}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "record": record, "setup_samples": setup_samples,
         "extra": extra, "result": result, "units": [asdict(u) for u in units]},
        indent=2) + "\n")

    print("# record " + json.dumps(record, sort_keys=True))
    for u in units:
        if u.problems:
            print(f"# unit seed {u.seed} traced={u.traced}: {'; '.join(u.problems)}")
    for name, entry in reported.items():
        print(f"{name:44s} {entry['value']!r:>24} {entry['unit']}")
    for name, value in extra.items():
        if name not in reported:
            print(f"# {name:42s} {value!r:>24}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
