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
