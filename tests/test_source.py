"""Rules the package source keeps."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "terrascout"


def test_package_source_has_no_assert_statements():
    # `python -O` strips asserts, so a guard written as one vanishes there
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []


def test_every_function_parameter_is_read():
    # a parameter that no body reads is a value every caller passes for nothing.
    # A method name that several classes implement is one interface: its
    # parameter counts as read when any implementation reads it.
    reads: dict[tuple, dict[str, bool]] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg)
                      if a is not None and a.arg not in ("self", "cls")]
            body = node.body if isinstance(node.body, list) else [node.body]
            loaded = {name.id for stmt in body for name in ast.walk(stmt)
                      if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            key = ("method", name) if id(node) in methods else (path.name, node.lineno, name)
            seen = reads.setdefault(key, {})
            for param in params:
                seen[param] = seen.get(param, False) or param in loaded
    unread = sorted(f"{key[-1]}({param})" for key, seen in reads.items()
                    for param, read in seen.items() if not read)
    assert len(reads) > 100  # the walk found the package's functions
    assert unread == []


def test_only_policy_creates_parameter_tensors():
    # a network's parameters are made in one place, from its layer_shapes
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "policy.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            flags = [kw.value for kw in node.keywords if kw.arg == "requires_grad"]
            if name == "Tensor" and len(node.args) > 1:
                flags.append(node.args[1])
            if any(not (isinstance(v, ast.Constant) and v.value is False) for v in flags):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _scoped_nodes():
    """Every AST node of the package with its scope, e.g. ``gridmap.OccupancyGrid.probs``,
    and its ``file:line``."""
    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            yield scope, f"{path.name}:{getattr(child, 'lineno', '?')}", child
            yield from visit(child, inner, path)

    for path in sorted(SRC.glob("*.py")):
        yield from visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)


def test_random_generators_are_built_only_from_keyed_seeds():
    # every draw comes from a stream keyed by the run's seed (and the mission,
    # step, agent, block or epoch) in one of these places, so a run's draws
    # depend on its seed and config alone, and a resumed run can rebuild them
    allowed = {
        "environment.keyed_generator",
        "environment.TerrainEnv._measure_and_fuse",
        "gridmap._virtual_uniforms",
    }
    constructors = {"default_rng", "Generator", "PCG64", "Philox", "SeedSequence"}
    found = [(scope, where) for scope, where, node in _scoped_nodes()
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in constructors]
    assert {scope for scope, _ in found} & allowed  # the walk sees the keyed streams
    assert [where for scope, where in found if scope not in allowed] == []


def test_only_fusion_writes_log_odds():
    # every cached plane catches up from the grid's fusion log, which holds
    # only what fuse_measurement logged; a write anywhere else would leave
    # those planes stale without a trace
    allowed = {"gridmap.fuse_measurement", "gridmap.OccupancyGrid.__post_init__"}
    found = []
    for scope, where, node in _scoped_nodes():
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            targets = [kw.value for kw in node.keywords if kw.arg == "out"]
        else:
            continue
        if any(getattr(t, "attr", getattr(t, "id", None)) == "log_odds"
               for target in targets for t in ast.walk(target)):
            found.append((scope, where))
    assert "gridmap.fuse_measurement" in {scope for scope, _ in found}  # the walk sees it
    assert [where for scope, where in found if scope not in allowed] == []


def test_wall_clock_is_read_only_by_the_training_loop():
    # wall-clock numbers go only to timing.csv, which training_loop writes;
    # every other output of a run is a function of its seed and config
    clocks = {"perf_counter", "perf_counter_ns", "time", "time_ns", "monotonic", "monotonic_ns"}
    found = []
    for scope, where, node in _scoped_nodes():
        if isinstance(node, ast.Attribute):
            read = node.attr == "datetime" or (
                node.attr in clocks and getattr(node.value, "id", None) == "time")
        elif isinstance(node, ast.Name):
            read = node.id == "datetime"
        elif isinstance(node, ast.Import):
            read = any(alias.name.split(".")[0] == "datetime" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            read = node.module == "datetime" or (
                node.module == "time" and any(alias.name in clocks for alias in node.names))
        else:
            continue
        if read:
            found.append((scope, where))
    assert "training.training_loop" in {scope for scope, _ in found}  # the walk sees it
    assert [where for scope, where in found if scope != "training.training_loop"] == []


def test_the_fusion_log_is_written_by_gridmap_and_read_by_the_three_caches():
    # every derived plane and score catches up from OccupancyGrid.fused: a
    # writer outside gridmap could log a rectangle it did not write, and a
    # reader outside the three caches is a fourth cache under the same rule.
    # Any call of a method of the log counts as a write.
    writers = {"gridmap.OccupancyGrid.__post_init__", "gridmap.fuse_measurement"}
    readers = {"environment.GlobalState.map_planes", "policy._local_planes",
               "evaluation.MapScorer.catch_up"}
    nodes = list(_scoped_nodes())  # one parse, so that ids stay those of its nodes
    writes = set()
    for _, _, node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            writes.add(id(node.func.value))
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            writes.add(id(node.value))
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            writes.add(id(node))
    found = {"write": [], "read": []}
    for scope, where, node in nodes:
        if isinstance(node, ast.Attribute) and node.attr == "fused":
            found["write" if id(node) in writes else "read"].append((scope, where))
    assert {scope for scope, _ in found["write"]} == writers
    assert {scope for scope, _ in found["read"]} == readers


def test_every_imported_name_is_read():
    # an import that nothing reads is a dependency for nothing. environment
    # re-exports map_entropy, because bench/test_bench.py checks that the
    # tracer replaces it there too.
    allowed = {("environment", "map_entropy")}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded and (path.stem, name) not in allowed:
                        unread.append(f"{path.name}:{node.lineno} {name}")
    assert unread == []
