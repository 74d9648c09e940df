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


def test_random_generators_are_built_only_from_keyed_seeds():
    # every draw comes from a stream keyed by the run's seed (and the mission,
    # step, agent, block or epoch) in one of these places, so a run's draws
    # depend on its seed and config alone, and a resumed run can rebuild them
    allowed = {
        "environment._stream",
        "environment.TerrainEnv._measure_and_fuse",
        "training.training_loop",
        "gridmap._virtual_uniforms",
    }
    constructors = {"default_rng", "Generator", "PCG64", "Philox", "SeedSequence"}
    found = []

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name in constructors:
                    found.append((scope, f"{path.name}:{child.lineno} {name}"))
            visit(child, inner, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)
    assert {scope for scope, _ in found} & allowed  # the walk sees the keyed streams
    assert [where for scope, where in found if scope not in allowed] == []
