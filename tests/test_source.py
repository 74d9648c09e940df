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
