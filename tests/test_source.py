"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "persuade_ot"


def test_no_assert_statements():
    # invariants must survive python -O, which strips assert statements
    paths = sorted(PACKAGE.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert paths and not found, found
