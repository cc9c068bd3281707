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


def test_public_names_resolve():
    # a name left in __all__ after its definition went breaks star imports
    import persuade_ot

    missing = [name for name in persuade_ot.__all__ if not hasattr(persuade_ot, name)]
    assert not missing, missing
    assert len(set(persuade_ot.__all__)) == len(persuade_ot.__all__)
    namespace: dict = {}
    exec("from persuade_ot import *", namespace)
    assert set(persuade_ot.__all__) <= set(namespace)
