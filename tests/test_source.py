"""Checks on the package source itself."""

import ast
import math
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


def test_readme_library_example_runs(capsys):
    # the README's Library block, run as written, prints a finite hard value
    # and the number of cells kept
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    value, cells = capsys.readouterr().out.split()
    assert math.isfinite(float(value)) and 1 <= int(cells) <= 12
