"""Properties of the package source as a whole."""

import ast
import pathlib

import hornfill


def test_no_check_lives_in_an_assert():
    # python -O strips assert statements, and every check must survive it
    modules = sorted(pathlib.Path(hornfill.__file__).parent.rglob("*.py"))
    assert "sset.py" in {path.name for path in modules}
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
