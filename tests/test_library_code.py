"""Properties of the library source itself."""

import ast
from pathlib import Path

import wthi

SOURCES = sorted(Path(wthi.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so library checks must be explicit.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
