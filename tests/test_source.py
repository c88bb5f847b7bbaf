"""Checks on the library source itself."""

import ast
from pathlib import Path

import altdimaps

SOURCES = sorted(Path(altdimaps.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # internal checks must raise real exceptions: `assert` vanishes under -O
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
