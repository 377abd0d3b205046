"""Checks on the library source itself."""

import ast
from pathlib import Path

import qforms


def test_no_assert_statements_in_library():
    # invariants must survive python -O, which strips assert statements
    found = []
    for path in sorted(Path(qforms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"
