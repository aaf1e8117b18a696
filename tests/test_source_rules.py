"""Rules on the library's source, checked by parsing it."""

import ast
from pathlib import Path

import circlift


def test_no_assert_statements():
    # certificates are explicit checks: python -O strips assert statements
    root = Path(circlift.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in circlift: {found}"
