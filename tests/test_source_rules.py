"""Rules on the library's source, checked by parsing it."""

import ast
from pathlib import Path

import circlift


def _offending(rule) -> list[str]:
    """file:line of every syntax node of the library that breaks ``rule``."""
    root = Path(circlift.__file__).parent
    return [f"{path.relative_to(root)}:{node.lineno}"
            for path in sorted(root.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if rule(node)]


def test_no_assert_statements():
    # certificates are explicit checks: python -O strips assert statements
    found = _offending(lambda node: isinstance(node, ast.Assert))
    assert not found, f"assert statements in circlift: {found}"


def test_no_nonzero_or_argwhere():
    # np.nonzero and np.argwhere on a 2-D mask cost many times np.flatnonzero
    # plus divmod, which gives the same indices in the same order
    found = _offending(lambda node: isinstance(node, ast.Attribute)
                       and node.attr in ("nonzero", "argwhere")
                       and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
    assert not found, f"np.nonzero or np.argwhere in circlift: {found}"


def test_every_private_definition_is_used():
    # a private helper that nothing else in the library names is dead code
    # left behind by a rewrite; a reference inside its own body does not count
    root = Path(circlift.__file__).parent
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(root.rglob("*.py"))}
    defined, names = [], []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((path, node))
            elif isinstance(node, ast.Name):
                names.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                names.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                names.append((path, node.lineno, node.name))
    unused = [f"{path.relative_to(root)}:{node.lineno} {node.name}" for path, node in defined
              if not any(name == node.name and not (at == path and
                                                    node.lineno <= line <= node.end_lineno)
                         for at, line, name in names)]
    assert defined, "no private definitions found"
    assert not unused, f"private definitions never referenced in circlift: {unused}"
