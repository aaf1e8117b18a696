"""Rules on the library's source, checked by parsing it."""

import ast
from pathlib import Path

import circlift
from circlift import complexes


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


def test_only_complexes_reads_a_skeletons_distances():
    # what each degree of a Rips skeleton holds is decided in complexes: it
    # gives the cofacet source and the working complex, so no other module
    # needs the distance matrix, or to know that a complex is a skeleton
    found = [at for at in _offending(lambda node: isinstance(node, ast.Attribute)
                                     and node.attr in ("distances", "_skeleton"))
             if not at.startswith("complexes.py:")]
    assert not found, f"distances or _skeleton named outside complexes.py: {found}"


def test_cofacet_sources_read_no_distances():
    # the sources read a skeleton's edges, whose indices follow the
    # (filtration, lex) order; distances are read only to build a complex
    found = [f"complexes.py:{node.lineno}"
             for cls in ast.walk(ast.parse(Path(complexes.__file__).read_text()))
             if isinstance(cls, ast.ClassDef) and cls.name in ("_FaceTable", "_RipsTriangles")
             for node in ast.walk(cls)
             if "distances" in (getattr(node, name, None) for name in ("attr", "id", "arg"))]
    assert not found, f"distances named in a cofacet source: {found}"


def _names(trees) -> list[tuple[Path, int, str]]:
    """(file, line, name) of every name, attribute and imported name."""
    names = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                names.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                names.append((path, node.lineno, node.name))
    return names


def _unreferenced(defined, trees) -> list[str]:
    """The definitions that nothing else in the library names; a reference
    inside a definition's own body does not count."""
    root = Path(circlift.__file__).parent
    names = _names(trees)
    return [f"{path.relative_to(root)}:{node.lineno} {node.name}" for path, node in defined
            if not any(name == node.name and not (at == path and
                                                  node.lineno <= line <= node.end_lineno)
                       for at, line, name in names)]


def _trees() -> dict[Path, ast.Module]:
    root = Path(circlift.__file__).parent
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(root.rglob("*.py"))}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_private_definition_is_used():
    # a private helper that nothing else in the library names is dead code
    # left behind by a rewrite
    trees = _trees()
    defined = [(path, node) for path, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, DEFINITIONS)
               and node.name.startswith("_") and not node.name.endswith("__")]
    assert defined, "no private definitions found"
    unused = _unreferenced(defined, trees)
    assert not unused, f"private definitions never referenced in circlift: {unused}"


# public names that only users name, each with the reason it is kept
USER_ENTRY_POINTS = {
    "sample_circle": "the README quickstart and acceptance criterion 8 draw points from it",
    "sample_trefoil": "acceptance criterion 9 draws its points from it",
    "trend_slope": "acceptance criterion 4 measures the sparsity sweep's trend with it",
}


def test_every_public_definition_is_exported_or_used():
    # a public function or class that is neither exported nor named
    # elsewhere in the library is dead code, or an export left out
    trees = _trees()
    defined = [(path, node) for path, tree in trees.items() for node in tree.body
               if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
               and node.name not in circlift.__all__ and node.name not in USER_ENTRY_POINTS]
    assert defined, "no public definitions found"
    unused = _unreferenced(defined, trees)
    assert not unused, f"public definitions neither exported nor used in circlift: {unused}"
