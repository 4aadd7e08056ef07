"""The package holds only what the program runs."""

import ast
from pathlib import Path

import graphinv

PACKAGE = Path(graphinv.__file__).parent


def unreferenced_public_names() -> list[str]:
    """Public top-level functions and classes of the package that no code
    in the package reads, by name or as an attribute, leaving out what
    ``graphinv/__init__.py`` re-exports and the entry point ``cli.main``."""
    trees = {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text()) for path in PACKAGE.rglob("*.py")}
    exported = {
        alias.asname or alias.name
        for node in trees["__init__.py"].body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        name for module, name in public
        if name not in read | exported and (module, name) != ("cli.py", "main")
    )


def test_no_public_name_is_test_only():
    # A function only the tests call belongs with the tests
    # (tests/conftest.py, tests/oracles.py).
    assert unreferenced_public_names() == []
