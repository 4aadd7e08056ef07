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


def unread_dataclass_fields() -> list[str]:
    """``Class.field`` for each annotated field of a ``@dataclass`` in the
    package whose name no package code reads, as an attribute or as a
    string constant (``getattr(obj, "field")``)."""
    trees = [ast.parse(path.read_text()) for path in PACKAGE.rglob("*.py")]
    fields = [
        (node.name, item.target.id)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in read)


def test_every_dataclass_field_is_read():
    # A field nothing reads is dead weight on every instance, and a test
    # that reads it checks what the program never uses.
    assert unread_dataclass_fields() == []
