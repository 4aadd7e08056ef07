"""The package holds only what the program runs."""

import ast
import importlib
from pathlib import Path

import graphinv
from graphinv.invariants import BlockFailure

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


def unpassed_optional_parameters() -> list[str]:
    """``module.function(parameter)`` for each defaulted parameter of a
    function in the package (``__init__`` under its class's name) that no
    call in the package passes, by keyword or by position. Calls are
    matched to functions by name, as ``f(...)`` or ``obj.f(...)``."""
    trees = {path.relative_to(PACKAGE).with_suffix("").as_posix(): ast.parse(path.read_text())
             for path in PACKAGE.rglob("*.py")}
    optional = []  # (module, name, parameter, position among a call's arguments or None)
    for module, tree in trees.items():
        owner = {item: cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for item in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(node)
            name = cls.name if cls and node.name == "__init__" else node.name
            # A call to a method passes the arguments after self.
            skip = 1 if cls and "staticmethod" not in map(ast.unparse, node.decorator_list) else 0
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            optional += [(module, name, p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
            optional += [(module, name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    passed_by_keyword, most_positional, passes_all = set(), {}, set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if any(isinstance(arg, ast.Starred) for arg in node.args) or any(k.arg is None for k in node.keywords):
                passes_all.add(name)
            passed_by_keyword |= {(name, k.arg) for k in node.keywords}
            most_positional[name] = max(most_positional.get(name, 0), len(node.args))
    return sorted(
        f"{module}.{name}({param})"
        for module, name, param, position in optional
        if name not in passes_all
        and (name, param) not in passed_by_keyword
        and (position is None or most_positional.get(name, 0) <= position)
    )


def test_every_optional_parameter_is_passed():
    # A default that every call takes is a constant dressed as an option.
    # cli.main's argv is passed by the tests and the benchmark; the
    # console entry point calls main().
    assert [p for p in unpassed_optional_parameters() if p != "cli.main(argv)"] == []


def discarded_package_results() -> list[str]:
    """``file:line`` of each assignment in the package that unpacks a call
    to a function the package defines into a tuple target holding ``_``."""
    trees = {path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text()) for path in PACKAGE.rglob("*.py")}
    defined = {
        node.name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name in defined and any(
                isinstance(target, ast.Tuple) and any(isinstance(e, ast.Name) and e.id == "_" for e in target.elts)
                for target in node.targets
            ):
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_no_package_result_is_discarded():
    # A part of its own result that every caller drops is work the
    # function need not do: return only what the callers read.
    assert discarded_package_results() == []


def undeclared_raises() -> list[str]:
    """``file:line`` of each ``raise`` in ``invariants/*.py`` and
    ``linalg.py`` whose exception is not BlockFailure or a subclass, as
    looked up by name in the raising module. A bare ``raise`` passes on
    what a callee raised and is allowed."""
    found = []
    for path in [*sorted((PACKAGE / "invariants").glob("*.py")), PACKAGE / "linalg.py"]:
        rel = path.relative_to(PACKAGE)
        module = importlib.import_module(".".join(("graphinv", *rel.with_suffix("").parts)).removesuffix(".__init__"))
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = getattr(module, exc.id, None) if isinstance(exc, ast.Name) else None
            if not (isinstance(cls, type) and issubclass(cls, BlockFailure)):
                found.append(f"{rel.as_posix()}:{node.lineno}")
    return found


def test_blocks_raise_only_declared_failures():
    # A block fails only in a declared way; a value it is handed was
    # checked where it entered (argparse, RegimeConfig), not again here.
    assert undeclared_raises() == []
