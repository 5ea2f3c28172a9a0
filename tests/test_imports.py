"""The library imports only the standard library, numpy and itself, every
name a module imports at top level is used, every private top-level name
is referenced somewhere in the library, and no module reaches into another
module's private names."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vidmem"
MODULES = sorted(SRC.glob("*.py"))


def _imported_roots(tree):
    """(line, top-level package) of every absolute import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def _top_level_bindings(tree):
    """(line, bound name) of every import in the module body."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__ count as used
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_modules_found():
    assert {"harness.py", "textmodel.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_imports_are_stdlib_numpy_or_vidmem(path):
    tree = ast.parse(path.read_text())
    allowed = set(sys.stdlib_module_names) | {"numpy", "vidmem"}
    outside = [f"{path.name}:{line}: {root}" for line, root in _imported_roots(tree)
               if root not in allowed]
    assert outside == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_top_level_import(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = [f"{path.name}:{line}: {name}" for line, name in _top_level_bindings(tree)
              if name not in used]
    assert unused == []


def _private_definitions(tree):
    """(line, name) of every private function, class or variable the module
    body defines; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def _references(tree):
    """Every name the module reads, by itself, as an attribute or through an
    import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_unreferenced_private_name():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    unreferenced = [f"{name}:{line}: {private}" for name, tree in trees.items()
                    for line, private in _private_definitions(tree)
                    if private not in referenced]
    assert unreferenced == []


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_crossings(tree):
    """(line, name) of every private name the module imports from another
    library module, or reads as an attribute of one it imported."""
    modules = {alias.asname or alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level and node.module is None
               for alias in node.names}  # `from . import corpus as corpus_mod`
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [alias.name for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            names = [node.attr]
        else:
            continue
        yield from ((node.lineno, name) for name in names if _is_private(name))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_name_of_another_module(path):
    crossings = [f"{path.name}:{line}: {name}"
                 for line, name in _private_crossings(ast.parse(path.read_text()))]
    assert crossings == []


# the modules that own a file format: CSV and word-vector files, model files,
# and configs, reports and sidecars
FILE_OWNERS = {"corpus", "regress", "cli"}
_FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _file_calls(tree):
    """(line, name) of every call of `open` or of a `Path` read or write method."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                yield node.lineno, "open"
            elif isinstance(func, ast.Attribute) and func.attr in _FILE_METHODS:
                yield node.lineno, func.attr


def test_only_format_owners_touch_files():
    calls = {path.stem: list(_file_calls(ast.parse(path.read_text()))) for path in MODULES}
    outside = [f"{stem}.py:{line}: {name}" for stem, found in calls.items()
               if stem not in FILE_OWNERS for line, name in found]
    assert outside == []
    assert all(calls[stem] for stem in FILE_OWNERS)
