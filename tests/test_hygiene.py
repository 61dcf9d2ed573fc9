"""Static hygiene of the package sources, read with the standard ``ast`` module.

Every module-level import is used, every ``__all__`` entry names
something the module defines, and every module-level function or class is
used somewhere in the package or re-exported by its ``__init__``. The
package ``__init__`` imports names only to re-export them, so its imports
are exempt from the first check.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eqarea"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree):
    """(bound name, line) of every module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _used_names(tree):
    """Names loaded anywhere, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def _defined(tree):
    """Names bound at module level."""
    names = {name for name, _ in _imports(tree)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    used = _used_names(tree) | set(_exported(tree))
    unused = [f"{name} (line {line})" for name, line in _imports(tree) if name not in used]
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_entries_defined(path):
    tree = _tree(path)
    missing = [name for name in _exported(tree) if name not in _defined(tree)]
    assert not missing, f"{path.name}: __all__ names undefined {missing}"


def _referenced(tree):
    """Names loaded or read as attributes anywhere in the module."""
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return _used_names(tree) | attrs


def test_every_definition_used_in_the_package():
    # a function or class only tests reach is dead code, unless the
    # package re-exports it as public API
    trees = {path: _tree(path) for path in MODULES}
    init = trees[SRC / "__init__.py"]
    public = {name for name, _ in _imports(init)}
    used = set().union(*(_referenced(tree) for tree in trees.values()))
    unused = [f"{path.stem}.{node.name}" for path, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in used | public]
    assert not unused, f"defined but never used in the package: {unused}"
