"""Every module-level import in ``src/repro`` is used by its module.

No linter runs over the tree, so this is the check: an ``ast`` scan of
each module's top-level imported names against the names the module
reads.  ``__init__.py`` files (package re-exports) and names listed in
a module's ``__all__`` are exempt; a quoted annotation counts as a use
of the names inside it.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   os.pardir, os.pardir, "src", "repro")


def _modules():
    for dirpath, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
                path = os.path.join(dirpath, name)
                yield os.path.relpath(path, SRC).replace(os.sep, "/")


def _imported(tree):
    """Top-level ``import``/``from ... import`` bindings -> line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree):
    """Names the module reads, including inside quoted annotations and
    the strings of ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            annotation = getattr(node, "annotation", None) or \
                getattr(node, "returns", None)
            if isinstance(annotation, ast.Constant) and \
                    isinstance(annotation.value, str):
                used |= {n.id for n in ast.walk(ast.parse(
                    annotation.value, mode="eval"))
                    if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    return used


def unused_imports(source):
    """``[(line, name)]`` of the module's imports it never reads."""
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(_modules()))
def test_no_unused_imports(path):
    with open(os.path.join(SRC, path)) as handle:
        unused = unused_imports(handle.read())
    assert not unused, f"src/repro/{path}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_scan_flags_an_unused_import():
    """The scan itself: an unused name is reported, a name read only in
    a quoted annotation or listed in ``__all__`` is not."""
    assert unused_imports(
        "from typing import Dict, List, Set\n"
        "import os.path\n"
        "__all__ = ['Set']\n"
        "def f(x: 'Dict[str, int]'):\n"
        "    return x\n") == [(1, "List"), (2, "os")]
