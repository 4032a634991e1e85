"""No module of the package imports a name it does not use.

Every name that a module-level ``import`` or ``from ... import`` binds must be
read somewhere in that module or listed in its ``__all__``.  An unread import
is a leftover of code that moved away, and it keeps a dependency that nothing
needs.  ``from __future__`` imports are exempt.  This test parses the sources;
it imports and runs nothing of them.
"""

import ast
import pathlib

import videostudio

SRC = pathlib.Path(videostudio.__file__).parent


def _unused_imports(tree):
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:  # ``import a.b`` binds ``a``
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


def test_every_module_uses_each_name_it_imports():
    unused = {path.stem: found for path in sorted(SRC.glob("*.py"))
              if (found := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert unused == {}


def test_an_unread_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "from .numeric_core import Rng, matmul as mm, Tensor\n"
                     "__all__ = ['Tensor']\n"
                     "x = Rng(0)\n")
    assert _unused_imports(tree) == [(2, "os"), (3, "mm")]
