"""Files that a run reads or writes go through one reader and one writer.

``numeric_core.read_bytes`` and ``numeric_core.write_bytes`` are the only
functions in the package that call ``open``.  A second reader would be a place
where bytes get decoded without the typed error of the first, and, for an
exported tree, without the checksum that vouches for them.  This test parses
the sources; it imports and runs nothing of them.
"""

import ast
import pathlib

import videostudio

SRC = pathlib.Path(videostudio.__file__).parent
# ``Path.read_bytes``, ``Path.write_bytes``, ``io.open``, ``os.open``, ``Path.open``
_OPENING_METHODS = {"read_bytes", "write_bytes", "open"}


class _OpeningCalls(ast.NodeVisitor):
    """(module, enclosing function, callee) of every call that opens a file."""

    def __init__(self, module):
        self.module, self.scope, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            self.found.append((self.module, ".".join(self.scope), "open"))
        elif isinstance(func, ast.Attribute) and func.attr in _OPENING_METHODS:
            self.found.append((self.module, ".".join(self.scope), ast.unparse(func)))
        self.generic_visit(node)


def _opening_calls():
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _OpeningCalls(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        found += visitor.found
    return found


def test_only_the_one_reader_and_the_one_writer_open_files():
    assert _opening_calls() == [("numeric_core", "read_bytes", "open"),
                                ("numeric_core", "write_bytes", "open")]
