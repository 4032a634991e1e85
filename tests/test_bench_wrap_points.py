"""The benchmark's tracer patches program functions by name; keep every name there.

``bench/tracer.py`` wraps each ``WRAP_POINTS`` target in the namespace where its
callers look it up.  A refactor that moves or renames one of them would make
``bench/run.py --trace 1`` fail, so this test reads the list (without importing
or executing the tracer) and resolves every target in ``videostudio``.
"""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _wrap_points():
    with open(TRACER, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), TRACER)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "WRAP_POINTS" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no WRAP_POINTS")


def _resolves(module_name, path):
    owner = importlib.import_module(f"videostudio.{module_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if isinstance(owner, type):
        return attr in owner.__dict__
    return callable(getattr(owner, attr, None))


def test_every_wrap_point_resolves():
    points = _wrap_points()
    assert len(points) > 0
    missing = [f"videostudio.{module}.{path}" for module, path, _ in points
               if not _resolves(module, path)]
    assert not missing, f"bench/tracer.py patches names that are gone: {missing}"
