"""README.md names settings and helpers as `module.NAME`; each must exist, so
the docs cannot drift when a constant moves or is deleted."""

import importlib
import pathlib
import pkgutil
import re

import videostudio

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(videostudio.__path__))


def _references():
    """(module, NAME) for every `module.NAME` inside an inline code span,
    also written `videostudio.module.NAME`, outside fenced blocks."""
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    name = re.compile(r"\b(?:videostudio\.)?(%s)\.(?!py\b)(\w+)" % "|".join(MODULES))
    return [m.groups() for span in re.findall(r"`([^`]+)`", text) for m in name.finditer(span)]


def test_readme_module_references_resolve():
    refs = _references()
    assert len(refs) >= 13, refs  # the scan itself still finds the table's names
    missing = [f"{mod}.{attr}" for mod, attr in refs
               if not hasattr(importlib.import_module(f"videostudio.{mod}"), attr)]
    assert not missing, missing
