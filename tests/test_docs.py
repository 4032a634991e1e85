"""README.md names settings and helpers as `module.NAME`, and its Config table
lists the config keys; each must match the code, so the docs cannot drift
when a constant moves or a key is added or deleted."""

import importlib
import pathlib
import pkgutil
import re
import shlex

import pytest

import videostudio
from videostudio import cli
from videostudio.pipeline import default_config

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


def _config_table_keys():
    """Every key in the first column of README's Config table."""
    section = README.read_text(encoding="utf-8").split("\n## Config\n", 1)[1]
    table = re.search(r"^\| key \| default \|\n\| --- \| --- \|\n((?:\|.*\n)+)", section, re.M)
    return [key for row in table.group(1).splitlines()
            for key in re.findall(r"`([^`]+)`", row.split("|")[1])]


def test_readme_config_table_lists_every_leaf_key():
    def leaves(doc, prefix=""):
        for key, value in doc.items():
            if isinstance(value, dict):
                yield from leaves(value, prefix + key + ".")
            else:
                yield prefix + key
    keys = _config_table_keys()
    assert len(keys) == len(set(keys)), keys
    assert sorted(keys) == sorted(leaves(default_config()))


def _cli_examples():
    """Each `videostudio ...` command of README's CLI `sh` block, with its
    backslash continuations joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("videostudio ")]


def test_readme_cli_examples_parse():
    examples = _cli_examples()
    assert len(examples) == 8, examples
    parser = cli._build_parser()
    for line in examples:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README's CLI example does not parse: {line}")
