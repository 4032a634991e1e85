"""Golden outputs of the oracle path, pinned byte for byte.

The oracle denoiser is fully deterministic, so a refactor that keeps the
behaviour keeps every exported byte.  ``golden.json`` holds, for the
three-scene script at seed 7:

* the manifest checksums of ``generate``, with and without references,
  and the metrics it reports;
* the sha256 of every file the ``refs`` command writes;
* the ``tm_sweep`` rows;
* the sha256 of the ``sample-image`` and ``sample-video`` tensors.

Re-record only for an intended change of output:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import os
import sys
import tempfile

from videostudio.cli import main
from videostudio.pipeline import (build_mock_llm_fixture, load_config,
                                  load_manifest, tm_sweep)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
PROMPT = "a silver robot spends a day in its workshop"
SCRIPT3 = """[Scene 1: prompt: a silver robot kneading dough in the workshop | foreground: silver robot | background: workshop | camera: right, medium]
[Scene 2: prompt: the silver robot pouring coffee at the bench | foreground: silver robot | background: workshop | camera: static, slow]
[Scene 3: prompt: the silver robot sweeping floor under lamplight | foreground: silver robot | background: workshop | camera: forward, slow]"""
SEED = "7"


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _tree_digests(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root).replace(os.sep, "/")] = _sha256(path)
    return out


def _run(argv):
    code = main(argv)
    assert code == 0, (argv, code)


def observe(workdir):
    """Run every pinned command under ``workdir`` and collect the outputs."""
    fixture = os.path.join(workdir, "fixture.json")
    with open(fixture, "w", encoding="utf-8") as fh:
        json.dump(build_mock_llm_fixture(PROMPT, SCRIPT3), fh)
    common = ["--prompt", PROMPT, "--seed", SEED]
    doc = {}
    for key, extra in (("generate", []), ("generate_no_refs", ["--no-refs"])):
        out = os.path.join(workdir, key)
        _run(["generate", *common, "--mock-llm", fixture, "--out-dir", out, *extra])
        with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
            metrics = json.load(fh)
        doc[key] = {"checksums": load_manifest(out)["checksums"], "metrics": metrics}
    refs = os.path.join(workdir, "refs")
    _run(["refs", *common, "--mock-llm", fixture, "--out-dir", refs])
    doc["refs"] = _tree_digests(refs)
    doc["tm_sweep"] = tm_sweep(load_config(overrides={"seed": int(SEED)}))
    for key, extra in (("sample_image", []),
                       ("sample_video", ["--camera", "right,medium"])):
        out = os.path.join(workdir, f"{key}.vstn")
        _run([key.replace("_", "-"), *common, "--out", out, *extra])
        doc[key] = _sha256(out)
    return doc


def test_oracle_outputs_match_golden(tmp_path, capsys):
    with open(GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)
    got = observe(str(tmp_path))
    capsys.readouterr()
    for key in want:
        assert got[key] == want[key], key
    assert set(got) == set(want)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        doc = observe(tmp)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
