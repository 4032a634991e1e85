"""Property-based fuzzing of the whole command line.

For each subcommand, every option is left out (unless argparse requires it),
given a usable value, or given a value from a pool of hostile ones: an
existing file, a directory, a missing path and a path under a file (all inside
a fresh directory per example, which is also the working directory), empty,
negative and huge integers, and empty, blank, long and non-ASCII text.  The
usable values (a tiny valid config, a seed, a prompt with its chat fixture, a
camera, intervention depths) let some runs get past the checks and finish.
``cli.main`` must exit 0, 2 or 3, with an argparse refusal counting as 2, and
print no traceback.  Runs are derandomized and keep no example database, as in
``test_fuzz.py``.
"""

import contextlib
import io
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videostudio.cli import main
from videostudio.pipeline import build_mock_llm_fixture

FUZZ = settings(database=None, derandomize=True, deadline=None, max_examples=60)

PROMPT = "a silver robot spends a day in its workshop"
SCRIPT2 = """[Scene 1: prompt: a silver robot kneading dough in the workshop | foreground: silver robot | background: workshop | camera: right, medium]
[Scene 2: prompt: the silver robot pouring coffee at the bench | foreground: silver robot | background: workshop | camera: static, slow]"""
TINY_CONFIG = {"model": {"latent": [3, 8, 8], "frames": 3, "channels": 16, "heads": 2,
                         "blocks": 1},
               "image_sampler": {"steps": 3}, "video_sampler": {"steps": 3, "t_m": 1}}

# {file}, {dir}, {missing}, {config} and {fixture} name paths in the example's directory
PATHS = ["{file}", "{dir}", "{missing}", "{file}/under"]
INTEGERS = ["", "-1", "-9223372036854775809", "18446744073709551616", "9" * 40]
TEXTS = ["", "   ", "é", "日本語のテキスト", "‮🙂", "ü" * 300]
HOSTILE = st.sampled_from(PATHS + INTEGERS + TEXTS)

# (flag, usable value or None, required by argparse); a flag whose usable value
# is True takes no value.  gradcheck has no usable seed: with one it runs the
# whole 3 s audit, which test_cli runs.
SEED, CONFIG = ("--seed", "1", False), ("--config", "{config}", False)
OPTIONS = {
    "script": [CONFIG, SEED, ("--prompt", PROMPT, True), ("--out-dir", "{missing}", False),
               ("--mock-llm", "{fixture}", False)],
    "refs": [CONFIG, SEED, ("--prompt", PROMPT, True), ("--out-dir", "{missing}", False),
             ("--mock-llm", "{fixture}", False)],
    "generate": [CONFIG, SEED, ("--prompt", PROMPT, True), ("--out-dir", "{missing}", True),
                 ("--mock-llm", "{fixture}", False), ("--no-refs", True, False)],
    "metrics": [("--out-dir", "{dir}", True)],
    "gradcheck": [("--seed", None, True)],
    "tm-sweep": [CONFIG, SEED, ("--out-dir", "{missing}", False),
                 ("--camera", "right,medium", False), ("--tms", "1,2", False)],
    "sample-image": [CONFIG, SEED, ("--prompt", PROMPT, True), ("--out", "{missing}", True)],
    "sample-video": [CONFIG, SEED, ("--prompt", PROMPT, True), ("--out", "{missing}", True),
                     ("--camera", "right,medium", False), ("--tm", "1", False)],
}


@st.composite
def argvs(draw, command):
    argv = [command]
    for flag, usable, required in OPTIONS[command]:
        if usable is True:
            argv += draw(st.sampled_from([[], [flag]]))
            continue
        values = [HOSTILE, st.just(usable)] if usable else [HOSTILE]
        if not required:
            values.append(st.none())
        value = draw(st.one_of(values))
        if value is not None:
            argv += [flag, value]
    return argv


def _run(argv):
    """(exit code, stderr) of ``main(argv)`` in a fresh directory that holds
    the pool's file, directory, config and fixture."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, text in (("taken", "not json"), ("tiny.json", json.dumps(TINY_CONFIG)),
                           ("fixture.json", json.dumps(build_mock_llm_fixture(PROMPT, SCRIPT2)))):
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        names = {"file": f"{tmp}/taken", "dir": tmp, "missing": f"{tmp}/missing",
                 "config": f"{tmp}/tiny.json", "fixture": f"{tmp}/fixture.json"}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([arg.format(**names) for arg in argv])
            except SystemExit as exc:  # argparse refuses the arguments
                code = exc.code
        return code, err.getvalue()


@pytest.mark.parametrize("command", OPTIONS)
def test_hostile_arguments_exit_0_2_or_3_without_a_traceback(command):
    @FUZZ
    @given(argvs(command))
    def check(argv):
        code, err = _run(argv)
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
    check()
