"""Backend replies and JSON files are outside input: a malformed one raises a
typed error with its exit code, never a raw exception.

The HTTP backends are driven through a stand-in for ``urllib.request.urlopen``,
so no socket is opened.
"""

import base64
import http.client
import json
import urllib.request

import pytest

from videostudio.cli import main
from videostudio.errors import BackendError, BadConfig, ChecksumMismatch
from videostudio.pipeline import build_mock_llm_fixture, load_config, load_video
from videostudio.ref_images import RemoteTextToImageBackend, ToyTextToImageBackend, encode_ppm
from videostudio.script_engine import (HttpChatBackend, MockChatBackend, generate_script,
                                       parse_chat_response)

PROMPT = "a silver robot spends a day in its workshop"
SCRIPT2 = """[Scene 1: prompt: a silver robot kneading dough in the workshop | foreground: silver robot | background: workshop | camera: right, medium]
[Scene 2: prompt: the silver robot pouring coffee at the bench | foreground: silver robot | background: workshop | camera: static, slow]"""
URL = "http://localhost:9/"
DEPTH = 200_000  # far past the interpreter's recursion limit


class _Reply:
    def __init__(self, body):
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read1(self, n):
        """The whole body on the first call, then ``b""``; a stored error is raised."""
        if isinstance(self.body, Exception):
            raise self.body
        body, self.body = self.body, b""
        return body


def _serve(monkeypatch, body):
    """Every urlopen call answers ``body`` (bytes, or a JSON-able value)."""
    if not isinstance(body, bytes):
        body = json.dumps(body).encode("utf-8")
    monkeypatch.setattr(urllib.request, "urlopen", lambda req, timeout=None: _Reply(body))


def _fail(monkeypatch, make_error, stage):
    """Every urlopen call raises a fresh ``make_error()`` itself (stage
    "urlopen") or answers a reply whose ``read1()`` raises it (stage "read")."""
    def urlopen(req, timeout=None):
        if stage == "urlopen":
            raise make_error()
        return _Reply(make_error())
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)


def _deep_json():
    return "[" * DEPTH + "]" * DEPTH


# --- deeply nested JSON ---------------------------------------------------------------

def _config_file(tmp_path, monkeypatch):
    load_config(tmp_path / "deep.json")


def _mock_fixture(tmp_path, monkeypatch):
    MockChatBackend(str(tmp_path / "deep.json"))


def _manifest(tmp_path, monkeypatch):
    (tmp_path / "deep.json").rename(tmp_path / "manifest.json")
    load_video(str(tmp_path))


def _vocabulary(tmp_path, monkeypatch):
    load_config(overrides={"vocabulary_path": str(tmp_path / "deep.json")})


def _http_chat(tmp_path, monkeypatch):
    _serve(monkeypatch, (tmp_path / "deep.json").read_bytes())
    HttpChatBackend(URL).complete([{"role": "user", "content": "hi"}])


def _http_text_to_image(tmp_path, monkeypatch):
    _serve(monkeypatch, (tmp_path / "deep.json").read_bytes())
    RemoteTextToImageBackend(URL).generate("a red fox", 0)


@pytest.mark.parametrize("read,error", [
    (_config_file, BadConfig), (_mock_fixture, BackendError), (_manifest, ChecksumMismatch),
    (_vocabulary, BadConfig), (_http_chat, BackendError), (_http_text_to_image, BackendError),
])
def test_deeply_nested_json_is_a_typed_error(tmp_path, monkeypatch, read, error):
    (tmp_path / "deep.json").write_text(_deep_json())
    with pytest.raises(error):
        read(tmp_path, monkeypatch)


@pytest.mark.parametrize("flag,code", [("--config", 2), ("--mock-llm", 3)])
def test_deeply_nested_json_file_exit_code(tmp_path, capsys, flag, code):
    path = tmp_path / "deep.json"
    path.write_text(_deep_json())
    argv = ["script", "--prompt", PROMPT, flag, str(path)]
    if flag == "--config":
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(build_mock_llm_fixture(PROMPT, SCRIPT2)))
        argv += ["--mock-llm", str(fixture)]
    assert main(argv) == code
    assert "RecursionError:" not in capsys.readouterr().err


# --- HTTP chat replies ------------------------------------------------------------------

def test_chat_content_must_be_a_string(monkeypatch):
    reply = {"choices": [{"message": {"content": 5}}]}
    with pytest.raises(BackendError, match="not a string"):
        parse_chat_response(reply)
    _serve(monkeypatch, reply)
    with pytest.raises(BackendError):
        generate_script(PROMPT, HttpChatBackend(URL))


def test_chat_reply_probe_exits_3(tmp_path, monkeypatch, capsys):
    _serve(monkeypatch, {"choices": [{"message": {"content": 5}}]})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chat": {"url": URL}}))
    assert main(["script", "--prompt", PROMPT, "--config", str(config)]) == 3
    capsys.readouterr()


# --- HTTP transport failures ---------------------------------------------------------------------

FAILURES = {
    "timeout": lambda: TimeoutError("timed out"),
    "disconnected": lambda: http.client.RemoteDisconnected("closed without a response"),
    "truncated": lambda: http.client.IncompleteRead(b'{"choi', 40),
}
STAGES = ["urlopen", "read"]


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("make_error", FAILURES.values(), ids=FAILURES.keys())
def test_http_transport_failure_is_a_backend_error(monkeypatch, make_error, stage):
    _fail(monkeypatch, make_error, stage)
    name = type(make_error()).__name__
    with pytest.raises(BackendError, match=name):
        HttpChatBackend(URL).complete([{"role": "user", "content": "hi"}])
    with pytest.raises(BackendError, match=name):
        RemoteTextToImageBackend(URL).generate("a red fox", 0)


@pytest.mark.parametrize("stage", STAGES)
@pytest.mark.parametrize("make_error", FAILURES.values(), ids=FAILURES.keys())
def test_http_transport_failure_probe_exits_3(tmp_path, monkeypatch, capsys, make_error, stage):
    _fail(monkeypatch, make_error, stage)
    chat = tmp_path / "chat.json"
    chat.write_text(json.dumps({"chat": {"url": URL}}))
    assert main(["script", "--prompt", PROMPT, "--config", str(chat)]) == 3
    t2i = tmp_path / "t2i.json"
    t2i.write_text(json.dumps({"text_to_image": {"url": URL}}))
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(build_mock_llm_fixture(PROMPT, SCRIPT2)))
    assert main(["refs", "--prompt", PROMPT, "--config", str(t2i),
                 "--mock-llm", str(fixture), "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "Traceback" not in err


# --- HTTP text-to-image replies ---------------------------------------------------------------

_GOOD_PPM = encode_ppm(ToyTextToImageBackend().generate("a red fox", 0))

T2I_REPLIES = {
    "payload-not-an-object": [base64.b64encode(_GOOD_PPM).decode("ascii")],
    "image-not-a-string": {"image_ppm_b64": [1, 2]},
    "image-not-a-ppm": {"image_ppm_b64": base64.b64encode(b"P6\n2 2\n255\n").decode("ascii")},
}


def test_text_to_image_reply_round_trips(monkeypatch):
    _serve(monkeypatch, {"image_ppm_b64": base64.b64encode(_GOOD_PPM).decode("ascii")})
    assert RemoteTextToImageBackend(URL).generate("a red fox", 0).data.shape == (64, 64, 3)


@pytest.mark.parametrize("reply", T2I_REPLIES.values(), ids=T2I_REPLIES.keys())
def test_text_to_image_reply_is_a_backend_error(monkeypatch, reply):
    _serve(monkeypatch, reply)
    with pytest.raises(BackendError):
        RemoteTextToImageBackend(URL).generate("a red fox", 0)


@pytest.mark.parametrize("reply", T2I_REPLIES.values(), ids=T2I_REPLIES.keys())
def test_text_to_image_reply_probe_exits_3(tmp_path, monkeypatch, capsys, reply):
    _serve(monkeypatch, reply)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"text_to_image": {"url": URL}}))
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(build_mock_llm_fixture(PROMPT, SCRIPT2)))
    assert main(["refs", "--prompt", PROMPT, "--config", str(config),
                 "--mock-llm", str(fixture), "--out-dir", str(tmp_path / "out")]) == 3
    capsys.readouterr()
