"""Multi-scene script generation, parsing, and entity bookkeeping.

The script grammar is one bracketed record per scene with labeled,
pipe-separated fields:

    [Scene <i>: prompt: <text> | foreground: <name>{, <name>} |
     background: <name> | camera: <direction>, <speed>]

Scene indices are contiguous from 1.  Entity names are normalized by
trimming, collapsing internal whitespace, and lowercasing, so "strict
matching" is plain string equality.  A chat backend (real or mock) turns
a user prompt into a script through in-context examples, with a bounded
re-run loop when the reply does not parse.  ``parse_script`` holds every
rule a script must meet, so a parsed script is a valid one.
"""

from __future__ import annotations

import http.client
import json
import re
import time
import urllib.request
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

from .camera_motion import DIRECTIONS, SPEEDS
from .errors import (BackendError, EmptyPrompt, MalformedScene, ScriptGenerationExhausted,
                     UnknownCameraToken)
from .numeric_core import hash64, read_json

MAX_SCENES = 12
MAX_FOREGROUNDS = 4
MAX_ATTEMPTS = 3
# Characters of the last refusal that ScriptGenerationExhausted quotes; a reply
# line can be 64 KiB, and the CLI prints the error on one line.
_REFUSAL_CHARS = 200
CHAT_TIMEOUT = 60.0  # seconds an HTTP chat request may take
CHAT_MODEL = "local-chat"  # model name sent in, and hashed into, every chat request
# Largest reply body an HTTP backend may send.  The largest legitimate one is
# a 64x64 base64 PPM from text-to-image, about 16.4 KB: 4x headroom.
MAX_REPLY_BYTES = 1 << 16


# --- domain types -----------------------------------------------------------


class CameraMove(NamedTuple):
    direction: str
    speed: str


@dataclass
class SceneSpec:
    index: int
    prompt: str
    foreground: list
    background: str
    camera: CameraMove


@dataclass
class VideoScript:
    source_prompt: str
    scenes: list


@dataclass
class EntityRecord:
    name: str
    kind: str  # "foreground" | "background"
    occurrences: set

    @property
    def common(self):
        return len(self.occurrences) >= 2


def normalize_entity_name(name):
    return " ".join(name.split()).lower()


# --- grammar ------------------------------------------------------------------

_RECORD = re.compile(
    r"^\[\s*scene\s+(\d+)\s*:\s*prompt\s*:\s*(.*?)\s*"
    r"\|\s*foreground\s*:\s*(.*?)\s*"
    r"\|\s*background\s*:\s*(.*?)\s*"
    r"\|\s*camera\s*:\s*(.*?)\s*\]\s*[.;,]?\s*$",
    re.IGNORECASE,
)


def parse_camera(text, where):
    """``direction, speed`` in any case as a CameraMove; errors name ``where``."""
    parts = [p.strip().lower() for p in text.split(",")]
    if len(parts) != 2:
        raise MalformedScene(f"{where}: camera needs 'direction, speed', got {text!r}")
    direction, speed = parts
    if direction not in DIRECTIONS:
        raise UnknownCameraToken(f"{where}: unknown camera direction {direction!r}")
    if speed not in SPEEDS:
        raise UnknownCameraToken(f"{where}: unknown camera speed {speed!r}")
    return CameraMove(direction, speed)


def _refuse_grammar_chars(text, what, line_number):
    if any(ch in text for ch in "|[]"):
        raise MalformedScene(f"line {line_number}: {what} holds a '|', '[' or ']'")


def _parse_foregrounds(text, line_number):
    text = text.strip()
    if not text or text.lower() == "none":
        return []
    names = [normalize_entity_name(n) for n in text.split(",")]
    if any(not n for n in names):
        raise MalformedScene(f"line {line_number}: empty foreground name")
    if len(names) > MAX_FOREGROUNDS:
        raise MalformedScene(f"line {line_number}: more than {MAX_FOREGROUNDS} foregrounds")
    if len(set(names)) != len(names):
        raise MalformedScene(f"line {line_number}: a foreground is named twice")
    return names


def parse_script(text):
    """Parse grammar text into a VideoScript; the one place script rules live."""
    if text is None or not text.strip():
        raise MalformedScene("script text is empty")
    scenes = []
    kinds = {}  # entity name -> "foreground" | "background"
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if len(scenes) == MAX_SCENES:
            raise MalformedScene(f"line {line_number}: more than {MAX_SCENES} scenes")
        m = _RECORD.match(line)
        if m is None:
            raise MalformedScene(f"line {line_number}: not a scene record: {line!r}")
        try:
            index = int(m.group(1))
        except ValueError:  # more digits than int() converts
            raise MalformedScene(f"line {line_number}: scene index is too long") from None
        prompt = m.group(2).strip()
        if not prompt:
            raise MalformedScene(f"line {line_number}: empty scene prompt")
        _refuse_grammar_chars(prompt, "scene prompt", line_number)
        foreground = _parse_foregrounds(m.group(3), line_number)
        background = normalize_entity_name(m.group(4))
        if not background or "," in m.group(4):
            raise MalformedScene(f"line {line_number}: background must be exactly one name")
        for name in foreground + [background]:
            _refuse_grammar_chars(name, f"entity name {name!r}", line_number)
        for name, kind in [(n, "foreground") for n in foreground] + [(background, "background")]:
            if kinds.setdefault(name, kind) != kind:
                raise MalformedScene(f"line {line_number}: {name!r} is foreground and background")
        camera = parse_camera(m.group(5), f"line {line_number}")
        scenes.append(SceneSpec(index, prompt, foreground, background, camera))
    scenes.sort(key=lambda s: s.index)
    indices = [s.index for s in scenes]
    if indices != list(range(1, len(scenes) + 1)):
        raise MalformedScene(f"scene indices {indices} are not 1..{len(scenes)}")
    return VideoScript(source_prompt="", scenes=scenes)


def serialize_script(script):
    lines = []
    for scene in script.scenes:
        fg = ", ".join(scene.foreground) if scene.foreground else "none"
        lines.append(f"[Scene {scene.index}: prompt: {scene.prompt} | "
                     f"foreground: {fg} | background: {scene.background} | "
                     f"camera: {scene.camera.direction}, {scene.camera.speed}]")
    return "\n".join(lines)


def find_common_entities(script):
    """One record per unique normalized name, in first-appearance order."""
    records = {}
    for scene in script.scenes:
        for name in scene.foreground:
            rec = records.setdefault(name, EntityRecord(name, "foreground", set()))
            rec.occurrences.add(scene.index)
        rec = records.setdefault(scene.background,
                                 EntityRecord(scene.background, "background", set()))
        rec.occurrences.add(scene.index)
    return list(records.values())


# --- chat wire format -----------------------------------------------------------


def build_chat_request(messages, model=CHAT_MODEL):
    """``messages`` is a list of ``{"role": ..., "content": ...}`` dicts, sent as is."""
    return {"model": model, "messages": messages}


def parse_chat_response(payload):
    try:
        content = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise BackendError(f"chat response missing choices[0].message.content: {exc}") from exc
    if not isinstance(content, str):
        raise BackendError(f"chat response content is a {type(content).__name__}, not a string")
    return content


def request_hash(request):
    canonical = json.dumps(request, sort_keys=True, separators=(",", ":"))
    return format(hash64("chat-request", canonical), "016x")


def post_json(url, doc, timeout):
    """POST ``doc`` as JSON to ``url`` and return the JSON reply.

    Any failure to reach the service, read its reply or parse it is
    BackendError: a refused connection or HTTP error status, a timeout, a
    body still arriving ``timeout`` s after the call or over
    MAX_REPLY_BYTES, a dropped or truncated reply, bad UTF-8 or JSON, or
    deep nesting.
    """
    deadline = time.monotonic() + timeout
    req = urllib.request.Request(url, data=json.dumps(doc).encode("utf-8"),
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            body = bytearray()
            for chunk in iter(lambda: resp.read1(1 << 14), b""):  # one socket read each
                body += chunk
                if len(body) > MAX_REPLY_BYTES:
                    raise BackendError(f"backend at {url} sent over {MAX_REPLY_BYTES} bytes")
                if time.monotonic() > deadline:
                    raise BackendError(f"backend at {url} took over {timeout} s to reply")
            return json.loads(body.decode("utf-8"))
    except (OSError, http.client.HTTPException, ValueError, RecursionError) as exc:
        raise BackendError(f"backend at {url} failed: {type(exc).__name__}: {exc}") from exc


class HttpChatBackend:
    """POSTs the chat-completion request shape to a local endpoint."""

    def __init__(self, url, model=CHAT_MODEL):
        self.url = url
        self.model = model

    def complete(self, messages):
        return parse_chat_response(post_json(self.url, build_chat_request(messages, self.model),
                                             CHAT_TIMEOUT))


def _is_reply(value):
    return isinstance(value, str) or (
        isinstance(value, list) and bool(value) and all(isinstance(v, str) for v in value))


class MockChatBackend:
    """Table-driven fixture: request hash -> response text (or a non-empty
    list of texts consumed one per repeated identical request).

    A fixture file is outside input: one that cannot be read, is not JSON
    or is not such a table raises BackendError.
    """

    def __init__(self, table, model=CHAT_MODEL):
        if not isinstance(table, dict):
            table = read_json(table, lambda message: BackendError(f"mock fixture {message}"))
        if not isinstance(table, dict) or not all(map(_is_reply, table.values())):
            raise BackendError("mock fixture must map request hashes to a reply text "
                               "or a non-empty list of reply texts")
        self.table = dict(table)
        self.model = model
        self.call_count = 0
        self._consumed = {}

    def complete(self, messages):
        self.call_count += 1
        h = request_hash(build_chat_request(messages, self.model))
        if h not in self.table:
            raise BackendError(f"mock fixture has no entry for request hash {h}")
        value = self.table[h]
        if isinstance(value, list):
            i = self._consumed.get(h, 0)
            self._consumed[h] = i + 1
            return value[min(i, len(value) - 1)]
        return value


# --- query construction -----------------------------------------------------------


def default_script_examples():
    """The shipped transcript: system instruction plus 5 example pairs."""
    data = resources.files("videostudio").joinpath("assets/script_examples.json")
    return json.loads(data.read_text(encoding="utf-8"))


def build_script_query(prompt):
    """System instruction + five example exchanges + the user's theme."""
    if not prompt or not prompt.strip():
        raise EmptyPrompt("script prompt is empty")
    return default_script_examples() + [{"role": "user",
                                         "content": f"Video theme: {prompt.strip()}"}]


def build_aspect_query(entity):
    role = "subject" if entity.kind == "foreground" else "setting"
    return [
        {"role": "system",
         "content": "You help an illustrator plan reference art. Answer concisely."},
        {"role": "user",
         "content": f"List the visual aspects worth pinning down before drawing the "
                    f"{role} '{entity.name}' so that it looks the same in every scene."},
    ]


def build_description_query(entity, aspects_answer, source_prompt):
    return build_aspect_query(entity) + [
        {"role": "assistant", "content": aspects_answer},
        {"role": "user",
         "content": f"Using those aspects, write one detailed visual description of "
                    f"'{entity.name}'. Keep it consistent with this video theme: "
                    f"{source_prompt}. Mention concrete attributes like colors and shapes."},
    ]


def generate_entity_description(entity, source_prompt, backend):
    """Two-round dialogue: ask for aspects, then for the description."""
    aspects = backend.complete(build_aspect_query(entity))
    description = backend.complete(build_description_query(entity, aspects, source_prompt))
    if not description or not description.strip():
        raise BackendError(f"backend returned an empty description for {entity.name!r}")
    return description.strip()


def generate_script(prompt, backend, max_attempts=MAX_ATTEMPTS):
    """Query the backend until a reply parses, at most ``max_attempts``
    times; then raise ScriptGenerationExhausted, which says why the last
    reply was refused."""
    messages = build_script_query(prompt)
    refusal = ""
    for _attempt in range(max_attempts):
        try:
            script = parse_script(backend.complete(messages))
        except (MalformedScene, UnknownCameraToken) as exc:
            refusal = f"; the last reply was refused: {type(exc).__name__}: {exc}"
            continue
        script.source_prompt = prompt
        return script
    raise ScriptGenerationExhausted(
        f"no valid script after {max_attempts} attempts{refusal[:_REFUSAL_CHARS]}")
