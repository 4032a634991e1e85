"""Multi-scene script generation, parsing, and entity bookkeeping.

The script grammar is one bracketed record per scene with labeled,
pipe-separated fields:

    [Scene <i>: prompt: <text> | foreground: <name>{, <name>} |
     background: <name> | camera: <direction>, <speed>]

Scene indices are contiguous from 1.  Entity names are normalized by
trimming, collapsing internal whitespace, and lowercasing, so "strict
matching" is plain string equality.  A chat backend (real or mock) turns
a user prompt into a script through in-context examples, with a bounded
re-run loop when the reply does not parse or validate.
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request
from dataclasses import dataclass
from importlib import resources

from .camera_motion import DIRECTIONS, SPEEDS
from .errors import (BackendError, EmptyDescription, EmptyPrompt, EmptyScript,
                     MalformedScene, NonContiguousIndices,
                     ScriptGenerationExhausted, UnknownCameraToken,
                     WrongExampleCount)
from .numeric_core import hash64

MAX_SCENES = 12
MAX_FOREGROUNDS = 4


# --- domain types -----------------------------------------------------------


@dataclass
class CameraMove:
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
    description: str | None = None

    @property
    def common(self):
        return len(self.occurrences) >= 2


@dataclass
class ChatMessage:
    role: str
    content: str


@dataclass
class RetryPolicy:
    max_attempts: int = 3
    on_exhaustion: str = "error"  # "error" | "best_effort_last"

    def __post_init__(self):
        if self.max_attempts < 1:
            raise MalformedScene("max_attempts must be >= 1")
        if self.on_exhaustion not in ("error", "best_effort_last"):
            raise MalformedScene(f"unknown on_exhaustion {self.on_exhaustion!r}")


@dataclass
class Violation:
    code: str
    message: str
    scene_index: int | None = None


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


def _parse_camera(text, line_number):
    parts = [p.strip().lower() for p in text.split(",")]
    if len(parts) != 2:
        raise MalformedScene(f"line {line_number}: camera needs 'direction, speed', got {text!r}",
                             line_number)
    direction, speed = parts
    if direction not in DIRECTIONS:
        raise UnknownCameraToken(f"line {line_number}: unknown camera direction {direction!r}")
    if speed not in SPEEDS:
        raise UnknownCameraToken(f"line {line_number}: unknown camera speed {speed!r}")
    return CameraMove(direction, speed)


def _parse_foregrounds(text, line_number):
    text = text.strip()
    if not text or text.lower() == "none":
        return []
    names = [normalize_entity_name(n) for n in text.split(",")]
    if any(not n for n in names):
        raise MalformedScene(f"line {line_number}: empty foreground name", line_number)
    return names


def parse_script(text):
    """Parse grammar text into a VideoScript (strict, line-oriented)."""
    if text is None or not text.strip():
        raise EmptyScript("script text is empty")
    scenes = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _RECORD.match(line)
        if m is None:
            raise MalformedScene(f"line {line_number}: not a scene record: {line!r}", line_number)
        index = int(m.group(1))
        prompt = m.group(2).strip()
        if not prompt:
            raise MalformedScene(f"line {line_number}: empty scene prompt", line_number)
        foreground = _parse_foregrounds(m.group(3), line_number)
        background = normalize_entity_name(m.group(4))
        if not background or "," in m.group(4):
            raise MalformedScene(f"line {line_number}: background must be exactly one name",
                                 line_number)
        camera = _parse_camera(m.group(5), line_number)
        scenes.append(SceneSpec(index, prompt, foreground, background, camera))
    if not scenes:
        raise EmptyScript("no scene records found")
    scenes.sort(key=lambda s: s.index)
    indices = [s.index for s in scenes]
    if indices != list(range(1, len(scenes) + 1)):
        raise NonContiguousIndices(f"scene indices {indices} are not 1..{len(scenes)}")
    return VideoScript(source_prompt="", scenes=scenes)


def serialize_script(script):
    lines = []
    for scene in script.scenes:
        fg = ", ".join(scene.foreground) if scene.foreground else "none"
        lines.append(f"[Scene {scene.index}: prompt: {scene.prompt} | "
                     f"foreground: {fg} | background: {scene.background} | "
                     f"camera: {scene.camera.direction}, {scene.camera.speed}]")
    return "\n".join(lines)


def validate_script(script):
    """Check every type invariant; violations come back as data."""
    violations = []

    def flag(code, message, scene_index=None):
        violations.append(Violation(code, message, scene_index))

    if not script.scenes:
        flag("EmptyScript", "script has no scenes")
        return violations
    indices = [s.index for s in script.scenes]
    if indices != list(range(1, len(script.scenes) + 1)):
        flag("NonContiguousIndices", f"scene indices {indices} are not 1..{len(indices)}")
    if len(script.scenes) > MAX_SCENES:
        flag("TooManyScenes", f"{len(script.scenes)} scenes exceeds the cap of {MAX_SCENES}")
    kinds = {}
    for scene in script.scenes:
        if not scene.prompt or not scene.prompt.strip():
            flag("EmptyPrompt", "scene prompt is empty", scene.index)
        elif any(ch in scene.prompt for ch in "|[]\n"):
            flag("MalformedScene", "scene prompt contains grammar delimiters", scene.index)
        if len(scene.foreground) > MAX_FOREGROUNDS:
            flag("TooManyForegrounds",
                 f"{len(scene.foreground)} foregrounds exceeds {MAX_FOREGROUNDS}", scene.index)
        for name in scene.foreground:
            if not name or name != normalize_entity_name(name):
                flag("BadEntityName", f"foreground name {name!r} not normalized", scene.index)
            else:
                kinds.setdefault(name, set()).add("foreground")
        name = scene.background
        if not name or name != normalize_entity_name(name):
            flag("BadEntityName", f"background name {name!r} not normalized", scene.index)
        else:
            kinds.setdefault(name, set()).add("background")
        if scene.camera.direction not in DIRECTIONS:
            flag("UnknownCameraToken",
                 f"unknown camera direction {scene.camera.direction!r}", scene.index)
        if scene.camera.speed not in SPEEDS:
            flag("UnknownCameraToken",
                 f"unknown camera speed {scene.camera.speed!r}", scene.index)
        if len(set(scene.foreground)) != len(scene.foreground):
            flag("DuplicateForeground", "repeated foreground name", scene.index)
    for name, seen in kinds.items():
        if len(seen) > 1:
            flag("EntityKindConflict", f"{name!r} appears as both foreground and background")
    return violations


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


def build_chat_request(messages, model="local-chat"):
    return {"model": model,
            "messages": [{"role": m.role, "content": m.content} for m in messages]}


def parse_chat_response(payload):
    try:
        return payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise BackendError(f"chat response missing choices[0].message.content: {exc}") from exc


def request_hash(request):
    canonical = json.dumps(request, sort_keys=True, separators=(",", ":"))
    return format(hash64("chat-request", canonical), "016x")


class HttpChatBackend:
    """POSTs the chat-completion request shape to a local endpoint."""

    def __init__(self, url, model="local-chat", timeout=60.0):
        self.url = url
        self.model = model
        self.timeout = timeout

    def complete(self, messages):
        body = json.dumps(build_chat_request(messages, self.model)).encode("utf-8")
        req = urllib.request.Request(self.url, data=body,
                                     headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, ValueError) as exc:
            raise BackendError(f"chat backend at {self.url} failed: {exc}") from exc
        return parse_chat_response(payload)


class MockChatBackend:
    """Table-driven fixture: request hash -> response text (or a list of
    texts consumed one per repeated identical request)."""

    def __init__(self, table, model="local-chat"):
        if isinstance(table, dict):
            self.table = dict(table)
        else:
            with open(table, "r", encoding="utf-8") as fh:
                self.table = json.load(fh)
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


class SequenceChatBackend:
    """Returns canned responses in order; useful for retry tests."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.call_count = 0

    def complete(self, messages):
        if self.call_count >= len(self.responses):
            raise BackendError("scripted backend ran out of responses")
        text = self.responses[self.call_count]
        self.call_count += 1
        return text


# --- query construction -----------------------------------------------------------


def default_script_examples():
    """The shipped transcript: system instruction plus 5 example pairs."""
    data = resources.files("videostudio").joinpath("assets/script_examples.json")
    rows = json.loads(data.read_text(encoding="utf-8"))
    return [ChatMessage(r["role"], r["content"]) for r in rows]


def _check_example_transcript(examples):
    if not examples or examples[0].role != "system":
        raise WrongExampleCount("example transcript must start with a system message")
    tail = examples[1:]
    if len(tail) != 10:
        raise WrongExampleCount(f"need exactly 5 example pairs, got {len(tail)} messages")
    for i, msg in enumerate(tail):
        want = "user" if i % 2 == 0 else "assistant"
        if msg.role != want:
            raise WrongExampleCount(f"example message {i + 1} has role {msg.role!r}, want {want!r}")


def build_script_query(prompt, examples=None):
    """System instruction + five example exchanges + the user's theme."""
    if not prompt or not prompt.strip():
        raise EmptyPrompt("script prompt is empty")
    if examples is None:
        examples = default_script_examples()
    _check_example_transcript(examples)
    return list(examples) + [ChatMessage("user", f"Video theme: {prompt.strip()}")]


def build_aspect_query(entity):
    role = "subject" if entity.kind == "foreground" else "setting"
    return [
        ChatMessage("system",
                    "You help an illustrator plan reference art. Answer concisely."),
        ChatMessage("user",
                    f"List the visual aspects worth pinning down before drawing the "
                    f"{role} '{entity.name}' so that it looks the same in every scene."),
    ]


def build_description_query(entity, aspects_answer, source_prompt):
    return build_aspect_query(entity) + [
        ChatMessage("assistant", aspects_answer),
        ChatMessage("user",
                    f"Using those aspects, write one detailed visual description of "
                    f"'{entity.name}'. Keep it consistent with this video theme: "
                    f"{source_prompt}. Mention concrete attributes like colors and shapes."),
    ]


def generate_entity_description(entity, source_prompt, backend):
    """Two-round dialogue: ask for aspects, then for the description."""
    aspects = backend.complete(build_aspect_query(entity))
    description = backend.complete(build_description_query(entity, aspects, source_prompt))
    if not description or not description.strip():
        raise EmptyDescription(f"backend returned an empty description for {entity.name!r}")
    return description.strip()


def generate_script(prompt, backend, policy=None, examples=None):
    """Query the backend until a reply parses and validates, bounded retries."""
    policy = policy or RetryPolicy()
    transcripts = []
    best_effort = None
    for _attempt in range(policy.max_attempts):
        messages = build_script_query(prompt, examples)
        reply = backend.complete(messages)
        transcripts.append(list(messages) + [ChatMessage("assistant", reply)])
        try:
            script = parse_script(reply)
        except (MalformedScene, EmptyScript, NonContiguousIndices, UnknownCameraToken):
            continue
        script.source_prompt = prompt
        if validate_script(script):
            best_effort = script
            continue
        return script
    if policy.on_exhaustion == "best_effort_last" and best_effort is not None:
        return best_effort
    raise ScriptGenerationExhausted(
        f"no valid script after {policy.max_attempts} attempts", transcripts)
