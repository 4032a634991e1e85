import contextlib
import http.server
import json
import threading
import time

import pytest

from videostudio.errors import (BackendError, EmptyPrompt, MalformedScene,
                                ScriptGenerationExhausted, UnknownCameraToken)
from videostudio.numeric_core import Rng
from videostudio.script_engine import (MAX_FOREGROUNDS, MAX_REPLY_BYTES, MAX_SCENES,
                                       CameraMove,
                                       EntityRecord, MockChatBackend,
                                       SceneSpec, VideoScript,
                                       build_chat_request,
                                       build_description_query,
                                       build_script_query, build_aspect_query,
                                       default_script_examples,
                                       find_common_entities,
                                       generate_entity_description,
                                       generate_script, normalize_entity_name,
                                       parse_chat_response, parse_script,
                                       post_json, request_hash, serialize_script)

GOOD = """[Scene 1: prompt: a fox trots through snow | foreground: red fox | background: snowy forest | camera: right, slow]
[Scene 2: prompt: the fox digs for mice | foreground: red fox | background: snowy forest | camera: static, medium]"""


def _replies(table):
    """MockChatBackend answering each (messages, reply) pair of ``table``;
    a list of replies is given out in order, the last one repeating."""
    return MockChatBackend({request_hash(build_chat_request(messages)): reply
                            for messages, reply in table})


def _script_backend(replies):
    return _replies([(build_script_query("fox documentary"), list(replies))])


# --- grammar round trips -----------------------------------------------------------

def test_parse_then_serialize_round_trip():
    script = parse_script(GOOD)
    assert len(script.scenes) == 2
    assert script.scenes[0].foreground == ["red fox"]
    assert script.scenes[0].background == "snowy forest"
    assert script.scenes[0].camera == CameraMove("right", "slow")
    again = parse_script(serialize_script(script))
    assert again.scenes == script.scenes


def test_parse_tolerates_case_whitespace_and_trailing_punctuation():
    text = "  [scene 1:  PROMPT:  a whale sings |  Foreground:  Blue Whale  | background:  OPEN OCEAN | camera: Forward, FAST ] . "
    script = parse_script(text)
    s = script.scenes[0]
    assert s.prompt == "a whale sings"
    assert s.foreground == ["blue whale"]
    assert s.background == "open ocean"
    assert s.camera == CameraMove("forward", "fast")


def test_parse_multiple_foregrounds_and_none():
    text = ("[Scene 1: prompt: a pair dances | foreground: tall dancer, short dancer | "
            "background: ballroom | camera: left, slow]\n"
            "[Scene 2: prompt: the empty room | foreground: none | background: ballroom | "
            "camera: backward, slow]")
    script = parse_script(text)
    assert script.scenes[0].foreground == ["tall dancer", "short dancer"]
    assert script.scenes[1].foreground == []


def test_parse_blank_lines_skipped_and_order_normalized():
    text = ("\n[Scene 2: prompt: second | foreground: none | background: room | camera: static, slow]\n\n"
            "[Scene 1: prompt: first | foreground: none | background: room | camera: static, slow]\n")
    script = parse_script(text)
    assert [s.index for s in script.scenes] == [1, 2]
    assert script.scenes[0].prompt == "first"


def test_parse_error_reports_line_number():
    text = (GOOD + "\nthis is not a record")
    with pytest.raises(MalformedScene) as err:
        parse_script(text)
    assert "line 3" in str(err.value)


def test_parse_rejects_bad_inputs():
    with pytest.raises(MalformedScene, match="script text is empty"):
        parse_script("")
    with pytest.raises(MalformedScene, match="script text is empty"):
        parse_script("   \n  ")
    with pytest.raises(MalformedScene, match=r"scene indices \[2\] are not 1..1"):
        parse_script("[Scene 2: prompt: lonely | foreground: none | background: room | camera: static, slow]")
    with pytest.raises(MalformedScene, match=r"scene indices \[1, 3\] are not 1..2"):
        parse_script(GOOD.replace("Scene 2", "Scene 3"))
    with pytest.raises(UnknownCameraToken):
        parse_script(GOOD.replace("right, slow", "diagonal, slow"))
    with pytest.raises(UnknownCameraToken):
        parse_script(GOOD.replace("right, slow", "right, hyper"))
    with pytest.raises(MalformedScene):
        parse_script(GOOD.replace("camera: right, slow", "camera: right"))
    with pytest.raises(MalformedScene):
        parse_script(GOOD.replace("background: snowy forest", "background: woods, hills"))
    with pytest.raises(MalformedScene):
        parse_script("[Scene 1: prompt:  | foreground: none | background: room | camera: static, slow]")


def test_overlong_scene_index_is_malformed():
    # int() refuses more than 4300 digits; a chat reply must not crash the retry loop
    text = GOOD.replace("Scene 2", "Scene " + "2" * 5000)
    with pytest.raises(MalformedScene, match="index is too long"):
        parse_script(text)
    with pytest.raises(ScriptGenerationExhausted):
        generate_script("fox documentary", _script_backend([text]), 2)


def test_round_trip_randomized_scripts():
    from videostudio.camera_motion import DIRECTIONS, SPEEDS
    rng = Rng(123)
    names = ["red fox", "blue whale", "tall dancer", "stone golem", "paper crane"]
    places = ["snowy forest", "open ocean", "ballroom", "canyon"]
    for trial in range(50):
        r = rng.child(trial)
        count = int(r.integers(1, 7))
        scenes = []
        for i in range(1, count + 1):
            k = int(r.integers(0, 4))
            fg = names[:k]
            scenes.append(SceneSpec(i, f"take {trial} shot {i}", list(fg),
                                    places[int(r.integers(0, len(places)))],
                                    CameraMove(DIRECTIONS[int(r.integers(0, len(DIRECTIONS)))],
                                               SPEEDS[int(r.integers(0, len(SPEEDS)))])))
        script = VideoScript("", scenes)
        assert parse_script(serialize_script(script)).scenes == scenes


# --- script rules -------------------------------------------------------------------

def _record(index, fg="red fox", bg="snowy forest", prompt=None):
    return (f"[Scene {index}: prompt: {prompt or f'shot {index}'} | foreground: {fg} | "
            f"background: {bg} | camera: static, slow]")


BROKEN = {
    "too-many-scenes": "\n".join(_record(i) for i in range(1, MAX_SCENES + 2)),
    "too-many-foregrounds": _record(1, ", ".join(f"actor {i}" for i in range(MAX_FOREGROUNDS + 1))),
    "foreground-twice": _record(1, "red fox, Red  Fox"),
    "pipe-in-prompt": _record(1, prompt="a fox | trots"),
    "open-bracket-in-prompt": _record(1, prompt="a fox [redacted] trots"),
    "close-bracket-in-prompt": _record(1, prompt="a fox] trots"),
    "pipe-in-foreground": _record(1, "red | fox"),
    "bracket-in-background": _record(1, bg="snowy [forest"),
    "grammar-chars-in-names": ("[Scene 1: prompt: x | foreground: a ] b, c | d | "
                               "background: e [f | camera: static, slow]"),
    "foreground-and-background": _record(1) + "\n" + _record(2, "snowy forest", "meadow"),
    "both-in-one-scene": _record(1, "snowy forest"),
}


def test_script_at_the_caps_parses():
    script = parse_script("\n".join(_record(i) for i in range(1, MAX_SCENES + 1)))
    assert len(script.scenes) == MAX_SCENES
    crowded = ", ".join(f"actor {i}" for i in range(MAX_FOREGROUNDS))
    assert len(parse_script(_record(1, crowded)).scenes[0].foreground) == MAX_FOREGROUNDS


@pytest.mark.parametrize("text", BROKEN.values(), ids=BROKEN.keys())
def test_parse_refuses_each_script_rule(text):
    with pytest.raises(MalformedScene, match="line "):
        parse_script(text)


@pytest.mark.parametrize("text", BROKEN.values(), ids=BROKEN.keys())
def test_generate_script_retries_a_reply_that_breaks_a_rule(text):
    backend = _script_backend([text, GOOD])
    script = generate_script("fox documentary", backend, 3)
    assert script.scenes == parse_script(GOOD).scenes
    assert backend.call_count == 2


def test_normalize_entity_name():
    assert normalize_entity_name("  Red   FOX ") == "red fox"
    assert normalize_entity_name("ok") == "ok"


# --- entity accounting ----------------------------------------------------------------

def test_find_common_entities_first_appearance_order():
    script = parse_script(GOOD)
    records = find_common_entities(script)
    assert [r.name for r in records] == ["red fox", "snowy forest"]
    assert records[0].kind == "foreground"
    assert records[1].kind == "background"
    assert records[0].occurrences == {1, 2}
    assert all(r.common for r in records)


def test_find_common_entities_matches_exhaustive_scan():
    from videostudio.camera_motion import DIRECTIONS, SPEEDS
    rng = Rng(321)
    pool = [f"entity {i}" for i in range(6)]
    places = ["room a", "room b", "room c"]
    for trial in range(200):
        r = rng.child(trial)
        count = int(r.integers(1, 6))
        scenes = []
        for i in range(1, count + 1):
            k = int(r.integers(0, 4))
            picks = sorted({int(r.integers(0, len(pool))) for _ in range(k)})
            scenes.append(SceneSpec(i, f"shot {i}", [pool[j] for j in picks],
                                    places[int(r.integers(0, 3))],
                                    CameraMove(DIRECTIONS[0], SPEEDS[0])))
        script = VideoScript("", scenes)
        records = find_common_entities(script)
        # oracle: exhaustive scan over scene pairs
        seen = {}
        for s in scenes:
            for name in list(s.foreground) + [s.background]:
                seen.setdefault(name, set()).add(s.index)
        want_common = {n for n, occ in seen.items() if len(occ) >= 2}
        assert {r.name for r in records} == set(seen)
        assert {r.name for r in records if r.common} == want_common
        for r in records:
            assert r.occurrences == seen[r.name]


# --- chat plumbing -----------------------------------------------------------------------

def test_request_hash_is_stable_and_content_sensitive():
    req = build_chat_request([{"role": "user", "content": "hi"}])
    assert request_hash(req) == request_hash(build_chat_request([{"role": "user", "content": "hi"}]))
    assert request_hash(req) != request_hash(build_chat_request([{"role": "user", "content": "yo"}]))
    assert len(request_hash(req)) == 16


def test_request_hashes_of_the_two_query_kinds_are_pinned():
    # mock fixtures, goldens and bench refs are keyed by these hashes: a change to
    # how a message is built or sent would silently orphan all of them
    prompt = "a silver robot spends a day in its workshop"
    robot = EntityRecord("silver robot", "foreground", {1, 2})
    assert request_hash(build_chat_request(build_script_query(prompt))) == "57941db671cfedeb"
    description = build_description_query(robot, "shape, colors", prompt)
    assert request_hash(build_chat_request(description)) == "e8f9fa901b1c5f67"


def test_parse_chat_response_shape():
    assert parse_chat_response({"choices": [{"message": {"content": "ok"}}]}) == "ok"
    with pytest.raises(BackendError):
        parse_chat_response({"choices": []})
    with pytest.raises(BackendError):
        parse_chat_response({})


def test_mock_backend_dict_and_path(tmp_path):
    messages = [{"role": "user", "content": "ping"}]
    h = request_hash(build_chat_request(messages))
    backend = MockChatBackend({h: "pong"})
    assert backend.complete(messages) == "pong"
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({h: "pong from disk"}))
    assert MockChatBackend(str(path)).complete(messages) == "pong from disk"
    with pytest.raises(BackendError):
        backend.complete([{"role": "user", "content": "unknown"}])


def test_mock_backend_list_values_consumed_in_order():
    messages = [{"role": "user", "content": "again"}]
    h = request_hash(build_chat_request(messages))
    backend = MockChatBackend({h: ["first", "second"]})
    assert backend.complete(messages) == "first"
    assert backend.complete(messages) == "second"
    assert backend.complete(messages) == "second"  # last one repeats
    assert backend.call_count == 3


# --- query construction ---------------------------------------------------------------------

def test_script_query_structure():
    msgs = build_script_query("a day at the beach")
    assert len(msgs) == 12  # system + 5 pairs + the theme
    assert msgs[0]["role"] == "system"
    assert msgs[-1] == {"role": "user", "content": "Video theme: a day at the beach"}
    roles = [m["role"] for m in msgs[1:-1]]
    assert roles == ["user", "assistant"] * 5
    with pytest.raises(EmptyPrompt):
        build_script_query("   ")


def test_default_examples_are_valid_grammar():
    examples = default_script_examples()
    for msg in examples[2::2]:
        assert parse_script(msg["content"]).scenes


def test_aspect_and_description_queries():
    fg = EntityRecord("red fox", "foreground", {1, 2})
    bg = EntityRecord("snowy forest", "background", {1, 2})
    q_fg = build_aspect_query(fg)
    q_bg = build_aspect_query(bg)
    assert "subject 'red fox'" in q_fg[1]["content"]
    assert "setting 'snowy forest'" in q_bg[1]["content"]
    full = build_description_query(fg, "shape, colors", "a fox in winter")
    assert len(full) == 4
    assert full[2] == {"role": "assistant", "content": "shape, colors"}
    assert "a fox in winter" in full[3]["content"]


def test_generate_entity_description_two_rounds():
    fg = EntityRecord("red fox", "foreground", {1, 2})
    backend = _replies([
        (build_aspect_query(fg), "fur, tail, size"),
        (build_description_query(fg, "fur, tail, size", "winter tale"),
         "A compact fox with auburn fur.")])
    desc = generate_entity_description(fg, "winter tale", backend)
    assert desc == "A compact fox with auburn fur."
    assert backend.call_count == 2
    empty = _replies([(build_aspect_query(fg), "aspects"),
                      (build_description_query(fg, "aspects", "winter tale"), "   ")])
    with pytest.raises(BackendError, match="empty description"):
        generate_entity_description(fg, "winter tale", empty)


# --- script generation with retries ------------------------------------------------------------

def test_generate_script_first_try():
    backend = _script_backend([GOOD])
    script = generate_script("fox documentary", backend, 3)
    assert script.source_prompt == "fox documentary"
    assert len(script.scenes) == 2
    assert backend.call_count == 1


def test_generate_script_retries_on_parse_failure():
    backend = _script_backend(["not a script at all", "still nope", GOOD])
    script = generate_script("fox documentary", backend, 3)
    assert len(script.scenes) == 2
    assert backend.call_count == 3


def test_generate_script_respects_max_attempts():
    backend = _script_backend(["junk"])  # the last reply repeats
    with pytest.raises(ScriptGenerationExhausted) as err:
        generate_script("fox documentary", backend, 4)
    assert backend.call_count == 4


def test_exhaustion_says_why_the_last_reply_was_refused():
    backend = _script_backend(["junk", "x" * 65536])  # a reply line can be 64 KiB
    with pytest.raises(ScriptGenerationExhausted) as err:
        generate_script("fox documentary", backend, 2)
    assert str(err.value).startswith("no valid script after 2 attempts; the last reply was "
                                     "refused: MalformedScene: line 1: not a scene record: 'xxx")
    assert len(str(err.value)) < 250


def test_generate_script_best_effort_last():
    # a reply that breaks a script rule (its prompt holds a grammar
    # delimiter) is never returned: there is no best-effort fallback
    dirty = GOOD.replace("a fox trots through snow", "a fox [redacted] trots")
    strict = _script_backend([dirty, dirty])
    with pytest.raises(ScriptGenerationExhausted):
        generate_script("fox documentary", strict, 2)


# --- HTTP reply limits ----------------------------------------------------------------

@contextlib.contextmanager
def _http_server(body, step, interval):
    """A local server answering every POST with ``body``, written ``step``
    bytes at a time with ``interval`` seconds between writes."""
    stop = threading.Event()

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            try:
                for i in range(0, len(body), step):
                    self.wfile.write(body[i:i + step])
                    self.wfile.flush()
                    if stop.wait(interval):
                        return
            except OSError:  # the client hung up
                pass

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,))
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/"
    finally:
        stop.set()
        server.shutdown()
        server.server_close()
        thread.join()


def test_post_json_reads_a_reply_over_http():
    with _http_server(b'{"ok": true}', 1 << 16, 0.0) as url:
        assert post_json(url, {}, 1.0) == {"ok": True}


def test_post_json_refuses_a_dripping_reply():
    # each byte comes well inside the socket timeout, but the whole body
    # (17 bytes, 0.2 s apart) would take 3.4 s against a 0.5 s deadline
    timeout = 0.5
    with _http_server(b'{"slow": "reply"}', 1, 0.2) as url:
        t0 = time.monotonic()
        with pytest.raises(BackendError, match="to reply"):
            post_json(url, {}, timeout)
        # at most one socket timeout past the deadline
        assert time.monotonic() - t0 < 2 * timeout + 0.25


def test_post_json_refuses_an_oversized_reply():
    body = json.dumps({"pad": "x" * MAX_REPLY_BYTES}).encode("utf-8")
    with _http_server(body, 1 << 14, 0.0) as url:
        with pytest.raises(BackendError, match="bytes"):
            post_json(url, {}, 5.0)
