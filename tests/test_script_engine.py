import json

import pytest

from videostudio.errors import (BackendError, EmptyDescription, EmptyPrompt,
                                EmptyScript, MalformedScene,
                                NonContiguousIndices,
                                ScriptGenerationExhausted, UnknownCameraToken,
                                WrongExampleCount)
from videostudio.numeric_core import Rng
from videostudio.script_engine import (MAX_FOREGROUNDS, MAX_SCENES,
                                       CameraMove, ChatMessage,
                                       EntityRecord, MockChatBackend,
                                       RetryPolicy, SceneSpec,
                                       SequenceChatBackend, VideoScript,
                                       build_chat_request,
                                       build_description_query,
                                       build_script_query, build_aspect_query,
                                       default_script_examples,
                                       find_common_entities,
                                       generate_entity_description,
                                       generate_script, normalize_entity_name,
                                       parse_chat_response, parse_script,
                                       request_hash, serialize_script,
                                       validate_script)

GOOD = """[Scene 1: prompt: a fox trots through snow | foreground: red fox | background: snowy forest | camera: right, slow]
[Scene 2: prompt: the fox digs for mice | foreground: red fox | background: snowy forest | camera: static, medium]"""


def _scene(index=1, prompt="a thing happens", fg=("red fox",), bg="snowy forest",
           cam=("static", "slow")):
    return SceneSpec(index, prompt, list(fg), bg, CameraMove(*cam))


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
    with pytest.raises(EmptyScript):
        parse_script("")
    with pytest.raises(EmptyScript):
        parse_script("   \n  ")
    with pytest.raises(NonContiguousIndices):
        parse_script("[Scene 2: prompt: lonely | foreground: none | background: room | camera: static, slow]")
    with pytest.raises(NonContiguousIndices):
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


# --- validation --------------------------------------------------------------------

def _codes(script):
    return sorted(v.code for v in validate_script(script))


def test_validate_accepts_good_script():
    assert validate_script(parse_script(GOOD)) == []


def test_validate_flags_each_violation():
    assert _codes(VideoScript("", [])) == ["EmptyScript"]
    assert "NonContiguousIndices" in _codes(VideoScript("", [_scene(index=2)]))
    many = VideoScript("", [_scene(index=i) for i in range(1, MAX_SCENES + 2)])
    assert "TooManyScenes" in _codes(many)
    assert "EmptyPrompt" in _codes(VideoScript("", [_scene(prompt="  ")]))
    assert "MalformedScene" in _codes(VideoScript("", [_scene(prompt="a | b")]))
    crowded = _scene(fg=[f"actor {i}" for i in range(MAX_FOREGROUNDS + 1)])
    assert "TooManyForegrounds" in _codes(VideoScript("", [crowded]))
    assert "BadEntityName" in _codes(VideoScript("", [_scene(fg=["Red  Fox"])]))
    assert "UnknownCameraToken" in _codes(VideoScript("", [_scene(cam=("spiral", "slow"))]))
    assert "DuplicateForeground" in _codes(VideoScript("", [_scene(fg=["red fox", "red fox"])]))
    conflict = VideoScript("", [_scene(), _scene(index=2, fg=["snowy forest"], bg="meadow")])
    assert "EntityKindConflict" in _codes(conflict)


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
    req = build_chat_request([ChatMessage("user", "hi")])
    assert request_hash(req) == request_hash(build_chat_request([ChatMessage("user", "hi")]))
    assert request_hash(req) != request_hash(build_chat_request([ChatMessage("user", "yo")]))
    assert len(request_hash(req)) == 16


def test_parse_chat_response_shape():
    assert parse_chat_response({"choices": [{"message": {"content": "ok"}}]}) == "ok"
    with pytest.raises(BackendError):
        parse_chat_response({"choices": []})
    with pytest.raises(BackendError):
        parse_chat_response({})


def test_mock_backend_dict_and_path(tmp_path):
    messages = [ChatMessage("user", "ping")]
    h = request_hash(build_chat_request(messages))
    backend = MockChatBackend({h: "pong"})
    assert backend.complete(messages) == "pong"
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({h: "pong from disk"}))
    assert MockChatBackend(str(path)).complete(messages) == "pong from disk"
    with pytest.raises(BackendError):
        backend.complete([ChatMessage("user", "unknown")])


def test_mock_backend_list_values_consumed_in_order():
    messages = [ChatMessage("user", "again")]
    h = request_hash(build_chat_request(messages))
    backend = MockChatBackend({h: ["first", "second"]})
    assert backend.complete(messages) == "first"
    assert backend.complete(messages) == "second"
    assert backend.complete(messages) == "second"  # last one repeats
    assert backend.call_count == 3


def test_sequence_backend_exhaustion():
    backend = SequenceChatBackend(["a", "b"])
    assert backend.complete([]) == "a"
    assert backend.complete([]) == "b"
    with pytest.raises(BackendError):
        backend.complete([])


# --- query construction ---------------------------------------------------------------------

def test_script_query_structure():
    msgs = build_script_query("a day at the beach")
    assert len(msgs) == 12  # system + 5 pairs + the theme
    assert msgs[0].role == "system"
    assert msgs[-1] == ChatMessage("user", "Video theme: a day at the beach")
    roles = [m.role for m in msgs[1:-1]]
    assert roles == ["user", "assistant"] * 5
    with pytest.raises(EmptyPrompt):
        build_script_query("   ")


def test_script_query_rejects_malformed_examples():
    good = default_script_examples()
    with pytest.raises(WrongExampleCount):
        build_script_query("x", examples=good[1:])  # no system message
    with pytest.raises(WrongExampleCount):
        build_script_query("x", examples=good[:-1])  # broken pairing
    swapped = list(good)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    with pytest.raises(WrongExampleCount):
        build_script_query("x", examples=swapped)


def test_default_examples_are_valid_grammar():
    examples = default_script_examples()
    for msg in examples[2::2]:
        script = parse_script(msg.content)
        assert validate_script(script) == []


def test_aspect_and_description_queries():
    fg = EntityRecord("red fox", "foreground", {1, 2})
    bg = EntityRecord("snowy forest", "background", {1, 2})
    q_fg = build_aspect_query(fg)
    q_bg = build_aspect_query(bg)
    assert "subject 'red fox'" in q_fg[1].content
    assert "setting 'snowy forest'" in q_bg[1].content
    full = build_description_query(fg, "shape, colors", "a fox in winter")
    assert len(full) == 4
    assert full[2] == ChatMessage("assistant", "shape, colors")
    assert "a fox in winter" in full[3].content


def test_generate_entity_description_two_rounds():
    fg = EntityRecord("red fox", "foreground", {1, 2})
    backend = SequenceChatBackend(["fur, tail, size", "A compact fox with auburn fur."])
    desc = generate_entity_description(fg, "winter tale", backend)
    assert desc == "A compact fox with auburn fur."
    assert backend.call_count == 2
    empty = SequenceChatBackend(["aspects", "   "])
    with pytest.raises(EmptyDescription):
        generate_entity_description(fg, "winter tale", empty)


# --- script generation with retries ------------------------------------------------------------

def test_generate_script_first_try():
    backend = SequenceChatBackend([GOOD])
    script = generate_script("fox documentary", backend)
    assert script.source_prompt == "fox documentary"
    assert len(script.scenes) == 2
    assert backend.call_count == 1


def test_generate_script_retries_on_parse_failure():
    backend = SequenceChatBackend(["not a script at all", "still nope", GOOD])
    script = generate_script("fox documentary", backend, RetryPolicy(max_attempts=3))
    assert len(script.scenes) == 2
    assert backend.call_count == 3


def test_generate_script_respects_max_attempts():
    backend = SequenceChatBackend(["junk"] * 10)
    with pytest.raises(ScriptGenerationExhausted) as err:
        generate_script("fox documentary", backend, RetryPolicy(max_attempts=4))
    assert backend.call_count == 4
    assert len(err.value.transcripts) == 4
    # transcripts carry the full exchanges including the bad replies
    assert err.value.transcripts[0][-1] == ChatMessage("assistant", "junk")


def test_generate_script_best_effort_last():
    # parses but validates dirty: prompt contains a grammar delimiter
    dirty = GOOD.replace("a fox trots through snow", "a fox [redacted] trots")
    backend = SequenceChatBackend([dirty, dirty])
    policy = RetryPolicy(max_attempts=2, on_exhaustion="best_effort_last")
    script = generate_script("fox documentary", backend, policy)
    assert "[redacted]" in script.scenes[0].prompt  # returned despite the violation
    assert len(script.scenes) == 2
    strict = SequenceChatBackend([dirty, dirty])
    with pytest.raises(ScriptGenerationExhausted):
        generate_script("fox documentary", strict, RetryPolicy(max_attempts=2))


def test_retry_policy_validation():
    with pytest.raises(MalformedScene):
        RetryPolicy(max_attempts=0)
    with pytest.raises(MalformedScene):
        RetryPolicy(on_exhaustion="shrug")
