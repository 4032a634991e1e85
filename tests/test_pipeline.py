import builtins
import collections
import contextlib
import hashlib
import json
import os
import pickle
import shutil

import numpy as np
import pytest

from videostudio import numeric_core, pipeline
from videostudio.cli import main
from videostudio.cond_blocks import ToyFeatureExtractor
from videostudio.errors import (BackendError, BadConfig, BadRange, ChecksumMismatch,
                                MalformedScene, StageError, TooFewFrames)
from videostudio.action_condition import default_vocabulary
from videostudio.numeric_core import Rng
from videostudio.pipeline import (MetricsReport, MultiSceneVideo,
                                  PipelineConfig, SceneOutput, _cosine,
                                  _embed, _entity_crop, _generate_scene,
                                  _network_denoisers,
                                  build_mock_llm_fixture, compose_scene,
                                  compute_metrics, decode_latent,
                                  default_config, encode_image,
                                  estimate_translation, expected_translation,
                                  export_failure, export_video, fg_bg_similarity,
                                  frame_consistency, latent_to_image,
                                  load_config, load_video,
                                  resolve_backends, run_pipeline,
                                  scene_consistency, tm_sweep)
from videostudio.ref_images import RemoteTextToImageBackend, RgbImage, ToyTextToImageBackend
from videostudio.script_engine import (MAX_FOREGROUNDS, CameraMove, HttpChatBackend,
                                       MockChatBackend,
                                       SceneSpec, build_chat_request, build_script_query,
                                       parse_script, request_hash)

PROMPT = "a silver robot spends a day in its workshop"
SCRIPT3 = """[Scene 1: prompt: a silver robot kneading dough in the workshop | foreground: silver robot | background: workshop | camera: right, medium]
[Scene 2: prompt: the silver robot pouring coffee at the bench | foreground: silver robot | background: workshop | camera: static, slow]
[Scene 3: prompt: the silver robot sweeping floor under lamplight | foreground: silver robot | background: workshop | camera: forward, slow]"""
SCRIPT2 = "\n".join(SCRIPT3.splitlines()[:2])


def _config(seed=7, **extra):
    return load_config(overrides={"seed": seed, **extra})


def _run(script_text=SCRIPT2, seed=7, **extra):
    config = _config(seed=seed, **extra)
    backends = resolve_backends(config, mock_llm=build_mock_llm_fixture(PROMPT, script_text))
    return run_pipeline(PROMPT, config, backends)


# --- config ------------------------------------------------------------------------

def _nested(dotted, value):
    """``{"a": {"b": value}}`` for ``"a.b"``."""
    overrides = node = {}
    *sections, leaf = dotted.split(".")
    for section in sections:
        node = node.setdefault(section, {})
    node[leaf] = value
    return overrides


def _leaf_keys(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, prefix + key + ".")
        else:
            yield prefix + key


def test_default_config_holds_only_what_callers_vary():
    # a new setting has to show up here, in the diff that adds it
    assert sorted(_leaf_keys(default_config())) == sorted([
        "seed", "denoiser", "no_refs", "vocabulary_path",
        "model.channels", "model.blocks", "model.heads", "model.latent", "model.frames",
        "image_sampler.steps", "video_sampler.steps", "video_sampler.t_m",
        "chat.path", "chat.url", "chat.model", "text_to_image.url",
    ])


# Keys that once held a fixed setting, with the value they held; that value
# is now the default of the module that uses it.  The last three restated
# what the program knows: the command's --out-dir and which locator is set.
_DELETED_KEYS = {
    "model.vocab_size": 16, "model.text_len": 77, "model.image_tokens": 256,
    "schedule.steps": 1000, "schedule.beta_start": 0.00085, "schedule.beta_end": 0.0120,
    "image_sampler.eta": 0.0, "image_sampler.guidance_scale": 1.0,
    "video_sampler.eta": 1.0, "video_sampler.guidance_scale": 12.0,
    "oracle.prior_variance": 1e-4, "reference.size": 64, "reference.threshold": 0.5,
    "retry.max_attempts": 3,
    "speeds.translation.slow": 0.5, "speeds.translation.medium": 1.0,
    "speeds.translation.fast": 2.0, "speeds.zoom.slow": 0.01,
    "speeds.zoom.medium": 0.02, "speeds.zoom.fast": 0.04,
    "output_dir": None, "chat.kind": "mock", "text_to_image.kind": "toy",
}


@pytest.mark.parametrize("dotted", sorted(_DELETED_KEYS))
def test_deleted_config_key_is_refused(dotted):
    with pytest.raises(BadConfig, match="unknown config key"):
        load_config(overrides=_nested(dotted, _DELETED_KEYS[dotted]))


def test_default_config_round_trip():
    config = PipelineConfig()
    assert config.seed == 0
    assert config.latent_shape == (4, 16, 16)
    assert config.frames == 8
    assert config.noise_schedule().T == 1000
    img = config.image_sampler_config(seed=5)
    assert (img.steps, img.eta, img.guidance_scale, img.seed) == (50, 0.0, 1.0, 5)
    vid = config.video_sampler_config(seed=6)
    assert (vid.steps, vid.eta, vid.guidance_scale, vid.t_m) == (70, 1.0, 12.0, 5)
    assert vid.seed == 6
    assert config.video_sampler_config(0, t_m=9).t_m == 9
    assert config.action_vocabulary().size == 16


def test_config_override_merge_and_unknown_key():
    config = load_config(overrides={"model": {"frames": 4}, "seed": 3})
    assert config.frames == 4
    assert config.seed == 3
    assert config.latent_shape == (4, 16, 16)  # untouched defaults survive
    with pytest.raises(BadConfig):
        load_config(overrides={"modle": {"frames": 4}})
    with pytest.raises(BadConfig):
        load_config(overrides={"model": {"fames": 4}})


def test_config_type_and_range_validation():
    with pytest.raises(BadConfig):
        load_config(overrides={"model": {"frames": "eight"}})
    with pytest.raises(BadConfig):
        load_config(overrides={"model": {"frames": 0}})
    with pytest.raises(BadConfig):
        load_config(overrides={"model": {"heads": 5}})  # 5 does not divide 32
    with pytest.raises(BadConfig):
        load_config(overrides={"image_sampler": {"steps": 2000}})  # > schedule steps
    with pytest.raises(BadConfig):
        load_config(overrides={"video_sampler": {"t_m": 70}})  # >= video steps
    with pytest.raises(BadConfig):
        load_config(overrides={"chat": {"kind": "telepathy"}})


@pytest.mark.parametrize("dotted,value", [
    ("model.frames", float("nan")),
    ("image_sampler.steps", float("inf")),
    ("video_sampler.t_m", 2.0),
])
def test_non_integer_config_numbers_fail_at_load(dotted, value):
    with pytest.raises(BadConfig, match=dotted):
        load_config(overrides=_nested(dotted, value))


@pytest.mark.parametrize("value", ["false", "true", [0], 0, None],
                         ids=["str-false", "str-true", "list", "int", "null"])
def test_no_refs_must_be_a_json_boolean(value):
    with pytest.raises(BadConfig, match="no_refs"):
        load_config(overrides={"no_refs": value})
    assert load_config(overrides={"no_refs": True}).no_refs is True


@pytest.mark.parametrize("dotted,value", [
    ("seed", 10 ** 5000),
    ("model.channels", 10 ** 5000),
    ("model.latent", [4, 10 ** 5000, 16]),
    ("denoiser", 10 ** 5000),
    ("chat.url", [10 ** 5000]),
], ids=["seed", "model.channels", "model.latent", "denoiser", "chat.url"])
def test_huge_integers_are_typed_errors(dotted, value):
    # past 4,300 digits Python refuses to print an int, so no message may
    with pytest.raises(BadConfig, match=dotted):
        load_config(overrides=_nested(dotted, value))


@pytest.mark.parametrize("model,keys", [
    ({"channels": 2 ** 40}, "model.channels"),
    ({"latent": [4, 2 ** 30, 2 ** 30]}, "model.latent"),
    ({"frames": 2 ** 40}, "model.frames"),
    ({"blocks": 2 ** 40}, "model.blocks"),
], ids=["channels", "latent", "frames", "blocks"])
def test_model_size_past_the_budget_is_bad_config(model, keys):
    # channels raised MemoryError while the vocabulary was built; the rest loaded
    with pytest.raises(BadConfig, match=f"{keys}.*model budget"):
        load_config(overrides={"model": model})


def test_model_budget_bounds_each_product():
    budget = pipeline.MODEL_BUDGET
    for model in ({"latent": [budget // 63, 8, 8], "frames": 2},        # clip latent
                  {"heads": 1, "channels": 1, "latent": [3, 128, 128]},  # spatial scores
                  {"heads": 1, "channels": 1, "latent": [3, 8, 8],
                   "frames": 2 ** 13}):                                  # temporal scores
        with pytest.raises(BadConfig, match="model budget"):
            load_config(overrides={"model": model})
    # the largest square block weights that fit, at one block
    config = load_config(overrides={"model": {"channels": 2 ** 13, "heads": 1, "blocks": 1,
                                              "latent": [3, 8, 8], "frames": 2}})
    assert config.blocks * config.channels ** 2 == budget


def test_overlong_int_literals_are_typed_errors(tmp_path):
    literal = "1" * 5000  # past the 4300 digits int() converts by default
    (tmp_path / "config.json").write_text('{"seed": %s}' % literal)
    with pytest.raises(BadConfig, match="not valid JSON"):
        load_config(str(tmp_path / "config.json"))
    (tmp_path / "manifest.json").write_text('{"version": %s}' % literal)
    with pytest.raises(ChecksumMismatch, match="not valid JSON"):
        load_video(str(tmp_path))


@pytest.mark.parametrize("key,value", [
    ("chat.path", [1]),
    ("vocabulary_path", [1]),
    ("vocabulary_path", "open-fd"),
    ("chat.url", [1]),
    ("chat.model", [1]),
    ("text_to_image.url", [1]),
], ids=["chat.path", "vocabulary_path", "vocabulary_path-fd", "chat.url", "chat.model",
        "text_to_image.url"])
def test_config_string_keys_are_typed(tmp_path, key, value):
    if value == "open-fd":
        # an int is a file descriptor to os.path.exists and open(); this one
        # reads a valid vocabulary, so only the type check can refuse it
        vocab = default_vocabulary(32)
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps([{"name": name, "embedding": row.tolist()}
                                    for name, row in zip(vocab.names, vocab.embeddings)]))
        value = os.open(path, os.O_RDONLY)
    try:
        with pytest.raises(BadConfig, match=key):
            load_config(overrides=_nested(key, value))
    finally:
        if isinstance(value, int):
            with contextlib.suppress(OSError):  # already closed if it was read
                os.close(value)


@pytest.mark.parametrize("text", [
    "{not json",
    '[{"embedding": [1.0, 0.0]}]',
    '["running"]',
    '[{"name": "running", "embedding": "up"}]',
    '[{"name": "running", "embedding": [NaN, 0.0]}]',
    '[{"name": "running", "embedding": [1%s, 0.0]}]' % ("0" * 400),
], ids=["not-json", "no-name", "row-not-object", "embedding-not-numbers", "nan-embedding",
        "embedding-past-float-range"])
def test_unusable_vocabulary_fails_at_load(tmp_path, text):
    path = tmp_path / "vocab.json"
    path.write_text(text)
    with pytest.raises(BadConfig, match="vocabulary"):
        load_config(overrides={"vocabulary_path": str(path)})


def test_vocab_size_follows_the_vocabulary(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps([{"name": "running", "embedding": [1.0, 0.0]}]))
    config = load_config(overrides={"vocabulary_path": str(path)})
    assert config.vocab_size == 1
    assert config.action_vocabulary().names == ["running"]


def test_config_file_loading(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 42, "model": {"frames": 6}}))
    config = load_config(str(path))
    assert config.seed == 42 and config.frames == 6
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(BadConfig):
        load_config(str(bad))
    with pytest.raises(BadConfig):
        load_config(str(tmp_path / "missing.json"))


@pytest.mark.parametrize("latent,dotted", [
    ([2, 8, 8], "model.latent.0"),
    ([4, 7, 8], "model.latent.1"),
    ([4, 8, 7], "model.latent.2"),
    ([4, 1, 1], "model.latent.1"),
], ids=["two-channels", "short", "narrow", "one-pixel"])
def test_latent_too_small_to_decode_fails_at_load(latent, dotted):
    # RGB decodes from 3 channels and a reference tile needs MIN_SIDE pixels a side
    with pytest.raises(BadConfig, match=dotted):
        load_config(overrides={"model": {"latent": latent}})


def test_default_config_returns_fresh_copies():
    a = default_config()
    a["model"]["frames"] = 99
    assert default_config()["model"]["frames"] == 8


def test_resolve_backends_validation(tmp_path):
    fixture = tmp_path / "fixture.json"
    fixture.write_text("{}")
    url = "http://127.0.0.1:9/"
    config = _config()
    with pytest.raises(BadConfig, match="exactly one"):
        resolve_backends(config)  # no chat locator
    backends = resolve_backends(config, mock_llm={"00": "x"})
    assert isinstance(backends.chat, MockChatBackend)
    assert isinstance(backends.text_to_image, ToyTextToImageBackend)
    # each backend follows the one locator that is set; an empty url is unset
    for chat, t2i, chat_cls, t2i_cls in [
            ({"path": str(fixture)}, {}, MockChatBackend, ToyTextToImageBackend),
            ({"path": str(fixture), "url": ""}, {"url": ""}, MockChatBackend,
             ToyTextToImageBackend),
            ({"url": url}, {"url": url}, HttpChatBackend, RemoteTextToImageBackend)]:
        backends = resolve_backends(_config(chat=chat, text_to_image=t2i))
        assert isinstance(backends.chat, chat_cls)
        assert isinstance(backends.text_to_image, t2i_cls)
    with pytest.raises(BadConfig, match="exactly one"):  # both chat locators
        resolve_backends(_config(chat={"path": str(fixture), "url": url}))
    with pytest.raises(BadConfig, match="exactly one"):
        resolve_backends(_config(chat={"url": ""}))


# --- latent codec ----------------------------------------------------------------------

def test_decode_of_encode_is_identity():
    rng = Rng(0)
    img = rng.uniform((16, 16, 3))
    z = encode_image(img, channels=4)
    assert z.shape == (4, 16, 16)
    back = decode_latent(z)
    assert np.max(np.abs(back - img)) < 1e-12
    clipped = latent_to_image(z)
    assert np.max(np.abs(clipped.data - img)) < 1e-12


def test_encode_decode_other_channel_counts():
    rng = Rng(1)
    img = rng.uniform((8, 8, 3))
    for c in (3, 4, 8):
        back = decode_latent(encode_image(img, channels=c))
        assert np.max(np.abs(back - img)) < 1e-12


# --- compositing --------------------------------------------------------------------------

def test_compose_scene_records_boxes_without_references():
    # the compositor returns only the canvas; the boxes the metrics crop
    # are its slots, which follow from the script and the frame size alone
    spec = parse_script(SCRIPT2).scenes[0]
    t2i = ToyTextToImageBackend(16)
    canvas = compose_scene(spec, {}, 16, 16, t2i, scene_seed=5)
    assert isinstance(canvas, np.ndarray) and canvas.shape == (16, 16, 3)
    boxes = pipeline._slot_boxes(spec, 16, 16)
    assert boxes == {"workshop": (0, 16, 0, 16), "silver robot": (2, 8, 2, 8)}
    again = compose_scene(spec, {}, 16, 16, t2i, scene_seed=5)
    assert np.array_equal(canvas, again)
    other = compose_scene(spec, {}, 16, 16, t2i, scene_seed=6)
    assert not np.array_equal(canvas, other)


def test_every_parsed_foreground_has_a_slot():
    assert len(pipeline._SLOT_ANCHORS) == MAX_FOREGROUNDS


def test_compose_scene_pastes_foreground_tile_over_background():
    from videostudio.ref_images import EntityReference, Mask
    spec = parse_script(SCRIPT2).scenes[0]
    bg = EntityReference(RgbImage(np.full((16, 16, 3), 0.25)), "background",
                         Mask(np.zeros((16, 16))))
    tile = np.zeros((16, 16, 3))
    tile[:, :, 0] = 1.0
    fg = EntityReference(RgbImage(tile), "foreground", Mask(np.ones((16, 16))))
    refs = {"workshop": bg, "silver robot": fg}
    canvas = compose_scene(spec, refs, 16, 16, None, scene_seed=0)
    r0, r1, c0, c1 = pipeline._slot_boxes(spec, 16, 16)["silver robot"]
    assert np.allclose(canvas[r0:r1, c0:c1, 0], 1.0)   # tile pixels win
    outside = canvas.copy()
    outside[r0:r1, c0:c1] = 0.25
    assert np.allclose(outside, 0.25)                  # rest is the bg canvas


# --- embedding and cosine -------------------------------------------------------------------

def test_toy_embedder_unit_norm_and_determinism():
    rng = Rng(2)
    img = rng.uniform((20, 20, 3))
    a, b = _embed(img), _embed(img)
    assert np.array_equal(a, b)
    assert np.isclose(np.linalg.norm(a), 1.0)
    zero = _embed(np.zeros((16, 16, 3)))
    assert np.linalg.norm(zero) < 1e-12  # zero guard, no division blowup
    small = _embed(rng.uniform((3, 5, 3)))  # under the pooling grid: upsampled first
    assert small.shape == a.shape


def test_cosine_edge_cases():
    u = np.array([1.0, 0.0])
    assert _cosine(u, u.copy()) == 1.0
    assert _cosine(u, np.array([0.0, 1.0])) == 0.0
    assert _cosine(u, -u) == -1.0
    assert _cosine(np.zeros(2), np.zeros(2)) == 1.0
    assert _cosine(u, np.zeros(2)) == 0.0
    big = Rng(3).normal((5,))
    assert abs(_cosine(big, 2.0 * big) - 1.0) < 1e-12


# --- metric primitives -----------------------------------------------------------------------

def _toy_scene(index, frame, prompt=None, fg=("silver robot",), bg="workshop",
               cam=("static", "slow"), frames=None):
    spec = SceneSpec(index, prompt or f"scene {index} action", list(fg), bg, CameraMove(*cam))
    img = RgbImage(frame)
    frame_list = frames if frames is not None else [img, img]
    return SceneOutput(spec, np.zeros((4, 16, 16)), img,
                       np.zeros((4, len(frame_list), 16, 16)), frame_list)


def test_frame_consistency_identical_frames_hit_exact_maximum():
    img = Rng(4).uniform((16, 16, 3))
    assert frame_consistency([img, img, img]) == 100.0
    other = Rng(5).uniform((16, 16, 3))
    assert frame_consistency([img, other]) < 100.0
    with pytest.raises(TooFewFrames):
        frame_consistency([img])


def test_detector_crops_padded_box():
    # the crop is the entity's slot box, (2, 8, 2, 8) on a 16 x 16 frame, padded by 2
    frame = Rng(6).uniform((16, 16, 3))
    scene = _toy_scene(1, frame)
    crop = _entity_crop(scene, "silver robot")
    assert crop.shape == (10, 10, 3)
    assert np.array_equal(crop, frame[0:10, 0:10])
    assert np.array_equal(_entity_crop(scene, "workshop"), frame)
    corner = _toy_scene(1, frame, fg=("a", "b", "c", "silver robot"))
    edge = _entity_crop(corner, "silver robot")  # the fourth slot, (10, 16, 10, 16)
    assert np.array_equal(edge, frame[8:16, 8:16])  # clipped at the frame border
    wide = Rng(6).uniform((8, 32, 3))  # the box follows the frame: (1, 4, 4, 7) here
    assert np.array_equal(_entity_crop(_toy_scene(1, wide), "silver robot"), wide[0:6, 2:9])


def test_scene_consistency_identical_crops_score_100():
    frame = Rng(7).uniform((16, 16, 3))
    video = MultiSceneVideo(PROMPT, parse_script(SCRIPT2),
                            [_toy_scene(1, frame), _toy_scene(2, frame)], {})
    assert scene_consistency(video) == ({"silver robot": 100.0, "workshop": 100.0}, [])


def test_scene_consistency_requires_common_entities():
    text = ("[Scene 1: prompt: a quiet hallway | foreground: none | background: hallway | camera: static, slow]\n"
            "[Scene 2: prompt: a quiet cellar | foreground: none | background: cellar | camera: static, slow]")
    script = parse_script(text)
    frame = Rng(8).uniform((16, 16, 3))
    scenes = [_toy_scene(1, frame, fg=(), bg="hallway"),
              _toy_scene(2, frame, fg=(), bg="cellar")]
    video = MultiSceneVideo(PROMPT, script, scenes, {})
    # without a common entity there is nothing to score, and nothing skipped
    assert scene_consistency(video) == ({}, [])
    report = compute_metrics(video)
    assert report.scene_consistency_mean is None and report.skipped_entities == []


def test_scene_consistency_skips_undetectable_entities():
    # an entity is undetectable when fewer than two of its scenes were loaded
    text = SCRIPT2 + ("\n[Scene 3: prompt: an empty workshop at night | foreground: none | "
                      "background: workshop | camera: static, slow]")
    frame = Rng(9).uniform((16, 16, 3))
    video = MultiSceneVideo(PROMPT, parse_script(text),
                            [_toy_scene(1, frame), _toy_scene(3, frame, fg=())], {})
    report = compute_metrics(video)  # the robot's scene 2 is missing
    assert report.skipped_entities == ["silver robot"]
    assert report.scene_consistency == {"workshop": 100.0}
    assert scene_consistency(video) == (report.scene_consistency, ["silver robot"])
    # when every common entity is skipped the metric reports null, not an error
    lone = MultiSceneVideo(PROMPT, parse_script(text), [_toy_scene(1, frame)], {})
    assert scene_consistency(lone) == ({}, ["silver robot", "workshop"])
    report = compute_metrics(lone)
    assert report.scene_consistency_mean is None
    assert report.frame_consistency == [100.0]


def test_fg_bg_similarity_self_is_exactly_one():
    img = Rng(10).uniform((16, 16, 3))
    other = Rng(11).uniform((16, 16, 3))
    fg_sim, bg_sim = fg_bg_similarity(img, img, other)
    assert fg_sim == 1.0
    assert 0.0 <= bg_sim <= 1.0
    # a missing reference has no similarity rather than a crash
    assert fg_bg_similarity(img, None, img) == (None, 1.0)


# --- end-to-end runs ---------------------------------------------------------------------------

def test_run_pipeline_produces_scenes_and_metrics():
    video, report = _run(SCRIPT2)
    assert len(video.scenes) == 2
    assert set(video.references) == {"silver robot", "workshop"}
    scene = video.scenes[0]
    assert scene.scene_latent.shape == (4, 16, 16)
    assert scene.clip_latent.shape == (4, 8, 16, 16)
    assert len(scene.frames) == 8
    assert isinstance(report, MetricsReport)
    assert len(report.frame_consistency) == 2
    assert report.scene_consistency_mean is not None
    assert all(s is not None for s in report.fg_sim)
    doc = report.to_dict()
    assert json.dumps(doc)  # serializable as-is


def test_run_pipeline_is_seed_deterministic():
    video_a, _ = _run(SCRIPT2)
    video_b, _ = _run(SCRIPT2)
    for sa, sb in zip(video_a.scenes, video_b.scenes):
        assert np.array_equal(sa.clip_latent, sb.clip_latent)
        assert np.array_equal(sa.scene_latent, sb.scene_latent)
    video_c, _ = _run(SCRIPT2, seed=8)
    assert not np.array_equal(video_a.scenes[0].clip_latent,
                              video_c.scenes[0].clip_latent)


def test_run_pipeline_no_refs_ablation():
    video, report = _run(SCRIPT2, no_refs=True)
    assert video.references == {}
    assert report.fg_sim == [None, None]
    assert report.bg_sim == [None, None]
    assert len(video.scenes) == 2


TINY_NETWORK = {"denoiser": "network",
                "model": {"latent": [3, 8, 8], "frames": 3, "channels": 16,
                          "heads": 2, "blocks": 1},
                "image_sampler": {"steps": 6},
                "video_sampler": {"steps": 8, "t_m": 2}}


def test_run_pipeline_network_denoisers():
    # untrained but must sample end to end and stay seed-deterministic
    video_a, report = _run(SCRIPT2, **TINY_NETWORK)
    assert video_a.scenes[0].clip_latent.shape == (3, 3, 8, 8)
    assert len(video_a.scenes[0].frames) == 3
    assert np.all(np.isfinite(video_a.scenes[0].clip_latent))
    assert report.frame_consistency_mean is not None
    video_b, _ = _run(SCRIPT2, **TINY_NETWORK)
    assert np.array_equal(video_a.scenes[0].clip_latent, video_b.scenes[0].clip_latent)


def test_network_run_without_references(monkeypatch):
    # every image condition is the prompt alone: no foreground and no background rows
    real, bundles = pipeline.ContextBundle, []

    def recorded(*args):
        bundles.append(real(*args))
        return bundles[-1]
    monkeypatch.setattr(pipeline, "ContextBundle", recorded)
    video_a, report = _run(SCRIPT2, no_refs=True, **TINY_NETWORK)
    assert video_a.references == {} and len(video_a.scenes) == 2
    assert len(bundles) == 2
    assert all(b.y_f.shape[0] == 0 and b.y_b.shape[0] == 0 for b in bundles)
    for scene in video_a.scenes:
        assert np.all(np.isfinite(scene.scene_latent)) and np.all(np.isfinite(scene.clip_latent))
    assert report.frame_consistency_mean is not None
    video_b, _ = _run(SCRIPT2, no_refs=True, **TINY_NETWORK)
    for sa, sb in zip(video_a.scenes, video_b.scenes):
        assert np.array_equal(sa.scene_latent, sb.scene_latent)
        assert np.array_equal(sa.clip_latent, sb.clip_latent)


def test_a_network_scene_is_its_own_job():
    # a scene samples from plain data alone: its spec, the config and the references
    config = _config(**TINY_NETWORK)
    backends = resolve_backends(config, mock_llm=build_mock_llm_fixture(PROMPT, SCRIPT2))
    video, _ = run_pipeline(PROMPT, config, backends)
    spec, config, references = pickle.loads(pickle.dumps(
        (video.script.scenes[1], config, video.references)))
    scene = _generate_scene(spec, config, references, ToyTextToImageBackend(),
                            _network_denoisers(config))
    assert spec.index == 2
    assert np.array_equal(scene.scene_latent, video.scenes[1].scene_latent)
    assert np.array_equal(scene.clip_latent, video.scenes[1].clip_latent)


def _refuse(*_args, **_kwargs):
    raise AssertionError("built conditioning that no denoiser reads")


def test_oracle_paths_build_no_conditioning(monkeypatch, tmp_path):
    # the analytic oracle ignores conditioning, so none may be computed for it
    monkeypatch.setattr(ToyFeatureExtractor, "text_features", _refuse)
    monkeypatch.setattr(ToyFeatureExtractor, "image_features", _refuse)
    monkeypatch.setattr(pipeline, "build_indicator", _refuse)
    for no_refs in (False, True):
        video, _ = _run(SCRIPT3, no_refs=no_refs)
        assert len(video.scenes) == 3
    assert len(tm_sweep(_config())) == 3
    out = str(tmp_path / "latent.vstn")
    assert main(["sample-image", "--prompt", "a marble", "--out", out]) == 0
    assert main(["sample-video", "--prompt", "a marble", "--out", out,
                 "--camera", "right,medium"]) == 0


def test_network_scenes_build_their_conditioning_once_each(monkeypatch):
    calls = collections.Counter()

    def counted(kind, fn):
        def call(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return call
    for name in ("text_features", "image_features"):
        monkeypatch.setattr(ToyFeatureExtractor, name,
                            counted(name, getattr(ToyFeatureExtractor, name)))
    monkeypatch.setattr(pipeline, "build_indicator",
                        counted("indicator", pipeline.build_indicator))
    video, _ = _run(SCRIPT2, **TINY_NETWORK)
    # per scene: its prompt; its foreground and background references plus the
    # sampled scene image; one action indicator
    scenes = len(video.scenes)
    assert scenes == 2
    assert calls == {"text_features": scenes, "image_features": 3 * scenes,
                     "indicator": scenes}


def test_network_scenes_compose_no_oracle_target(monkeypatch):
    # the composed picture is the oracle's target; the network denoisers never read it
    real, calls = pipeline.compose_scene, []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "compose_scene", counted)
    video, _ = _run(SCRIPT2, **TINY_NETWORK)
    assert len(video.scenes) == 2
    assert calls == []


def test_scene_outputs_do_not_depend_on_later_scenes(tmp_path):
    out_a, out_b = tmp_path / "three", tmp_path / "two"
    video3, _ = _run(SCRIPT3)
    video2, _ = _run(SCRIPT2)
    export_video(video3, str(out_a))
    export_video(video2, str(out_b))
    sums_a = load_video(str(out_a), verify=False).manifest["checksums"]
    sums_b = load_video(str(out_b), verify=False).manifest["checksums"]
    shared = [rel for rel in sums_b
              if rel.startswith(("scene_1/", "scene_2/", "refs/"))]
    assert shared
    for rel in shared:
        assert sums_a[rel] == sums_b[rel], rel


def test_run_pipeline_wraps_failures_with_stage(tmp_path):
    config = _config()
    backends = resolve_backends(config, mock_llm={"deadbeef": "nothing"})
    with pytest.raises(StageError) as err:
        run_pipeline(PROMPT, config, backends)
    assert err.value.stage == "script"
    assert isinstance(err.value.cause, BackendError)
    assert err.value.video is None
    export_failure(err.value, str(tmp_path))
    failure = json.loads((tmp_path / "failure_manifest.json").read_text())
    assert failure["failed_stage"] == "script"
    assert failure["completed_scenes"] == []


def test_partial_persistence_after_reference_failure(tmp_path):
    # fixture knows the script but no entity dialogue -> references stage dies
    table = {request_hash(build_chat_request(build_script_query(PROMPT))): SCRIPT2}
    config = _config()
    backends = resolve_backends(config, mock_llm=table)
    with pytest.raises(StageError) as err:
        run_pipeline(PROMPT, config, backends)
    assert err.value.stage == "references"
    export_failure(err.value, str(tmp_path))
    failure = json.loads((tmp_path / "failure_manifest.json").read_text())
    assert failure["failed_stage"] == "references"
    assert (tmp_path / "script.txt").exists()  # what finished was exported


def _fail_scene_2(monkeypatch):
    """Run SCRIPT3 with scene 2's sampler down; return the StageError."""
    real, calls = pipeline.sample_video, []

    def fail_on_scene_2(*args, **kwargs):  # the oracle samples one clip per scene
        calls.append(1)
        if len(calls) == 2:
            raise TooFewFrames("scene 2 sampler down")
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "sample_video", fail_on_scene_2)
    with pytest.raises(StageError) as err:
        _run(SCRIPT3)
    return err.value


def _refuse_writes(monkeypatch):
    """Replace every file writer ``pipeline`` reaches with one that records
    its name and fails; return the record."""
    calls, real_open = [], builtins.open

    def refuse(name):
        def writer(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return writer

    def open_to_read(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            return refuse(f"open(mode={mode!r})")()
        return real_open(file, mode, *args, **kwargs)
    for owner in (pipeline, numeric_core):
        for name in ("write_bytes", "write_json", "save_tensor"):
            monkeypatch.setattr(owner, name, refuse(name))
    for name in ("remove", "unlink", "rename", "replace", "makedirs", "mkdir"):
        monkeypatch.setattr(os, name, refuse(f"os.{name}"))
    monkeypatch.setattr(builtins, "open", open_to_read)
    return calls


def test_run_pipeline_writes_no_file(monkeypatch):
    good, _ = _run(SCRIPT3)
    calls = _refuse_writes(monkeypatch)
    video, _ = _run(SCRIPT3)
    assert [scene.spec.index for scene in video.scenes] == [1, 2, 3]
    error = _fail_scene_2(monkeypatch)
    assert calls == []
    # the error holds the script, the references and exactly the completed scene
    assert error.stage == "scenes"
    assert error.video.script.scenes == good.script.scenes
    assert sorted(error.video.references) == sorted(good.references)
    assert [scene.spec.index for scene in error.video.scenes] == [1]
    for name in ("scene_latent", "clip_latent"):
        assert np.array_equal(getattr(error.video.scenes[0], name),
                              getattr(good.scenes[0], name))


def test_partial_tree_after_a_scene_failure_loads_what_finished(tmp_path, monkeypatch):
    error = _fail_scene_2(monkeypatch)
    assert error.stage == "scenes"
    export_failure(error, str(tmp_path))
    failure = json.loads((tmp_path / "failure_manifest.json").read_text())
    assert failure["completed_scenes"] == [1]
    assert load_video(str(tmp_path)).manifest["scenes"] == [1]
    back = load_video(str(tmp_path), verify=True)
    assert [scene.spec.index for scene in back.scenes] == [1]
    assert len(back.script.scenes) == 3
    assert {name: ref.kind for name, ref in back.references.items()} == {
        "silver robot": "foreground", "workshop": "background"}


def test_metrics_on_a_partial_tree_report_null_scene_consistency(tmp_path, monkeypatch, capsys):
    # every entity of SCRIPT3 is in all three scenes, so with scene 2 failed
    # and scene 3 never run none has two loaded scenes to compare
    export_failure(_fail_scene_2(monkeypatch), str(tmp_path))
    capsys.readouterr()
    assert main(["metrics", "--out-dir", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scene_consistency_mean"] is None
    assert report["scene_consistency"] == {}
    assert report["skipped_entities"] == ["silver robot", "workshop"]
    assert len(report["frame_consistency"]) == 1


# --- export / load -------------------------------------------------------------------------------

def test_export_manifest_inventory(tmp_path):
    video, _ = _run(SCRIPT2)
    manifest_path = export_video(video, str(tmp_path))
    assert os.path.basename(manifest_path) == "manifest.json"
    manifest = load_video(str(tmp_path)).manifest  # checksums verify clean
    # the layout, boxes and reference kinds follow from script.txt, so the
    # manifest holds only what the script does not fix
    assert manifest == {"version": 2, "prompt": PROMPT, "seed": 7, "frames_per_scene": 8,
                        "references": True, "scenes": [1, 2],
                        "checksums": manifest["checksums"]}
    scene_files = [f"scene_{i}/{name}" for i in (1, 2)
                   for name in [f"frame_{f}.ppm" for f in range(8)]
                   + ["scene_image.ppm", "scene_latent.vstn", "clip_latent.vstn"]]
    refs = ["refs/00_silver_robot.ppm", "refs/00_silver_robot_mask.pgm",
            "refs/01_workshop.ppm", "refs/01_workshop_mask.pgm"]
    # every exported file is checksummed, and nothing else
    assert sorted(manifest["checksums"]) == sorted(["script.txt"] + refs + scene_files)
    for rel in manifest["checksums"]:
        assert (tmp_path / rel).exists()


def test_export_load_round_trip(tmp_path):
    video, _ = _run(SCRIPT2)
    export_video(video, str(tmp_path))
    back = load_video(str(tmp_path))
    assert back.prompt == PROMPT
    assert back.seed == video.seed
    assert len(back.scenes) == len(video.scenes)
    for orig, loaded in zip(video.scenes, back.scenes):
        assert loaded.spec == orig.spec
        # latents ride through float32 storage
        assert np.max(np.abs(loaded.clip_latent - orig.clip_latent)) < 1e-6
        assert len(loaded.frames) == len(orig.frames)
        # frames ride through 8-bit PPM quantization
        assert np.max(np.abs(loaded.frames[0].data - orig.frames[0].data)) <= 0.5 / 255 + 1e-12
    assert set(back.references) == set(video.references)
    assert back.references["silver robot"].kind == "foreground"
    # metrics recompute from the loaded tree, cropping the same slots
    report = compute_metrics(back)
    assert report.scene_consistency_mean is not None
    assert report.skipped_entities == []
    assert set(report.scene_consistency) == set(compute_metrics(video).scene_consistency)


def test_checksum_fault_injection(tmp_path):
    video, _ = _run(SCRIPT2)
    export_video(video, str(tmp_path))
    victim = tmp_path / "scene_1" / "frame_0.ppm"
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0x01
    victim.write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatch):
        load_video(str(tmp_path))
    assert load_video(str(tmp_path), verify=False).manifest["version"] == 2
    victim.unlink()
    with pytest.raises(ChecksumMismatch):
        load_video(str(tmp_path))
    with pytest.raises(ChecksumMismatch):
        load_video(str(tmp_path / "not_there"))


@pytest.fixture(scope="module")
def _exported(tmp_path_factory):
    out = tmp_path_factory.mktemp("exported")
    video, _ = _run(SCRIPT2)
    export_video(video, str(out))
    return out


def test_a_verified_load_reads_every_tree_file_once(_exported, monkeypatch):
    opened, real_open = collections.Counter(), builtins.open

    def counted(file, *args, **kwargs):
        opened[os.path.relpath(file, _exported)] += 1
        return real_open(file, *args, **kwargs)
    monkeypatch.setattr(builtins, "open", counted)
    video = load_video(str(_exported), verify=True)
    monkeypatch.undo()
    tree = collections.Counter(os.path.relpath(os.path.join(root, name), _exported)
                               for root, _, names in os.walk(_exported) for name in names)
    assert len(video.scenes) == 2 and video.references
    assert opened == tree


def _tampered_tree(exported, tmp_path, edit):
    """Copy of the exported tree whose manifest went through ``edit``."""
    tree = tmp_path / "tree"
    shutil.copytree(exported, tree)
    manifest = json.loads((tree / "manifest.json").read_text())
    edit(manifest, tree)
    (tree / "manifest.json").write_text(json.dumps(manifest))
    return tree


def _drop_script(manifest, tree):
    (tree / "script.txt").unlink()


def _frames_as_string(manifest, tree):
    manifest["frames_per_scene"] = "8"


def _box_of_three(manifest, tree):  # the version 1 scene entry carried boxes
    manifest["scenes"][0] = {"index": 1, "entity_boxes": {"workshop": [0, 16, 0]}}


def _version_1(manifest, tree):
    manifest["version"] = 1


def _extra_key(manifest, tree):
    manifest["files"] = ["scene_1/frame_0.ppm"]


def _missing_key(manifest, tree):
    del manifest["frames_per_scene"]


def _scene_not_in_script(manifest, tree):
    manifest["scenes"].append(3)


def _scenes_repeat(manifest, tree):
    manifest["scenes"] = [1, 1]


def _frames_past_the_checksums(manifest, tree):
    manifest["frames_per_scene"] = 10 ** 12


def _one_frame_per_scene(manifest, tree):
    # a run exports model.frames >= 2, and frame consistency needs two: the
    # checksum keys match, but the tree is bad (exit 3), not the caller's input
    manifest["frames_per_scene"] = 1
    for rel in list(manifest["checksums"]):
        if "/frame_" in rel and not rel.endswith("/frame_0.ppm"):
            del manifest["checksums"][rel]


@pytest.mark.parametrize("edit", [_drop_script, _frames_as_string, _box_of_three, _version_1,
                                  _extra_key, _missing_key, _scene_not_in_script,
                                  _scenes_repeat, _frames_past_the_checksums,
                                  _one_frame_per_scene])
def test_malformed_manifest_is_a_checksum_mismatch(_exported, tmp_path, edit):
    tree = _tampered_tree(_exported, tmp_path, edit)
    with pytest.raises(ChecksumMismatch):
        load_video(str(tree))
    with pytest.raises(ChecksumMismatch):
        load_video(str(tree), verify=False)


@pytest.mark.parametrize("box", [[100, 200, 100, 200], [-50, -40, 0, 8], [4, 4, 0, 8],
                                 [0, 17, 0, 8]],
                         ids=["past-the-frame", "negative", "empty", "one-row-over"])
def test_entity_box_outside_the_frame_is_a_checksum_mismatch(_exported, tmp_path, capsys, box):
    # boxes derive from script.txt and the frame size; a manifest that still
    # carries one, as version 1 scene entries did, is refused before any crop
    def move_box(manifest, tree):
        manifest["scenes"][0] = {"index": 1, "entity_boxes": {"workshop": box}}
    tree = _tampered_tree(_exported, tmp_path, move_box)
    with pytest.raises(ChecksumMismatch, match="scene index"):
        load_video(str(tree))
    assert main(["metrics", "--out-dir", str(tree)]) == 3
    assert "IndexError" not in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(16, 16), (32, 8), (8, 32), (9, 40)])
def test_slot_boxes_lie_inside_the_frame(shape):
    spec = SceneSpec(1, "four marbles", ["a", "b", "c", "d"], "workshop",
                     CameraMove("static", "slow"))
    h, w = shape
    boxes = pipeline._slot_boxes(spec, h, w)
    assert boxes["workshop"] == (0, h, 0, w)
    for name in "abcd":
        r0, r1, c0, c1 = boxes[name]
        assert 0 <= r0 < r1 <= h and 0 <= c0 < c1 <= w
        assert r1 - r0 == c1 - c0 == round(min(h, w) * 0.375)


def test_file_without_checksum_entry_is_refused(_exported, tmp_path):
    def corrupt_and_unlist(manifest, tree):
        victim = tree / "scene_1" / "frame_0.ppm"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0x01
        victim.write_bytes(bytes(raw))
        del manifest["checksums"]["scene_1/frame_0.ppm"]
    tree = _tampered_tree(_exported, tmp_path, corrupt_and_unlist)
    with pytest.raises(ChecksumMismatch, match="no checksum entry"):
        load_video(str(tree))
    load_video(str(tree), verify=False)  # an unverified load still reads it


def test_script_is_read_from_script_txt(_exported, tmp_path):
    def retitle(manifest, tree):
        path = tree / "script.txt"
        path.write_text(path.read_text().replace("kneading dough", "shaping loaves"))
        manifest["checksums"]["script.txt"] = hashlib.sha256(path.read_bytes()).hexdigest()
    tree = _tampered_tree(_exported, tmp_path, retitle)
    assert load_video(str(tree)).scenes[0].spec.prompt.startswith("a silver robot shaping loaves")


def test_script_txt_needs_a_checksum_entry(_exported, tmp_path):
    def unlist_script(manifest, tree):
        del manifest["checksums"]["script.txt"]
    tree = _tampered_tree(_exported, tmp_path, unlist_script)
    with pytest.raises(ChecksumMismatch, match="script.txt: no checksum entry"):
        load_video(str(tree))
    assert len(load_video(str(tree), verify=False).scenes) == 2


@pytest.mark.parametrize("payload,error", [(None, ChecksumMismatch),
                                           (b"\xff\xfe not utf-8\n", MalformedScene)],
                         ids=["missing", "not-utf8"])
def test_unverified_load_of_a_bad_script_txt_is_a_typed_error(_exported, tmp_path,
                                                              payload, error):
    def spoil(manifest, tree):
        path = tree / "script.txt"
        if payload is None:
            path.unlink()
        else:
            path.write_bytes(payload)
    tree = _tampered_tree(_exported, tmp_path, spoil)
    with pytest.raises(error):
        load_video(str(tree), verify=False)


def test_verified_load_of_a_vouched_non_utf8_script_txt_is_malformed(_exported, tmp_path,
                                                                     capsys):
    # a checksum vouches for the bytes' integrity, not that they are a script
    def vouch_for_bad_bytes(manifest, tree):
        path = tree / "script.txt"
        path.write_bytes(b"\xff\xfe not utf-8\n")
        manifest["checksums"]["script.txt"] = hashlib.sha256(path.read_bytes()).hexdigest()
    tree = _tampered_tree(_exported, tmp_path, vouch_for_bad_bytes)
    with pytest.raises(MalformedScene):
        load_video(str(tree))
    capsys.readouterr()
    assert main(["metrics", "--out-dir", str(tree)]) == 2
    assert "not a scene record" in capsys.readouterr().err


def test_unverified_load_of_a_missing_latent_is_a_typed_error(_exported, tmp_path):
    def drop_latent(manifest, tree):
        (tree / "scene_1" / "clip_latent.vstn").unlink()
    tree = _tampered_tree(_exported, tmp_path, drop_latent)
    with pytest.raises(ChecksumMismatch, match="clip_latent.vstn: cannot read"):
        load_video(str(tree), verify=False)


def _outside_copy(tree):
    """A byte-identical copy of a reference image beside the tree; its digest."""
    outside = tree.parent / "outside.ppm"
    shutil.copyfile(tree / "refs" / "01_workshop.ppm", outside)
    return outside, hashlib.sha256(outside.read_bytes()).hexdigest()


def _reference_escapes(manifest, tree):  # the version 1 reference entries held paths
    _, digest = _outside_copy(tree)
    manifest["references"] = {"workshop": {"kind": "background", "image": "../outside.ppm",
                                           "mask": "refs/01_workshop_mask.pgm"}}
    manifest["checksums"]["../outside.ppm"] = digest


def _reference_is_absolute(manifest, tree):
    outside, digest = _outside_copy(tree)
    manifest["references"] = {"workshop": {"kind": "background", "image": str(outside),
                                           "mask": "refs/01_workshop_mask.pgm"}}
    manifest["checksums"][str(outside)] = digest


def _checksum_entry_escapes(manifest, tree):
    _, digest = _outside_copy(tree)
    manifest["checksums"]["refs/../../outside.ppm"] = digest


@pytest.mark.parametrize("edit", [_reference_escapes, _reference_is_absolute,
                                  _checksum_entry_escapes])
def test_manifest_paths_stay_inside_the_tree(_exported, tmp_path, monkeypatch, edit):
    tree = _tampered_tree(_exported, tmp_path, edit)
    opened = []

    def recording(read):
        def call(path, *args):
            opened.append(os.path.abspath(path))
            return read(path, *args)
        return call
    # every reader of the tree, the manifest's and the tensors' included, goes through these
    monkeypatch.setattr(pipeline, "read_bytes", recording(pipeline.read_bytes))
    monkeypatch.setattr(numeric_core, "read_bytes", recording(numeric_core.read_bytes))
    with pytest.raises(ChecksumMismatch, match="references|not in the tree's layout"):
        load_video(str(tree))
    assert opened  # the manifest at least was read
    assert all(path.startswith(str(tree) + os.sep) for path in opened), opened


def test_identical_seeds_export_identical_checksums(tmp_path):
    video_a, _ = _run(SCRIPT2)
    video_b, _ = _run(SCRIPT2)
    export_video(video_a, str(tmp_path / "a"))
    export_video(video_b, str(tmp_path / "b"))
    sums_a = load_video(str(tmp_path / "a"), verify=False).manifest["checksums"]
    sums_b = load_video(str(tmp_path / "b"), verify=False).manifest["checksums"]
    assert sums_a == sums_b


# --- displacement estimation ----------------------------------------------------------------------

def test_estimate_translation_recovers_integer_shift():
    rng = Rng(12)
    a = rng.uniform((24, 24, 3))
    for dx, dy in [(0, 0), (3, 0), (0, -2), (-4, 5)]:
        b = np.roll(np.roll(a, dy, axis=0), dx, axis=1)
        est = estimate_translation(a, b)
        assert est == (dx, dy), (dx, dy, est)


def test_estimate_translation_prefers_zero_on_ties():
    flat = np.full((16, 16, 3), 0.5)
    assert estimate_translation(flat, flat) == (0, 0)


@pytest.mark.parametrize("camera", [("right", "fast"), ("up", "fast"),
                                    ("left", "slow"), ("down", "slow")])
def test_tm_sweep_probes_only_shifts_inside_the_search(camera):
    # frames 5-6 of a fast pan move 10-12 px, past the 8 px search, and came back as
    # (-8, -8); odd frames of a slow pan move half a pixel, which no integer shift matches
    rows = tm_sweep(_config(), camera)
    assert [row["displacement_error"] for row in rows] == [0.0, 0.0, 0.0]


def test_tm_sweep_without_a_whole_pixel_probe_is_a_typed_error():
    # frame 1 of a slow pan is the only probe of a 2-frame clip, and it moves half a pixel
    with pytest.raises(TooFewFrames, match="whole pixel"):
        tm_sweep(_config(model={"frames": 2}), ("left", "slow"))
    assert len(tm_sweep(_config(model={"frames": 2}), ("left", "medium"))) == 3


def test_tm_sweep_refuses_a_zoom_before_sampling(monkeypatch, capsys):
    calls = []
    real = pipeline.sample_video

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "sample_video", counting)
    with pytest.raises(BadRange, match="no single translation"):
        tm_sweep(_config(), ("forward", "slow"))
    assert main(["tm-sweep", "--camera", "forward,slow"]) == 2
    assert "no single translation" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("tms", [(1, 9), (1, 4), (-1, 1)], ids=["past", "at-steps", "negative"])
def test_tm_sweep_refuses_a_t_m_outside_the_steps_before_sampling(monkeypatch, capsys,
                                                                  tmp_path, tms):
    calls = []
    real = pipeline.sample_video

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(pipeline, "sample_video", counting)
    steps = {"video_sampler": {"steps": 4, "t_m": 1}}
    bad = next(tm for tm in tms if not 0 <= tm <= 3)
    with pytest.raises(BadRange, match=rf"t_m {bad} is outside \[0, 3\]"):
        tm_sweep(_config(**steps), tms=tms)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(steps))
    tms_flag = ",".join(map(str, tms))
    assert main(["tm-sweep", "--config", str(config), f"--tms={tms_flag}"]) == 2
    assert f"t_m {bad} is outside" in capsys.readouterr().err
    assert main(["tm-sweep", "--tms", ""]) == 2  # not the default list
    assert "--tms" in capsys.readouterr().err
    assert calls == []


def _oracle_pan(config, anchor_camera, t_m):
    """Estimated (dx, dy) of frames 1.. against frame 0 of an oracle clip whose
    anchor is moved by ``anchor_camera`` and whose sampler intervenes as a
    medium pan right after ``t_m`` updates (none at 0)."""
    scene_latent = pipeline._scene_canvas_latent(config, pipeline._SWEEP_PROMPT, 3)
    anchor = pipeline._camera_anchor(scene_latent, anchor_camera, config.frames)
    clip = pipeline.sample_video(pipeline._oracle_denoiser(config, anchor), (),
                                 ("right", "medium"), config.noise_schedule(),
                                 config.video_sampler_config(11, t_m))
    base = decode_latent(clip[:, 0])
    return [estimate_translation(base, decode_latent(clip[:, f]))
            for f in range(1, config.frames)]


@pytest.mark.parametrize("anchor_camera", [("right", "medium"), ("static", "medium")],
                         ids=["moved-anchor", "still-anchor"])
def test_oracle_camera_motion_comes_from_the_anchor(anchor_camera):
    # the intervention adds no motion: every depth moves the clip as t_m = 0 does
    config = _config()
    at_zero = _oracle_pan(config, anchor_camera, 0)
    for t_m in (5, 20):
        assert _oracle_pan(config, anchor_camera, t_m) == at_zero, t_m
    assert at_zero == [expected_translation(*anchor_camera, f)
                       for f in range(1, config.frames)]


def test_expected_translation_directions():
    assert expected_translation("static", "fast", 5) == (0.0, 0.0)
    assert expected_translation("right", "medium", 3) == (-3.0, 0.0)
    assert expected_translation("left", "fast", 2) == (4.0, 0.0)
    assert expected_translation("down", "slow", 4) == (0.0, -2.0)
    with pytest.raises(BadRange, match="no single translation"):
        expected_translation("forward", "slow", 1)


def test_expected_translation_pins_the_pan_formula():
    # content moves by -f * v * unit: the camera's step, reversed, per frame
    units = {"static": (0.0, 0.0), "left": (-1.0, 0.0), "right": (1.0, 0.0),
             "up": (0.0, -1.0), "down": (0.0, 1.0)}
    speeds = {"slow": 0.5, "medium": 1.0, "fast": 2.0}
    for direction, (ux, uy) in units.items():
        for speed, v in speeds.items():
            for f in range(8):
                assert expected_translation(direction, speed, f) == (-f * v * ux, -f * v * uy)
    for direction in ("forward", "backward"):
        for f in (0, 1):
            with pytest.raises(BadRange, match="no single translation"):
                expected_translation(direction, "medium", f)


# --- fixture builder ---------------------------------------------------------------------------------

def test_build_mock_llm_fixture_covers_the_whole_dialogue():
    table = build_mock_llm_fixture(PROMPT, SCRIPT2)
    assert len(table) == 1 + 2 * 2  # script + (aspects, description) per entity
    backend = MockChatBackend(table)
    assert backend.complete(build_script_query(PROMPT)) == SCRIPT2
