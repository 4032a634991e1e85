import hashlib
import json
import os
import shutil

import numpy as np
import pytest

from videostudio.errors import (BackendError, BadConfig, ChecksumMismatch,
                                DetectorMiss, NoCommonEntities, StageError,
                                TooFewFrames, UnknownDirection)
from videostudio.numeric_core import Rng
from videostudio.pipeline import (GroundTruthDetector, MetricsReport,
                                  MultiSceneVideo, PipelineConfig,
                                  SceneOutput, ToyEmbedder, _cosine,
                                  build_mock_llm_fixture, compose_scene,
                                  compute_metrics, decode_latent,
                                  default_config, encode_image,
                                  estimate_translation, expected_translation,
                                  export_video, fg_bg_similarity,
                                  frame_consistency, latent_to_image,
                                  load_config, load_manifest, load_video,
                                  resolve_backends, run_pipeline,
                                  scene_consistency)
from videostudio.ref_images import RgbImage, ToyTextToImageBackend
from videostudio.script_engine import (CameraMove, MockChatBackend, SceneSpec,
                                       build_chat_request, build_script_query,
                                       parse_script, request_hash)

PROMPT = "a silver robot spends a day in its workshop"
SCRIPT3 = """[Scene 1: prompt: a silver robot kneading dough in the workshop | foreground: silver robot | background: workshop | camera: right, medium]
[Scene 2: prompt: the silver robot pouring coffee at the bench | foreground: silver robot | background: workshop | camera: static, slow]
[Scene 3: prompt: the silver robot sweeping floor under lamplight | foreground: silver robot | background: workshop | camera: forward, slow]"""
SCRIPT2 = "\n".join(SCRIPT3.splitlines()[:2])


def _config(tmp_path=None, seed=7, **extra):
    overrides = {"seed": seed}
    if tmp_path is not None:
        overrides["output_dir"] = str(tmp_path)
    overrides.update(extra)
    return load_config(overrides=overrides)


def _run(script_text=SCRIPT2, tmp_path=None, seed=7, **extra):
    config = _config(tmp_path, seed=seed, **extra)
    backends = resolve_backends(config, mock_llm=build_mock_llm_fixture(PROMPT, script_text))
    return run_pipeline(PROMPT, config, backends)


# --- config ------------------------------------------------------------------------

def test_default_config_round_trip():
    config = PipelineConfig()
    assert config.seed == 0
    assert config.latent_shape == (4, 16, 16)
    assert config.frames == 8
    assert config.total_steps == 1000
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
    with pytest.raises(BadConfig):
        load_config(overrides={"speeds": {"translation": {"slowish": 0.5}}})


@pytest.mark.parametrize("schedule,key", [
    ({"beta_start": 0}, "schedule.beta_start"),
    ({"beta_start": float("nan")}, "schedule.beta_start"),
    ({"beta_start": 0.01, "beta_end": 0.001}, "schedule.beta_end"),
    ({"beta_end": 1.0}, "schedule.beta_end"),
])
def test_bad_noise_schedule_fails_at_load(schedule, key):
    with pytest.raises(BadConfig, match=key):
        load_config(overrides={"schedule": schedule})


@pytest.mark.parametrize("overrides,key", [
    ({"video_sampler": {"guidance_scale": float("nan")}}, "video_sampler.guidance_scale"),
    ({"oracle": {"prior_variance": float("nan")}}, "oracle.prior_variance"),
    ({"image_sampler": {"guidance_scale": float("inf")}}, "image_sampler.guidance_scale"),
    ({"speeds": {"translation": {"slow": float("nan")}}}, "speeds.translation.slow"),
])
def test_non_finite_config_numbers_fail_at_load(overrides, key):
    with pytest.raises(BadConfig, match=key):
        load_config(overrides=overrides)


@pytest.mark.parametrize("text", [
    "{not json",
    '[{"embedding": [1.0, 0.0]}]',
    '["running"]',
    '[{"name": "running", "embedding": "up"}]',
    '[{"name": "running", "embedding": [NaN, 0.0]}]',
], ids=["not-json", "no-name", "row-not-object", "embedding-not-numbers", "nan-embedding"])
def test_unusable_vocabulary_fails_at_load(tmp_path, text):
    path = tmp_path / "vocab.json"
    path.write_text(text)
    with pytest.raises(BadConfig, match="vocabulary"):
        load_config(overrides={"vocabulary_path": str(path)})


def test_vocabulary_size_mismatch_fails_at_load(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps([{"name": "running", "embedding": [1.0, 0.0]}]))
    with pytest.raises(BadConfig, match="model.vocab_size"):
        load_config(overrides={"vocabulary_path": str(path)})
    config = load_config(overrides={"vocabulary_path": str(path), "model": {"vocab_size": 1}})
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


def test_default_config_returns_fresh_copies():
    a = default_config()
    a["model"]["frames"] = 99
    assert default_config()["model"]["frames"] == 8


def test_resolve_backends_validation():
    config = _config()
    with pytest.raises(BadConfig):
        resolve_backends(config)  # chat.kind mock without a path
    backends = resolve_backends(config, mock_llm={"00": "x"})
    assert isinstance(backends.chat, MockChatBackend)
    assert isinstance(backends.text_to_image, ToyTextToImageBackend)
    with pytest.raises(BadConfig):
        resolve_backends(_config(chat={"kind": "http"}))  # no url


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
    spec = parse_script(SCRIPT2).scenes[0]
    t2i = ToyTextToImageBackend(16)
    canvas, boxes = compose_scene(spec, {}, 16, 16, t2i, scene_seed=5)
    assert canvas.shape == (16, 16, 3)
    assert boxes["workshop"] == (0, 16, 0, 16)
    assert "silver robot" in boxes
    r0, r1, c0, c1 = boxes["silver robot"]
    assert 0 <= r0 < r1 <= 16 and 0 <= c0 < c1 <= 16
    again, _ = compose_scene(spec, {}, 16, 16, t2i, scene_seed=5)
    assert np.array_equal(canvas, again)
    other, _ = compose_scene(spec, {}, 16, 16, t2i, scene_seed=6)
    assert not np.array_equal(canvas, other)


def test_compose_scene_pastes_foreground_tile_over_background():
    from videostudio.ref_images import EntityReference, Mask
    spec = parse_script(SCRIPT2).scenes[0]
    bg = EntityReference(None, RgbImage(np.full((16, 16, 3), 0.25)), "background",
                         Mask(np.zeros((16, 16))))
    tile = np.zeros((16, 16, 3))
    tile[:, :, 0] = 1.0
    fg = EntityReference(None, RgbImage(tile), "foreground", Mask(np.ones((16, 16))))
    refs = {"workshop": bg, "silver robot": fg}
    canvas, boxes = compose_scene(spec, refs, 16, 16, None, scene_seed=0)
    r0, r1, c0, c1 = boxes["silver robot"]
    assert np.allclose(canvas[r0:r1, c0:c1, 0], 1.0)   # tile pixels win
    outside = canvas.copy()
    outside[r0:r1, c0:c1] = 0.25
    assert np.allclose(outside, 0.25)                  # rest is the bg canvas


# --- embedding and cosine -------------------------------------------------------------------

def test_toy_embedder_unit_norm_and_determinism():
    emb = ToyEmbedder()
    rng = Rng(2)
    img = rng.uniform((20, 20, 3))
    a, b = emb.embed(img), emb.embed(img)
    assert np.array_equal(a, b)
    assert np.isclose(np.linalg.norm(a), 1.0)
    zero = emb.embed(np.zeros((16, 16, 3)))
    assert np.linalg.norm(zero) < 1e-12  # zero guard, no division blowup
    gray = emb.embed(np.ones((16, 16)) * 0.5)  # 2-D input broadcast to RGB
    assert gray.shape == a.shape


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

def _toy_scene(index, frame, boxes, prompt=None, fg=("silver robot",), bg="workshop",
               cam=("static", "slow"), frames=None):
    spec = SceneSpec(index, prompt or f"scene {index} action", list(fg), bg, CameraMove(*cam))
    img = RgbImage(frame)
    frame_list = frames if frames is not None else [img, img]
    return SceneOutput(spec, 0, np.zeros((4, 16, 16)), img,
                       np.zeros((4, len(frame_list), 16, 16)), frame_list, dict(boxes))


def test_frame_consistency_identical_frames_hit_exact_maximum():
    emb = ToyEmbedder()
    img = RgbImage(Rng(4).uniform((16, 16, 3)))
    assert frame_consistency([img, img, img], emb) == 100.0
    other = RgbImage(Rng(5).uniform((16, 16, 3)))
    assert frame_consistency([img, other], emb) < 100.0
    with pytest.raises(TooFewFrames):
        frame_consistency([img], emb)


def test_detector_crops_padded_box():
    frame = Rng(6).uniform((16, 16, 3))
    scene = _toy_scene(1, frame, {"silver robot": (4, 8, 4, 8)})
    crop = GroundTruthDetector(padding=2).detect(scene, "silver robot")
    assert crop.shape == (8, 8, 3)
    assert np.array_equal(crop, frame[2:10, 2:10])
    edge = GroundTruthDetector(padding=4).detect(scene, "silver robot")
    assert edge.shape == (12, 12, 3)  # clipped at the frame border
    with pytest.raises(DetectorMiss):
        GroundTruthDetector().detect(scene, "coffee pot")


def test_scene_consistency_identical_crops_score_100():
    frame = Rng(7).uniform((16, 16, 3))
    boxes = {"silver robot": (4, 8, 4, 8), "workshop": (0, 16, 0, 16)}
    video = MultiSceneVideo(PROMPT, parse_script(SCRIPT2),
                            [_toy_scene(1, frame, boxes), _toy_scene(2, frame, boxes)],
                            {})
    assert scene_consistency(video, GroundTruthDetector(), ToyEmbedder()) == 100.0


def test_scene_consistency_requires_common_entities():
    text = ("[Scene 1: prompt: a quiet hallway | foreground: none | background: hallway | camera: static, slow]\n"
            "[Scene 2: prompt: a quiet cellar | foreground: none | background: cellar | camera: static, slow]")
    script = parse_script(text)
    frame = Rng(8).uniform((16, 16, 3))
    scenes = [_toy_scene(1, frame, {"hallway": (0, 16, 0, 16)}, fg=(), bg="hallway"),
              _toy_scene(2, frame, {"cellar": (0, 16, 0, 16)}, fg=(), bg="cellar")]
    video = MultiSceneVideo(PROMPT, script, scenes, {})
    with pytest.raises(NoCommonEntities):
        scene_consistency(video, GroundTruthDetector(), ToyEmbedder())


def test_scene_consistency_skips_undetectable_entities():
    frame = Rng(9).uniform((16, 16, 3))
    full = {"silver robot": (4, 8, 4, 8), "workshop": (0, 16, 0, 16)}
    missing = {"workshop": (0, 16, 0, 16)}  # no robot box in scene 2
    video = MultiSceneVideo(PROMPT, parse_script(SCRIPT2),
                            [_toy_scene(1, frame, full), _toy_scene(2, frame, missing)],
                            {})
    report = compute_metrics(video)
    assert report.skipped_entities == ["silver robot"]
    assert set(report.scene_consistency) == {"workshop"}
    # when every common entity is skipped the metric refuses to answer
    none_at_all = [_toy_scene(1, frame, {}), _toy_scene(2, frame, {})]
    broken = MultiSceneVideo(PROMPT, parse_script(SCRIPT2), none_at_all, {})
    with pytest.raises(DetectorMiss):
        scene_consistency(broken, GroundTruthDetector(), ToyEmbedder())


def test_fg_bg_similarity_self_is_exactly_one():
    img = RgbImage(Rng(10).uniform((16, 16, 3)))
    other = RgbImage(Rng(11).uniform((16, 16, 3)))
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


def test_run_pipeline_network_denoisers():
    # untrained but must sample end to end and stay seed-deterministic
    overrides = {"denoiser": "network",
                 "model": {"latent": [3, 8, 8], "frames": 3, "channels": 16,
                           "heads": 2, "blocks": 1},
                 "image_sampler": {"steps": 6},
                 "video_sampler": {"steps": 8, "t_m": 2}}
    video_a, report = _run(SCRIPT2, **overrides)
    assert video_a.scenes[0].clip_latent.shape == (3, 3, 8, 8)
    assert len(video_a.scenes[0].frames) == 3
    assert np.all(np.isfinite(video_a.scenes[0].clip_latent))
    assert report.frame_consistency_mean is not None
    video_b, _ = _run(SCRIPT2, **overrides)
    assert np.array_equal(video_a.scenes[0].clip_latent, video_b.scenes[0].clip_latent)


def test_scene_outputs_do_not_depend_on_later_scenes(tmp_path):
    out_a, out_b = tmp_path / "three", tmp_path / "two"
    video3, _ = _run(SCRIPT3)
    video2, _ = _run(SCRIPT2)
    export_video(video3, str(out_a))
    export_video(video2, str(out_b))
    sums_a = load_manifest(str(out_a), verify=False)["checksums"]
    sums_b = load_manifest(str(out_b), verify=False)["checksums"]
    shared = [rel for rel in sums_b
              if rel.startswith(("scene_1/", "scene_2/", "refs/"))]
    assert shared
    for rel in shared:
        assert sums_a[rel] == sums_b[rel], rel


def test_run_pipeline_wraps_failures_with_stage(tmp_path):
    config = _config(tmp_path)
    backends = resolve_backends(config, mock_llm={"deadbeef": "nothing"})
    with pytest.raises(StageError) as err:
        run_pipeline(PROMPT, config, backends)
    assert err.value.stage == "script"
    assert isinstance(err.value.cause, BackendError)
    failure = json.loads((tmp_path / "failure_manifest.json").read_text())
    assert failure["failed_stage"] == "script"
    assert failure["completed_scenes"] == []


def test_partial_persistence_after_reference_failure(tmp_path):
    # fixture knows the script but no entity dialogue -> references stage dies
    table = {request_hash(build_chat_request(build_script_query(PROMPT))): SCRIPT2}
    config = _config(tmp_path)
    backends = resolve_backends(config, mock_llm=table)
    with pytest.raises(StageError) as err:
        run_pipeline(PROMPT, config, backends)
    assert err.value.stage == "references"
    failure = json.loads((tmp_path / "failure_manifest.json").read_text())
    assert failure["failed_stage"] == "references"
    assert (tmp_path / "script.txt").exists()  # what finished was exported


# --- export / load -------------------------------------------------------------------------------

def test_export_manifest_inventory(tmp_path):
    video, _ = _run(SCRIPT2)
    manifest_path = export_video(video, str(tmp_path))
    assert os.path.basename(manifest_path) == "manifest.json"
    manifest = load_manifest(str(tmp_path))  # checksums verify clean
    assert manifest["version"] == 1
    assert manifest["prompt"] == PROMPT
    assert manifest["frames_per_scene"] == 8
    assert len(manifest["scenes"]) == 2
    for entry in manifest["scenes"]:
        assert len(entry["files"]["frames"]) == 8
        for rel in entry["files"]["frames"]:
            assert (tmp_path / rel).exists()
    assert set(manifest["references"]) == {"silver robot", "workshop"}
    # every exported file is checksummed: scenes*(frames+image+2 latents) + refs + script
    want = 2 * (8 + 1 + 2) + 2 * 2 + 1
    assert len(manifest["checksums"]) == want


def test_export_load_round_trip(tmp_path):
    video, _ = _run(SCRIPT2)
    export_video(video, str(tmp_path))
    back = load_video(str(tmp_path))
    assert back.prompt == PROMPT
    assert back.seed == video.seed
    assert len(back.scenes) == len(video.scenes)
    for orig, loaded in zip(video.scenes, back.scenes):
        assert loaded.spec == orig.spec
        assert loaded.entity_boxes == orig.entity_boxes
        # latents ride through float32 storage
        assert np.max(np.abs(loaded.clip_latent - orig.clip_latent)) < 1e-6
        assert len(loaded.frames) == len(orig.frames)
        # frames ride through 8-bit PPM quantization
        assert np.max(np.abs(loaded.frames[0].data - orig.frames[0].data)) <= 0.5 / 255 + 1e-12
    assert set(back.references) == set(video.references)
    assert back.references["silver robot"].kind == "foreground"
    # metrics recompute from the loaded tree without error
    report = compute_metrics(back)
    assert report.scene_consistency_mean is not None


def test_checksum_fault_injection(tmp_path):
    video, _ = _run(SCRIPT2)
    export_video(video, str(tmp_path))
    victim = tmp_path / "scene_1" / "frame_0.ppm"
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0x01
    victim.write_bytes(bytes(raw))
    with pytest.raises(ChecksumMismatch):
        load_manifest(str(tmp_path))
    assert load_manifest(str(tmp_path), verify=False)["version"] == 1
    victim.unlink()
    with pytest.raises(ChecksumMismatch):
        load_manifest(str(tmp_path))
    with pytest.raises(ChecksumMismatch):
        load_manifest(str(tmp_path / "not_there"))


@pytest.fixture(scope="module")
def _exported(tmp_path_factory):
    out = tmp_path_factory.mktemp("exported")
    video, _ = _run(SCRIPT2)
    export_video(video, str(out))
    return out


def _tampered_tree(exported, tmp_path, edit):
    """Copy of the exported tree whose manifest went through ``edit``."""
    tree = tmp_path / "tree"
    shutil.copytree(exported, tree)
    manifest = json.loads((tree / "manifest.json").read_text())
    edit(manifest, tree)
    (tree / "manifest.json").write_text(json.dumps(manifest))
    return tree


def _drop_script(manifest, tree):
    del manifest["script"]


def _frames_as_string(manifest, tree):
    manifest["scenes"][0]["files"]["frames"] = manifest["scenes"][0]["files"]["frames"][0]


def _box_of_three(manifest, tree):
    manifest["scenes"][0]["entity_boxes"]["workshop"] = [0, 16, 0]


@pytest.mark.parametrize("edit", [_drop_script, _frames_as_string, _box_of_three])
def test_malformed_manifest_is_a_checksum_mismatch(_exported, tmp_path, edit):
    tree = _tampered_tree(_exported, tmp_path, edit)
    with pytest.raises(ChecksumMismatch):
        load_video(str(tree))


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


def _outside_copy(tree):
    """A byte-identical copy of a reference image beside the tree; its digest."""
    outside = tree.parent / "outside.ppm"
    shutil.copyfile(tree / "refs" / "01_workshop.ppm", outside)
    return outside, hashlib.sha256(outside.read_bytes()).hexdigest()


def _reference_escapes(manifest, tree):
    _, digest = _outside_copy(tree)
    manifest["references"]["workshop"]["image"] = "../outside.ppm"
    manifest["checksums"]["../outside.ppm"] = digest


def _reference_is_absolute(manifest, tree):
    outside, digest = _outside_copy(tree)
    manifest["references"]["workshop"]["image"] = str(outside)
    manifest["checksums"][str(outside)] = digest


def _checksum_entry_escapes(manifest, tree):
    _, digest = _outside_copy(tree)
    manifest["checksums"]["refs/../../outside.ppm"] = digest


@pytest.mark.parametrize("edit", [_reference_escapes, _reference_is_absolute,
                                  _checksum_entry_escapes])
def test_manifest_paths_stay_inside_the_tree(_exported, tmp_path, edit):
    tree = _tampered_tree(_exported, tmp_path, edit)
    with pytest.raises(ChecksumMismatch, match="not inside the exported tree"):
        load_video(str(tree))


def test_identical_seeds_export_identical_checksums(tmp_path):
    video_a, _ = _run(SCRIPT2)
    video_b, _ = _run(SCRIPT2)
    export_video(video_a, str(tmp_path / "a"))
    export_video(video_b, str(tmp_path / "b"))
    sums_a = load_manifest(str(tmp_path / "a"), verify=False)["checksums"]
    sums_b = load_manifest(str(tmp_path / "b"), verify=False)["checksums"]
    assert sums_a == sums_b


# --- displacement estimation ----------------------------------------------------------------------

def test_estimate_translation_recovers_integer_shift():
    rng = Rng(12)
    a = rng.uniform((24, 24, 3))
    for dx, dy in [(0, 0), (3, 0), (0, -2), (-4, 5)]:
        b = np.roll(np.roll(a, dy, axis=0), dx, axis=1)
        est = estimate_translation(a, b, max_shift=6)
        assert est == (dx, dy), (dx, dy, est)


def test_estimate_translation_prefers_zero_on_ties():
    flat = np.full((16, 16, 3), 0.5)
    assert estimate_translation(flat, flat) == (0, 0)


def test_expected_translation_directions():
    assert expected_translation("static", "fast", 5) == (0.0, 0.0)
    assert expected_translation("right", "medium", 3) == (-3.0, 0.0)
    assert expected_translation("left", "fast", 2) == (4.0, 0.0)
    assert expected_translation("down", "slow", 4) == (0.0, -2.0)
    with pytest.raises(UnknownDirection):
        expected_translation("forward", "slow", 1)


# --- fixture builder ---------------------------------------------------------------------------------

def test_build_mock_llm_fixture_covers_the_whole_dialogue():
    table = build_mock_llm_fixture(PROMPT, SCRIPT2)
    assert len(table) == 1 + 2 * 2  # script + (aspects, description) per entity
    backend = MockChatBackend(table)
    assert backend.complete(build_script_query(PROMPT)) == SCRIPT2
    custom = build_mock_llm_fixture(PROMPT, SCRIPT2,
                                    descriptions={"workshop": "a cluttered workshop"})
    assert any(v == "a cluttered workshop" for v in custom.values())
