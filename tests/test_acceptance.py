"""Acceptance battery: one test per shipping criterion.

Each test states its tolerance inline and fails loudly when the
implementation drifts.  Time-bounded criteria assert wall-clock caps.
"""

import json
import time

import numpy as np
import pytest

from videostudio.action_condition import (VocabularyEmbedder,
                                          default_vocabulary)
from videostudio.camera_motion import DIRECTIONS, SPEEDS, synthesize_flow, warp_clip
from videostudio.cli import main
from videostudio.cond_blocks import (AdamW, AnalyticGaussianDenoiser,
                                     ContextBundle, GaussianPrior,
                                     ImgDenoiser, run_gradient_suite, train_step)
from videostudio.errors import ScriptGenerationExhausted
from videostudio.numeric_core import Rng
from videostudio.pipeline import (_resize_nearest, build_mock_llm_fixture,
                                  decode_latent, encode_image,
                                  estimate_translation, expected_translation,
                                  fg_bg_similarity, load_config,
                                  load_video, resolve_backends, run_pipeline,
                                  scene_consistency, tm_sweep)
from videostudio.ref_images import ToyTextToImageBackend
from videostudio.sampler import (SamplerConfig, apply_camera_intervention,
                                 make_schedule, sample_image, sample_video)
from videostudio.script_engine import (CameraMove, MockChatBackend, SceneSpec,
                                       VideoScript, build_chat_request,
                                       build_script_query, find_common_entities,
                                       generate_script, parse_script,
                                       request_hash, serialize_script)

PROMPT = "a silver robot spends a day in its workshop"
SCRIPT3 = """[Scene 1: prompt: a silver robot kneading dough in the workshop | foreground: silver robot | background: workshop | camera: right, medium]
[Scene 2: prompt: the silver robot pouring coffee at the bench | foreground: silver robot | background: workshop | camera: static, slow]
[Scene 3: prompt: the silver robot sweeping floor under lamplight | foreground: silver robot | background: workshop | camera: forward, slow]"""
SCRIPT2 = "\n".join(SCRIPT3.splitlines()[:2])


def test_criterion_01_gradient_audit_every_block():
    # finite differences vs autograd across every block family,
    # >= 20 randomized shapes, max relative error < 1e-4, under 2 minutes
    start = time.monotonic()
    report = run_gradient_suite(seed=0)
    elapsed = time.monotonic() - start
    assert report["passed"]
    assert len(report["cases"]) >= 20
    assert report["max_rel_err"] < 1e-4
    families = {c["case"].split("[")[0] for c in report["cases"]}
    for family in ("cross-attention", "tri-context", "spatio-temporal",
                   "temporal-conv", "layer-norm", "action-embedding"):
        assert family in families, family
    assert elapsed < 120.0


def test_criterion_02_schedule_endpoints_and_cumulative_product():
    schedule = make_schedule(1000, 0.00085, 0.0120)
    assert schedule.betas[0] == 0.00085          # exact endpoint
    assert schedule.betas[-1] == 0.0120          # exact endpoint
    walk = 1.0
    for t in range(1, 1001):
        walk *= 1.0 - schedule.betas[t - 1]
        assert abs(schedule.alpha_bar_at(t) - walk) < 1e-12


def test_criterion_03_ddim_matches_analytic_posteriors():
    start = time.monotonic()
    schedule = make_schedule(1000, 0.00085, 0.0120)
    # point-mass prior: deterministic DDIM must land on the mass
    mu = np.linspace(-2.0, 2.0, 16)
    oracle = AnalyticGaussianDenoiser(GaussianPrior(mu, 0.0), schedule, (16,))
    out = sample_image(oracle, (), schedule, SamplerConfig(steps=50, eta=0.0, seed=3))
    assert np.max(np.abs(out - mu)) < 1e-6
    # unit-variance prior: Monte Carlo over 10k independent scalars
    wide = AnalyticGaussianDenoiser(GaussianPrior(2.0, 1.0), schedule, (10000,))
    draws = sample_image(wide, (), schedule, SamplerConfig(steps=50, eta=0.0, seed=9))
    assert abs(float(np.mean(draws)) - 2.0) < 0.05
    assert abs(float(np.var(draws)) - 1.0) < 0.1
    assert time.monotonic() - start < 60.0


def test_criterion_04_zero_flow_intervention_is_identity():
    schedule = make_schedule(1000, 0.00085, 0.0120)
    rng = Rng(42)
    x = rng.normal((4, 8, 6, 6))
    eps = rng.normal((4, 8, 6, 6))
    field = np.zeros((8, 6, 6, 2))
    for t in (1, 250, 999):
        out = apply_camera_intervention(x, eps, t, schedule, field)
        assert np.max(np.abs(out - x)) < 1e-12


def test_criterion_05_camera_movement_controls_displacement():
    # anchored oracle, pan right at medium speed, intervention depth 5
    schedule = make_schedule(1000, 0.00085, 0.0120)
    c, frames, h, w = 4, 8, 16, 16
    t2i = ToyTextToImageBackend(8)
    img = t2i.generate("a checkered marble on a dark desk", 11)
    scene_latent = encode_image(_resize_nearest(img.data, h, w), c)
    field = synthesize_flow("right", "medium", frames, h, w)
    anchor = warp_clip(np.tile(scene_latent[:, None, :, :], (1, frames, 1, 1)), field)
    denoiser = AnalyticGaussianDenoiser(GaussianPrior(anchor, 1e-4), schedule,
                                        (c, frames, h, w))
    cfg = SamplerConfig(steps=70, eta=1.0, guidance_scale=12.0, t_m=5, seed=123)
    clip = sample_video(denoiser, (), ("right", "medium"), schedule, cfg)
    base = decode_latent(clip[:, 0])
    for f in range(1, 7):
        est = estimate_translation(base, decode_latent(clip[:, f]))
        want = expected_translation("right", "medium", f)
        assert abs(est[0] - want[0]) <= 0.5, f
        assert abs(est[1] - want[1]) <= 0.5, f
    # sweep of intervention depths: displacement error never worsens with
    # deeper intervention, anchor fit stays within the sampling floor
    rows = tm_sweep(load_config(overrides={"seed": 5}), ("right", "medium"), (1, 5, 20))
    errs = [row["displacement_error"] for row in rows]
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
    for row in rows:
        assert row["anchor_mse"] < 1e-5, row


def test_criterion_06_zeroed_adapters_reproduce_single_context():
    rng = Rng(5)
    model = ImgDenoiser(rng.child("model"), latent_shape=(4, 6, 6), channels=8,
                        blocks=2, heads=2, text_channels=8, fg_channels=8,
                        bg_channels=8)
    for name, p in model.parameters():
        if (".ca2." in name or ".ca3." in name) and name.endswith("w_o"):
            p.data = np.zeros_like(p.data)
    data = Rng(6)
    x = data.normal((4, 6, 6))
    with_refs = ContextBundle(data.normal((3, 8)), data.normal((2, 8)),
                              data.normal((2, 8)))
    text_only = ContextBundle(with_refs.y_t, np.zeros((0, 8)), np.zeros((0, 8)))
    a = model.predict(x, 500, with_refs).data
    b = model.predict(x, 500, text_only).data
    assert np.max(np.abs(a - b)) < 1e-12


def test_criterion_07_training_moves_only_the_adapters():
    schedule = make_schedule(1000, 0.00085, 0.0120)
    rng = Rng(77)
    model = ImgDenoiser(rng.child("model"), latent_shape=(4, 6, 6), channels=8,
                        blocks=2, heads=2, text_channels=8, fg_channels=8,
                        bg_channels=8)
    before = {name: p.data.copy() for name, p in model.parameters()}
    opt = AdamW(model.parameters(), lr=1e-3)
    data = rng.child("data")
    x0 = data.normal((4, 6, 6))
    bundle = ContextBundle(data.normal((3, 8)), data.normal((2, 8)),
                           data.normal((2, 8)))
    steps = rng.child("steps")
    for _ in range(100):
        train_step(model, [(x0, (bundle,))], schedule, steps, opt)
    moved = unchanged = 0
    for name, p in model.parameters():
        adapter = ".ca2." in name or ".ca3." in name
        if adapter:
            assert not np.array_equal(p.data, before[name]), name
            moved += 1
        else:
            assert np.array_equal(p.data, before[name]), name  # bitwise frozen
            unchanged += 1
    assert moved == 16 and unchanged == 22


def test_criterion_08_reference_images_raise_similarity_and_consistency():
    config = load_config(overrides={"seed": 7})
    fixture = build_mock_llm_fixture(PROMPT, SCRIPT3)
    with_refs, report_with = run_pipeline(
        PROMPT, config, resolve_backends(config, mock_llm=fixture))
    ablated_config = load_config(overrides={"seed": 7, "no_refs": True})
    without_refs, _ = run_pipeline(
        PROMPT, ablated_config, resolve_backends(ablated_config, mock_llm=fixture))
    assert len(with_refs.scenes) == 3 and len(without_refs.scenes) == 3
    fg_ref = with_refs.references["silver robot"]
    bg_ref = with_refs.references["workshop"]
    for scene_w, scene_wo, sim_w in zip(with_refs.scenes, without_refs.scenes,
                                        report_with.fg_sim):
        sim_wo, _ = fg_bg_similarity(scene_wo.scene_image.data, fg_ref.image.data,
                                     bg_ref.image.data)
        assert sim_w > sim_wo, (sim_w, sim_wo)
    sc_with = np.mean(list(scene_consistency(with_refs)[0].values()))
    sc_without = np.mean(list(scene_consistency(without_refs)[0].values()))
    assert sc_with > sc_without, (sc_with, sc_without)


def test_criterion_09_script_grammar_fuzz_retry_and_entity_oracle():
    # 1000 randomized scripts survive serialize -> parse unchanged
    rng = Rng(2024)
    names = ["red fox", "blue whale", "tall dancer", "stone golem",
             "paper crane", "glass owl"]
    places = ["snowy forest", "open ocean", "ballroom", "canyon", "atrium"]
    for trial in range(1000):
        r = rng.child(trial)
        count = int(r.integers(1, 7))
        scenes = []
        for i in range(1, count + 1):
            k = int(r.integers(0, 4))
            picks = sorted({int(r.integers(0, len(names))) for _ in range(k)})
            scenes.append(SceneSpec(
                i, f"take {trial} shot {i}", [names[j] for j in picks],
                places[int(r.integers(0, len(places)))],
                CameraMove(DIRECTIONS[int(r.integers(0, len(DIRECTIONS)))],
                           SPEEDS[int(r.integers(0, len(SPEEDS)))])))
        script = VideoScript("", scenes)
        assert parse_script(serialize_script(script)).scenes == scenes

    # retry loop consumes exactly max_attempts completions before giving up
    query = build_script_query("a theme")
    backend = MockChatBackend({request_hash(build_chat_request(query)): "nonsense"})
    with pytest.raises(ScriptGenerationExhausted):
        generate_script("a theme", backend, 4)
    assert backend.call_count == 4

    # shared-entity detection agrees with an exhaustive pairwise scan
    rng = Rng(4048)
    pool = [f"entity {i}" for i in range(6)]
    for trial in range(200):
        r = rng.child(trial)
        count = int(r.integers(1, 6))
        scenes = []
        for i in range(1, count + 1):
            k = int(r.integers(0, 4))
            picks = sorted({int(r.integers(0, len(pool))) for _ in range(k)})
            scenes.append(SceneSpec(i, f"shot {i}", [pool[j] for j in picks],
                                    places[int(r.integers(0, 3))],
                                    CameraMove("static", "slow")))
        records = find_common_entities(VideoScript("", scenes))
        seen = {}
        for s in scenes:
            for name in list(s.foreground) + [s.background]:
                seen.setdefault(name, set()).add(s.index)
        assert {rec.name for rec in records} == set(seen)
        assert ({rec.name for rec in records if rec.common}
                == {n for n, occ in seen.items() if len(occ) >= 2})
        for rec in records:
            assert rec.occurrences == seen[rec.name]


def test_criterion_10_action_indicator_edge_cases():
    from videostudio.action_condition import (ActionVocabulary, build_indicator,
                                              DROP_THRESHOLD)
    rows = np.eye(4)
    vocab = ActionVocabulary(["kneading", "pouring", "sweeping"], rows[:3])

    def fixed(table):
        return lambda phrase: np.asarray(table[phrase], dtype=np.float64)

    # scores normalized by the maximum: 0.8 -> 1.0, 0.4 -> 0.5
    emb = fixed({"a": rows[0] * 0.8 + rows[3] * 0.6,
                 "b": rows[1] * 0.4 + rows[3] * (1 - 0.4 ** 2) ** 0.5})
    y = build_indicator(["a", "b"], vocab, emb)
    assert y.shape == (3,)
    assert np.isclose(y[0], 1.0) and np.isclose(y[1], 0.5) and y[2] == 0.0

    # below-threshold matches drop; exactly-at-threshold survives
    low = fixed({"weak": rows[0] * 0.19 + rows[3] * (1 - 0.19 ** 2) ** 0.5})
    assert np.count_nonzero(build_indicator(["weak"], vocab, low)) == 0
    edge = fixed({"edge": rows[0] * DROP_THRESHOLD
                          + rows[3] * (1 - DROP_THRESHOLD ** 2) ** 0.5})
    assert np.count_nonzero(build_indicator(["edge"], vocab, edge)) == 1

    # cosine ties resolve to the lowest category index
    tie = fixed({"t": (rows[0] + rows[1]) / np.sqrt(2.0)})
    y = build_indicator(["t"], vocab, tie)
    assert y[0] > 0 and y[1] == 0.0

    # no phrases -> all-zero indicator of vocabulary size
    zero = build_indicator([], default_vocabulary(),
                           VocabularyEmbedder(default_vocabulary()))
    assert zero.shape == (16,) and np.count_nonzero(zero) == 0


def test_criterion_11_cli_generate_is_deterministic(tmp_path):
    start = time.monotonic()
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(build_mock_llm_fixture(PROMPT, SCRIPT2)))
    checksums = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["generate", "--prompt", PROMPT, "--mock-llm", str(fixture),
                     "--out-dir", str(out), "--seed", "7"])
        assert code == 0
        manifest = load_video(str(out)).manifest  # verifies every file hash
        assert len(manifest["scenes"]) == 2
        assert manifest["frames_per_scene"] == 8
        assert (out / "metrics.json").exists()
        checksums.append(manifest["checksums"])
    assert checksums[0] == checksums[1]
    assert time.monotonic() - start < 300.0


def test_criterion_12_epsilon_training_halves_the_loss():
    schedule = make_schedule(1000, 0.00085, 0.0120)
    rng = Rng(1234)
    model = ImgDenoiser(rng.child("model"), latent_shape=(4, 6, 6), channels=8,
                        blocks=2, heads=2, text_channels=8, fg_channels=8,
                        bg_channels=8, trainable="all")
    opt = AdamW(model.parameters(), lr=3e-3)
    data = rng.child("data")
    x0 = data.normal((4, 6, 6))  # single-mode target
    bundle = ContextBundle(data.normal((3, 8)), data.normal((2, 8)),
                           data.normal((2, 8)))
    steps = rng.child("steps")
    losses = [train_step(model, [(x0, (bundle,))], schedule, steps, opt)
              for _ in range(200)]
    window = np.ones(20) / 20.0
    smoothed = np.convolve(losses, window, mode="valid")
    assert smoothed[-1] <= 0.5 * smoothed[0], (smoothed[0], smoothed[-1])
