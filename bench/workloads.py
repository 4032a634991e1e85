"""The benchmark's three workloads: seeded inputs, one timed operation each,
and the checks that decide whether an operation's output is correct.

Every input is generated here from the workload seed; the program only
sees the resulting themes, scripts, mock-chat fixtures and batches.  All
program calls go through module attributes (``pipeline.run_pipeline``,
``cond_blocks.train_step``) so the tracer's patches see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time

import numpy as np

from videostudio import cond_blocks, pipeline, script_engine
from videostudio.numeric_core import Rng, derive_seed

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")

# Reference outputs in refs/ were recorded at this workload seed.
DEFAULT_SEED = 0

# Reloaded frames are 8-bit PPM, so metrics recomputed from an exported
# tree differ from the in-memory report by pixel quantization (observed
# at most ~3e-3 on the 0..100 consistency scores and ~1e-3 on the [0, 1]
# similarities).  Allowed gap, as a share of each field's range:
METRICS_RELOAD_TOL = 0.01
# Network clips are compared to refs/network-cfg.npz in float64.  Values
# reach ~500 under guidance 12; reassociated float sums move them by far
# less than this.
NETWORK_MAX_ABS_TOL = 1e-6
# Adapter-train losses are compared to refs/adapter-train.json.
LOSS_RTOL = 1e-6
# A reload takes milliseconds; timing three per operation steadies the median.
VERIFY_REPEATS = 3

FOREGROUNDS = ("silver robot", "red kite", "paper boat", "brass lamp", "green parrot",
               "wooden cart", "glass marble", "striped cat", "blue teapot", "clay golem")
BACKGROUNDS = ("workshop", "harbor", "meadow", "attic", "desert road", "night market")
# The first eight are action-vocabulary phrases; the rest fall back to
# hashed embeddings in the indicator.
ACTIONS = ("kneading dough", "pouring coffee", "watering plants", "reading book",
           "climbing stairs", "painting wall", "sweeping floor", "opening door",
           "drifting slowly", "spinning around", "waiting quietly", "glowing softly")
DIRECTIONS = ("static", "left", "right", "up", "down", "forward", "backward")
SPEEDS = ("slow", "medium", "fast")
CAMERA_PAIRS = tuple((d, s) for d in DIRECTIONS for s in SPEEDS)
# Scenes per oracle-script video.  Five is the middle three of eight
# draws, so the per-video medians always land on a five-scene video
# instead of jumping between five and six with the seed.
SCENE_COUNTS = (3, 4, 5, 5, 5, 6, 7, 8)


def deal(key, items, i):
    """Item ``i`` of a stream that deals ``items`` in shuffled blocks.

    Every block of ``len(items)`` consecutive draws holds each item once,
    so a run's input mix is the same whatever the seed; only the order
    changes.  Item ``i`` depends on nothing but ``key`` and ``i``.
    """
    block = random.Random(f"{key}:{i // len(items)}").sample(items, len(items))
    return block[i % len(items)]


def script_text(scenes):
    """Canonical grammar text for [(prompt, [fg...], bg, (dir, speed)), ...]."""
    specs = [script_engine.SceneSpec(i + 1, prompt, list(fg), bg,
                                     script_engine.CameraMove(*camera))
             for i, (prompt, fg, bg, camera) in enumerate(scenes)]
    return script_engine.serialize_script(script_engine.VideoScript("", specs))


def malformed_draft(text, rnd):
    """A first draft that fails to parse, one of four ways."""
    lines = text.splitlines()
    k = rnd.randrange(len(lines))
    kind = rnd.randrange(4)
    if kind == 0:    # camera field dropped
        lines[k] = lines[k].rsplit(" | camera:", 1)[0] + "]"
    elif kind == 1:  # brackets lost
        lines[k] = lines[k].strip("[]")
    elif kind == 2:  # camera direction outside the vocabulary
        lines[k] = lines[k].rsplit("camera:", 1)[0] + "camera: diagonal, fast]"
    else:            # index gap
        lines[-1] = lines[-1].replace(f"[Scene {len(lines)}:", f"[Scene {len(lines) + 1}:", 1)
    return "\n".join(lines)


def mock_fixture(prompt, text, first_draft=None):
    """Mock-chat table for one theme; a first draft makes the script entry
    a list, so generate_script gets the draft, retries, then gets ``text``."""
    table = pipeline.build_mock_llm_fixture(prompt, text)
    if first_draft is not None:
        query = script_engine.build_script_query(prompt)
        key = script_engine.request_hash(script_engine.build_chat_request(query))
        table[key] = [first_draft, text]
    return table


def manifest_digest(manifest):
    """SHA-256 over the export's per-file checksums, canonical JSON."""
    blob = json.dumps(manifest["checksums"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _close(a, b, tol):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def metrics_match(report, reloaded):
    """In-memory report against the one recomputed from the exported tree."""
    a, b = report.to_dict(), reloaded.to_dict()
    if a["skipped_entities"] != b["skipped_entities"]:
        return False
    for key, scale in (("frame_consistency", 100.0), ("frame_consistency_mean", 100.0),
                       ("scene_consistency", 100.0), ("scene_consistency_mean", 100.0),
                       ("fg_sim", 1.0), ("bg_sim", 1.0)):
        x, y = a[key], b[key]
        if isinstance(x, dict):
            if sorted(x) != sorted(y):
                return False
            x, y = [x[k] for k in sorted(x)], [y[k] for k in sorted(x)]
        elif not isinstance(x, list):
            x, y = [x], [y]
        if len(x) != len(y) or not all(_close(u, v, scale * METRICS_RELOAD_TOL)
                                       for u, v in zip(x, y)):
            return False
    return True


class OpResult:
    """One operation: its timings, how much work it did and whether it passed."""

    def __init__(self):
        self.op_s = None        # timed part of the operation
        self.verify_s = []      # each timed reload of the operation's output
        self.work = 0           # scenes or optimizer steps completed
        self.export_bytes = 0
        self.problems = []

    @property
    def ok(self):
        return not self.problems


class VideoWorkload:
    """Shared body of the two generation workloads.

    A video is one ``run_pipeline`` call followed by ``export_video``,
    which is what ``videostudio generate`` does; each gets fresh backends
    so list-valued fixture entries replay.  Every video is exported over
    the previous one in the same directory: deleting the old tree first
    made export three times slower and far more variable on the ext4
    disks measured (see NOTES.md).  Verification reloads the tree
    with ``load_video(verify=True)`` and recomputes its metrics, three
    times, each timed on its own.
    """

    overrides = {}
    tiny_overrides = {}
    refs = None  # set from load_refs() at DEFAULT_SEED

    def __init__(self, seed, workdir, tiny=False):
        self.seed, self.tiny = seed, tiny
        self.out_dir = os.path.join(workdir, "video")
        self.key = f"{self.name}:{seed}"

    def config_overrides(self, i):
        doc = {"seed": derive_seed(self.seed, self.name, i)}
        doc.update(self.tiny_overrides if self.tiny else self.overrides)
        return doc

    def op(self, i):
        prompt, text, fixture = self.make_theme(i, random.Random(f"{self.key}:{i}"))
        res = OpResult()
        config = pipeline.load_config(overrides=self.config_overrides(i))
        t0 = time.perf_counter()
        backends = pipeline.resolve_backends(config, mock_llm=fixture)
        video, report = pipeline.run_pipeline(prompt, config, backends)
        pipeline.export_video(video, self.out_dir)
        res.op_s = time.perf_counter() - t0
        for _ in range(VERIFY_REPEATS):
            t1 = time.perf_counter()
            reloaded = pipeline.load_video(self.out_dir, verify=True)
            reloaded_report = pipeline.compute_metrics(reloaded)
            res.verify_s.append(time.perf_counter() - t1)
        res.work = len(video.scenes)
        res.export_bytes = sum(os.path.getsize(os.path.join(self.out_dir, rel))
                               for rel in list(video.manifest["checksums"]) + ["manifest.json"])
        self.check(i, text, video, report, reloaded, reloaded_report, res)
        return res

    def check(self, i, text, video, report, reloaded, reloaded_report, res):
        if script_engine.serialize_script(video.script) != text:
            res.problems.append("script differs from the accepted draft")
        if len(video.scenes) != text.count("\n") + 1:
            res.problems.append("scene count differs from the script")
        for scene, back in zip(video.scenes, reloaded.scenes):
            for label, mem, disk in (("scene", scene.scene_latent, back.scene_latent),
                                     ("clip", scene.clip_latent, back.clip_latent)):
                if not np.all(np.isfinite(mem)):
                    res.problems.append(f"scene {scene.spec.index}: {label} latent not finite")
                elif not np.array_equal(np.asarray(mem, dtype="<f4"), disk):
                    res.problems.append(
                        f"scene {scene.spec.index}: reloaded {label} latent differs")
        if len(reloaded.scenes) != len(video.scenes):
            res.problems.append("reloaded tree has a different scene count")
        if not metrics_match(report, reloaded_report):
            res.problems.append("reloaded metrics differ from the in-memory report")
        if self.refs is not None:
            self.check_refs(i, video, res)


class OracleScript(VideoWorkload):
    """Oracle denoiser at the default config; 3-8 scene scripts."""

    name = "oracle-script"
    tiny_overrides = {"model": {"latent": [4, 8, 8], "frames": 3},
                      "image_sampler": {"steps": 5}, "video_sampler": {"steps": 6, "t_m": 2}}

    def make_theme(self, i, rnd):
        cast = rnd.sample(FOREGROUNDS, 3)
        places = rnd.sample(BACKGROUNDS, 2)
        scenes = []
        cameras = rnd.sample(CAMERA_PAIRS, 8)
        for k in range(deal(self.key + ":scenes", SCENE_COUNTS, i)):
            fg = [cast[0]] if k % 3 else [cast[0], cast[1 + k % 2]]
            bg = places[0] if k % 2 == 0 else places[1]
            action = rnd.choice(ACTIONS)
            scenes.append((f"the {fg[0]} {action} in the {bg}", fg, bg, cameras[k]))
        prompt = f"a day with the {cast[0]} at the {places[0]}, take {i}"
        text = script_text(scenes)
        retry = deal(self.key + ":retry", (True, False, False, False), i)
        draft = malformed_draft(text, rnd) if retry else None
        return prompt, text, mock_fixture(prompt, text, draft)

    def load_refs(self):
        with open(os.path.join(REFS_DIR, "oracle-script.json"), encoding="utf-8") as fh:
            return json.load(fh)["digests"]

    def check_refs(self, i, video, res):
        if i < len(self.refs) and manifest_digest(video.manifest) != self.refs[i]:
            res.problems.append(f"export digest differs from refs/oracle-script.json[{i}]")


class NetworkCfg(VideoWorkload):
    """Network denoisers at the default model shapes, few sampling steps."""

    name = "network-cfg"
    overrides = {"denoiser": "network", "image_sampler": {"steps": 4},
                 "video_sampler": {"steps": 6, "t_m": 2}}
    tiny_overrides = {"denoiser": "network",
                      "model": {"latent": [3, 8, 8], "frames": 3, "channels": 16,
                                "heads": 2, "blocks": 1},
                      "image_sampler": {"steps": 3}, "video_sampler": {"steps": 4, "t_m": 2}}

    def make_theme(self, i, rnd):
        # one shared foreground and background keep every context the same length
        fg, bg = rnd.choice(FOREGROUNDS), rnd.choice(BACKGROUNDS)
        cameras = rnd.sample(CAMERA_PAIRS, 2)
        scenes = [(f"the {fg} {rnd.choice(ACTIONS)} in the {bg}", [fg], bg, cameras[k])
                  for k in range(2)]
        prompt = f"the {fg} visits the {bg}, take {i}"
        text = script_text(scenes)
        return prompt, text, mock_fixture(prompt, text)

    def load_refs(self):
        with np.load(os.path.join(REFS_DIR, "network-cfg.npz")) as data:
            return {key: data[key] for key in data.files}

    def check_refs(self, i, video, res):
        for scene in video.scenes:
            for label, arr in (("scene", scene.scene_latent), ("clip", scene.clip_latent)):
                key = f"v{i}_s{scene.spec.index}_{label}"
                if key in self.refs:
                    gap = float(np.max(np.abs(arr - self.refs[key])))
                    if not gap <= NETWORK_MAX_ABS_TOL:
                        res.problems.append(f"{key}: max abs gap {gap:.3g} to refs")


class AdapterTrain:
    """Adapter fine-tune: one round is an image step then a video step.

    ImgDenoiser(trainable="adapters") at batch 2 and VidDenoiser at batch 1,
    AdamW on both, at the default shapes; batches are seeded synthetic
    arrays cycled from a fixed pool.  A round ends by writing both
    models' weights to a fresh directory (overwriting the files in place
    measured slower and twice as variable); verification reloads them
    into shadow models.
    """

    name = "adapter-train"
    pool = 8
    refs = None  # set from load_refs() at DEFAULT_SEED

    def __init__(self, seed, workdir, tiny=False):
        self.seed, self.tiny = seed, tiny
        self.ckpt_dir = os.path.join(workdir, "weights")
        self.losses = []
        if tiny:
            lat, frames, ch, heads, blocks, lt, lc = (4, 6, 6), 3, 8, 2, 1, 5, 9
        else:
            lat, frames, ch, heads, blocks, lt, lc = (4, 16, 16), 8, 32, 4, 2, 77, 256
        vocab = 16
        root = Rng(derive_seed(seed, self.name))
        self.schedule = pipeline.load_config().noise_schedule()
        self.models = {}
        for tag in ("live", "shadow"):
            # shadows share the live models' initial weights and receive the checkpoints
            img = cond_blocks.ImgDenoiser(root.child("img"), lat, ch, blocks, heads,
                                          ch, ch, ch, trainable="adapters")
            vid = cond_blocks.VidDenoiser(root.child("vid"), (lat[0], frames) + lat[1:],
                                          ch, blocks, heads, vocab_size=vocab,
                                          scene_channels=ch)
            self.models[tag] = (img, vid)
        img, vid = self.models["live"]
        self.opts = (cond_blocks.AdamW(img.parameters()), cond_blocks.AdamW(vid.parameters()))
        self.frozen = [(p, p.data.copy()) for _, p in img.parameters() if not p.trainable]
        self.rng = root.child("train")
        data = np.random.default_rng(derive_seed(seed, self.name, "data"))
        self.img_batches = [[(0.5 * data.standard_normal(lat),
                              (cond_blocks.ContextBundle(data.standard_normal((lt, ch)),
                                                         data.standard_normal((lc, ch)),
                                                         data.standard_normal((lc, ch))),))
                             for _ in range(2)] for _ in range(self.pool)]
        self.vid_batches = [[(0.5 * data.standard_normal((lat[0], frames) + lat[1:]),
                              (cond_blocks.VidContext(data.standard_normal((lc, ch)),
                                                      data.uniform(size=vocab)),
                               0.5 * data.standard_normal((lat[0], 1) + lat[1:])))]
                            for _ in range(self.pool)]

    def load_refs(self):
        with open(os.path.join(REFS_DIR, "adapter-train.json"), encoding="utf-8") as fh:
            return json.load(fh)["losses"]

    def op(self, i):
        res = OpResult()
        img, vid = self.models["live"]
        # training only moves forward: a traced rerun of index i is the next round
        batch = len(self.losses) // 2 % self.pool
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)
        t0 = time.perf_counter()
        loss_img = cond_blocks.train_step(img, self.img_batches[batch],
                                          self.schedule, self.rng, self.opts[0])
        loss_vid = cond_blocks.train_step(vid, self.vid_batches[batch],
                                          self.schedule, self.rng, self.opts[1])
        for model, tag in ((img, "img"), (vid, "vid")):
            cond_blocks.save_weights(model, os.path.join(self.ckpt_dir, tag))
        res.op_s = time.perf_counter() - t0
        for _ in range(VERIFY_REPEATS):
            t1 = time.perf_counter()
            for model, tag in zip(self.models["shadow"], ("img", "vid")):
                cond_blocks.load_weights(model, os.path.join(self.ckpt_dir, tag))
            res.verify_s.append(time.perf_counter() - t1)
        res.work = 2
        start = len(self.losses)
        self.losses += [loss_img, loss_vid]
        if not (np.isfinite(loss_img) and np.isfinite(loss_vid)):
            res.problems.append(f"round {start // 2}: loss not finite")
        if self.refs is not None:
            for k in range(start, min(len(self.losses), len(self.refs))):
                if not abs(self.losses[k] - self.refs[k]) <= LOSS_RTOL * abs(self.refs[k]):
                    res.problems.append(
                        f"loss {k} is {self.losses[k]!r}, refs say {self.refs[k]!r}")
        for live, shadow, tag in zip(self.models["live"], self.models["shadow"], ("img", "vid")):
            for (name, p), (_, q) in zip(live.parameters(), shadow.parameters()):
                if not np.array_equal(q.data, p.data.astype("<f4")) or q.trainable != p.trainable:
                    res.problems.append(f"{tag} checkpoint: {name} did not round-trip")
        for p, before in self.frozen:
            if not np.array_equal(p.data, before):
                res.problems.append(f"frozen parameter {p.name} moved")
        return res


WORKLOADS = {cls.name: cls for cls in (OracleScript, NetworkCfg, AdapterTrain)}


def build_for_setup(name, tiny=False):
    """What ``setup_s`` times after import: config, backends, denoisers."""
    if name == AdapterTrain.name:
        return AdapterTrain(DEFAULT_SEED, os.devnull, tiny).models
    overrides = dict(WORKLOADS[name].tiny_overrides if tiny else WORKLOADS[name].overrides)
    config = pipeline.load_config(overrides=overrides)
    backends = pipeline.resolve_backends(config, mock_llm={})
    config.noise_schedule()
    config.action_vocabulary()
    extractor = config.feature_extractor()
    if config.denoiser != "network":
        return backends, extractor
    c, h, w = config.latent_shape
    img = cond_blocks.ImgDenoiser(Rng(derive_seed(config.seed, "model", "image")), (c, h, w),
                                  config.channels, config.blocks, config.heads,
                                  config.channels, config.channels, config.channels)
    vid = cond_blocks.VidDenoiser(Rng(derive_seed(config.seed, "model", "video")),
                                  (c, config.frames, h, w), config.channels, config.blocks,
                                  config.heads, vocab_size=config.vocab_size,
                                  scene_channels=config.channels)
    return backends, extractor, img, vid

