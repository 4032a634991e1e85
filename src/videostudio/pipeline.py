"""End-to-end orchestration: script -> references -> scenes -> metrics -> files.

The heavy perceptual models live behind small deterministic stand-ins so
the whole pipeline runs and is checkable on a laptop:

* latent "decoding" is a fixed linear map with orthonormal rows; RGB
  round-trips exactly through encode/decode, and because both the warp
  and the map are linear, camera moves stay visible in exported frames;
* a compositor pastes entity reference tiles onto the background canvas
  at fixed slots, which the metrics crop again later;
* generation defaults to the anchored analytic denoiser whose prior mean
  is the latent of that composite, which makes reference reuse and
  camera effects exactly predictable.  Set "denoiser": "network" to run
  the trainable attention stacks instead (untrained unless you train).

Scenes are seeded per index and share no state, so they could generate
concurrently; we run them in index order for simplicity.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import os
import urllib.parse
from dataclasses import asdict, dataclass

import numpy as np

from .action_condition import (VocabularyEmbedder, build_indicator, default_vocabulary,
                               extract_action_phrases, load_vocabulary)
from .camera_motion import synthesize_flow, warp_clip
from .cond_blocks import (AnalyticGaussianDenoiser, ContextBundle, GaussianPrior,
                          ImgDenoiser, VidContext, VidDenoiser, ToyFeatureExtractor,
                          _resize_nearest)
from .errors import (BadConfig, BadRange, ChecksumMismatch, ShapeMismatch, StageError,
                     TooFewFrames, UnwritablePath, ValidationError)
from .numeric_core import (Rng, derive_seed, hash64, load_tensor, read_bytes, read_json,
                           save_tensor, write_bytes, write_json)
from .ref_images import (MIN_SIDE, EntityReference, RgbImage, RemoteTextToImageBackend,
                         ToyTextToImageBackend, build_entity_references, decode_pgm,
                         decode_ppm, encode_pgm, encode_ppm)
from .sampler import SamplerConfig, make_schedule, sample_image, sample_video
from .script_engine import (CHAT_MODEL, HttpChatBackend, MockChatBackend, build_aspect_query,
                            build_chat_request, build_description_query,
                            build_script_query, find_common_entities,
                            generate_entity_description, generate_script,
                            parse_script, request_hash, serialize_script)

__all__ = [
    "PipelineConfig", "PipelineBackends", "default_config", "load_config",
    "resolve_backends", "decode_latent", "encode_image", "latent_to_image",
    "compose_scene", "SceneOutput", "MultiSceneVideo", "MetricsReport",
    "run_pipeline", "frame_consistency", "scene_consistency", "fg_bg_similarity",
    "compute_metrics", "export_video", "export_failure", "load_video",
    "estimate_translation", "expected_translation", "tm_sweep",
    "build_mock_llm_fixture",
]


# --- configuration ----------------------------------------------------------

_DEFAULT_CONFIG = {
    "seed": 0,
    "denoiser": "oracle",
    "no_refs": False,
    "vocabulary_path": None,
    "model": {"channels": 32, "blocks": 2, "heads": 4, "latent": [4, 16, 16], "frames": 8},
    "image_sampler": {"steps": 50},
    "video_sampler": {"steps": 70, "t_m": 5},
    "chat": {"path": None, "url": None, "model": CHAT_MODEL},
    "text_to_image": {"url": None},
}


def default_config():
    """A fresh copy of the full default configuration tree."""
    return copy.deepcopy(_DEFAULT_CONFIG)


def _merge_config(defaults, override, prefix=""):
    out = dict(defaults)
    if not isinstance(override, dict):
        raise BadConfig(f"config section {prefix or '<root>'!r} must be an object")
    for key, value in override.items():
        if key not in defaults:
            raise BadConfig(f"unknown config key {prefix + key!r}")
        base = defaults[key]
        if isinstance(base, dict):
            out[key] = _merge_config(base, value, prefix + key + ".")
        elif isinstance(value, dict):
            raise BadConfig(f"config key {prefix + key!r} is not a section")
        else:
            out[key] = value
    return out


def _lookup(doc, dotted):
    for part in dotted.split("."):
        doc = doc[int(part)] if isinstance(doc, (list, tuple)) else doc[part]
    return doc


def _shown(value):
    """``value`` for an error message.  Python refuses to print an integer
    past 4,300 digits, so a large one is described by its bit length."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an integer of {value.bit_length()} bits"
    if value is None or isinstance(value, (int, float, str)):
        return repr(value)
    return f"a {type(value).__name__}"


def _want_int(doc, dotted, lo, hi=2 ** 63 - 1):
    """The integer at ``dotted``, within [lo, hi]; numpy sizes stop at 2**63 - 1."""
    value = _lookup(doc, dotted)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadConfig(f"{dotted} must be an integer, got {_shown(value)}")
    if value < lo:
        raise BadConfig(f"{dotted} must be >= {lo}, got {_shown(value)}")
    if value > hi:
        raise BadConfig(f"{dotted} must be <= {hi}, got {_shown(value)}")
    return value


def _want_text(doc, dotted):
    value = _lookup(doc, dotted)
    if value is not None and not isinstance(value, str):
        raise BadConfig(f"{dotted} must be a string or null, got {_shown(value)}")
    return value


def _is_http_url(text):
    """Whether ``text`` is an http(s) URL with a host; ``urlopen`` would also
    serve ``file:``, ``data:`` and ``ftp:`` URLs."""
    try:
        parts = urllib.parse.urlsplit(text)
    except ValueError:  # a malformed IPv6 host
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def _want_choice(doc, dotted, choices):
    value = _lookup(doc, dotted)
    if not isinstance(value, str) or value not in choices:
        raise BadConfig(f"{dotted} must be one of {choices}, got {_shown(value)}")
    return value


# Largest element count one array sized by the model keys may reach; the
# defaults reach at most 262,144 of it.
MODEL_BUDGET = 2 ** 26


def _check_model_budget(config):
    c, h, w = config.latent_shape
    sites, tokens = h * w, (config.frames + 1) * h * w  # the reference frame rides along
    for keys, elements in (
            ("model.latent and model.frames", c * tokens),  # a clip latent
            ("model.channels, model.latent and model.frames", config.channels * tokens),
            ("model.heads and model.latent", config.heads * sites * sites),  # spatial scores
            ("model.heads and model.frames", config.heads * (config.frames + 1) ** 2),  # temporal
            ("model.blocks and model.channels", config.blocks * config.channels ** 2)):
        if elements > MODEL_BUDGET:
            raise BadConfig(f"{keys} need {elements} elements, over the model budget "
                            f"of {MODEL_BUDGET}")


class PipelineConfig:
    """Validated view over the single JSON configuration document.

    The document holds only what a caller varies; fixed settings are the
    defaults of the module that uses them.  Unknown keys anywhere in the
    tree are rejected up front, and referenced paths must exist at parse time.
    """

    def __init__(self, doc=None):
        doc = _merge_config(default_config(), doc or {})
        self.seed = _want_int(doc, "seed", 0, 2 ** 64 - 1)
        self.denoiser = _want_choice(doc, "denoiser", ("oracle", "network"))
        if not isinstance(doc["no_refs"], bool):
            raise BadConfig(f"no_refs must be true or false, got {_shown(doc['no_refs'])}")
        self.no_refs = doc["no_refs"]

        self.channels = _want_int(doc, "model.channels", 1)
        self.blocks = _want_int(doc, "model.blocks", 1)
        self.heads = _want_int(doc, "model.heads", 1)
        if self.channels % self.heads:
            raise BadConfig("model.heads must divide model.channels")
        latent = doc["model"]["latent"]
        if not isinstance(latent, (list, tuple)) or len(latent) != 3:
            raise BadConfig(f"model.latent must list three integers, got {_shown(latent)}")
        # RGB decodes from 3 latent channels; reference tiles need MIN_SIDE pixels
        self.latent_shape = tuple(_want_int(doc, f"model.latent.{i}", lo)
                                  for i, lo in enumerate((3, MIN_SIDE, MIN_SIDE)))
        self.frames = _want_int(doc, "model.frames", 2)
        _check_model_budget(self)

        self._schedule = make_schedule()
        for key in ("image_sampler", "video_sampler"):
            _want_int(doc, f"{key}.steps", 1, self._schedule.T)
        _want_int(doc, "video_sampler.t_m", 0, doc["video_sampler"]["steps"] - 1)

        for dotted in ("chat.url", "chat.model", "text_to_image.url"):
            value = _want_text(doc, dotted)
            if dotted.endswith(".url") and value and not _is_http_url(value):
                raise BadConfig(f"{dotted} must be an http:// or https:// URL with a host, "
                                f"got {_shown(value)}")
        for dotted in ("chat.path", "vocabulary_path"):
            value = _want_text(doc, dotted)
            if value is not None and not os.path.exists(value):
                raise BadConfig(f"{dotted} points at a missing file: {value!r}")
        path = doc["vocabulary_path"]
        try:
            vocab = load_vocabulary(path) if path else default_vocabulary(self.channels)
        except (ValueError, KeyError, TypeError, OverflowError, ValidationError) as exc:
            raise BadConfig(f"action vocabulary {path or '(default)'!r} is unusable: "
                            f"{type(exc).__name__}: {exc}") from exc
        self.vocab_size = vocab.size

        self.doc = doc
        self._extractor = ToyFeatureExtractor(self.channels)
        self._vocabulary = vocab

    def noise_schedule(self):
        return self._schedule

    def image_sampler_config(self, seed):
        return SamplerConfig(self.doc["image_sampler"]["steps"], eta=0.0, guidance_scale=1.0,
                             t_m=0, seed=seed)

    def video_sampler_config(self, seed, t_m=None):
        s = self.doc["video_sampler"]
        return SamplerConfig(s["steps"], eta=1.0, guidance_scale=12.0,
                             t_m=s["t_m"] if t_m is None else t_m, seed=seed)

    def action_vocabulary(self):
        return self._vocabulary

    def feature_extractor(self):
        return self._extractor


def load_config(path=None, overrides=None):
    """Parse the JSON config file (if any) and apply CLI-style overrides."""
    merged = default_config()
    if path is not None:
        merged = _merge_config(merged, read_json(path, BadConfig))
    if overrides:
        merged = _merge_config(merged, overrides)
    return PipelineConfig(merged)


class PipelineBackends:
    """The two pluggable services a run needs."""

    def __init__(self, chat, text_to_image):
        self.chat = chat
        self.text_to_image = text_to_image


def resolve_backends(config, mock_llm=None):
    """Chat is the mock over ``chat.path`` or HTTP at ``chat.url``, whichever one
    is set, unless ``mock_llm`` forces a fixture; text-to-image is HTTP at
    ``text_to_image.url`` if set, else the toy.  An empty url counts as unset."""
    chat_cfg, t2i_url = config.doc["chat"], config.doc["text_to_image"]["url"]
    if mock_llm is not None:
        chat = MockChatBackend(mock_llm, chat_cfg["model"])
    elif bool(chat_cfg["path"]) == bool(chat_cfg["url"]):
        raise BadConfig("exactly one of chat.path and chat.url must be set")
    elif chat_cfg["path"]:
        chat = MockChatBackend(chat_cfg["path"], chat_cfg["model"])
    else:
        chat = HttpChatBackend(chat_cfg["url"], chat_cfg["model"])
    t2i = RemoteTextToImageBackend(t2i_url) if t2i_url else ToyTextToImageBackend()
    return PipelineBackends(chat, t2i)


# --- latent <-> RGB ----------------------------------------------------------

@functools.cache
def _decode_matrix(latent_channels):
    """Fixed [3, C] map with orthonormal rows: rgb = M @ latent + 0.5.

    M Mᵀ = I₃, so decode(encode(img)) == img exactly while encode(decode)
    projects onto the 3-dim subspace the pixels actually span.
    """
    if latent_channels < 3:
        raise ShapeMismatch("latent needs at least 3 channels to carry RGB")
    rng = Rng(hash64("latent-rgb", latent_channels))
    q, r = np.linalg.qr(rng.normal((latent_channels, 3)))
    return (q * np.where(np.diag(r) >= 0, 1.0, -1.0)).T


def decode_latent(latent):
    """[C, H, W] latent -> [H, W, 3] linear RGB (not clipped)."""
    latent = np.asarray(latent, dtype=np.float64)
    m = _decode_matrix(latent.shape[0])
    return np.einsum("kc,chw->hwk", m, latent) + 0.5


def encode_image(rgb, channels=4):
    """[H, W, 3] RGB -> [C, H, W] latent; decode(encode(rgb)) == rgb exactly."""
    rgb = np.asarray(rgb, dtype=np.float64)
    m = _decode_matrix(channels)
    return np.einsum("kc,hwk->chw", m, rgb - 0.5)


def latent_to_image(latent):
    return RgbImage(np.clip(decode_latent(latent), 0.0, 1.0))


# --- scene compositing --------------------------------------------------------

# Up to four foreground slots; fractions of the canvas side.
_SLOT_ANCHORS = ((0.125, 0.125), (0.125, 0.625), (0.625, 0.125), (0.625, 0.625))
_SLOT_SIDE = 0.375


def _slot_boxes(spec, height, width):
    """Entity name -> (r0, r1, c0, c1): the whole frame for the background, and
    for each foreground its fixed square slot, sized from the shorter side."""
    boxes = {spec.background: (0, height, 0, width)}
    side = max(2, int(round(min(height, width) * _SLOT_SIDE)))
    for (fr, fc), name in zip(_SLOT_ANCHORS, spec.foreground):
        r0 = min(int(round(fr * height)), height - side)
        c0 = min(int(round(fc * width)), width - side)
        boxes[name] = (r0, r0 + side, c0, c0 + side)
    return boxes


def _prompt_canvas(t2i_backend, prompt, seed, height, width):
    """[H, W, 3] render of ``prompt`` alone, the canvas of a scene without references."""
    img = t2i_backend.generate(prompt, derive_seed(seed, "scene-canvas"))
    return _resize_nearest(img.data, height, width)


def compose_scene(spec, references, height, width, t2i_backend, scene_seed):
    """Deterministic [H, W, 3] scene target.

    With references, the background reference is the canvas and each
    foreground tile lands at its ``_slot_boxes`` slot — the same pixels in
    every scene sharing the entity, which is the consistency signal the
    metrics read.  Without references, the whole canvas comes from the
    scene prompt alone.
    """
    bg_ref = references.get(spec.background) if references else None
    if bg_ref is not None:
        canvas = _resize_nearest(bg_ref.image.data, height, width).copy()
    else:
        canvas = _prompt_canvas(t2i_backend, spec.prompt, scene_seed, height, width)
    boxes = _slot_boxes(spec, height, width)
    for name in spec.foreground:
        ref = references.get(name) if references else None
        if ref is not None:
            r0, r1, c0, c1 = boxes[name]
            tile = _resize_nearest(ref.image.data, r1 - r0, c1 - c0)
            mask = _resize_nearest(ref.mask.data, r1 - r0, c1 - c0)
            canvas[r0:r1, c0:c1] = canvas[r0:r1, c0:c1] * (1.0 - mask[:, :, None]) + tile
    return np.clip(canvas, 0.0, 1.0)


# --- run products --------------------------------------------------------------

@dataclass
class SceneOutput:
    spec: object                # SceneSpec
    scene_latent: np.ndarray    # [C, H, W]
    scene_image: RgbImage
    clip_latent: np.ndarray     # [C, F, H, W]
    frames: list                # F decoded RgbImages


@dataclass
class MultiSceneVideo:
    prompt: str
    script: object              # VideoScript
    scenes: list                # SceneOutput per scene, index order
    references: dict            # entity name -> EntityReference
    manifest: dict = None
    seed: int = 0


@dataclass
class MetricsReport:
    frame_consistency: list     # per scene, 0..100 for the toy embedder
    frame_consistency_mean: float
    scene_consistency: dict     # per common entity
    scene_consistency_mean: float  # None when no common entity has two loaded scenes
    skipped_entities: list
    fg_sim: list                # per scene in [0, 1]; None where no reference
    bg_sim: list

    def to_dict(self):
        return asdict(self)


# --- metrics --------------------------------------------------------------------

# The toy embedder pools to an _EMBED_GRID x _EMBED_GRID RGB grid and projects
# to _EMBED_DIMS dims; an entity crop pads its slot box by _CROP_PADDING px.
_EMBED_GRID = 8
_EMBED_DIMS = 32
_CROP_PADDING = 2


@functools.cache
def _embed_projection():
    n = _EMBED_GRID * _EMBED_GRID * 3
    return Rng(hash64("toy-embed", _EMBED_DIMS, _EMBED_GRID)).normal((n, _EMBED_DIMS)) / np.sqrt(n)


def _embed(data):
    """Unit-norm embedding of an [H, W, 3] array; deterministic, so identical
    images embed identically and score the metric maximum exactly."""
    g = _EMBED_GRID
    if data.shape[0] < g or data.shape[1] < g:
        data = _resize_nearest(data, max(data.shape[0], g), max(data.shape[1], g))
    h, w = data.shape[:2]
    rows, cols = (np.arange(g) * h) // g, (np.arange(g) * w) // g
    sums = np.add.reduceat(np.add.reduceat(data, rows, axis=0), cols, axis=1)
    counts = np.diff(np.append(rows, h))[:, None] * np.diff(np.append(cols, w))[None, :]
    vec = (sums / counts[:, :, None]).reshape(-1) @ _embed_projection()
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 1e-12 else vec


def _cosine(u, v):
    if np.array_equal(u, v):
        # identical embeddings must score the exact maximum; the float
        # quotient below can land 1 ulp off
        return 1.0
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-12 and nv < 1e-12:
        return 1.0
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _entity_crop(scene, name):
    """The compositor's slot box for ``name``, padded, cut from frame 0."""
    frame = scene.frames[0].data
    (r0, r1, c0, c1), p = _slot_boxes(scene.spec, *frame.shape[:2])[name], _CROP_PADDING
    return frame[max(0, r0 - p):min(frame.shape[0], r1 + p),
                 max(0, c0 - p):min(frame.shape[1], c1 + p)]


def frame_consistency(frames):
    """100 x mean cosine of consecutive [H, W, 3] frame embeddings."""
    if len(frames) < 2:
        raise TooFewFrames(f"frame consistency needs >= 2 frames, got {len(frames)}")
    embs = [_embed(f) for f in frames]
    sims = [_cosine(embs[i], embs[i + 1]) for i in range(len(embs) - 1)]
    return 100.0 * float(np.mean(sims))


def scene_consistency(video):
    """``(per_entity, skipped)``: per common entity, 100 x mean cosine of its
    cross-scene crop pairs.  An entity with fewer than two loaded scenes, as
    in a partial tree, is skipped, so both are empty without common entities."""
    common = [rec for rec in find_common_entities(video.script) if rec.common]
    by_index = {scene.spec.index: scene for scene in video.scenes}
    per_entity, skipped = {}, []
    for rec in common:
        embs = [_embed(_entity_crop(by_index[index], rec.name))
                for index in sorted(rec.occurrences) if index in by_index]
        if len(embs) < 2:
            skipped.append(rec.name)
            continue
        sims = [_cosine(embs[i], embs[j])
                for i in range(len(embs)) for j in range(i + 1, len(embs))]
        per_entity[rec.name] = 100.0 * float(np.mean(sims))
    return per_entity, skipped


def fg_bg_similarity(scene_image, fg_ref, bg_ref):
    """Embedding cosine of an [H, W, 3] scene image against each reference
    image, clipped to [0, 1].  A missing (None) reference scores None."""
    s = _embed(scene_image)

    def sim(ref):
        return None if ref is None else min(1.0, max(0.0, _cosine(s, _embed(ref))))
    return sim(fg_ref), sim(bg_ref)


def compute_metrics(video):
    fc = [frame_consistency([f.data for f in scene.frames]) for scene in video.scenes]
    per_entity, skipped = scene_consistency(video)
    refs = {name: ref.image.data for name, ref in video.references.items()}
    sims = [fg_bg_similarity(scene.scene_image.data,
                             next((refs[n] for n in scene.spec.foreground if n in refs), None),
                             refs.get(scene.spec.background))
            for scene in video.scenes]
    return MetricsReport(
        frame_consistency=fc,
        frame_consistency_mean=float(np.mean(fc)) if fc else None,
        scene_consistency=per_entity,
        scene_consistency_mean=float(np.mean(list(per_entity.values()))) if per_entity else None,
        skipped_entities=skipped,
        fg_sim=[fg for fg, _ in sims],
        bg_sim=[bg for _, bg in sims],
    )


# --- the three stages -----------------------------------------------------------

def _scene_canvas_latent(config, prompt, seed):
    """Latent of the toy text-to-image render of ``prompt`` at the latent size."""
    c, h, w = config.latent_shape
    return encode_image(_prompt_canvas(ToyTextToImageBackend(), prompt, seed, h, w), c)


def _camera_anchor(scene_latent, camera, frames):
    """The scene latent held for ``frames`` frames and moved by ``camera``."""
    _, h, w = scene_latent.shape
    field = synthesize_flow(camera[0], camera[1], frames, h, w)
    return warp_clip(np.tile(scene_latent[:, None, :, :], (1, frames, 1, 1)), field)


# Tight enough that the anchor, not the noise, decides every sample.
_PRIOR_VARIANCE = 1e-4


def _oracle_denoiser(config, target):
    """Analytic denoiser whose prior mean is ``target``."""
    return AnalyticGaussianDenoiser(GaussianPrior(target, _PRIOR_VARIANCE),
                                    config.noise_schedule(), target.shape)


def _sample_clip(config, scene_latent, camera, sampler):
    """Oracle clip latent [C, F, H, W] for one scene latent, moved by ``camera``
    and sampled under the ``sampler`` config.

    The clip comes from the oracle anchored on the camera-moved scene
    latent.  The oracle reads no conditioning, so none is built.
    """
    denoiser = _oracle_denoiser(config, _camera_anchor(scene_latent, camera, config.frames))
    return sample_video(denoiser, (), camera, config.noise_schedule(), sampler)


def _build_references(config, script, prompt, backends):
    """Entity descriptions from the chat backend, then masked reference images."""
    descriptions = {rec.name: generate_entity_description(rec, prompt, backends.chat)
                    for rec in find_common_entities(script)}
    references = build_entity_references(script, descriptions, backends, config.seed)
    return references, descriptions


def _network_denoisers(config):
    """The untrained (image, video) denoiser pair of ``config``, seeded by its seed."""
    c, h, w = config.latent_shape
    image_denoiser = ImgDenoiser(
        Rng(derive_seed(config.seed, "model", "image")), (c, h, w),
        config.channels, config.blocks, config.heads,
        text_channels=config.channels, fg_channels=config.channels,
        bg_channels=config.channels)
    video_denoiser = VidDenoiser(
        Rng(derive_seed(config.seed, "model", "video")),
        (c, config.frames, h, w), config.channels, config.blocks,
        config.heads, vocab_size=config.vocab_size,
        scene_channels=config.channels)
    return image_denoiser, video_denoiser


def _generate_scene(spec, config, references, t2i_backend, denoisers=None):
    """One scene, sampled by the oracles or by the network ``denoisers`` pair if given."""
    c, h, w = config.latent_shape
    scene_seed = derive_seed(config.seed, "scene", spec.index)
    schedule = config.noise_schedule()
    img_cfg = config.image_sampler_config(derive_seed(scene_seed, "image"))
    video_cfg = config.video_sampler_config(derive_seed(scene_seed, "video"))
    if denoisers is None:  # the oracles read no conditioning
        composite = compose_scene(spec, references, h, w, t2i_backend, scene_seed)
        oracle = _oracle_denoiser(config, encode_image(composite, c))
        scene_latent = sample_image(oracle, (), schedule, img_cfg)
        clip_latent = _sample_clip(config, scene_latent, spec.camera, video_cfg)
        scene_image = latent_to_image(scene_latent)
    else:
        image_denoiser, video_denoiser = denoisers
        ex = config.feature_extractor()
        fg = [ex.image_features(references[name].image.data)
              for name in spec.foreground if name in references]
        bg_ref = references.get(spec.background)
        y_b = np.zeros((0, ex.channels)) if bg_ref is None else ex.image_features(bg_ref.image.data)
        y_f = np.concatenate(fg) if fg else np.zeros((0, ex.channels))
        bundle = ContextBundle(ex.text_features(spec.prompt), y_f, y_b)
        scene_latent = sample_image(image_denoiser, (bundle,), schedule, img_cfg)
        # the video stage reads the decoded scene latent's features and the action indicator
        scene_image = latent_to_image(scene_latent)
        y_s = ex.image_features(scene_image.data)
        vocab = config.action_vocabulary()
        y_a = build_indicator(extract_action_phrases(spec.prompt, vocab), vocab,
                              VocabularyEmbedder(vocab))
        clip_latent = sample_video(video_denoiser, (VidContext(y_s, y_a), scene_latent[:, None]),
                                   spec.camera, schedule, video_cfg)
    decoded = [latent_to_image(clip_latent[:, f]) for f in range(config.frames)]
    return SceneOutput(spec, scene_latent, scene_image, clip_latent, decoded)


def run_pipeline(prompt, config, backends=None):
    """Script -> references -> per-scene generation -> metrics.  Writes no file.

    Stage barriers are hard; a failure raises StageError tagged with the
    stage and holding whatever finished, which ``export_failure`` writes.
    """
    backends = backends or resolve_backends(config)
    script, references, scenes = None, {}, []
    stage = "script"
    try:
        script = generate_script(prompt, backends.chat)

        stage = "references"
        if not config.no_refs:
            references, _ = _build_references(config, script, prompt, backends)

        stage = "scenes"
        denoisers = _network_denoisers(config) if config.denoiser == "network" else None
        for spec in script.scenes:
            scenes.append(_generate_scene(spec, config, references, backends.text_to_image,
                                          denoisers))

        stage = "metrics"
        video = MultiSceneVideo(prompt, script, scenes, references, None, config.seed)
        report = compute_metrics(video)
        return video, report
    except Exception as exc:
        partial = None if script is None else MultiSceneVideo(
            prompt, script, scenes, references, None, config.seed)
        raise StageError(stage, exc, partial) from exc


def export_failure(error, out_dir):
    """Export StageError ``error``'s partial video, if any, to ``out_dir`` with a
    failure_manifest.json, removing an earlier run's records whatever the
    stage; errors here never shadow ``error``."""
    video = error.video
    done = [] if video is None else [scene.spec.index for scene in video.scenes]
    with contextlib.suppress(Exception):
        if video is None:
            _remove_run_records(out_dir)  # export_video removes them otherwise
        else:
            export_video(video, out_dir)
        write_json(os.path.join(out_dir, "failure_manifest.json"),
                   {"failed_stage": error.stage,
                    "error": f"{type(error.cause).__name__}: {error.cause}",
                    "completed_scenes": done})


# --- export / load ---------------------------------------------------------------

def _remove_run_records(out_dir):
    """Remove an earlier run's failure_manifest.json, metrics.json and manifest.json,
    so no record of it stays loadable; UnwritablePath if ``out_dir`` is unusable."""
    for stale in ("failure_manifest.json", "metrics.json", "manifest.json"):
        path = os.path.join(out_dir, stale)
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise UnwritablePath(f"{path}: cannot remove: {exc}") from exc


def _slug(index, name):
    keep = "".join(ch if ch.isalnum() else "_" for ch in name)
    return f"{index:02d}_{keep}"


def _reference_files(names):
    """(name, image path, mask path) per reference, in the tree's order."""
    return [(name, f"refs/{_slug(k, name)}.ppm", f"refs/{_slug(k, name)}_mask.pgm")
            for k, name in enumerate(sorted(names))]


def _scene_files(index, frames):
    """The tree's paths for scene ``index``: its frames, then its scene image and latents."""
    base = f"scene_{index}"
    return [f"{base}/frame_{f}.ppm" for f in range(frames)] + [
        f"{base}/scene_image.ppm", f"{base}/scene_latent.vstn", f"{base}/clip_latent.vstn"]


def _write_script(script, put_bytes):
    """Write script.txt, the one copy of the script in a tree."""
    put_bytes("script.txt", (serialize_script(script) + "\n").encode("utf-8"))


def _write_references(references, put_bytes):
    """Encode each reference as refs/<slug>.ppm plus a PGM mask; return the index."""
    index = {}
    for name, image_rel, mask_rel in _reference_files(references):
        ref = references[name]
        put_bytes(image_rel, encode_ppm(ref.image))
        put_bytes(mask_rel, encode_pgm(ref.mask))
        index[name] = {"kind": ref.kind, "image": image_rel, "mask": mask_rel}
    return index


# A manifest holds what the script does not fix, plus the checksums.
_MANIFEST_VERSION = 2
_MANIFEST_KEYS = {"version": int, "prompt": str, "seed": int, "frames_per_scene": int,
                  "references": bool, "scenes": list, "checksums": dict}


def export_video(video, out_dir):
    """Write frames (PPM), latents (VSTN) and a checksummed manifest; return its path.

    The file layout (``_reference_files``, ``_scene_files``), the entity boxes
    and the reference kinds follow from script.txt, the one copy of the
    script, so the manifest holds only what the script does not fix.  An
    earlier run's records (``_remove_run_records``) are removed first.
    """
    _remove_run_records(out_dir)
    checksums = {}

    def put_bytes(rel, payload):
        write_bytes(os.path.join(out_dir, rel), payload)
        checksums[rel] = hashlib.sha256(payload).hexdigest()

    def put_tensor(rel, array):
        payload = save_tensor(os.path.join(out_dir, rel), array)
        checksums[rel] = hashlib.sha256(payload).hexdigest()

    _write_script(video.script, put_bytes)
    _write_references(video.references, put_bytes)
    for scene in video.scenes:
        *frame_rels, image_rel, scene_rel, clip_rel = _scene_files(scene.spec.index,
                                                                   len(scene.frames))
        for rel, frame in zip(frame_rels, scene.frames):
            put_bytes(rel, encode_ppm(frame))
        put_bytes(image_rel, encode_ppm(scene.scene_image))
        put_tensor(scene_rel, scene.scene_latent)
        put_tensor(clip_rel, scene.clip_latent)

    manifest = {
        "version": _MANIFEST_VERSION,
        "prompt": video.prompt,
        "seed": video.seed,
        "frames_per_scene": len(video.scenes[0].frames) if video.scenes else 0,
        "references": bool(video.references),
        "scenes": [scene.spec.index for scene in video.scenes],
        "checksums": checksums,
    }
    video.manifest = manifest
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_json(manifest_path, manifest)
    return manifest_path


def _typed(value, types, what):
    """``value`` if it has type ``types`` (a bool is only a bool); else ChecksumMismatch."""
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise ChecksumMismatch(f"manifest {what} is missing or not of type {types.__name__}")
    return value


def _verify(rel, raw, checksums):
    """ChecksumMismatch unless ``raw``, the bytes of ``rel``, match the manifest's checksum."""
    if rel not in checksums:
        raise ChecksumMismatch(f"{rel}: no checksum entry in the manifest")
    actual = hashlib.sha256(raw).hexdigest()
    if actual != checksums[rel]:
        raise ChecksumMismatch(f"{rel}: checksum {actual} != manifest {checksums[rel]}")


def _reference_kinds(manifest, script):
    """Name -> kind of each reference in the tree: every script entity, or none."""
    records = find_common_entities(script) if manifest["references"] else []
    return {rec.name: rec.kind for rec in records}


def load_video(out_dir, verify=True):
    """Rebuild a MultiSceneVideo from an exported tree, reading each file once.

    The tree's file list derives from script.txt; no path is taken from the
    manifest.  With ``verify``, script.txt must match its checksum before it
    is parsed, the checksum keys must be exactly that list, and every file's
    bytes must match their checksum before they are decoded.  A bad manifest
    (one that lists scenes of fewer than two frames included), a checksum
    failure or a file that cannot be read is ChecksumMismatch.
    """
    manifest = read_json(os.path.join(out_dir, "manifest.json"), ChecksumMismatch)
    if not isinstance(manifest, dict) or manifest.get("version") != _MANIFEST_VERSION:
        raise ChecksumMismatch(f"manifest is not a version {_MANIFEST_VERSION} document")
    if sorted(manifest) != sorted(_MANIFEST_KEYS):
        raise ChecksumMismatch(f"manifest keys {sorted(manifest)} != {sorted(_MANIFEST_KEYS)}")
    for key, types in _MANIFEST_KEYS.items():
        _typed(manifest[key], types, key)
    checksums, frames = manifest["checksums"], manifest["frames_per_scene"]
    if not 0 <= frames <= len(checksums):  # a frame has a checksum entry
        raise ChecksumMismatch(f"manifest frames_per_scene {frames} exceeds its checksums")
    if manifest["scenes"] and frames < 2:  # a run exports model.frames >= 2 per scene
        raise ChecksumMismatch(f"manifest frames_per_scene {frames} is under 2 for its scenes")

    def read_file(rel):
        raw = read_bytes(os.path.join(out_dir, rel), ChecksumMismatch)
        if verify:
            _verify(rel, raw, checksums)
        return raw

    # verified bytes are what export wrote; unverified ones decode lossily for the parser
    script = parse_script(read_file("script.txt").decode("utf-8", "replace"))
    indices = [_typed(index, int, "scene index") for index in manifest["scenes"]]
    if indices != sorted(set(indices) & set(range(1, len(script.scenes) + 1))):
        raise ChecksumMismatch(f"manifest scenes {indices} are not increasing indices of "
                               f"its {len(script.scenes)}-scene script")
    kinds = _reference_kinds(manifest, script)
    ref_files = _reference_files(kinds)
    scene_files = {index: _scene_files(index, frames) for index in indices}
    if verify:
        layout = {rel for _, *rels in ref_files for rel in rels}.union(*scene_files.values())
        extra = sorted(set(checksums) - layout - {"script.txt"})
        if extra:
            raise ChecksumMismatch(f"manifest checksum {extra[0]!r} is not in the tree's layout")

    def read_tensor(rel):
        return load_tensor(read_file(rel), os.path.join(out_dir, rel))

    references = {name: EntityReference(decode_ppm(read_file(image_rel)), kinds[name],
                                         decode_pgm(read_file(mask_rel)))
                  for name, image_rel, mask_rel in ref_files}
    specs = {spec.index: spec for spec in script.scenes}
    scenes = []
    for index, (*frame_rels, image_rel, scene_rel, clip_rel) in scene_files.items():
        images = [decode_ppm(read_file(rel)) for rel in frame_rels]
        scenes.append(SceneOutput(specs[index], read_tensor(scene_rel),
                                  decode_ppm(read_file(image_rel)), read_tensor(clip_rel),
                                  images))
    return MultiSceneVideo(manifest["prompt"], script, scenes, references,
                           manifest, manifest["seed"])


# --- displacement diagnostics -----------------------------------------------------

# Widest shift, in pixels along each axis, that estimate_translation searches,
# and the fewest overlapping rows and columns a shift must leave.
_MAX_SHIFT = 8
_MIN_OVERLAP = 4


def estimate_translation(frame_a, frame_b):
    """Integer (dx, dy) taking frame_a content to frame_b.

    Exhaustive match over the overlap region: b[r, c] ~ a[r - dy, c - dx],
    scored by mean squared difference.  Scan order prefers the smallest
    displacement, so exact ties (constant images) resolve to zero shift.
    """
    a = np.asarray(frame_a, dtype=np.float64)
    b = np.asarray(frame_b, dtype=np.float64)
    if a.ndim == 3:
        a = a.mean(axis=2)
    if b.ndim == 3:
        b = b.mean(axis=2)
    if a.shape != b.shape:
        raise ShapeMismatch(f"frames {a.shape} vs {b.shape}")
    h, w = a.shape
    shifts = sorted(((dy, dx) for dy in range(-_MAX_SHIFT, _MAX_SHIFT + 1)
                     for dx in range(-_MAX_SHIFT, _MAX_SHIFT + 1)),
                    key=lambda s: (abs(s[0]) + abs(s[1]), s))
    best, best_err = (0, 0), np.inf
    for dy, dx in shifts:
        r0, r1 = max(0, dy), h + min(0, dy)
        c0, c1 = max(0, dx), w + min(0, dx)
        if r1 - r0 < _MIN_OVERLAP or c1 - c0 < _MIN_OVERLAP:
            continue
        diff = b[r0:r1, c0:c1] - a[r0 - dy:r1 - dy, c0 - dx:c1 - dx]
        err = float(np.mean(diff * diff))
        if err < best_err - 1e-15:
            best, best_err = (dx, dy), err
    return best


def expected_translation(direction, speed, frame_index):
    """Content translation (dx, dy) of frame f against frame 0 for a pan.

    A pan displaces frame f by f times frame 1's step, and the warp samples
    source = destination + displacement, so content drifts the opposite
    way.  A zoom's step varies across pixels: it has no single translation.
    """
    step = synthesize_flow(direction, speed, 2, 2, 2)[1]
    if not (step == step[0, 0]).all():
        raise BadRange(f"{direction!r} has no single translation")
    dx, dy = step[0, 0].tolist()
    return (-frame_index * dx, -frame_index * dy)


_SWEEP_PROMPT = "a bright marble rolling over a dark desk"
_SWEEP_CAMERA = ("right", "medium")
_SWEEP_TMS = (1, 5, 20)
_SWEEP_MAX_PROBE = 6


def _sweep_plan(config, camera, tms):
    """Each depth's sampler config and the probed (frame, expected shift) pairs;
    every refusal of ``tm_sweep``, raised before anything is sampled."""
    samplers = [config.video_sampler_config(derive_seed(config.seed, "tm-sweep"), tm)
                for tm in tms]
    probes = [(f, expected_translation(*camera, f))
              for f in range(1, min(_SWEEP_MAX_PROBE, config.frames - 1) + 1)]
    probes = [(f, exp) for f, exp in probes
              if all(float(v).is_integer() and abs(v) <= _MAX_SHIFT for v in exp)]
    if not probes:
        raise TooFewFrames(f"no frame of a {config.frames}-frame {' '.join(camera)} pan "
                           f"moves a whole pixel")
    return samplers, probes


def tm_sweep(config, camera=_SWEEP_CAMERA, tms=_SWEEP_TMS):
    """Displacement error and anchor fit across intervention depths.

    One anchored-oracle clip of ``_SWEEP_PROMPT`` per T_m, all else
    identical (same seed, same noise draws).  Each row reports the mean L2
    gap between estimated and camera-implied per-frame translation over
    those of frames 1.._SWEEP_MAX_PROBE whose implied shift is a whole
    pixel (the estimator returns integer shifts, so a slow pan probes every
    other frame) and lies within its ``_MAX_SHIFT`` search, plus the MSE
    between the final clip latent and the camera-consistent anchor.  A t_m
    outside the config's [0, steps - 1] or a zoom (no single translation)
    raises BadRange, and a pan with no such frame TooFewFrames, before
    anything is sampled.  Documented behavior under the tight oracle prior:
    the anchor already carries the camera motion, so displacement error is
    non-increasing in T_m (zero throughout, at every pan speed), and the
    denoiser re-absorbs the intervention's blend echo on later steps, so
    anchor MSE stays at the eta=1 sampling floor (~sigma0 * posterior gain,
    well under 1e-5 at the default prior variance) at every depth -- the
    quality bound the sweep checks.
    """
    samplers, probes = _sweep_plan(config, camera, tms)
    scene_latent = _scene_canvas_latent(config, _SWEEP_PROMPT,
                                        derive_seed(config.seed, "tm-sweep"))
    anchor = _camera_anchor(scene_latent, camera, config.frames)
    denoiser = _oracle_denoiser(config, anchor)
    rows = []
    for tm, sampler in zip(tms, samplers):
        clip = sample_video(denoiser, (), camera, config.noise_schedule(), sampler)
        base = decode_latent(clip[:, 0])
        errs = []
        for f, exp in probes:
            est = estimate_translation(base, decode_latent(clip[:, f]))
            errs.append(float(np.hypot(est[0] - exp[0], est[1] - exp[1])))
        rows.append({
            "t_m": tm,
            "displacement_error": float(np.mean(errs)),
            "anchor_mse": float(np.mean((clip - anchor) ** 2)),
        })
    return rows


# --- mock fixtures -----------------------------------------------------------------

def build_mock_llm_fixture(prompt, script_text):
    """Request-hash table covering one full run against a MockChatBackend.

    Maps the script query plus, per entity, the aspect and description
    queries, so `generate` runs offline.
    """
    table = {}

    def put(messages, answer):
        table[request_hash(build_chat_request(messages))] = answer

    put(build_script_query(prompt), script_text)
    script = parse_script(script_text)
    for rec in find_common_entities(script):
        aspects = f"Nail down the shape, base colors, texture and scale of {rec.name}."
        put(build_aspect_query(rec), aspects)
        put(build_description_query(rec, aspects, prompt),
            f"A {rec.name} rendered with one fixed palette and simple geometry, "
            f"identical in every scene.")
    return table
