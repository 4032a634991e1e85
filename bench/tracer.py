"""Span tracer that lives in the benchmark, not in the program.

``Tracer.install()`` replaces public functions and methods of the
``videostudio`` package with timing wrappers, at the place their callers
look them up: a module-level function is patched in the namespace of the
module that calls it (``videostudio.pipeline.sample_video``, not
``videostudio.sampler.sample_video``), and a method on its class.  Each
call records one span ``(name, start, end, parent)`` in memory; the span
list is written out by ``Tracer.dump`` when the run ends.

A span's self time is its duration minus the time its direct child spans
cover.  Calls run on one thread and nest, so the children of a span never
overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

MODULES = ("numeric_core", "script_engine", "ref_images", "cond_blocks",
           "sampler", "camera_motion", "action_condition", "pipeline")

# (module whose namespace or class is patched, attribute path, span name).
# The span name's prefix is the module that owns the code, which is where
# the span's self time is booked.
WRAP_POINTS = (
    ("cond_blocks", "cross_attention", "numeric_core.xattn"),
    ("numeric_core", "Tensor.backward", "numeric_core.backward"),
    ("numeric_core", "Rng.normal", "numeric_core.rng_normal"),
    ("pipeline", "save_tensor", "numeric_core.tensor_io"),
    ("pipeline", "load_tensor", "numeric_core.tensor_io"),
    ("cond_blocks", "save_tensor", "numeric_core.tensor_io"),
    ("cond_blocks", "load_tensor", "numeric_core.tensor_io"),
    ("cond_blocks", "ImgDenoiser.predict", "cond_blocks.img_predict"),
    ("cond_blocks", "VidDenoiser.predict", "cond_blocks.vid_predict"),
    ("cond_blocks", "AnalyticGaussianDenoiser.predict", "cond_blocks.oracle_predict"),
    ("cond_blocks", "ToyFeatureExtractor.text_features", "cond_blocks.features"),
    ("cond_blocks", "ToyFeatureExtractor.image_features", "cond_blocks.features"),
    ("cond_blocks", "train_step", "cond_blocks.train_step"),
    ("cond_blocks", "AdamW.step", "cond_blocks.adamw"),
    ("cond_blocks", "save_weights", "cond_blocks.weights_io"),
    ("cond_blocks", "load_weights", "cond_blocks.weights_io"),
    ("sampler", "ddim_step", "sampler.ddim_step"),
    ("sampler", "apply_camera_intervention", "sampler.intervention"),
    ("pipeline", "sample_image", "sampler.sample_image"),
    ("pipeline", "sample_video", "sampler.sample_video"),
    ("pipeline", "synthesize_flow", "camera_motion.flow"),
    ("sampler", "synthesize_flow", "camera_motion.flow"),
    ("pipeline", "warp_clip", "camera_motion.warp_clip"),
    ("sampler", "warp_clip", "camera_motion.warp_clip"),
    ("pipeline", "extract_action_phrases", "action_condition.indicator"),
    ("pipeline", "build_indicator", "action_condition.indicator"),
    ("pipeline", "generate_script", "script_engine.generate_script"),
    ("script_engine", "MockChatBackend.complete", "script_engine.chat"),
    ("pipeline", "generate_entity_description", "script_engine.description"),
    ("pipeline", "build_entity_references", "ref_images.build_refs"),
    ("ref_images", "ToyTextToImageBackend.generate", "ref_images.t2i"),
    ("ref_images", "LuminanceSegmenter.segment", "ref_images.segment"),
    ("pipeline", "encode_ppm", "ref_images.codec"),
    ("pipeline", "encode_pgm", "ref_images.codec"),
    ("pipeline", "decode_ppm", "ref_images.codec"),
    ("pipeline", "decode_pgm", "ref_images.codec"),
    ("pipeline", "resolve_backends", "pipeline.resolve_backends"),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("pipeline", "compose_scene", "pipeline.compose_scene"),
    ("pipeline", "compute_metrics", "pipeline.compute_metrics"),
    ("pipeline", "export_video", "pipeline.export_video"),
    ("pipeline", "load_video", "pipeline.load_video"),
)


def xattn_class(x, ctx):
    """Shape class and operand shapes of one ``cross_attention(x, ctx, p)``.

    image: 2-D query (the image denoiser's [HW, C] tokens).  temporal: 3-D
    self-attention whose token axis is the short frame axis ([HW, F, C]).
    spatial: every other 3-D query (spatial self-attention over [F, HW, C]
    and the scene cross-attention).
    """
    xs, cs = np.shape(getattr(x, "data", x)), np.shape(getattr(ctx, "data", ctx))
    if len(xs) == 2:
        label = "image"
    elif x is ctx and xs[-2] < xs[0]:
        label = "temporal"
    else:
        label = "spatial"
    return label, xs, cs


def xattn_flops(xs, cs, inner):
    """Multiply-adds x2 of the q/k/v/out projections and both attention matmuls."""
    lq, cq = xs[-2], xs[-1]
    lk, cc = cs[-2], cs[-1]
    if lk == 0:
        return 0.0
    batch = float(np.prod(xs[:-2])) if len(xs) > 2 else 1.0
    kv_batch = float(np.prod(cs[:-2])) if len(cs) > 2 else 1.0
    proj = batch * 2 * lq * cq * inner * 2 + kv_batch * 2 * lk * cc * inner * 2
    attn = batch * 2 * lq * lk * inner * 2
    return proj + attn


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent) per call
        self.flops = {}        # span index -> computed FLOPs (cross_attention)
        self.xattn_label = {}  # span index -> shape class
        self._stack = []
        self._patched = []

    # -- patching ---------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
        return traced

    def _wrap_xattn(self, fn):
        traced = self._wrap(fn, "numeric_core.xattn")
        flops, labels, spans = self.flops, self.xattn_label, self.spans

        @functools.wraps(fn)
        def classified(x, ctx, params):
            label, xs, cs = xattn_class(x, ctx)
            idx = len(spans)
            labels[idx] = label
            flops[idx] = xattn_flops(xs, cs, params.w_q.data.shape[1])
            return traced(x, ctx, params)
        return classified

    def install(self):
        for module_name, path, name in WRAP_POINTS:
            module = importlib.import_module(f"videostudio.{module_name}")
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if name == "numeric_core.xattn":
                wrapped = self._wrap_xattn(original)
            else:
                wrapped = self._wrap(original, name)
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def arrays(self):
        """Span table as parallel arrays: names, start, end, parent, self time."""
        names = [s[0] for s in self.spans]
        start = np.array([s[1] for s in self.spans], dtype=np.float64)
        end = np.array([s[2] for s in self.spans], dtype=np.float64)
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(names))
        return names, start, end, parent, dur - covered

    def dump(self, path):
        """Write every span (name id, start, end, parent) as a compressed npz."""
        names, start, end, parent, _ = self.arrays()
        table = sorted(set(names))
        ids = {n: i for i, n in enumerate(table)}
        np.savez_compressed(path, names=np.array(table),
                            name_id=np.array([ids[n] for n in names], dtype=np.int32),
                            start=start, end=end, parent=parent)


def layer_metrics(tracer, wall_s, extra):
    """Per-module metrics from the spans of one traced phase.

    ``extra`` carries counts the harness measured itself: ``ops``,
    ``work`` (scenes or optimizer steps) and ``export_bytes``.
    """
    names, start, end, parent, self_t = tracer.arrays()
    n = len(names)
    dur = end - start
    by_name = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def idx(name):
        return np.array(by_name.get(name, []), dtype=np.int64)

    def total(name):
        return float(dur[idx(name)].sum())

    def count(name):
        return len(by_name.get(name, []))

    def mean_ms(ids):
        return 1000.0 * float(dur[ids].mean()) if len(ids) else 0.0

    def under(ids, parent_name):
        """The spans among ``ids`` whose direct parent is named ``parent_name``."""
        return ids[[parent[i] >= 0 and names[parent[i]] == parent_name for i in ids]]

    # a predict counts toward guidance work only when a sampler called it
    in_sample = np.zeros(n, dtype=bool)
    for i, name in enumerate(names):
        p = parent[i]
        in_sample[i] = name.startswith("sampler.sample_") or (p >= 0 and in_sample[p])

    xattn = idx("numeric_core.xattn")
    by_class = {"image": [], "spatial": [], "temporal": []}
    for i in xattn:
        by_class[tracer.xattn_label[int(i)]].append(int(i))
    predicts = np.concatenate([idx("cond_blocks.img_predict"), idx("cond_blocks.vid_predict"),
                               idx("cond_blocks.oracle_predict")])
    sampled_predicts = int(in_sample[predicts].sum()) if len(predicts) else 0

    run = idx("pipeline.run_pipeline")
    metrics_in_run = float(dur[under(idx("pipeline.compute_metrics"),
                                     "pipeline.run_pipeline")].sum())
    attempts = len(under(idx("script_engine.chat"), "script_engine.generate_script"))
    script_s = total("script_engine.generate_script")
    references_s = total("script_engine.description") + total("ref_images.build_refs")

    out = {
        "numeric_core.xattn_calls": (len(xattn), "count"),
        "numeric_core.xattn_s": (float(dur[xattn].sum()), "s"),
        "numeric_core.xattn_image_ms": (mean_ms(by_class["image"]), "ms"),
        "numeric_core.xattn_spatial_ms": (mean_ms(by_class["spatial"]), "ms"),
        "numeric_core.xattn_temporal_ms": (mean_ms(by_class["temporal"]), "ms"),
        "numeric_core.xattn_gflop": (sum(tracer.flops.values()) / 1e9, "GFLOP"),
        "numeric_core.backward_s": (total("numeric_core.backward"), "s"),
        "numeric_core.rng_normal_calls": (count("numeric_core.rng_normal"), "count"),
        "numeric_core.rng_normal_s": (total("numeric_core.rng_normal"), "s"),
        "numeric_core.tensor_io_s": (total("numeric_core.tensor_io"), "s"),
        "cond_blocks.img_predict_calls": (count("cond_blocks.img_predict"), "count"),
        "cond_blocks.img_predict_ms": (mean_ms(idx("cond_blocks.img_predict")), "ms"),
        "cond_blocks.vid_predict_calls": (count("cond_blocks.vid_predict"), "count"),
        "cond_blocks.vid_predict_ms": (mean_ms(idx("cond_blocks.vid_predict")), "ms"),
        "cond_blocks.oracle_predict_calls": (count("cond_blocks.oracle_predict"), "count"),
        "cond_blocks.oracle_predict_s": (total("cond_blocks.oracle_predict"), "s"),
        "cond_blocks.features_s": (total("cond_blocks.features"), "s"),
        "cond_blocks.train_step_ms": (mean_ms(idx("cond_blocks.train_step")), "ms"),
        "cond_blocks.adamw_ms": (mean_ms(idx("cond_blocks.adamw")), "ms"),
        "sampler.ddim_steps": (count("sampler.ddim_step"), "count"),
        "sampler.ddim_step_self_s": (float(self_t[idx("sampler.ddim_step")].sum()), "s"),
        "sampler.intervention_s": (total("sampler.intervention"), "s"),
        "sampler.predict_per_step": (sampled_predicts / max(count("sampler.ddim_step"), 1),
                                     "ratio"),
        "sampler.sample_image_s": (total("sampler.sample_image"), "s"),
        "sampler.sample_video_s": (total("sampler.sample_video"), "s"),
        "camera_motion.flow_calls": (count("camera_motion.flow"), "count"),
        "camera_motion.flow_s": (total("camera_motion.flow"), "s"),
        "camera_motion.warp_clip_calls": (count("camera_motion.warp_clip"), "count"),
        "camera_motion.warp_clip_s": (total("camera_motion.warp_clip"), "s"),
        "action_condition.indicator_s": (total("action_condition.indicator"), "s"),
        "script_engine.generate_script_s": (script_s, "s"),
        "script_engine.chat_calls": (count("script_engine.chat"), "count"),
        "script_engine.attempts_per_script": (
            attempts / max(count("script_engine.generate_script"), 1), "ratio"),
        "script_engine.description_s": (total("script_engine.description"), "s"),
        "ref_images.build_refs_s": (total("ref_images.build_refs"), "s"),
        "ref_images.t2i_calls": (count("ref_images.t2i"), "count"),
        "ref_images.t2i_s": (total("ref_images.t2i"), "s"),
        "ref_images.segment_s": (total("ref_images.segment"), "s"),
        "ref_images.codec_s": (total("ref_images.codec"), "s"),
        "pipeline.script_s": (script_s, "s"),
        "pipeline.references_s": (references_s, "s"),
        "pipeline.scenes_s": (float(dur[run].sum()) - script_s - references_s
                              - metrics_in_run, "s"),
        "pipeline.metrics_s": (metrics_in_run, "s"),
        "pipeline.compose_s": (total("pipeline.compose_scene"), "s"),
        "pipeline.export_s": (total("pipeline.export_video"), "s"),
        "pipeline.export_bytes": (extra["export_bytes"], "B"),
        "pipeline.load_verify_s": (total("pipeline.load_video"), "s"),
        "pipeline.run_self_s": (float(self_t[run].sum()), "s"),
    }
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, ids in by_name.items():
        module_self[name.split(".")[0]] += float(self_t[ids].sum())
    for module, value in module_self.items():
        out[f"{module}.self_s"] = (value, "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.accounted_pct"] = (100.0 * sum(module_self.values()) / wall_s, "%")
    out["trace.spans"] = (n, "count")
    out["trace.ops"] = (extra["ops"], "count")
    out["trace.work"] = (extra["work"], "count")
    return out
