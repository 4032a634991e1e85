"""Command line front end.

Exit codes: 0 success, 2 validation or configuration problem, 3 backend
or file-integrity failure, 4 anything unexpected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .action_condition import (VocabularyEmbedder, build_indicator,
                               extract_action_phrases)
from .cond_blocks import ContextBundle
from .errors import (BackendError, BadConfig, BadTensorFile, ChecksumMismatch,
                     DetectorMiss, NoCommonEntities, StageError,
                     ValidationError, VideoStudioError)
from .numeric_core import derive_seed, save_tensor
from .pipeline import (_camera_anchor, _oracle_denoiser, _scene_canvas_latent,
                       _write_bytes, _write_references, compute_metrics,
                       decode_latent, export_video, load_config, load_video,
                       resolve_backends, run_gradient_suite, run_pipeline,
                       tm_sweep)
from .ref_images import ReferenceBackends, build_entity_references
from .sampler import sample_image, sample_video
from .script_engine import (find_common_entities, generate_entity_description,
                            generate_script, serialize_script)

__all__ = ["main"]


def _load(args, extra=None):
    overrides = dict(extra or {})
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out_dir", None):
        overrides["output_dir"] = args.out_dir
    if getattr(args, "no_refs", False):
        overrides["no_refs"] = True
    return load_config(args.config, overrides)


def _parse_camera(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise BadConfig(f"--camera wants 'direction,speed', got {text!r}")
    return parts[0], parts[1]


def _write_text(path, text):
    _write_bytes(path, text.encode("utf-8"))


# --- subcommands -------------------------------------------------------------

def cmd_script(args):
    config = _load(args)
    backends = resolve_backends(config, args.mock_llm)
    script = generate_script(args.prompt, backends.chat, config.retry_policy())
    text = serialize_script(script)
    print(text)
    if args.out_dir:
        _write_text(os.path.join(args.out_dir, "script.txt"), text + "\n")
    return 0


def cmd_refs(args):
    config = _load(args)
    backends = resolve_backends(config, args.mock_llm)
    script = generate_script(args.prompt, backends.chat, config.retry_policy())
    descriptions = {rec.name: generate_entity_description(rec, args.prompt, backends.chat)
                    for rec in find_common_entities(script)}
    references = build_entity_references(
        script, descriptions,
        ReferenceBackends(backends.text_to_image, backends.segmenter),
        config.seed)
    if args.out_dir:
        _write_text(os.path.join(args.out_dir, "script.txt"),
                    serialize_script(script) + "\n")
        index = _write_references(references, lambda rel, payload: _write_bytes(
            os.path.join(args.out_dir, rel), payload))
        for name, entry in index.items():
            entry["description"] = descriptions[name]
        _write_text(os.path.join(args.out_dir, "refs.json"),
                    json.dumps(index, indent=2, sort_keys=True) + "\n")
    print(f"entities: {len(references)}")
    for name in sorted(references):
        print(f"  {name} ({references[name].kind})")
    return 0


def cmd_generate(args):
    config = _load(args)
    backends = resolve_backends(config, args.mock_llm)
    video, report = run_pipeline(args.prompt, config, backends)
    manifest_path = export_video(video, args.out_dir)
    _write_text(os.path.join(args.out_dir, "metrics.json"),
                json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"scenes: {len(video.scenes)}")
    print(f"references: {len(video.references)}")
    print(f"frame consistency: {report.frame_consistency_mean:.2f}")
    if report.scene_consistency_mean is not None:
        print(f"scene consistency: {report.scene_consistency_mean:.2f}")
    print(f"manifest: {manifest_path}")
    return 0


def cmd_metrics(args):
    video = load_video(args.out_dir, verify=True)
    report = compute_metrics(video)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_gradcheck(args):
    report = run_gradient_suite(seed=args.seed if args.seed is not None else 0)
    for case in report["cases"]:
        print(f"{case['case']:<22} rel_err {case['rel_err']:.3e}")
    print(f"cases: {len(report['cases'])}  max rel err: {report['max_rel_err']:.3e}"
          f"  threshold: {report['threshold']:.0e}")
    print("PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 4


def cmd_tm_sweep(args):
    config = _load(args)
    camera = _parse_camera(args.camera) if args.camera else ("right", "medium")
    try:
        tms = tuple(int(x) for x in args.tms.split(",")) if args.tms else (1, 5, 20)
    except ValueError:
        raise BadConfig(f"--tms wants comma-separated integers, got {args.tms!r}") from None
    rows = tm_sweep(config, camera, tms)
    print(f"{'t_m':>5} {'displacement_err':>18} {'anchor_mse':>14}")
    for row in rows:
        print(f"{row['t_m']:>5} {row['displacement_error']:>18.6f} "
              f"{row['anchor_mse']:>14.8f}")
    if args.out_dir:
        _write_text(os.path.join(args.out_dir, "tm_sweep.json"),
                    json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_sample_image(args):
    config = _load(args)
    schedule = config.noise_schedule()
    target = _scene_canvas_latent(config, args.prompt, config.seed)
    denoiser = _oracle_denoiser(config, target)
    extractor = config.feature_extractor()
    bundle = ContextBundle(extractor.text_features(args.prompt),
                           np.zeros((0, config.channels)),
                           np.zeros((0, config.channels)))
    latent = sample_image(denoiser, bundle, schedule,
                          config.image_sampler_config(derive_seed(config.seed, "image")))
    save_tensor(args.out, latent)
    print(f"wrote {args.out} shape {list(latent.shape)}")
    return 0


def cmd_sample_video(args):
    config = _load(args)
    frames = config.frames
    camera = _parse_camera(args.camera) if args.camera else ("static", "medium")
    schedule = config.noise_schedule()
    table = config.speed_table()
    scene_latent = _scene_canvas_latent(config, args.prompt, config.seed)
    anchor = _camera_anchor(scene_latent, camera, frames, table)
    denoiser = _oracle_denoiser(config, anchor)
    extractor = config.feature_extractor()
    y_s = extractor.image_features(np.clip(decode_latent(scene_latent), 0.0, 1.0))
    vocab = config.action_vocabulary()
    phrases = extract_action_phrases(args.prompt, vocab)
    y_a = build_indicator(phrases, vocab, VocabularyEmbedder(vocab))
    vid_cfg = config.video_sampler_config(derive_seed(config.seed, "video"),
                                          t_m=args.tm)
    clip = sample_video(denoiser, y_s, y_a, camera, schedule, vid_cfg,
                        ref_latent=scene_latent[:, None, :, :], speed_table=table)
    save_tensor(args.out, clip)
    print(f"wrote {args.out} shape {list(clip.shape)}")
    return 0


# --- parser / dispatch ----------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="videostudio",
        description="Multi-scene video generation from a one-line theme.")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, prompt=False, out_dir=False, mock=False,
            no_refs=False, out=False, camera=False, tm=False, tms=False):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--config", default=None, help="JSON config file")
        sub.add_argument("--seed", type=int, default=None, help="override config seed")
        if prompt:
            sub.add_argument("--prompt", required=True, help="video theme")
        if out_dir:
            sub.add_argument("--out-dir", default=None,
                             required=name in ("generate", "metrics"),
                             help="output directory")
        if mock:
            sub.add_argument("--mock-llm", default=None, metavar="FIXTURE.json",
                             help="hash-table chat fixture instead of a live backend")
        if no_refs:
            sub.add_argument("--no-refs", action="store_true",
                             help="skip reference images (ablation)")
        if out:
            sub.add_argument("--out", required=True, help="output .vstn path")
        if camera:
            sub.add_argument("--camera", default=None, metavar="DIR,SPEED",
                             help="camera movement, e.g. right,medium")
        if tm:
            sub.add_argument("--tm", type=int, default=None,
                             help="intervention step count")
        if tms:
            sub.add_argument("--tms", default=None, metavar="A,B,C",
                             help="comma list of intervention depths")
        sub.set_defaults(func=func)
        return sub

    add("script", cmd_script, "generate and print the multi-scene script",
        prompt=True, out_dir=True, mock=True)
    add("refs", cmd_refs, "generate entity reference images",
        prompt=True, out_dir=True, mock=True)
    add("generate", cmd_generate, "run the full pipeline and export a video tree",
        prompt=True, out_dir=True, mock=True, no_refs=True)
    add("metrics", cmd_metrics, "recompute metrics for an exported tree",
        out_dir=True)
    add("gradcheck", cmd_gradcheck, "finite-difference audit of the blocks")
    add("tm-sweep", cmd_tm_sweep, "camera intervention depth diagnostics",
        out_dir=True, camera=True, tms=True)
    add("sample-image", cmd_sample_image, "sample one scene latent to a .vstn",
        prompt=True, out=True)
    add("sample-video", cmd_sample_video, "sample one clip latent to a .vstn",
        prompt=True, out=True, camera=True, tm=True)
    return parser


def _exit_code(exc):
    if isinstance(exc, (ValidationError, NoCommonEntities, DetectorMiss)):
        return 2
    if isinstance(exc, (BackendError, BadTensorFile, ChecksumMismatch)):
        return 3
    return 4


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error in stage {exc.stage!r}: {exc.cause}", file=sys.stderr)
        return _exit_code(exc.cause)
    except VideoStudioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
