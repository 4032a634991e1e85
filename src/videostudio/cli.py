"""Command line front end.

Exit codes: 0 success, 2 validation or configuration problem, 3 backend
or file-integrity failure, 4 anything unexpected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cond_blocks import run_gradient_suite
from .errors import BadConfig, EmptyPrompt, StageError, UnwritablePath, VideoStudioError
from .numeric_core import derive_seed, make_dir, save_tensor, write_bytes, write_json
from .pipeline import (_SWEEP_CAMERA, _SWEEP_TMS, _build_references, _oracle_denoiser,
                       _remove_run_records, _sample_clip, _scene_canvas_latent, _sweep_plan,
                       _write_references, _write_script, compute_metrics, export_failure,
                       export_video, load_config, load_video, resolve_backends,
                       run_pipeline, tm_sweep)
from .sampler import sample_image
from .script_engine import generate_script, parse_camera, serialize_script

__all__ = ["main"]


def _load(args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "no_refs", False):
        overrides["no_refs"] = True
    return load_config(getattr(args, "config", None), overrides)


def _oracle_config(args):
    """``_load(args)`` for the commands that sample only the oracle; BadConfig
    for a network config, which they would ignore."""
    config = _load(args)
    if config.denoiser == "network":
        raise BadConfig('"denoiser": "network" has no effect here: this command '
                        'samples the analytic oracle on the toy canvas')
    return config


def _path(text):
    """argparse type of ``--out-dir`` and ``--out``: any path but the empty one,
    which would name the current directory."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _put_bytes(out_dir):
    """``put_bytes(rel, payload)`` writing under ``out_dir``."""
    return lambda rel, payload: write_bytes(os.path.join(out_dir, rel), payload)


def _camera(args, default):
    return default if args.camera is None else parse_camera(args.camera, "--camera")


def _prompt_and_out(args):
    """Refuse a blank ``--prompt``, then an ``--out`` naming a directory, then make
    ``--out``'s parent: the last checks of ``sample-*``, before anything renders."""
    if not args.prompt.strip():
        raise EmptyPrompt("prompt is empty")
    if os.path.isdir(args.out) or not os.path.basename(args.out):  # "new/" names one too
        raise UnwritablePath(f"{args.out}: cannot write: it is a directory")
    make_dir(os.path.dirname(args.out) or ".", args.out)


# --- subcommands -------------------------------------------------------------

def cmd_script(args):
    backends = resolve_backends(_load(args), args.mock_llm)
    if args.out_dir:
        make_dir(args.out_dir)
    script = generate_script(args.prompt, backends.chat)
    print(serialize_script(script))
    if args.out_dir:
        _write_script(script, _put_bytes(args.out_dir))
    return 0


def cmd_refs(args):
    config = _load(args)
    backends = resolve_backends(config, args.mock_llm)
    if args.out_dir:
        make_dir(args.out_dir)
    script = generate_script(args.prompt, backends.chat)
    references, descriptions = _build_references(config, script, args.prompt, backends)
    if args.out_dir:
        put_bytes = _put_bytes(args.out_dir)
        _write_script(script, put_bytes)
        index = _write_references(references, put_bytes)
        for name, entry in index.items():
            entry["description"] = descriptions[name]
        write_json(os.path.join(args.out_dir, "refs.json"), index)
    print(f"entities: {len(references)}")
    for name in sorted(references):
        print(f"  {name} ({references[name].kind})")
    return 0


def cmd_generate(args):
    config = _load(args)
    backends = resolve_backends(config, args.mock_llm)
    _remove_run_records(args.out_dir)
    try:
        video, report = run_pipeline(args.prompt, config, backends)
    except StageError as exc:
        export_failure(exc, args.out_dir)
        raise
    manifest_path = export_video(video, args.out_dir)
    write_json(os.path.join(args.out_dir, "metrics.json"), report.to_dict())
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
    report = run_gradient_suite(seed=_load(args).seed)
    for case in report["cases"]:
        print(f"{case['case']:<22} rel_err {case['rel_err']:.3e}")
    print(f"cases: {len(report['cases'])}  max rel err: {report['max_rel_err']:.3e}"
          f"  threshold: {report['threshold']:.0e}")
    print("PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 4


def cmd_tm_sweep(args):
    config = _oracle_config(args)
    camera = _camera(args, _SWEEP_CAMERA)
    try:
        tms = _SWEEP_TMS if args.tms is None else tuple(int(x) for x in args.tms.split(","))
    except ValueError:
        raise BadConfig(f"--tms wants comma-separated integers, got {args.tms!r}") from None
    _sweep_plan(config, camera, tms)  # refuse a bad depth, a zoom or no probe frame first
    if args.out_dir:
        make_dir(args.out_dir)
    rows = tm_sweep(config, camera, tms)
    print(f"{'t_m':>5} {'displacement_err':>18} {'anchor_mse':>14}")
    for row in rows:
        print(f"{row['t_m']:>5} {row['displacement_error']:>18.6f} "
              f"{row['anchor_mse']:>14.8f}")
    if args.out_dir:
        write_json(os.path.join(args.out_dir, "tm_sweep.json"), rows)
    return 0


def cmd_sample_image(args):
    config = _oracle_config(args)
    _prompt_and_out(args)
    schedule = config.noise_schedule()
    target = _scene_canvas_latent(config, args.prompt, config.seed)
    denoiser = _oracle_denoiser(config, target)
    latent = sample_image(denoiser, (), schedule,
                          config.image_sampler_config(derive_seed(config.seed, "image")))
    save_tensor(args.out, latent)
    print(f"wrote {args.out} shape {list(latent.shape)}")
    return 0


def cmd_sample_video(args):
    config = _oracle_config(args)
    camera = _camera(args, ("static", "medium"))
    sampler = config.video_sampler_config(derive_seed(config.seed, "video"), args.tm)
    _prompt_and_out(args)
    scene_latent = _scene_canvas_latent(config, args.prompt, config.seed)
    clip = _sample_clip(config, scene_latent, camera, sampler)
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
        # metrics reads only the exported tree, gradcheck only a seed
        if name not in ("metrics", "gradcheck"):
            sub.add_argument("--config", default=None, help="JSON config file")
        if name != "metrics":
            sub.add_argument("--seed", type=int, default=None, help="override config seed")
        if prompt:
            sub.add_argument("--prompt", required=True, help="video theme")
        if out_dir:
            sub.add_argument("--out-dir", type=_path, default=None,
                             required=name in ("generate", "metrics"),
                             help="output directory")
        if mock:
            sub.add_argument("--mock-llm", default=None, metavar="FIXTURE.json",
                             help="hash-table chat fixture instead of a live backend")
        if no_refs:
            sub.add_argument("--no-refs", action="store_true",
                             help="skip reference images (ablation)")
        if out:
            sub.add_argument("--out", type=_path, required=True, help="output .vstn path")
        if camera:
            sub.add_argument("--camera", default=None, metavar="DIR,SPEED",
                             help="camera movement in the script's tokens, any case, "
                                  "e.g. right,medium")
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
    return exc.exit_code if isinstance(exc, VideoStudioError) else 4


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
