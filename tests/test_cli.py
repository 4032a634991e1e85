import ast
import json
import pathlib
import urllib.request

import numpy as np
import pytest

from videostudio import cli, errors, pipeline
from videostudio.cli import main
from videostudio.numeric_core import load_tensor
from videostudio.pipeline import build_mock_llm_fixture, load_video

PROMPT = "a silver robot spends a day in its workshop"
SCRIPT2 = """[Scene 1: prompt: a silver robot kneading dough in the workshop | foreground: silver robot | background: workshop | camera: right, medium]
[Scene 2: prompt: the silver robot pouring coffee at the bench | foreground: silver robot | background: workshop | camera: static, slow]"""


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(build_mock_llm_fixture(PROMPT, SCRIPT2)))
    return str(path)


def test_script_command(fixture_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["script", "--prompt", PROMPT, "--mock-llm", fixture_path,
                 "--out-dir", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "[Scene 1:" in printed and "[Scene 2:" in printed
    assert (out / "script.txt").read_text().strip() == SCRIPT2


def test_refs_command(fixture_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["refs", "--prompt", PROMPT, "--mock-llm", fixture_path,
                 "--out-dir", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "silver robot (foreground)" in printed
    assert "workshop (background)" in printed
    index = json.loads((out / "refs.json").read_text())
    assert set(index) == {"silver robot", "workshop"}
    for entry in index.values():
        assert (out / entry["image"]).exists()
        assert (out / entry["mask"]).exists()


def test_generate_is_reproducible(fixture_path, tmp_path, capsys):
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["generate", "--prompt", PROMPT, "--mock-llm", fixture_path,
                     "--out-dir", str(out), "--seed", "7"]) == 0
        assert (out / "metrics.json").exists()
        trees.append(load_video(str(out)).manifest["checksums"])
    capsys.readouterr()
    assert trees[0] == trees[1]


def test_metrics_command_round_trip(fixture_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["generate", "--prompt", PROMPT, "--mock-llm", fixture_path,
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["metrics", "--out-dir", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "frame_consistency_mean" in doc
    assert len(doc["frame_consistency"]) == 2


def test_tall_and_wide_latents_generate_and_reload(fixture_path, tmp_path, capsys):
    # the foreground slots are sized from the shorter side, so they fit either frame
    for latent in ([4, 32, 8], [4, 8, 32]):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"latent": latent, "frames": 3},
                                      "image_sampler": {"steps": 4},
                                      "video_sampler": {"steps": 6, "t_m": 2}}))
        out = tmp_path / "x".join(map(str, latent))
        assert main(["generate", "--prompt", PROMPT, "--mock-llm", fixture_path,
                     "--config", str(config), "--out-dir", str(out)]) == 0
        assert main(["metrics", "--out-dir", str(out)]) == 0
    assert "error" not in capsys.readouterr().err


def test_metrics_detects_corruption(fixture_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["generate", "--prompt", PROMPT, "--mock-llm", fixture_path,
                 "--out-dir", str(out)]) == 0
    victim = out / "scene_1" / "frame_0.ppm"
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0x01
    victim.write_bytes(bytes(raw))
    assert main(["metrics", "--out-dir", str(out)]) == 3
    capsys.readouterr()


def test_metrics_missing_tree(tmp_path, capsys):
    assert main(["metrics", "--out-dir", str(tmp_path / "nowhere")]) == 3
    assert "error" in capsys.readouterr().err


def test_generate_with_incomplete_fixture(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"deadbeef": "useless"}))
    code = main(["generate", "--prompt", PROMPT, "--mock-llm", str(path),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "stage 'script'" in capsys.readouterr().err


def test_good_rerun_removes_the_earlier_failure_record(fixture_path, tmp_path, capsys):
    out, bad = tmp_path / "out", tmp_path / "bad.json"
    bad.write_text(json.dumps({"deadbeef": "useless"}))
    assert main(["generate", "--prompt", PROMPT, "--mock-llm", str(bad),
                 "--out-dir", str(out)]) == 3
    assert (out / "failure_manifest.json").exists()
    assert main(["generate", "--prompt", PROMPT, "--mock-llm", fixture_path,
                 "--out-dir", str(out)]) == 0
    assert not (out / "failure_manifest.json").exists()
    capsys.readouterr()


def test_failed_rerun_removes_the_earlier_metrics(fixture_path, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert main(["generate", "--prompt", PROMPT, "--mock-llm", fixture_path,
                 "--out-dir", str(out)]) == 0
    assert (out / "metrics.json").exists()

    def sampler_down(*_args, **_kwargs):
        raise errors.TooFewFrames("sampler down")
    monkeypatch.setattr(pipeline, "sample_video", sampler_down)
    assert main(["generate", "--prompt", PROMPT, "--mock-llm", fixture_path,
                 "--out-dir", str(out)]) == 2
    assert json.loads((out / "failure_manifest.json").read_text())["failed_stage"] == "scenes"
    assert not (out / "metrics.json").exists()
    capsys.readouterr()


def test_failed_script_stage_removes_the_earlier_metrics(fixture_path, tmp_path, capsys):
    out, bad = tmp_path / "out", tmp_path / "bad.json"
    bad.write_text(json.dumps({"deadbeef": "useless"}))
    assert main(["generate", "--prompt", PROMPT, "--mock-llm", fixture_path,
                 "--out-dir", str(out)]) == 0
    assert (out / "metrics.json").exists()
    assert main(["generate", "--prompt", PROMPT, "--mock-llm", str(bad),
                 "--out-dir", str(out)]) == 3
    assert json.loads((out / "failure_manifest.json").read_text())["failed_stage"] == "script"
    assert not (out / "metrics.json").exists()
    capsys.readouterr()


def test_failed_rerun_leaves_no_loadable_tree(fixture_path, tmp_path, capsys):
    out, bad = tmp_path / "out", tmp_path / "bad.json"
    bad.write_text(json.dumps({"deadbeef": "useless"}))
    assert main(["generate", "--prompt", PROMPT, "--mock-llm", fixture_path,
                 "--out-dir", str(out)]) == 0
    assert main(["generate", "--prompt", PROMPT, "--mock-llm", str(bad),
                 "--out-dir", str(out)]) == 3
    assert not (out / "manifest.json").exists()
    capsys.readouterr()
    assert main(["metrics", "--out-dir", str(out)]) == 3
    assert "manifest.json" in capsys.readouterr().err


def test_generate_refuses_an_unusable_out_dir_before_any_stage(fixture_path, tmp_path, capsys,
                                                               monkeypatch):
    taken, config = tmp_path / "taken", tmp_path / "config.json"
    taken.write_text("")
    config.write_text(json.dumps({"denoiser": "network"}))
    calls = []
    monkeypatch.setattr(cli, "run_pipeline", lambda *args: calls.append(args))
    assert main(["generate", "--prompt", PROMPT, "--mock-llm", fixture_path,
                 "--config", str(config), "--out-dir", f"{taken}/sub"]) == 2
    assert calls == []
    assert f"error: {taken}/sub" in capsys.readouterr().err


# {dir} is an existing directory, {file} an existing file
UNWRITABLE = {
    "sample-image-out-is-a-directory": ["sample-image", "--prompt", PROMPT, "--out", "{dir}"],
    "generate-out-dir-is-a-file": ["generate", "--prompt", PROMPT, "--mock-llm", "{fixture}",
                                   "--out-dir", "{file}"],
    "script-out-dir-is-a-file": ["script", "--prompt", PROMPT, "--mock-llm", "{fixture}",
                                 "--out-dir", "{file}"],
    "refs-out-dir-is-a-file": ["refs", "--prompt", PROMPT, "--mock-llm", "{fixture}",
                               "--out-dir", "{file}"],
    "tm-sweep-out-dir-is-a-file": ["tm-sweep", "--out-dir", "{file}"],
    "refs-out-dir-under-a-file": ["refs", "--prompt", PROMPT, "--mock-llm", "{fixture}",
                                  "--out-dir", "{file}/sub"],
}


@pytest.mark.parametrize("argv", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_unwritable_output_path_exits_2(fixture_path, tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("")
    values = {"dir": str(tmp_path), "file": str(taken), "fixture": fixture_path}
    assert main([arg.format(**values) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {tmp_path}" in err and "cannot" in err  # names the path


# every flag that names an output path, set to the empty string
EMPTY_OUTPUT_PATH = {
    "generate": ["generate", "--prompt", PROMPT, "--mock-llm", "{fixture}", "--out-dir", ""],
    "script": ["script", "--prompt", PROMPT, "--mock-llm", "{fixture}", "--out-dir", ""],
    "refs": ["refs", "--prompt", PROMPT, "--mock-llm", "{fixture}", "--out-dir", ""],
    "tm-sweep": ["tm-sweep", "--tms", "1", "--out-dir", ""],
    "metrics": ["metrics", "--out-dir", ""],
    "sample-image": ["sample-image", "--prompt", PROMPT, "--out", ""],
    "sample-video": ["sample-video", "--prompt", PROMPT, "--out", ""],
}


@pytest.mark.parametrize("argv", EMPTY_OUTPUT_PATH.values(), ids=EMPTY_OUTPUT_PATH.keys())
def test_an_empty_output_path_is_refused(fixture_path, tmp_path, capsys, monkeypatch, argv):
    # "" would name the current directory: generate would write its tree there
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    (cwd / "failure_manifest.json").write_text("{}")
    monkeypatch.chdir(cwd)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(fixture=fixture_path) for arg in argv])
    assert exc.value.code == 2
    assert "must not be empty" in capsys.readouterr().err
    assert [p.name for p in cwd.iterdir()] == ["failure_manifest.json"]


@pytest.mark.parametrize("argv, stage", [
    (["script", "--prompt", PROMPT, "--mock-llm", "{fixture}"], "generate_script"),
    (["refs", "--prompt", PROMPT, "--mock-llm", "{fixture}"], "generate_script"),
    (["tm-sweep"], "tm_sweep"),
], ids=["script", "refs", "tm-sweep"])
@pytest.mark.parametrize("out_dir", ["{file}", "{file}/sub"], ids=["a-file", "under-a-file"])
def test_out_dir_is_made_before_any_stage(fixture_path, tmp_path, capsys, monkeypatch, argv,
                                         stage, out_dir):
    taken = tmp_path / "taken"
    taken.write_text("")
    calls = []
    monkeypatch.setattr(cli, stage, lambda *args: calls.append(args))
    values = {"file": str(taken), "fixture": fixture_path}
    assert main([arg.format(**values) for arg in argv + ["--out-dir", out_dir]]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out_dir.format(**values)}: cannot write")
    assert taken.read_text() == ""


@pytest.mark.parametrize("argv, code", [
    (["tm-sweep", "--config", "{steps4}", "--tms", "1,9"], 2),
    (["tm-sweep", "--camera", "forward,slow"], 2),  # a zoom has no single translation
    (["tm-sweep", "--config", "{frames2}", "--camera", "left,slow"], 2),  # no probe frame
    (["script", "--prompt", PROMPT], 2),  # no chat locator
    (["refs", "--prompt", PROMPT], 2),
    (["script", "--prompt", PROMPT, "--mock-llm", "{missing}"], 3),
], ids=["tm-past-steps", "tm-zoom", "tm-no-probe", "script-no-chat", "refs-no-chat",
        "script-no-fixture"])
def test_a_refused_argument_leaves_no_out_dir(tmp_path, capsys, argv, code):
    configs = {"steps4": {"video_sampler": {"steps": 4, "t_m": 1}},
               "frames2": {"model": {"frames": 2}}}
    values = {"missing": str(tmp_path / "missing.json")}
    for name, doc in configs.items():
        values[name] = str(tmp_path / f"{name}.json")
        pathlib.Path(values[name]).write_text(json.dumps(doc))
    out = tmp_path / "new" / "out"
    assert main([arg.format(**values) for arg in argv] + ["--out-dir", str(out)]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "new").exists()


def test_one_check_and_one_message_for_the_intervention_step(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(pipeline, "sample_video", lambda *args: calls.append(args))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"video_sampler": {"steps": 4, "t_m": 1}}))
    clip = tmp_path / "clip.vstn"
    video = ["sample-video", "--prompt", PROMPT, "--config", str(config), "--out", str(clip)]
    for argv, bad in [(video + ["--tm", "-1"], -1), (video + ["--tm", "9"], 9),
                      (["tm-sweep", "--config", str(config), "--tms", "1,9"], 9)]:
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: t_m {bad} is outside [0, 3] "
                                           "for 4 sampler steps\n")
    assert calls == []
    assert not clip.exists()


def test_sample_video_refuses_a_bad_tm_before_the_scene_renders(tmp_path, capsys, monkeypatch):
    calls = {"canvas": 0, "anchor": 0}

    def counted(key, func):
        def wrapper(*args):
            calls[key] += 1
            return func(*args)
        return wrapper
    monkeypatch.setattr(cli, "_scene_canvas_latent", counted("canvas", cli._scene_canvas_latent))
    monkeypatch.setattr(pipeline, "_camera_anchor", counted("anchor", pipeline._camera_anchor))
    clip = tmp_path / "clip.vstn"
    assert main(["sample-video", "--prompt", "x", "--tm", "99", "--out", str(clip)]) == 2
    assert capsys.readouterr().err.startswith("error: t_m 99 is outside ")
    assert calls == {"canvas": 0, "anchor": 0}
    assert not clip.exists()


@pytest.mark.parametrize("argv", [
    ["sample-video", "--prompt", "x", "--out", "{out}"],
    ["tm-sweep", "--tms", "1", "--out-dir", "{out}"],
], ids=["sample-video", "tm-sweep"])
def test_an_empty_camera_is_malformed_not_the_default(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([arg.format(out=out) for arg in argv] + ["--camera", ""]) == 2
    assert capsys.readouterr().err == \
        "error: --camera: camera needs 'direction, speed', got ''\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sample-image", "--prompt", ""],
    ["sample-video", "--prompt", "  "],
], ids=["sample-image", "sample-video"])
def test_a_blank_prompt_exits_2_before_any_render(tmp_path, capsys, monkeypatch, argv):
    renders = []
    monkeypatch.setattr(pipeline, "_prompt_canvas", lambda *args: renders.append(args))
    out = tmp_path / "out.vstn"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: prompt is empty\n"
    assert renders == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample-image", "sample-video"])
@pytest.mark.parametrize("out", ["{dir}", "{file}/out.vstn", "{dir}/new/"],
                         ids=["a-directory", "under-a-file", "a-new-directory"])
def test_sample_refuses_an_unusable_out_before_any_render(tmp_path, capsys, monkeypatch,
                                                          command, out):
    taken = tmp_path / "taken"
    taken.write_text("")
    calls = {"render": 0, "sampler": 0}

    def counted(key, func):
        def wrapper(*args):
            calls[key] += 1
            return func(*args)
        return wrapper
    monkeypatch.setattr(pipeline, "_prompt_canvas", counted("render", pipeline._prompt_canvas))
    monkeypatch.setattr(cli, "sample_image", counted("sampler", cli.sample_image))
    monkeypatch.setattr(pipeline, "sample_video", counted("sampler", pipeline.sample_video))
    out = out.format(dir=tmp_path, file=taken)
    assert main([command, "--prompt", PROMPT, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: cannot write")
    assert calls == {"render": 0, "sampler": 0}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert taken.read_text() == ""


@pytest.mark.parametrize("content", [
    "{not json",
    None,  # no file at all
    "script-reply-5",
], ids=["not-json", "missing", "reply-not-text"])
def test_untrusted_mock_fixture_exits_3(tmp_path, capsys, content):
    from videostudio.script_engine import build_chat_request, build_script_query, request_hash
    path = tmp_path / "fixture.json"
    if content == "script-reply-5":
        content = json.dumps({request_hash(build_chat_request(build_script_query(PROMPT))): 5})
    if content is not None:
        path.write_text(content)
    assert main(["script", "--prompt", PROMPT, "--mock-llm", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: mock fixture ") and err.count("\n") == 1


def test_generate_refuses_a_file_chat_url_before_any_chat_call(tmp_path, capsys, monkeypatch):
    reply = tmp_path / "reply.json"
    reply.write_text(json.dumps({"choices": [{"message": {"content": "x"}}]}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chat": {"url": reply.as_uri()}}))
    calls = []
    monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kw: calls.append(args))
    out = tmp_path / "out"
    assert main(["generate", "--prompt", PROMPT, "--config", str(config),
                 "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: chat.url must be an http:// or https://")
    assert calls == []
    assert not out.exists()


def test_validation_failures_exit_two(fixture_path, tmp_path, capsys):
    assert main(["script", "--prompt", "", "--mock-llm", fixture_path]) == 2
    bad_config = tmp_path / "bad.json"
    bad_config.write_text(json.dumps({"model": {"heads": 5}}))
    assert main(["script", "--prompt", PROMPT, "--mock-llm", fixture_path,
                 "--config", str(bad_config)]) == 2
    capsys.readouterr()


def test_sample_image_writes_tensor(tmp_path, capsys):
    out = tmp_path / "scene.vstn"
    assert main(["sample-image", "--prompt", "a checkered marble on a dark desk",
                 "--out", str(out), "--seed", "11"]) == 0
    latent = load_tensor(out.read_bytes(), out)
    assert latent.shape == (4, 16, 16)
    assert np.all(np.isfinite(latent))
    capsys.readouterr()


def test_sample_video_honours_camera_flag(tmp_path, capsys):
    out = tmp_path / "clip.vstn"
    assert main(["sample-video", "--prompt", "a checkered marble on a dark desk",
                 "--out", str(out), "--camera", "right,medium", "--tm", "5"]) == 0
    clip = load_tensor(out.read_bytes(), out)
    assert clip.shape == (4, 8, 16, 16)
    capsys.readouterr()
    assert main(["sample-video", "--prompt", "x", "--out", str(out),
                 "--camera", "sideways"]) == 2  # malformed direction,speed pair
    capsys.readouterr()


def test_camera_flag_reads_the_script_camera_tokens(tmp_path, capsys):
    # the flag goes through the script's camera parser: any case, spaces allowed
    for name, camera in (("lower", "right,medium"), ("script", "Right, Medium")):
        assert main(["sample-video", "--prompt", "a checkered marble on a dark desk",
                     "--out", str(tmp_path / f"{name}.vstn"), "--camera", camera]) == 0
    assert (tmp_path / "lower.vstn").read_bytes() == (tmp_path / "script.vstn").read_bytes()
    capsys.readouterr()
    assert main(["sample-video", "--prompt", "x", "--out", str(tmp_path / "bad.vstn"),
                 "--camera", "diag,fast"]) == 2
    err = capsys.readouterr().err
    assert "--camera" in err and "'diag'" in err and err.count("\n") == 1
    assert not (tmp_path / "bad.vstn").exists()


@pytest.mark.parametrize("argv", [
    ["sample-image", "--prompt", "x", "--out", "{out}"],
    ["sample-video", "--prompt", "x", "--out", "{out}"],
    ["tm-sweep", "--out-dir", "{out}"],
], ids=["sample-image", "sample-video", "tm-sweep"])
def test_oracle_commands_refuse_a_network_config(tmp_path, capsys, argv):
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps({"denoiser": "network"}))
    assert main([arg.format(out=out) for arg in argv] + ["--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and '"denoiser": "network"' in err
    assert not out.exists()


def test_sample_video_with_unreadable_vocabulary_exits_2(tmp_path, capsys):
    vocab = tmp_path / "vocab.json"
    vocab.write_text("{not json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"vocabulary_path": str(vocab)}))
    assert main(["sample-video", "--prompt", "x", "--out", str(tmp_path / "clip.vstn"),
                 "--config", str(config)]) == 2
    assert "vocabulary" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["metrics", "--out-dir", "out", "--config", "config.json"],
    ["metrics", "--out-dir", "out", "--seed", "3"],
    ["gradcheck", "--config", "config.json"],
], ids=["metrics-config", "metrics-seed", "gradcheck-config"])
def test_commands_take_only_the_flags_they_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_gradcheck_command(capsys):
    assert main(["gradcheck"]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed
    assert "max rel err" in printed


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_gradcheck_seed_follows_the_config_seed_rule(capsys, seed):
    assert main(["gradcheck", f"--seed={seed}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be ") and err.count("\n") == 1


def test_empty_description_exits_3(tmp_path, capsys):
    table = build_mock_llm_fixture(PROMPT, SCRIPT2)
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps({key: "   " if reply.startswith("A ") else reply
                                for key, reply in table.items()}))
    assert main(["refs", "--prompt", PROMPT, "--mock-llm", str(path)]) == 3
    assert "empty description" in capsys.readouterr().err


def test_tm_sweep_command(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["tm-sweep", "--tms", "1", "--out-dir", str(out)]) == 0
    rows = json.loads((out / "tm_sweep.json").read_text())
    assert rows[0]["t_m"] == 1
    assert "displacement_error" in rows[0] and "anchor_mse" in rows[0]
    capsys.readouterr()


def test_tm_sweep_rejects_non_integer_depths(capsys):
    assert main(["tm-sweep", "--tms", "a,b"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--tms" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_unexpected_error_exits_4_with_one_line(tmp_path, capsys, monkeypatch):
    def broken_load(out_dir, verify=True):
        raise KeyError("script")
    monkeypatch.setattr(cli, "load_video", broken_load)
    assert main(["metrics", "--out-dir", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: KeyError: ")
    assert err.count("\n") == 1


def test_metrics_on_keyless_manifest_exits_3(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text("{}")
    assert main(["metrics", "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: manifest ") and err.count("\n") == 1


def _error_classes(base=errors.VideoStudioError):
    return [base] + [c for sub in base.__subclasses__() for c in _error_classes(sub)]


def _exit_code_at_seed(cls):
    # the isinstance lists the CLI used before each class carried its code
    if issubclass(cls, errors.ValidationError):
        return 2
    if issubclass(cls, (errors.BackendError, errors.BadTensorFile, errors.ChecksumMismatch)):
        return 3
    return 4


def test_every_error_class_is_raised_somewhere():
    # an error type no code path raises is dead weight in the exit-code table; a
    # class handed to read_bytes or read_json (or built in the callable handed
    # there) is raised by the reader
    raised = set()
    for path in pathlib.Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                raised.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("read_bytes", "read_json") and len(node.args) == 2):
                raised |= {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
    bases = {errors.VideoStudioError, errors.ValidationError}
    assert [cls.__name__ for cls in _error_classes()
            if cls not in bases and cls.__name__ not in raised] == []


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_class_keeps_its_exit_code(cls):
    assert cli._exit_code(cls.__new__(cls)) == _exit_code_at_seed(cls)


def test_one_class_per_failure_whichever_module_checks_it():
    from videostudio.camera_motion import synthesize_flow
    from videostudio.cond_blocks import GaussianPrior, ToyFeatureExtractor, analytic_gaussian_epsilon
    from videostudio.ref_images import RgbImage
    from videostudio.sampler import apply_camera_intervention, ddim_step, make_schedule
    from videostudio.script_engine import parse_camera
    for direction, speed, word in [("sideways", "slow", "direction"), ("left", "ludicrous", "speed")]:
        with pytest.raises(errors.UnknownCameraToken, match=f"unknown camera {word}"):
            parse_camera(f"{direction}, {speed}", "camera")
        with pytest.raises(errors.UnknownCameraToken, match=f"unknown camera {word}"):
            synthesize_flow(direction, speed, 2, 2, 2)
    flat = np.zeros((4, 4))
    for check in (RgbImage, ToyFeatureExtractor(channels=8).image_features):
        with pytest.raises(errors.ShapeMismatch, match=r"image must be \[H, W, 3\]"):
            check(flat)
    sched = make_schedule(10, 0.01, 0.2)
    x = np.zeros((1, 2, 3, 3))
    for refuse in (lambda: sched.alpha_bar_at(11),
                   lambda: ddim_step(np.ones(2), np.zeros(2), 3, 3, sched),
                   lambda: apply_camera_intervention(x, x, 0, sched, np.zeros((2, 3, 3, 2))),
                   lambda: analytic_gaussian_epsilon(np.zeros(3), 0,
                                                     GaussianPrior(np.zeros(3), 1.0), sched)):
        with pytest.raises(errors.BadRange):
            refuse()
