import json

import numpy as np
import pytest

from videostudio import cli, errors
from videostudio.cli import main
from videostudio.numeric_core import load_tensor
from videostudio.pipeline import build_mock_llm_fixture, load_manifest

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
        trees.append(load_manifest(str(out))["checksums"])
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
    latent = load_tensor(str(out))
    assert latent.shape == (4, 16, 16)
    assert np.all(np.isfinite(latent))
    capsys.readouterr()


def test_sample_video_honours_camera_flag(tmp_path, capsys):
    out = tmp_path / "clip.vstn"
    assert main(["sample-video", "--prompt", "a checkered marble on a dark desk",
                 "--out", str(out), "--camera", "right,medium", "--tm", "5"]) == 0
    clip = load_tensor(str(out))
    assert clip.shape == (4, 8, 16, 16)
    capsys.readouterr()
    assert main(["sample-video", "--prompt", "x", "--out", str(out),
                 "--camera", "sideways"]) == 2  # malformed direction,speed pair
    capsys.readouterr()


def test_sample_video_with_unreadable_vocabulary_exits_2(tmp_path, capsys):
    vocab = tmp_path / "vocab.json"
    vocab.write_text("{not json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"vocabulary_path": str(vocab)}))
    assert main(["sample-video", "--prompt", "x", "--out", str(tmp_path / "clip.vstn"),
                 "--config", str(config)]) == 2
    assert "vocabulary" in capsys.readouterr().err


def test_gradcheck_command(capsys):
    assert main(["gradcheck"]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed
    assert "max rel err" in printed


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
    if issubclass(cls, (errors.ValidationError, errors.NoCommonEntities, errors.DetectorMiss)):
        return 2
    if issubclass(cls, (errors.BackendError, errors.BadTensorFile, errors.ChecksumMismatch)):
        return 3
    return 4


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_class_keeps_its_exit_code(cls):
    assert cli._exit_code(cls.__new__(cls)) == _exit_code_at_seed(cls)
