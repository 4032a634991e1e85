"""Self-tests of the benchmark.

    python3 -m pytest bench -q

Each workload runs at a tiny size and must produce every metric named in
BENCHMARK.json; deliberately corrupted outputs must count as failed.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from videostudio import cond_blocks, pipeline  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_run(name, trace=0, seconds=0.4):
    result, facts, _rows, problems = bench.run(name, seed=5, seconds=seconds, trace=trace,
                                               tiny=True, probes=1)
    return result, facts, problems


@pytest.mark.parametrize("name", NAMES)
def test_each_workload_reports_every_end_to_end_metric(name):
    result, facts, problems = tiny_run(name)
    assert result["correct"] and result["failed"] == 0, problems
    assert result["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("nproc", "python", "numpy", "scipy", "blas_threads", "seed", "ops_timed"):
        assert key in facts


@pytest.mark.parametrize("name", NAMES)
def test_each_workload_reports_every_per_layer_metric(name):
    result, facts, problems = tiny_run(name, trace=1)
    assert result["correct"], problems
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # every traced op ran inside a span, so module self times cover the wall
    assert 80.0 < metrics["trace.accounted_pct"] <= 100.0
    assert metrics["trace.ops"] == facts["ops_traced"]


def test_span_self_time_subtracts_children():
    from tracer import Tracer
    tr = Tracer()
    tr.spans[:] = [("a.outer", 0.0, 10.0, -1), ("b.inner", 1.0, 4.0, 0),
                   ("b.inner", 5.0, 6.0, 0), ("c.leaf", 2.0, 3.0, 1)]
    names, _, _, _, self_t = tr.arrays()
    assert names[0] == "a.outer"
    assert list(self_t) == [6.0, 2.0, 1.0, 1.0]


def _flip_frame_byte(monkeypatch):
    original = pipeline.export_video

    def export_then_flip(video, out_dir):
        path = original(video, out_dir)
        frame = os.path.join(out_dir, "scene_1", "frame_0.ppm")
        with open(frame, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0x01]))
        return path
    monkeypatch.setattr(pipeline, "export_video", export_then_flip)


def _nan_clip(monkeypatch):
    original = pipeline.sample_video

    def sample_with_nan(*args, **kwargs):
        clip = original(*args, **kwargs)
        clip[0, 0, 0, 0] = np.nan
        return clip
    monkeypatch.setattr(pipeline, "sample_video", sample_with_nan)


def _nan_loss(monkeypatch):
    monkeypatch.setattr(cond_blocks, "train_step", lambda *a, **k: float("nan"))


@pytest.mark.parametrize("name,corrupt", [("oracle-script", _flip_frame_byte),
                                          ("oracle-script", _nan_clip),
                                          ("network-cfg", _nan_clip),
                                          ("adapter-train", _nan_loss)])
def test_corrupted_outputs_count_as_failed(monkeypatch, name, corrupt):
    corrupt(monkeypatch)
    result, _facts, problems = tiny_run(name, seconds=0.2)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert problems


def test_reference_checks_catch_a_changed_output(tmp_path):
    # the recorded outputs match the current inputs and program ...
    oracle = workloads.OracleScript(workloads.DEFAULT_SEED, str(tmp_path))
    oracle.refs = oracle.load_refs()
    assert all(oracle.op(i).ok for i in range(8))
    # ... and a changed one is caught
    oracle.refs[8] = "0" * 64
    assert not oracle.op(8).ok

    # a traced run repeats index 1; for training that is simply round 2
    train = workloads.AdapterTrain(workloads.DEFAULT_SEED, str(tmp_path))
    train.refs = train.load_refs()
    assert train.op(0).ok and train.op(1).ok and train.op(1).ok
    train.refs[7] *= 1.0 + 1e-5
    assert not train.op(2).ok


def test_network_reference_tolerance(tmp_path):
    network = workloads.NetworkCfg(workloads.DEFAULT_SEED, str(tmp_path))
    network.refs = network.load_refs()
    assert network.op(0).ok
    network.refs["v0_s2_clip"] = network.refs["v0_s2_clip"] + 10 * workloads.NETWORK_MAX_ABS_TOL
    assert not network.op(0).ok


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle-script",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
