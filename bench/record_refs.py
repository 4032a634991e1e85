"""Record the reference outputs in refs/ at the default workload seed.

    python3 bench/record_refs.py

Run it only on a commit whose outputs are known good: ``run.py`` checks
every later commit against what this writes.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
# the same BLAS thread cap as run.py, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from videostudio import pipeline  # noqa: E402

ORACLE_VIDEOS = 200   # more than one oracle-script run times
NETWORK_VIDEOS = 1
ADAPTER_ROUNDS = 80   # more than one adapter-train run times


def capture_videos(workload, count):
    """Run ops 0..count-1 and keep each one's in-memory video."""
    videos = []
    original = pipeline.export_video

    def keep(video, out_dir):
        videos.append(video)
        return original(video, out_dir)

    pipeline.export_video = keep
    try:
        for i in range(count):
            res = workload.op(i)
            if not res.ok:
                raise SystemExit(f"{workload.name} op {i} failed: {res.problems}")
    finally:
        pipeline.export_video = original
    return videos


def main():
    refs = os.path.join(HERE, "refs")
    workdir = os.path.join(ROOT, ".bench_run", "record")
    os.makedirs(refs, exist_ok=True)
    seed = workloads.DEFAULT_SEED
    try:
        oracle = workloads.OracleScript(seed, workdir)
        digests = [workloads.manifest_digest(v.manifest)
                   for v in capture_videos(oracle, ORACLE_VIDEOS)]
        with open(os.path.join(refs, "oracle-script.json"), "w", encoding="utf-8") as fh:
            json.dump({"seed": seed, "digests": digests}, fh, indent=0)
            fh.write("\n")

        network = workloads.NetworkCfg(seed, workdir)
        arrays = {}
        for i, video in enumerate(capture_videos(network, NETWORK_VIDEOS)):
            for scene in video.scenes:
                arrays[f"v{i}_s{scene.spec.index}_scene"] = scene.scene_latent
                arrays[f"v{i}_s{scene.spec.index}_clip"] = scene.clip_latent
        np.savez_compressed(os.path.join(refs, "network-cfg.npz"), **arrays)

        adapter = workloads.AdapterTrain(seed, workdir)
        for i in range(ADAPTER_ROUNDS):
            res = adapter.op(i)
            if not res.ok:
                raise SystemExit(f"adapter-train round {i} failed: {res.problems}")
        with open(os.path.join(refs, "adapter-train.json"), "w", encoding="utf-8") as fh:
            json.dump({"seed": seed, "losses": adapter.losses}, fh, indent=0)
            fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
