"""videostudio benchmark: one workload per process, seeded, self-checking.

    python3 bench/run.py --workload oracle-script --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-module metrics from a traced run.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give the machine facts, the sample counts and a readable
table.  See NOTES.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_run")
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def blas_threads():
    """Thread count numpy's OpenBLAS reports, or the capped env value."""
    import ctypes
    import glob

    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def machine_facts(workload, seed, seconds, trace):
    import numpy
    import scipy
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "machine": platform.machine()}


def measure_setup(workload, probes, tiny):
    """Median wall time of fresh interpreters from start to 'ready'."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload]
    if tiny:
        cmd.append("tiny")
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=60)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe for {workload} failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times), len(times)


class Phase:
    """Ops run back to back; collects timings, work and failures."""

    def __init__(self):
        self.op_s, self.verify_s = [], []
        self.work = self.attempted = self.failed = self.export_bytes = 0
        self.problems = []
        self.wall_s = 0.0

    def run_op(self, workload, i):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = workload.op(i)
        except Exception as exc:  # a raised error is a failed operation
            self.failed += 1
            self.problems.append(f"op {i}: {type(exc).__name__}: {exc}")
            return
        finally:
            self.wall_s += time.perf_counter() - t0
        if not res.ok:
            self.failed += 1
            self.problems.extend(f"op {i}: {p}" for p in res.problems)
            return
        self.op_s.append(res.op_s)
        self.verify_s.extend(res.verify_s)
        self.work += res.work
        self.export_bytes += res.export_bytes


def median(values):
    # 0 only when every op failed, and then the result is not correct anyway
    return statistics.median(values) if values else 0.0


def end_to_end(phase, setup_s):
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (median(phase.op_s), "s"),
        "work_per_s": (phase.work / phase.wall_s, "1/s"),
        "verify_s_p50": (median(phase.verify_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def named_view(name, phase, metrics, attempted, failed):
    """The end-to-end metrics under their per-workload names, for the table."""
    work = "train_steps_per_s" if name == "adapter-train" else "scenes_per_s"
    rows = {"video_s_p50" if name != "adapter-train" else "round_s_p50": metrics["op_s_p50"],
            work: metrics["work_per_s"],
            "verify_s_p50": metrics["verify_s_p50"],
            "peak_rss_mb": metrics["peak_rss_mb"],
            "setup_s": metrics["setup_s"],
            "failed_ratio": (failed / attempted, "ratio")}
    if name != "adapter-train" and len(phase.op_s) >= 100:
        rows["video_s_p90"] = (percentile(phase.op_s, 90), "s")
    return rows


def run(workload_name, seed, seconds, trace, tiny=False, probes=SETUP_PROBES):
    """Run one workload; returns (result, facts, table rows, problem messages)."""
    import tracer as tracing
    import workloads

    os.makedirs(WORKDIR, exist_ok=True)
    workdir = os.path.join(WORKDIR, f"{workload_name}-{os.getpid()}")
    facts = machine_facts(workload_name, seed, seconds, trace)
    try:
        setup_s, facts["setup_probes"] = measure_setup(workload_name, probes, tiny)
        workload = workloads.WORKLOADS[workload_name](seed, workdir, tiny)
        if seed == workloads.DEFAULT_SEED and not tiny:
            workload.refs = workload.load_refs()
        warm = Phase()
        warm.run_op(workload, 0)  # first-call costs stay out of the timings
        timed = Phase()
        if not trace:
            t0 = time.perf_counter()
            i = 1
            while time.perf_counter() - t0 < seconds:
                timed.run_op(workload, i)
                i += 1
            phases = [warm, timed]
            metrics = end_to_end(timed, setup_s)
            facts.update(ops_timed=len(timed.op_s), verifies_timed=len(timed.verify_s),
                         work_done=timed.work, timed_wall_s=round(timed.wall_s, 3))
        else:
            # each op runs untraced, then again traced, so both see the same
            # machine; the ratio of their walls is the tracing overhead
            plain, tr = Phase(), tracing.Tracer()
            t0 = time.perf_counter()
            i = 1
            while time.perf_counter() - t0 < seconds:
                plain.run_op(workload, i)
                tr.install()
                try:
                    timed.run_op(workload, i)
                finally:
                    tr.uninstall()
                i += 1
            phases = [warm, plain, timed]
            tr.dump(os.path.join(WORKDIR, f"spans-{workload_name}-seed{seed}.npz"))
            metrics = tracing.layer_metrics(tr, timed.wall_s, {
                "ops": len(timed.op_s), "work": timed.work,
                "export_bytes": timed.export_bytes})
            metrics["trace.overhead_pct"] = (100.0 * (timed.wall_s / plain.wall_s - 1.0), "%")
            facts.update(ops_traced=len(timed.op_s), plain_wall_s=round(plain.wall_s, 3),
                         traced_wall_s=round(timed.wall_s, 3))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [msg for p in phases for msg in p.problems]
    rows = dict(metrics)
    if not trace:
        rows.update(named_view(workload_name, phases[-1], metrics, attempted, failed))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, facts, rows, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle-script", "network-cfg", "adapter-train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "videostudio", "__init__.py")):
        print(f"error: no videostudio sources under {SRC}", file=sys.stderr)
        return 2
    result, facts, rows, problems = run(args.workload, args.seed, args.seconds, args.trace)
    for msg in problems[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in rows.items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


def _prepare_environment():
    # BLAS threads are capped before numpy is first imported
    for var in BLAS_ENV:
        os.environ[var] = str(NPROC)
    sys.path[:0] = [SRC, HERE]


if __name__ == "__main__":
    _prepare_environment()
    sys.exit(main())
