"""One tiny operation of every benchmark workload.

The benchmark in ``bench/`` calls the package through its public API;
running each workload's setup and ``op(0)`` at its tiny size here means a
change to any signature or attribute it uses fails the suite, not only the
benchmark.  Nothing
under ``bench/`` is written: outputs go to ``tmp_path``.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_op_succeeds_at_tiny_size(tmp_path, name):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, str(tmp_path), tiny=True)
    res = workload.op(0)
    assert res.ok, res.problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_builds_at_tiny_size(name):
    assert workloads.build_for_setup(name, tiny=True)
