"""Fresh-interpreter set-up for one workload; prints 'ready' when done.

    python3 bench/setup_probe.py <workload> [tiny]

``run.py`` times this script from process start to the 'ready' line:
``import videostudio``, ``load_config``, ``resolve_backends`` and denoiser
construction, up to where the first operation could start.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402  (imports videostudio)

workloads.build_for_setup(sys.argv[1], tiny=sys.argv[2:] == ["tiny"])
print("ready", flush=True)
