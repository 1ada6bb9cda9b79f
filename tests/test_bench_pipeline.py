"""The benchmark pipelines draw the same designs in every process.

``benchmarks/conftest.py`` seeds design synthesis per technology; a
seed derived from ``hash(tech_name)`` would change with the per-process
string-hash salt, and with it every clip the benchmarks route.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_SCRIPT = """
import sys

sys.path.insert(0, sys.argv[1])
from conftest import SMALL, build_pipeline

pipeline = build_pipeline("N7-9T", SMALL)
print(" ".join(clip.name for clip in pipeline.top_clips))
"""


def test_n7_top_clips_do_not_depend_on_the_hash_salt():
    pythonpath = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=pythonpath)
    run = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(REPO / "benchmarks")],
        env=env, capture_output=True, text=True, timeout=240,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [
        "m0_N7-9T_u88_w4_5",
        "m0_N7-9T_u88_w5_3",
        "m0_N7-9T_u88_w6_3",
        "aes_N7-9T_u88_w6_4",
    ]
