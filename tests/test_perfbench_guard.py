"""perfbench's tracer wraps privq names where their callers look them up
(perfbench/spans.py). If one of them moves, `run.py --trace 1` breaks
while the other tests stay green; this test fails instead."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_finds_every_patch_point():
    # a subprocess, so that no wrapper enters this test process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    code = "from spans import Tracer; Tracer().instrument()"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert "KeyError" not in proc.stderr and "AttributeError" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
