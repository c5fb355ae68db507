"""perfbench's tracer wraps privq names where their callers look them up
(perfbench/spans.py). If one of them moves, `run.py --trace 1` breaks, or
a layer silently drops out of the trace, while the other tests stay green;
this test fails instead."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# instrument, then run two small queries that between them pass every
# verifying layer, and print the names of the spans recorded
TRACED_QUERIES = """
import json
from spans import Tracer
tracer = Tracer()
tracer.instrument()
from privq.harness.pipeline import Simulation
from privq.harness.queryparse import parse_query
from privq.harness.topology import Topology
tracer.label = "guard"
for profile, text, dp_privacy in (("ed25519", "SELECT sum x ON DP1,DP2", True),
                                  ("pairing80", "SELECT sum x ON DP1,DP2 RANGE 0,2", False)):
    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, profile=profile, seed=1)
    topo.dp_data = {"DP1": [{"x": 1}], "DP2": [{"x": 0}]}
    topo.cdp_params = {"list_size": 10}
    Simulation(topo, seed=1).run(parse_query(text, dp_privacy=dp_privacy))
print(json.dumps(sorted({span[1] for span in tracer.spans})))
"""

VERIFYING_LAYERS = ("group.decode_point", "group.msm", "proofs.linear.verify",
                    "proofs.shuffle.verify", "proofs.range.verify",
                    "proofs.signature.verify", "ledger.bundle_decode")
# the provers, so that a renamed one cannot drop out of the per-layer metrics
PROVING_LAYERS = ("protocols.ctks_share", "proofs.linear.prove", "proofs.shuffle.prove",
                  "proofs.range.prove")


def test_tracer_finds_every_patch_point():
    # a subprocess, so that no wrapper enters this test process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", TRACED_QUERIES], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert "KeyError" not in proc.stderr and "AttributeError" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert not set(VERIFYING_LAYERS) - names, sorted(names)
    assert not set(PROVING_LAYERS) - names, sorted(names)


def test_benchmark_selfcheck_passes():
    """perfbench/selfcheck.py runs every workload once at its minimal size
    and applies its correctness checks, so a change that breaks a
    workload's result fails here and not first in a benchmark run."""
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selfcheck.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
