#!/usr/bin/env python3
"""Quick self-check of the benchmark, in well under a minute:

    python3 perfbench/selfcheck.py

Runs one cycle of every workload at its minimal size (workloads.MINIMAL),
applies every correctness check to the real outputs, then applies each
check again with one expected value made wrong, which it must reject.
Exits non-zero on the first check that misbehaves.
"""

from __future__ import annotations

import sys
import time

from run import Run, load_privq, set_up
from workloads import (
    WORKLOADS, CheckFailed, RangeSum, check_audit, check_height, minimal,
)

SEED = 1

# one wrong version of every expected value a workload produces
WRONG = {
    "count": lambda v: v + 1,
    "values": lambda v: [v[0] + 1.0] + v[1:],
    "sums": lambda v: [v[0] + 1.0] + v[1:],
    "plain_accuracy": lambda v: v + 0.05,
    "raw_sum": lambda v: v + 1,
    "noise": lambda v: set(),
}
CONTEXT = {"rows"}  # inputs of a check, not expected values


def must_reject(what, check):
    try:
        check()
    except CheckFailed:
        return
    sys.exit(f"selfcheck: the {what} check accepted a wrong expected value")


def check_workload(name):
    wl = minimal(name)
    sim, _ = set_up(wl, SEED)
    run = Run(wl, SEED, sim)
    samples = [run.query(op, f"q{i}") for i, op in enumerate(wl.ops)]
    run.verify(lambda: check_height(len(sim.chain()), run.committed))
    if run.errors or run.failures:
        sys.exit(f"selfcheck: {name} failed on honest output: {run.errors + run.failures}")
    for sample in samples:
        op, result, expected = sample["op"], sample["outcome"].result, sample["expected"]
        for key in expected.keys() - CONTEXT:
            wrong = dict(expected, **{key: WRONG[key](expected[key])})
            must_reject(f"{name} {op} {key}", lambda: wl.check(op, result, wrong))
        must_reject(f"{name} audit", lambda: check_audit(sample["report"], {("DP1", "range", 0)}))
    must_reject(f"{name} chain height",
                lambda: check_height(len(sim.chain()), run.committed + 1))
    if isinstance(wl, RangeSum):
        report, bad = run.malicious_dp(SEED)
        if run.errors or run.failures:
            sys.exit(f"selfcheck: malicious-DP check failed: {run.errors + run.failures}")
        other = next(dp for dp in wl.dp_ids() if dp != bad)
        must_reject(f"{name} malicious DP", lambda: check_audit(report, {(other, "range", 0)}))
        must_reject(f"{name} malicious DP", lambda: check_audit(report))


def main():
    load_privq()
    for name in WORKLOADS:
        start = time.perf_counter()
        check_workload(name)
        print(f"{name}: every check passes on real output and rejects a wrong "
              f"expected value ({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main()
