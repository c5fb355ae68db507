"""Forged-bundle verdict sweep: block hashes and framing counts.

Runs the four rows of `test_first_round_bundle_does_not_frame_honest_cns`
(CN2 sends a forged CTKS or CTO bundle right after the query and withholds
its honest one) on that test's topology, under the concurrent scheduler,
seeds 0..39, at `t_sub` 0.3 and 1. It does so twice: with every node's
draws fixed (topology seed 5, as in the test), and with them varied with
the delivery order (run i takes topology seed 100 + i). For each draw
setting, `t_sub` and row it prints one SHA-256 over the committed blocks'
bytes, in seed order, and counts the runs in which an honest node is FALSE
on some VN, those in which the forger's proof is FALSE on no VN, and those
that raised.

Two source trees give equal hashes exactly when their VNs record the same
verdicts on every run, so the sweep checks that a change to the verifier
keeps the verdicts:

    python tests/verdict_sweep.py src
    python tests/verdict_sweep.py /path/to/other/checkout/src

Not collected by pytest.
"""

import argparse
import hashlib
import os
import sys

SEEDS = 40


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the src directory whose privq to run")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    import test_harness
    from privq.harness.pipeline import Simulation
    from privq.harness.queryparse import parse_query

    rows = next(mark for mark in test_harness.test_first_round_bundle_does_not_frame_honest_cns
                .pytestmark if mark.name == "parametrize")
    for draws, topo_seed in (("fixed", lambda seed: 5), ("varied", lambda seed: 100 + seed)):
        for t_sub in (0.3, 1.0):
            for (text, options, forged), row_id in zip(rows.args[1], rows.kwargs["ids"]):
                digest, framed, missed, raised = hashlib.sha256(), 0, 0, 0
                for seed in range(SEEDS):
                    sim = Simulation(test_harness._one_record_topo(topo_seed(seed), t_sub),
                                     seed=seed, scheduler="concurrent")
                    test_harness._send_forged_round_bundle(sim, forged)
                    try:
                        out = sim.run(parse_query(text, scale=1, **options))
                    except Exception as exc:  # noqa: BLE001 - counted and named in the hash
                        raised += 1
                        digest.update(f"raised {type(exc).__name__}".encode())
                        continue
                    digest.update(out.block.encode())
                    falses = [(p, t) for _, p, t, _, _ in
                              sim.audit(out.query_id).false_entries]
                    framed += any(p != "CN2" for p, _ in falses)
                    missed += ("CN2", forged) not in falses
                print(f"draws={draws:6} t_sub={t_sub} {row_id:22} {digest.hexdigest()[:16]} "
                      f"honest_false={framed}/{SEEDS} forger_clean={missed} raised={raised}")


if __name__ == "__main__":
    main()
