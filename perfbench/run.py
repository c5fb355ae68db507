#!/usr/bin/env python3
"""privq benchmark: one querier in a closed loop over one Simulation.

    python3 perfbench/run.py                  # every workload, untraced then traced
    python3 perfbench/run.py --workload stats-ed25519 --seed 3 --seconds 10 --trace 0

A run is one fresh single-threaded Python process that imports privq from
the checkout's src/. It times the set-up (key generation plus
`Simulation(...)`) three times from cold caches: twice in helper
processes that do nothing else, once for the Simulation it then uses. It
runs one untimed warm-up query, then whole rounds of the workload's
operation cycle, each query sent only after the previous one committed,
until the timed queries add up to --seconds. Every result is checked
against the benchmark's own plaintext computation and every block is
audited, outside the timed phase. The last line of standard output is a
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Result files, spans and trace summaries go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
clock = time.perf_counter

sys.path.insert(0, HERE)
from workloads import (  # noqa: E402
    WORKLOADS, CheckFailed, RangeSum, check_audit, check_height, filtered, threshold_pool,
)


def load_privq():
    """Import privq from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "privq", "__init__.py")):
        sys.exit(f"perfbench: no privq sources under {SRC}")
    sys.path.insert(0, SRC)
    import privq
    if not os.path.abspath(privq.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: privq imported from {privq.__file__}, not {SRC}")


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


# ---------------------------------------------------------------------------
# set-up


def set_up(wl, seed, tracer=None):
    """Key generation plus Simulation construction, timed."""
    from privq.harness import Topology
    from privq.harness.pipeline import Simulation

    if tracer is not None:
        tracer.label = "setup"
    t0 = clock()
    topo = Topology.build(seed=seed, **wl.topology_kwargs())
    t1 = clock()
    sim = Simulation(topo, seed=seed)
    t2 = clock()
    timing = {"setup_s": t2 - t0}
    if tracer is not None:
        tracer.label = None
        parts = tracer.setup_parts("setup")
        tracer.spans.clear()
        dlog = parts["setup.dlog_table"]
        ranges = parts["setup.range_setup"]
        timing.update({"setup.keys_s": t1 - t0, "setup.dlog_table_s": dlog,
                       "setup.range_setup_s": ranges,
                       "setup.nodes_s": t2 - t1 - dlog - ranges})
    return sim, timing


def probe_setup(name, seed, trace):
    """Time one cold set-up in a process of its own."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", name,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the closed loop


class Meter:
    """Wire bytes per query and the moment the querier holds its result.

    Wraps only the Simulation's own bus and querier instance, so it runs
    the same in traced and untraced runs."""

    def __init__(self, sim):
        self.reset()
        send = sim.bus.send
        on_result = sim.querier.on_result

        def counted_send(message):
            size = len(message.frame())
            self.wire_bytes += size
            self.messages += 1
            if message.round == "proof_bundle":
                self.bundle_bytes += size
            send(message)

        def timed_on_result(message):
            on_result(message)
            self.result_at = clock()

        sim.bus.send = counted_send
        sim.querier.on_result = timed_on_result

    def reset(self):
        self.wire_bytes = self.messages = self.bundle_bytes = 0
        self.result_at = None


class Run:
    def __init__(self, wl, seed, sim, tracer=None):
        from privq.errors import PrivqError
        from privq.harness import parse_query

        self.parse_query = parse_query
        self.privq_error = PrivqError
        self.wl = wl
        self.sim = sim
        self.tracer = tracer
        self.rng = random.Random(f"{wl.name}/{seed}")
        self.data = wl.make_data(self.rng)
        self.thresholds = threshold_pool(self.rng)
        sim.topology.dp_data = self.data
        self.meter = Meter(sim)
        if tracer is not None:
            tracer.watch_nodes(sim)
        self.committed = 0
        self.failed = 0
        self.errors = []  # checks that failed
        self.failures = []  # queries that raised
        self.query_ids = set()

    def query(self, op, label, dps=None):
        """Run one query, then check its result and audit its block."""
        wl, meter, tracer = self.wl, self.meter, self.tracer
        threshold = self.thresholds.pop()
        text, kwargs = wl.query(op, threshold, dps)
        start = clock()
        query = self.parse_query(text, scale=wl.scale, max_records=wl.records_per_dp,
                                 **kwargs)
        meter.reset()
        if tracer is not None:
            tracer.label = label
        t0 = clock()
        try:
            outcome = self.sim.run(query)
        except self.privq_error as exc:  # a failed operation is counted, not fatal
            outcome = exc
        end = clock()
        if tracer is not None:
            tracer.label = None
        sample = {"label": label, "op": op, "query_id": query.query_id,
                  "loop_s": end - start, "run_s": end - t0, "ok": False}
        if query.query_id in self.query_ids:
            self.errors.append(f"query id {query.query_id} repeats in this run")
        self.query_ids.add(query.query_id)
        if isinstance(outcome, Exception):
            self.failed += 1
            self.failures.append(f"{label} {op}: {outcome!r}")
            return sample
        self.committed += 1
        sample.update(ok=True, result_s=meter.result_at - t0, wire_bytes=meter.wire_bytes,
                      messages=meter.messages, bundle_bytes=meter.bundle_bytes,
                      block_bytes=len(outcome.block.encode()))
        sample["expected"] = wl.expect(op, filtered(self.data, threshold))
        sample["outcome"] = outcome
        self.verify(lambda: wl.check(op, outcome.result, sample["expected"]))
        t_audit = clock()
        report = self.sim.audit(outcome.query_id)
        sample["audit_s"] = clock() - t_audit
        sample["report"] = report
        self.verify(lambda: check_audit(report))
        return sample

    def verify(self, check):
        try:
            check()
        except CheckFailed as exc:
            self.errors.append(str(exc))

    def malicious_dp(self, seed):
        """One query in which a DP sends an out-of-range value; the audit
        must name exactly that DP's range proof as false."""
        from privq.harness.pipeline import Simulation

        wl = self.wl
        dps = wl.dp_ids()
        bad = self.rng.choice(dps)
        honest = self.rng.choice([dp for dp in dps if dp != bad])
        value = wl.malicious_value(self.rng)
        sim = Simulation(self.sim.topology, seed=seed, malicious={bad: value})
        text, kwargs = wl.query("sum", self.thresholds.pop(), sorted([bad, honest]))
        try:
            outcome = sim.run(self.parse_query(text, scale=wl.scale,
                                               max_records=wl.records_per_dp, **kwargs))
        except self.privq_error as exc:
            self.failed += 1
            self.failures.append(f"malicious-DP query: {exc!r}")
            return None, bad
        report = sim.audit(outcome.query_id)
        self.verify(lambda: check_audit(report, {(bad, "range", 0)}))
        return report, bad


def run_workload(name, seed, seconds, trace, out_dir):
    load_privq()
    wl = WORKLOADS[name]
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.instrument()
    setups = [probe_setup(name, seed, trace) for _ in range(SETUP_REPEATS - 1)]
    sim, own = set_up(wl, seed, tracer)
    setups.append(own)
    run = Run(wl, seed, sim, tracer)

    attempted = 1
    run.query(wl.ops[0], "warmup")
    phase_s = 0.0
    cycles = []
    while phase_s < seconds:
        cycle = []
        for op in wl.ops:
            cycle.append(run.query(op, f"q{attempted - 1}"))
            attempted += 1
        phase_s += sum(s["loop_s"] for s in cycle)
        cycles.append(cycle)
    height = len(sim.chain())
    run.verify(lambda: check_height(height, run.committed))
    if isinstance(wl, RangeSum):
        attempted += 1
        run.malicious_dp(seed)

    timed = [s for cycle in cycles for s in cycle if s["ok"]]
    per_cycle = [[s for s in cycle if s["ok"]] for cycle in cycles]
    per_cycle = [c for c in per_cycle if c]

    def cycle_median(key):
        """Median over cycles of the cycle's mean, so that a cycle of
        unequal operations cannot put the median between two of them."""
        return statistics.median(statistics.fmean(s[key] for s in c) for c in per_cycle)

    n = max(len(timed), 1)
    e2e = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "queries_per_s": len(timed) / phase_s,
        "query_p50_s": cycle_median("run_s") if per_cycle else 0.0,
        "result_p50_s": cycle_median("result_s") if per_cycle else 0.0,
        "wire_bytes_per_query": sum(s["wire_bytes"] for s in timed) / n,
        "block_bytes_per_query": sum(s["block_bytes"] for s in timed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    end_to_end, per_layer = metric_specs()
    base = os.path.join(out_dir, f"{name}.seed{seed}")
    os.makedirs(out_dir, exist_ok=True)
    if trace:
        layer, table = tracer.per_query([s["label"] for s in timed],
                                        sum(s["run_s"] for s in timed))
        for key in setups[0]:
            if key.startswith("setup."):
                layer[key] = statistics.median(s[key] for s in setups)
        layer["bus.messages"] = sum(s["messages"] for s in timed) / n
        layer["bus.proof_bundle_bytes"] = sum(s["bundle_bytes"] for s in timed) / n
        layer["ledger.audit.p50_s"] = statistics.median(s["audit_s"] for s in timed)
        values, specs = layer, per_layer
        overhead = trace_overhead(out_dir, name, seed, e2e["query_p50_s"])
        from spans import summary_text

        with open(base + ".summary.txt", "w") as fh:
            fh.write(summary_text(name, layer, table, overhead))
        tracer.write_spans(base + ".spans.jsonl")
        extra = {"roles_and_rounds": table, "trace_overhead_s": overhead}
    else:
        values, specs, extra = e2e, end_to_end, {}
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in specs}
    result = {"correct": not run.errors, "attempted": attempted,
              "failed": run.failed, "metrics": metrics}
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace,
                  end_to_end=e2e, timed_queries=len(timed), timed_phase_s=phase_s,
                  errors=run.errors, failures=run.failures, environment=environment(),
                  setups=setups, **extra,
                  samples=[{k: v for k, v in s.items()
                            if k not in ("expected", "outcome", "report")}
                           for cycle in cycles for s in cycle])
    with open(f"{base}.trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    for message in run.errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    return result


def trace_overhead(out_dir, name, seed, traced_p50):
    """Traced minus untraced query_p50_s, against the untraced result of
    the same seed, else the newest untraced result of the workload."""
    same = os.path.join(out_dir, f"{name}.seed{seed}.trace0.json")
    paths = [same] if os.path.exists(same) else sorted(
        glob.glob(os.path.join(out_dir, f"{name}.seed*.trace0.json")), key=os.path.getmtime)
    if not paths:
        return None
    with open(paths[-1]) as fh:
        untraced = json.load(fh)["metrics"]["query_p50_s"]["value"]
    return traced_p50 - untraced


def environment():
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for fname in files:
            if fname.endswith(".py"):
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {"commit": commit or None, "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "src_lines": src_lines}


# ---------------------------------------------------------------------------
# every workload in one command


def run_all(seed, seconds, out_dir):
    """Each workload untraced, then traced, each run in a fresh process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--out", out_dir],
                capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                sys.exit(f"perfbench: {name} trace={trace} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, value in result["metrics"].items():
                metrics[f"{name}/{metric}"] = value
            if trace == 0:
                rows.append((name, result))
    for name, result in rows:
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, value in result["metrics"].items():
            print(f"  {name}/{metric} = {value['value']:.6g} {value['unit']}")
        coverage = metrics[f"{name}/trace.coverage"]["value"]
        with open(os.path.join(out_dir, f"{name}.seed{seed}.trace1.json")) as fh:
            overhead = json.load(fh)["trace_overhead_s"]
        print(f"  trace.coverage = {coverage:.4f}, tracing overhead = {overhead:.4f} s")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=OUT)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        load_privq()
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.instrument()
        print(json.dumps(set_up(WORKLOADS[args.workload], args.seed, tracer)[1]))
        return
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.out)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
