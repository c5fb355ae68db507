"""Span recorder that times privq's layers from outside.

Each instrumented name is replaced, where its caller looks it up, by a
wrapper that records one span: the label of the query it ran for, the
layer name, start, duration and self time (duration minus the time of the
spans nested in it). Spans stay in memory and are written when the run
ends. Nothing under src/ changes; with no label set the wrappers only pass
calls through, and untraced runs install none of them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

ROLES = {"QuerierNode": "querier", "CnNode": "cn", "DpNode": "dp", "VnNode": "vn"}


class Tracer:
    def __init__(self):
        self.label = None  # query label while recording, None when paused
        self.stack = []  # [start, time of finished children] per open span
        self.spans = []  # (label, name, start, duration, self time, depth, info)
        self.counts = defaultdict(int)  # (label, counter name) -> count
        self._pairs_seen = set()

    def timed(self, name, fn, info=None):
        """`fn` wrapped in a span; `info(args, result)` adds one number or tag."""
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = tracer.label
            if label is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            frame = [clock(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((label, name, frame[0], duration,
                                     duration - frame[1], len(stack),
                                     info(args, result) if info else None))

        return wrapper

    def patch(self, owner, attr, name, info=None):
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(self.timed(name, original.__func__, info)))
        else:
            setattr(owner, attr, self.timed(name, original, info))

    def count(self, name, n=1):
        if self.label is not None:
            self.counts[(self.label, name)] += n

    def _pair_repeat(self, args, result):
        key = (args[1].encode(), args[2].encode())
        if key in self._pairs_seen:
            return 1
        self._pairs_seen.add(key)
        return 0

    def instrument(self):
        """Wrap every layer function a query or a set-up goes through."""
        from privq import elgamal, ledger, protocols
        from privq.group.dlog import DlogTable
        from privq.group.ed25519 import Ed25519Group
        from privq.group.pairing import PairingGroup
        from privq.harness import nodes, pipeline
        from privq.proofs import rangeproof

        patch = self.patch
        for group_cls in (Ed25519Group, PairingGroup):
            patch(group_cls, "mul", "group.mul")
            patch(group_cls, "msm", "group.msm", lambda a, r: len(a[1]))
            patch(group_cls, "decode_point", "group.decode_point")
        patch(PairingGroup, "pair", "group.pair", self._pair_repeat)
        patch(DlogTable, "decode", "group.dlog_decode")
        patch(elgamal, "encrypt", "elgamal.encrypt")
        patch(elgamal, "encrypt_with_nonce", "elgamal.encrypt")
        patch(elgamal, "decrypt", "elgamal.decrypt")
        patch(elgamal, "decrypt_point", "elgamal.decrypt")
        patch(nodes, "encode_with_nonces", "encodings.encode")
        patch(nodes, "train_logreg", "encodings.train_logreg")
        for fn in ("ctks_share", "cto_share", "verify_aggregation"):
            patch(protocols, fn, f"protocols.{fn}")
        patch(protocols, "prove_linear", "proofs.linear.prove")
        patch(protocols, "verify_linear", "proofs.linear.verify")
        patch(nodes, "verify_linear", "proofs.linear.verify")
        patch(protocols, "shuffle_and_prove", "proofs.shuffle.prove")
        patch(nodes, "shuffle_and_prove", "proofs.shuffle.prove")
        patch(nodes, "verify_shuffle", "proofs.shuffle.verify")
        # prove_range calls prove_range_unchecked through the module, so
        # one wrapper counts honest and forged proofs once each
        patch(rangeproof, "prove_range_unchecked", "proofs.range.prove")
        patch(rangeproof, "verify_range", "proofs.range.verify")
        for owner in (nodes, ledger):
            patch(owner, "sign", "proofs.signature.sign")
            patch(owner, "verify_signature", "proofs.signature.verify")
        patch(ledger.ProofBundle, "decode", "ledger.bundle_decode",
              lambda a, r: len(r.payloads) if r is not None else 0)
        patch(pipeline, "DlogTable", "setup.dlog_table")
        patch(pipeline, "range_setup", "setup.range_setup")

        verify = ledger.probabilistic_verify

        def probabilistic_verify(bundle, policy, rng, verify_sub):
            def checked(index):
                self.count("ledger.checked")
                return verify_sub(index)
            return verify(bundle, policy, rng, checked)

        ledger.probabilistic_verify = probabilistic_verify

    def watch_nodes(self, sim):
        """One span per delivered message, named after the node's role."""
        for node in sim.bus.nodes.values():
            role = ROLES[type(node).__name__]
            node.handle = self.timed(f"nodes.{role}", node.handle,
                                     lambda a, r: a[0].round)

    # ----- reading the spans back -----

    def setup_parts(self, label):
        """Seconds of the named set-up spans recorded under `label`."""
        parts = defaultdict(float)
        for lab, name, _, duration, _, _, _ in self.spans:
            if lab == label and name.startswith("setup."):
                parts[name] += duration
        return parts

    def per_query(self, labels, wall_s):
        """Per-layer metrics averaged over the queries in `labels`;
        `wall_s` is their summed Simulation.run time."""
        labels = set(labels)
        n = len(labels)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        info = defaultdict(float)
        rounds = defaultdict(lambda: [0, 0.0, 0.0])
        for label, name, _, duration, own, _, extra in self.spans:
            if label not in labels:
                continue
            calls[name] += 1
            self_s[name] += own
            total_s[name] += duration
            if name.startswith("nodes."):
                row = rounds[(name[6:], extra)]
                row[0] += 1
                row[1] += duration
                row[2] += own
            elif extra is not None:
                info[name] += extra
        metrics = {}
        for name in calls:
            if name.startswith("nodes."):
                metrics[f"{name}.s"] = total_s[name] / n
            else:
                metrics[f"{name}.calls"] = calls[name] / n
                metrics[f"{name}.self_s"] = self_s[name] / n
        if calls["group.msm"]:
            metrics["group.msm.terms_per_call"] = info["group.msm"] / calls["group.msm"]
        if calls["group.pair"]:
            metrics["group.pair.repeat_ratio"] = info["group.pair"] / calls["group.pair"]
        received = info["ledger.bundle_decode"]
        checked = sum(v for (lab, name), v in self.counts.items()
                      if lab in labels and name == "ledger.checked")
        if received:
            metrics["ledger.verify.checked_ratio"] = checked / received
        handled = sum(v for k, v in total_s.items() if k.startswith("nodes."))
        metrics["trace.coverage"] = handled / wall_s
        table = {f"{role}/{round_}": {"calls": c / n, "s": t / n, "self_s": s / n}
                 for (role, round_), (c, t, s) in sorted(rounds.items())}
        return metrics, table

    def write_spans(self, path):
        with open(path, "w") as fh:
            for label, name, start, duration, own, depth, extra in self.spans:
                fh.write(json.dumps({"query": label, "name": name, "start": start,
                                     "s": duration, "self_s": own, "depth": depth,
                                     "info": extra}) + "\n")


def summary_text(workload, metrics, table, overhead):
    lines = [f"{workload}: self time per query by role and round",
             f"{'role/round':32} {'calls':>8} {'s':>10} {'self_s':>10}"]
    for key, row in table.items():
        lines.append(f"{key:32} {row['calls']:8.2f} {row['s']:10.4f} {row['self_s']:10.4f}")
    lines.append("")
    lines.append(f"{'layer metric':40} {'per query':>14}")
    for name in sorted(metrics):
        lines.append(f"{name:40} {metrics[name]:14.6g}")
    lines.append("")
    if overhead is None:
        lines.append("tracing overhead: no untraced result of this workload to compare with")
    else:
        lines.append(f"tracing overhead (traced minus untraced query_p50_s): {overhead:.4f} s")
    return "\n".join(lines) + "\n"
