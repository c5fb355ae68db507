"""Full query execution: broadcast, DP encoding (+ range proofs), tree
aggregation, optional obfuscation and collective noise, key switching to
the querier's key, decryption/decoding, with proof bundles streaming to
the verifying nodes concurrently and a block committed per query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..encodings import iterative_extreme
from ..errors import CnUnavailable, DecodeFailure
from ..group import DlogTable, require_pairing
from ..ledger import Chain, audit as ledger_audit
from ..proofs.rangeproof import range_setup
from ..rng import Drbg, default_rng
from .bus import Bus
from .nodes import CnNode, DpNode, MultiRoleNode, QuerierNode, VnNode
from .queryparse import parse_query


@dataclass
class QueryOutcome:
    result: object  # DecodedResult
    query_id: str
    block: object
    raw_values: tuple | None = None
    metrics: dict = field(default_factory=dict)


_TABLE_CACHE: dict = {}


def _shared_table(group, max_message: int) -> DlogTable:
    """Decode tables are immutable; share them across simulations."""
    key = (group.name, max_message)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = DlogTable(group, max_message)
    return _TABLE_CACHE[key]


class Simulation:
    """A running node set over an in-process bus; reusable across queries."""

    def __init__(self, topology, scheduler: str = "serial", seed=None,
                 decline: set | None = None, malicious: dict | None = None,
                 record_trace: bool = False):
        self.topology = topology
        seed = seed if seed is not None else topology.seed
        self.seed = seed
        sched_rng = Drbg(f"{seed}/scheduler") if seed is not None else default_rng(None)
        self.bus = Bus(scheduler, rng=sched_rng, record_trace=record_trace)
        group = topology.group
        topology.generate_keys()
        self.table = _shared_table(group, topology.max_message)
        self.range_sigs = None
        if group.has_pairing:
            setup_rng = topology.node_rng("range-setup")
            self.range_sigs, self._range_secrets = range_setup(
                group, 16, len(topology.cn_ids), setup_rng)
        policy = topology.policy()
        self.policy = policy

        # one chain per node set: VN1's is file-backed, the others copy it
        vn_pubs = {vn: topology.keys[vn].public for vn in topology.vn_ids}
        chain = Chain(group, vn_pubs, policy.f_h, topology.chain_path)
        self.querier = QuerierNode(topology.querier_id, topology,
                                   topology.node_rng(topology.querier_id), self.table,
                                   chain.copy())
        decline = decline or set()
        malicious = malicious or {}
        self.cns = {cn: CnNode(cn, topology, topology.node_rng(cn))
                    for cn in topology.cn_ids}
        self.dps = {}
        for dp in topology.dp_ids:
            self.dps[dp] = DpNode(dp, topology, topology.node_rng(dp),
                                  range_sigs=self.range_sigs,
                                  decline=dp in decline,
                                  malicious_value=malicious.get(dp))
        self.vns = {}
        for vn in topology.vn_ids:
            self.vns[vn] = VnNode(vn, topology, topology.node_rng(f"{vn}/vn"), policy,
                                  chain if vn == topology.vn_ids[0] else chain.copy(),
                                  range_sigs=self.range_sigs)
        # one bus node per identity; colocated roles share a MultiRoleNode
        by_identity = {}
        for node in (self.querier, *self.cns.values(), *self.dps.values(),
                     *self.vns.values()):
            by_identity.setdefault(node.identity, []).append(node)
        for identity, parts in by_identity.items():
            self.bus.register(parts[0] if len(parts) == 1 else MultiRoleNode(parts))

    def kill(self, identity: str):
        self.bus.kill(identity)

    def run(self, query) -> QueryOutcome:
        """Run one query to its committed block. A bits-mode query with a
        RANGE needs a pairing profile, and a DP-privacy one noise parameters
        that `protocols.quantize_laplace` takes; else it raises
        PairingUnavailable or InvalidPrivacyParams before a message is sent."""
        if query.bounds is not None and query.operation.uses_obfuscation:
            require_pairing(self.topology.group)
        if query.dp_privacy:
            self.topology.initial_noise(query.operation.value_scale)
        t0 = time.perf_counter()
        delivered = self.bus.delivered
        state = self.querier.start(query)
        try:
            self.bus.pump(done=lambda: state.error is not None
                          or (state.result is not None and state.block is not None))
            # drain remaining traffic (block commits to the other VNs) so every
            # node's ledger copy is consistent before the next query
            self.bus.pump()
        finally:
            self.querier.close(query.query_id)
        if state.error is not None:
            raise state.error
        if state.result is None:
            raise CnUnavailable("query did not complete (node failure?)")
        if state.block is None:
            raise DecodeFailure("result decoded but no block committed")
        return QueryOutcome(
            result=state.result,
            query_id=query.query_id,
            block=state.block,
            raw_values=state.raw_values,
            metrics={
                "wall_time": time.perf_counter() - t0,
                "messages": self.bus.delivered - delivered,
                "proof_bundles": sum(len(vn.kv.get(query.query_id, ()))
                                     for vn in self.vns.values()),
            },
        )

    def chain(self) -> Chain:
        """VN1's chain, backed by `topology.chain_path` if set."""
        return self.vns[self.topology.vn_ids[0]].chain

    def audit(self, query_id: str):
        return ledger_audit(query_id, self.chain())


def run_query(query_or_text, topology, scheduler: str = "serial", seed=None,
              simulation: Simulation | None = None, **query_kw) -> QueryOutcome:
    """One-shot query execution over a fresh (or supplied) simulation."""
    sim = simulation or Simulation(topology, scheduler=scheduler, seed=seed)
    if isinstance(query_or_text, str):
        query = parse_query(query_or_text, scale=topology.scale,
                            max_records=topology.max_records, **query_kw)
    else:
        query = query_or_text
    return sim.run(query)


def run_iterative_extreme(kind: str, attribute: str, bounds, entropy_limit: int,
                          topology, simulation: Simulation | None = None,
                          seed=None) -> tuple[int, dict]:
    """Protocol-level binary search: OR subrange queries through the full
    pipeline, then one extreme query on the remaining interval."""
    sim = simulation or Simulation(topology, seed=seed)
    dp_csv = ",".join(topology.dp_ids)
    counter = [0]

    def issue(query_kind, lo, hi):
        counter[0] += 1
        qid = f"iter-{counter[0]}-{query_kind}"
        if query_kind == "exists":
            query = parse_query(f"SELECT or {attribute} ON {dp_csv}",
                                scale=topology.scale, query_id=qid)
            query.params["exists_range"] = [lo, hi]
            return sim.run(query).result.values[0] != 0.0
        query = parse_query(
            f"SELECT {query_kind} {attribute} ON {dp_csv} RANGE {lo},{hi}",
            scale=topology.scale, query_id=qid)
        return int(sim.run(query).result.values[0])

    return iterative_extreme(kind, bounds, entropy_limit, issue)
