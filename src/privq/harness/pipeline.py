"""Full query execution: broadcast, DP encoding (+ range proofs), tree
aggregation, optional obfuscation and collective noise, key switching to
the querier's key, decryption/decoding, with proof bundles streaming to
the verifying nodes concurrently and a block committed per query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import protocols
from ..encodings import iterative_extreme
from ..errors import CnUnavailable, DecodeFailure, PairingUnavailable
from ..group import DlogTable
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
                 eager_noise: bool = False, record_trace: bool = False,
                 max_message: int | None = None):
        self.topology = topology
        seed = seed if seed is not None else topology.seed
        self.seed = seed
        sched_rng = Drbg(f"{seed}/scheduler") if seed is not None else default_rng(None)
        self.bus = Bus(scheduler, rng=sched_rng, record_trace=record_trace)
        group = topology.group
        topology.generate_keys()
        self.max_message = max_message or topology.max_message
        self.table = _shared_table(group, self.max_message)
        self.range_sigs = None
        if group.has_pairing:
            setup_rng = topology.node_rng("range-setup")
            self.range_sigs, self._range_secrets = range_setup(
                group, 16, len(topology.cn_ids), setup_rng)
        topology.range_sigs = self.range_sigs
        policy = topology.policy()
        self.policy = policy

        tree = protocols.build_tree(topology.cn_ids, topology.tree_shape)
        noise = None
        if eager_noise:
            noise = protocols.cdp_generate(
                group, *topology.noise_params(), tree,
                topology.collective_key().public,
                topology.node_rng("cdp-eager"), scale=topology.scale,
            )

        self.querier = QuerierNode(topology.querier_id, topology,
                                   topology.node_rng(topology.querier_id), self.table)
        decline = decline or set()
        malicious = malicious or {}
        self.cns = {}
        for cn in topology.cn_ids:
            self.cns[cn] = CnNode(cn, topology, topology.node_rng(cn),
                                  noise=noise if cn == tree.root else None)
        self.dps = {}
        for dp in topology.dp_ids:
            self.dps[dp] = DpNode(dp, topology, topology.node_rng(dp),
                                  range_sigs=self.range_sigs,
                                  decline=dp in decline,
                                  malicious_value=malicious.get(dp))
        self.vns = {}
        for vn in topology.vn_ids:
            self.vns[vn] = VnNode(vn, topology, topology.node_rng(f"{vn}/vn"), policy,
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
        t0 = time.perf_counter()
        delivered = self.bus.delivered
        state = self.querier.start(query)
        self.bus.pump(done=lambda: state.error is not None
                      or (state.result is not None and state.block is not None))
        # drain remaining traffic (block commits to the other VNs) so every
        # node's ledger copy is consistent before the next query
        self.bus.pump()
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
                "proof_bundles": sum(1 for vn in self.vns.values() for bundle in vn.kv.values()
                                     if bundle.query_id == query.query_id),
            },
        )

    def chain(self) -> Chain:
        """The first VN's local chain copy (all honest VNs agree)."""
        return self.vns[self.topology.vn_ids[0]].chain

    def audit(self, query_id: str):
        vn_pubs = {vn: self.topology.keys[vn].public for vn in self.topology.vn_ids}
        return ledger_audit(query_id, self.chain(), vn_pubs,
                            self.policy.f_h, self.topology.group)


def run_query(query_or_text, topology, scheduler: str = "serial", seed=None,
              simulation: Simulation | None = None, **query_kw) -> QueryOutcome:
    """One-shot query execution over a fresh (or supplied) simulation."""
    sim = simulation or Simulation(topology, scheduler=scheduler, seed=seed)
    if isinstance(query_or_text, str):
        query = parse_query(query_or_text, scale=topology.scale,
                            max_records=topology.max_records, **query_kw)
    else:
        query = query_or_text
    if query.bounds is not None and query.operation.uses_obfuscation \
            and not topology.group.has_pairing:
        raise PairingUnavailable("bit-mode range proofs need a pairing profile")
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
