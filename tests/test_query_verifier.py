"""`ledger.QueryVerifier` driven directly, with no Simulation: the proof
bundles of honest 3 CN / 4 DP / 3 VN runs, recorded off the bus, are added
to a fresh verifier in any order, with VN1's draws, and must give VN1's
map in the committed block byte for byte."""

from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from privq import ledger, protocols
from privq.harness.pipeline import Simulation
from privq.harness.queryparse import parse_query
from test_harness import _one_record_topo

QUERIES = {
    "variance": ("SELECT variance x ON DP1,DP2,DP3,DP4", {}),
    "dp_sum": ("SELECT sum x ON DP1,DP2,DP3,DP4", {"dp_privacy": True}),
    "bits_or": ("SELECT or flag ON DP1,DP2,DP3,DP4", {"bitwise_mode": "bits"}),
}
T_SUBS = (0.3, 1.0)

Record = namedtuple("Record", "sim query bundles vn1_map")


@pytest.fixture(scope="module")
def records():
    """For each query and t_sub, one honest run at topology seed 5: its
    simulation, query, the bundles VN1 received in arrival order, and the
    map VN1 committed."""
    out = {}
    for t_sub in T_SUBS:
        for name, (text, options) in QUERIES.items():
            sim = Simulation(_one_record_topo(5, t_sub), seed=5, record_trace=True)
            query = parse_query(text, scale=1, **options)
            block = sim.run(query).block
            bundles = [ledger.ProofBundle.decode(m.payload) for m in sim.bus.trace
                       if m.round == "proof_bundle" and m.recipient == "VN1"]
            out[name, t_sub] = Record(sim, query, bundles, block.maps["VN1"])
    return out


def _verifier(record):
    """A verifier as VN1 builds it for the query, with VN1's draws from the
    start of the run."""
    sim, query = record.sim, record.query
    topo = sim.topology
    plan = protocols.QueryPlan(query, protocols.build_tree(topo.cn_ids, topo.tree_shape),
                               topo.dp_assignment, sim.range_sigs is not None)
    noise = topo.initial_noise(query.operation.value_scale) if query.dp_privacy else ()
    return ledger.QueryVerifier(
        plan, topo.group, {cn: topo.keys[cn].public for cn in topo.cn_ids},
        topo.keys[topo.querier_id].public, topo.collective_key().public, sim.policy,
        topo.node_rng("VN1/vn"), sim.range_sigs, noise)


def _judge(record, bundles):
    verifier = _verifier(record)
    for bundle in bundles:
        verifier.add(bundle)
    verifier.settle(force=True)
    return verifier


@settings(derandomize=True, max_examples=6, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("t_sub", T_SUBS)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_map_does_not_depend_on_the_order_of_add(records, name, t_sub, data):
    """With the draws fixed, every order of `add` gives the map VN1 put in
    the block, byte for byte."""
    record = records[name, t_sub]
    order = data.draw(st.permutations(record.bundles))
    assert _judge(record, order).map.encode() == record.vn1_map.encode()


def test_recorded_runs_cover_every_round(records):
    """The recorded bundles fill every expected key, and at t_sub = 1 every
    one of them holds, so the order test compares complete maps."""
    for (name, t_sub), record in records.items():
        verifier = _judge(record, record.bundles)
        assert len(record.bundles) == len(verifier.map.entries), name
        if t_sub == 1.0:
            assert {e.status for e in verifier.map.entries.values()} == {ledger.STATUS_TRUE}


def test_flipped_keyswitch_proof_byte_is_false_only_for_its_cn(records):
    """CN2's CTKS payload with one byte of its proof flipped: only CN2's
    keyswitch entry is FALSE, and every other entry stays TRUE."""
    record = records["variance", 1.0]
    bundles = []
    for bundle in record.bundles:
        if (bundle.prover_id, bundle.proof_type) == ("CN2", "keyswitch"):
            [payload] = bundle.payloads
            flipped = payload[:-40] + bytes([payload[-40] ^ 1]) + payload[-39:]
            bundle = ledger.ProofBundle(bundle.query_id, "CN2", "keyswitch", 0, (flipped,))
        bundles.append(bundle)
    entries = _judge(record, bundles).map.entries
    key = ledger.proof_key(record.query.query_id, "CN2", "keyswitch", 0)
    assert entries[key].status == ledger.STATUS_FALSE
    assert all(e.status == ledger.STATUS_TRUE for k, e in entries.items() if k != key)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_bundle_added_after_forced_settle_changes_no_verdict(records, name):
    """The root CN's aggregation bundle arrives after `settle(force=True)`:
    it stays NOT_RECEIVED, and no verdict or output changes."""
    record = records[name, 1.0]
    late = next(b for b in record.bundles
                if (b.prover_id, b.proof_type) == ("CN1", "aggregation"))
    verifier = _judge(record, [b for b in record.bundles if b is not late])
    before, outputs = verifier.map.encode(), list(verifier.outputs)
    assert verifier.map.entries[late.key].status == ledger.STATUS_NOT_RECEIVED
    verifier.add(late)
    verifier.settle(force=True)
    assert verifier.map.encode() == before and verifier.outputs == outputs
