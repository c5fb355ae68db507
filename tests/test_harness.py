"""Node runtime and full pipeline: end-to-end queries, failure handling,
collective noise, determinism, scheduler equivalence, role composition,
the confidentiality byte-scan, and the socket transport."""

import json
import statistics

import pytest

from privq import elgamal
from privq.elgamal import pack_cts, unpack_cts
from privq.errors import (
    CnUnavailable, ConfigError, OutOfTableRange, PairingUnavailable, PrivqError)
from privq.harness.pipeline import Simulation, run_iterative_extreme
from privq.harness.queryparse import parse_query
from privq.harness.topology import Topology, load_records
from privq.rng import Drbg
from privq.serial import Reader, pack_bytes

HEART = {
    "DP1": [{"heart_rate": 72, "state": "ok"}, {"heart_rate": 81, "state": "hyper"}],
    "DP2": [{"heart_rate": 65, "state": "ok"}],
    "DP3": [{"heart_rate": 90, "state": "hyper"}],
    "DP4": [{"heart_rate": 77, "state": "ok"}],
}
FLAT = [72, 81, 65, 90, 77]


def _topo(seed, **kw):
    topo = Topology.build(n_cns=3, n_dps=4, n_vns=3, seed=seed, **kw)
    topo.dp_data = dict(HEART)
    return topo


def _assert_no_query_state(sim):
    """Every live node has ended every query: no state, nothing parked."""
    for node in (sim.querier, *sim.cns.values(), *sim.dps.values(), *sim.vns.values()):
        if node.identity not in sim.bus.dead:
            assert (node.states, node._parked) == ({}, {}), node.identity


def test_run_query_one_shot():
    from privq.harness.pipeline import run_query

    topo = _topo(0)
    outcome = run_query("SELECT average heart_rate ON DP1,DP2,DP3,DP4",
                        topo, seed=0)
    assert outcome.result.values[0] == pytest.approx(statistics.fmean(FLAT))
    assert outcome.block is not None


def test_mean_and_variance_end_to_end():
    sim = Simulation(_topo(1), seed=1)
    out = sim.run(parse_query("SELECT average heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out.result.values[0] == pytest.approx(statistics.fmean(FLAT))
    assert out.result.count == 5
    out2 = sim.run(parse_query("SELECT variance heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out2.result.values[0] == pytest.approx(statistics.pvariance(FLAT), abs=0.01)
    assert sim.audit(out.query_id).ok
    assert sim.audit(out2.query_id).ok
    assert len(sim.chain()) == 2


def test_where_filter_local_to_dps():
    sim = Simulation(_topo(2), seed=2)
    out = sim.run(parse_query(
        "SELECT average heart_rate ON DP1,DP2,DP3,DP4 WHERE state = 'hyper'", scale=100))
    assert out.result.count == 2
    assert out.result.values[0] == pytest.approx((81 + 90) / 2)


def test_all_dps_neutral_surfaces_zero_count():
    from privq.errors import ZeroCount

    sim = Simulation(_topo(3), seed=3, decline={"DP1", "DP2", "DP3", "DP4"})
    with pytest.raises(ZeroCount):
        sim.run(parse_query("SELECT average heart_rate ON DP1,DP2,DP3,DP4", scale=100))


def test_dead_dp_reduces_count():
    sim = Simulation(_topo(4), seed=4)
    sim.kill("DP3")
    out = sim.run(parse_query("SELECT average heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out.result.count == 4
    assert out.result.values[0] == pytest.approx((72 + 81 + 65 + 77) / 4)
    _assert_no_query_state(sim)


def test_dead_cn_aborts():
    sim = Simulation(_topo(5), seed=5)
    sim.kill("CN2")
    with pytest.raises(CnUnavailable):
        sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    # the root CN's abort also ends the query on every VN
    _assert_no_query_state(sim)


def test_finished_queries_leave_no_state():
    """Twenty queries on one node set: every node ends each query, so no
    query state or parked message is left, and each VN keeps the bytes of
    every query's bundles."""
    topo = Topology.build(n_cns=3, n_dps=4, n_vns=3, seed=29)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 8}
    topo.dp_data = {"DP1": [{"x": 12, "flag": 1}], "DP2": [{"x": 30, "flag": 0}],
                    "DP3": [{"x": 7, "flag": 1}], "DP4": [{"x": 45, "flag": 0}]}
    sim = Simulation(topo, seed=29)
    kinds = [("sum x", {}, 94.0), ("variance x", {}, statistics.pvariance([12, 30, 7, 45])),
             ("or flag", {"bitwise_mode": "bits"}, 1.0), ("sum x", {"dp_privacy": True}, None)]
    for i in range(20):
        text, options, expected = kinds[i % len(kinds)]
        out = sim.run(parse_query(f"SELECT {text} ON DP1,DP2,DP3,DP4", scale=100,
                                  query_id=f"q{i}", **options))
        if expected is not None:
            assert out.result.values[0] == pytest.approx(expected, abs=0.01), text
        assert sim.audit(out.query_id).ok, text
    _assert_no_query_state(sim)
    for vn in sim.vns.values():
        assert sorted(vn.kv) == sorted(f"q{i}" for i in range(20))
        assert all(isinstance(data, bytes)
                   for bundles in vn.kv.values() for data in bundles.values())


def test_dead_vn_block_commits_with_f_h():
    """One dead VN of 4 (f_h = 3): the leader assembles and seals the block
    from the 3 live VNs once the missing map and signature time out."""
    topo = Topology.build(n_cns=3, n_dps=3, n_vns=4, seed=26)
    topo.dp_data = {"DP1": [{"x": 4}], "DP2": [{"x": 9}], "DP3": [{"x": 11}]}
    sim = Simulation(topo, seed=26)
    sim.kill("VN4")
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3", scale=100))
    assert out.result.values[0] == 24.0
    assert sorted(out.block.signatures) == ["VN1", "VN2", "VN3"]
    assert len(sim.chain()) == 1
    assert sim.audit(out.query_id).ok


def test_junk_block_signature_does_not_break_audit():
    """One Byzantine VN of 4 (f_h = 3) answers the block sign request with
    junk bytes: the leader seals the block with the three valid signatures,
    and the block audits clean."""
    topo = Topology.build(n_cns=3, n_dps=3, n_vns=4, seed=26)
    topo.dp_data = {"DP1": [{"x": 4}], "DP2": [{"x": 9}], "DP3": [{"x": 11}]}
    sim = Simulation(topo, seed=26)
    vn3 = sim.vns["VN3"]
    vn3.on_block_sign_request = lambda msg: vn3.send(
        msg.query_id, "block_signature", msg.sender, b"\x01" * 64)
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3", scale=100))
    assert out.result.values[0] == 24.0
    assert sorted(out.block.signatures) == ["VN1", "VN2", "VN4"]
    assert sim.audit(out.query_id).ok


def test_forged_block_commit_ignored():
    """A VN and the querier each get `block_commit`s whose block skips a
    height, breaks the hash link, or has fewer than f_h valid signatures.
    Neither appends one or closes the query with it; the honest block
    still commits at the next height."""
    from privq import ledger
    from privq.harness.bus import Message
    from privq.proofs.signatures import sign

    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, seed=27)
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 32}]}
    sim = Simulation(topo, seed=27)
    sim.run(parse_query("SELECT sum x ON DP1,DP2", scale=100))
    query = parse_query("SELECT mean x ON DP1,DP2", scale=100)
    state = sim.querier.start(query)
    vn2 = sim.vns["VN2"]
    sim.bus.pump(done=lambda: query.query_id in vn2.states)
    head = sim.chain().head_hash()

    def forged(height, prev_hash, signers, junk=()):
        block = ledger.Block(height, query.query_id, b"forged", {}, prev_hash)
        block.signatures = {vn: sign(topo.group, topo.keys[vn].private, block.body_bytes())
                            for vn in signers}
        block.signatures.update({vn: b"\x01" * 64 for vn in junk})
        return block

    everyone = topo.vn_ids
    for block in (forged(7, head, ()), forged(7, head, everyone),
                  forged(1, b"\x00" * 32, everyone), forged(1, head, everyone[:2]),
                  forged(1, head, everyone[:2], junk=everyone[2:])):
        for node in (vn2, sim.querier):
            node.handle(Message(query.query_id, "block_commit", "VN1", node.identity,
                                block.encode()))
            assert [b.height for b in node.chain.blocks] == [0]
        assert vn2.states[query.query_id].block is None
        assert state.block is None
    sim.bus.pump(done=lambda: state.result is not None and state.block is not None)
    sim.bus.pump()
    assert state.result.values[0] == 21.0
    assert state.block.height == 1
    for node in (*sim.vns.values(), sim.querier):
        assert [b.height for b in node.chain.blocks] == [0, 1]
    assert sim.audit(query.query_id).ok


@pytest.mark.parametrize("forge", [
    lambda cts: b"junk",
    lambda cts: pack_cts(cts + cts[:1]),
    lambda cts: pack_cts(cts[:-1]),
], ids=["junk", "extra_ciphertext", "missing_ciphertext"])
def test_junk_dp_response_dropped(forge):
    """A DP's unparsable response, or one that is not the operation's
    vector plus the count, counts as no response: its CN times it out and
    the query answers over the other DPs. DP1's response is its CN's first
    input."""
    sim = Simulation(_topo(31), seed=31)
    dp1 = sim.dps["DP1"]
    honest_send = dp1.send

    def send(query_id, round_, recipient, payload=b""):
        if round_ == "dp_response":
            payload = forge(unpack_cts(sim.topology.group, Reader(payload)))
        honest_send(query_id, round_, recipient, payload)

    dp1.send = send
    out = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert (out.result.values[0], out.result.count) == (65 + 90 + 77, 3)
    assert sim.audit(out.query_id).ok
    cn = sim.topology.dp_assignment["DP1"]
    assert [entry[:3] for entry in sim.bus.dropped] == [(cn, "dp_response", "DP1")]


@pytest.mark.parametrize("case", ["repeat", "other_cn"])
def test_cn_takes_one_input_per_source(case):
    """A CN accepts one input from each source it still waits for: DP1
    sending its response twice, or DP2 sending it to CN1 as well as to its
    own CN2, counts that DP once, and the surplus copy is dropped."""
    sim = Simulation(_topo(34), seed=34)
    dp = "DP1" if case == "repeat" else "DP2"
    honest_send = sim.dps[dp].send

    def send(query_id, round_, recipient, payload=b""):
        honest_send(query_id, round_, recipient, payload)
        if round_ == "dp_response":
            honest_send(query_id, round_, recipient if case == "repeat" else "CN1", payload)

    sim.dps[dp].send = send
    out = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert (out.result.values[0], out.result.count) == (sum(FLAT), len(FLAT))
    assert sim.audit(out.query_id).ok
    assert [entry[:3] for entry in sim.bus.dropped] == [("CN1", "dp_response", dp)]


def test_aggregation_counting_an_input_twice_is_false(monkeypatch):
    """CN1 sums a second copy of DP4's input: the sums are right, but every
    VN marks CN1's aggregation false, since a label may appear only once."""
    from privq import protocols

    honest_aggregate = protocols.aggregate

    def aggregate(labels, inputs):
        if "DP4" in labels:
            labels, inputs = [*labels, "DP4"], [*inputs, inputs[labels.index("DP4")]]
        return honest_aggregate(labels, inputs)

    monkeypatch.setattr(protocols, "aggregate", aggregate)
    topo = _topo(35)
    sim = Simulation(topo, seed=35)
    out = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out.result.values[0] == sum(FLAT) + 77
    report = sim.audit(out.query_id)
    assert [(p, t, vns) for _, p, t, _, vns in report.false_entries] == [
        ("CN1", "aggregation", list(topo.vn_ids))]


@pytest.mark.parametrize("shape, parent, child", [
    ("binary", "CN1", "CN2"), ("chain", "CN2", "CN3")])
def test_parent_swapping_a_child_partial_is_false(shape, parent, child):
    """A parent CN (the root in a binary tree, the middle link of a chain)
    sums an encryption of 50 in place of its child's partial sum and lists
    it under the child's label. The VNs judge the child's aggregation before
    the parent's, and what the parent lists for the child is not the child's
    stated output: every VN marks the parent's aggregation false, and the
    audit names only it."""
    import dataclasses

    topo = Topology.build(n_cns=3, n_dps=4, n_vns=3, seed=5, tree_shape=shape)
    topo.dp_data = {f"DP{i}": [{"x": i}] for i in range(1, 5)}
    sim = Simulation(topo, seed=5)
    cn = sim.cns[parent]
    honest_take = cn.on_cta_partial

    def on_cta_partial(msg):
        if msg.sender == child:
            cts = unpack_cts(topo.group, Reader(msg.payload))
            cts[0] = elgamal.encrypt(topo.group, 50, topo.collective_key().public, cn.rng)
            msg = dataclasses.replace(msg, payload=pack_cts(cts))
        honest_take(msg)

    cn.on_cta_partial = on_cta_partial
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3,DP4", scale=1))
    swapped = sum(i for i in range(1, 5) if topo.dp_assignment[f"DP{i}"] == child)
    assert out.result.values[0] == 10 - swapped + 50
    report = sim.audit(out.query_id)
    assert [(p, t, vns) for _, p, t, _, vns in report.false_entries] == [
        (parent, "aggregation", list(topo.vn_ids))]


@pytest.mark.parametrize("round_, sender, recipients", [
    ("dp_response", "DP1", ["CN1"]),
    ("cta_partial", "CN2", ["CN1"]),
    ("round_request", "CN1", ["CN2", "CN3"]),
    ("round_share", "CN2", ["CN1"]),
    ("cdp_pass", "CN2", ["CN3"]),
    ("cdp_done", "CN3", ["CN1"]),
    ("result", "CN1", ["Q"]),
    ("cdp_ack", "CN2", ["CN1"]),
])
def test_payload_with_trailing_bytes_dropped(round_, sender, recipients):
    """A payload (a ciphertext list, or the empty `cdp_ack`) is read whole:
    with 4 bytes appended it is dropped and logged, and the query goes on as
    if it never arrived."""
    topo = _topo(36)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 8}
    sim = Simulation(topo, seed=36)
    node = {**sim.cns, **sim.dps}[sender]
    honest_send = node.send

    def send(query_id, r, recipient, payload=b""):
        honest_send(query_id, r, recipient, payload + b"junk" if r == round_ else payload)

    node.send = send
    query = parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100,
                        dp_privacy=True)
    if round_ == "dp_response":
        assert sim.run(query).result.count == len(FLAT) - 2  # without DP1's records
    else:
        with pytest.raises(PrivqError):
            sim.run(query)
    assert [entry[:3] for entry in sim.bus.dropped] == [
        (recipient, round_, sender) for recipient in recipients]


@pytest.mark.parametrize("surplus", ["repeat", "not_awaited"])
@pytest.mark.parametrize("round_, sender, intruder, n_vns", [
    ("round_share", "CN2", "DP1", 3),
    ("map_submit", "VN2", "CN3", 4),
    ("block_signature", "VN2", "CN3", 3),
])
def test_surplus_collected_input_dropped(round_, sender, intruder, n_vns, surplus):
    """Every step that waits on other nodes takes one input from each source
    it awaits: a second copy from an awaited source, or the same payload
    from a node that is not awaited, is dropped as UnexpectedInput, and the
    query gives the plaintext result with a clean audit."""
    topo = Topology.build(n_cns=3, n_dps=4, n_vns=n_vns, seed=40)
    topo.dp_data = dict(HEART)
    sim = Simulation(topo, seed=40)
    node = {**sim.cns, **sim.vns}[sender]
    honest_send = node.send
    copier = sender if surplus == "repeat" else intruder

    def send(query_id, r, recipient, payload=b""):
        honest_send(query_id, r, recipient, payload)
        if r == round_:
            sim.bus.post(query_id, r, copier, recipient, payload)

    node.send = send
    out = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out.result.values[0] == sum(FLAT)
    assert sim.audit(out.query_id).ok
    assert sorted(out.block.maps) == sorted(topo.vn_ids)
    [(recipient, r, who, error)] = sim.bus.dropped
    assert (r, who) == (round_, copier) and recipient != copier
    assert error.startswith("UnexpectedInput(")
    _assert_no_query_state(sim)


@pytest.mark.parametrize("round_, sender, forge", [
    ("round_share", "CN2", "zzz"),  # names no round
    ("round_share", "CN2", "cto"),  # names a round the CN is not running
    ("round_share", "CN2", "narrow"),  # one share short
    ("round_request", "CN1", "zzz"),
    ("round_request", "CN1", "cto"),  # names a round the plan does not run next
])
def test_unusable_round_message_dropped(round_, sender, forge):
    """A key-switch message whose tag names no round, or a round the CN is
    not running (a CTO share during key switching), or a share list one
    short, is dropped and logged; the real message that follows it is
    still taken."""
    sim = Simulation(_topo(41), seed=41)
    node = sim.cns[sender]
    honest_send, forged = node.send, []

    def send(query_id, r, recipient, payload=b""):
        if r == round_:
            reader = Reader(payload)
            tag = reader.text()
            cts = unpack_cts(sim.topology.group, Reader(reader.rest()))
            if forge == "narrow":
                cts = cts[:-1]
            else:
                tag = forge
            honest_send(query_id, r, recipient, pack_bytes(tag.encode()) + pack_cts(cts))
            forged.append(recipient)
        honest_send(query_id, r, recipient, payload)

    node.send = send
    out = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out.result.values[0] == sum(FLAT)
    assert sim.audit(out.query_id).ok
    assert [entry[:3] for entry in sim.bus.dropped] == [
        (recipient, round_, sender) for recipient in forged]


@pytest.mark.parametrize("round_, tag, intruder", [
    ("round_request", "ctks", "DP1"),
    ("round_request", "ctks", "CN3"),
    ("round_request", "cto", "DP1"),
    ("cdp_pass", None, "CN3"),
    ("map_submit", None, "VN2"),
])
def test_stray_round_opener_dropped(round_, tag, intruder):
    """While CN2 aggregates, a DP or a CN other than its parent (CN1) posts
    it a round request, a CN other than its shuffle-chain predecessor (CN1)
    a noise list, or a VN a map, which no CN handles. A CN takes either of
    the first two only from that one node, once, for the round its plan
    runs next: CN2 drops the message and the query answers over every DP
    with a clean audit."""
    topo = _topo(45)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 8}
    sim = Simulation(topo, seed=45)
    cn2 = sim.cns["CN2"]
    honest_on_query = cn2.on_query
    pk = topo.collective_key().public
    stray = [elgamal.encrypt(topo.group, 99, pk, Drbg("stray")) for _ in range(2)]
    payload = pack_cts(stray) if tag is None else pack_bytes(tag.encode()) + pack_cts(stray)

    def on_query(msg):
        honest_on_query(msg)
        sim.bus.post(msg.query_id, round_, intruder, "CN2", payload)

    cn2.on_query = on_query
    out = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100,
                              dp_privacy=True))
    assert out.result.count == len(FLAT)
    assert sim.audit(out.query_id).ok
    assert [entry[:3] for entry in sim.bus.dropped] == [("CN2", round_, intruder)]
    _assert_no_query_state(sim)


@pytest.mark.parametrize("round_, intruder, dead", [
    ("end_query", "DP1", "DP4"),
    ("map_request", "DP1", None),
    ("map_request", "CN2", None),
])
def test_vn_takes_end_query_from_root_and_map_request_from_leader(round_, intruder, dead):
    """A VN settles its rounds for good when the query ends (`end_query`,
    from the root CN) or when its map leaves it (`map_request`, from the
    query's leader VN), so it takes either only from that node. DP1 or CN2
    posts one to every VN as the query reaches it; with DP4 dead, a stray
    `end_query` would have the leader assemble at the first idle, before
    key switching. Every VN drops it, and the query answers over the live
    DPs with a clean audit."""
    topo = Topology.build(n_cns=3, n_dps=4, n_vns=3, seed=7)
    topo.dp_data = {f"DP{i}": [{"x": i}] for i in range(1, 5)}
    sim = Simulation(topo, seed=7)
    if dead:
        sim.kill(dead)
    node = {**sim.cns, **sim.dps}[intruder]
    honest_on_query = node.on_query

    def on_query(msg):
        honest_on_query(msg)
        for vn in topo.vn_ids:
            sim.bus.post(msg.query_id, round_, intruder, vn)

    node.on_query = on_query
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3,DP4", scale=1))
    assert out.result.values[0] == (6.0 if dead else 10.0)
    assert sim.audit(out.query_id).ok
    assert sorted(entry[:3] for entry in sim.bus.dropped) == [
        (vn, round_, intruder) for vn in topo.vn_ids]
    _assert_no_query_state(sim)


def _one_record_topo(seed, t_sub=1.0):
    """3 CNs, 4 DPs holding one record each, and 3 VNs: the setup of the
    forged-bundle and delivery-order tests, and of `tests/verdict_sweep.py`."""
    topo = Topology.build(n_cns=3, n_dps=4, n_vns=3, seed=seed, thresholds={"t_sub": t_sub})
    topo.dp_data = {f"DP{i}": [{"x": i, "flag": i % 2}] for i in range(1, 5)}
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 8}
    return topo


def _send_forged_round_bundle(sim, forged):
    """CN2 sends the VNs a `forged` (CTKS or CTO) bundle over encryptions of
    99 right after the query, and withholds its honest one."""
    from privq import ledger, protocols

    topo, cn2 = sim.topology, sim.cns["CN2"]
    honest_on_query, honest_send = cn2.on_query, cn2.send

    def send(query_id, round_, recipient, payload=b""):
        if round_ != "proof_bundle" or ledger.ProofBundle.decode(payload).proof_type != forged:
            honest_send(query_id, round_, recipient, payload)

    def on_query(msg):
        honest_on_query(msg)
        group, pk = topo.group, topo.collective_key().public
        fake = [elgamal.encrypt(group, 99, pk, cn2.rng) for _ in range(2)]
        _, payloads = protocols.round_shares(group, forged, fake, cn2.rng, topo.keys["CN2"],
                                             topo.keys[topo.querier_id].public)
        bundle = ledger.ProofBundle(msg.query_id, "CN2", forged, 0,
                                    tuple(payloads)).signed(group, topo.keys["CN2"].private)
        for vn in topo.vn_ids:
            honest_send(msg.query_id, "proof_bundle", vn, bundle.encode())

    cn2.send, cn2.on_query = send, on_query


@pytest.mark.parametrize("text, options, forged", [
    ("SELECT sum x ON DP1,DP2,DP3,DP4", {}, "keyswitch"),
    ("SELECT or flag ON DP1,DP2,DP3,DP4", {"bitwise_mode": "bits"}, "obfuscation"),
    ("SELECT or flag ON DP1,DP2,DP3,DP4", {"bitwise_mode": "bits"}, "keyswitch"),
    ("SELECT sum x ON DP1,DP2,DP3,DP4", {"dp_privacy": True}, "keyswitch"),
], ids=["after_aggregation", "cto_after_aggregation", "after_cto", "after_shuffle"])
def test_first_round_bundle_does_not_frame_honest_cns(text, options, forged):
    """CN2 sends the VNs a CTKS or CTO bundle over encryptions of 99 right
    after the query, and withholds its honest one. Each VN checks the
    round's bundles when the round settles, against the previous round's
    output (the root's aggregation, every CN's CTO shares, the last shuffle
    link), whichever round bundle came first: only CN2's proof of that
    round is false, on every VN."""
    topo = _one_record_topo(5)
    sim = Simulation(topo, seed=5)
    _send_forged_round_bundle(sim, forged)
    out = sim.run(parse_query(text, scale=1, **options))
    if not options.get("dp_privacy"):
        assert out.result.values[0] == (10.0 if "sum" in text else 1)
    report = sim.audit(out.query_id)
    assert [(p, t, vns) for _, p, t, _, vns in report.false_entries] == [
        ("CN2", forged, list(topo.vn_ids))]


@pytest.mark.parametrize("forged_first", [True, False], ids=["forged_first", "real_first"])
def test_forged_bundle_copy_dropped(forged_first):
    """DP1 posts every VN a copy of CN2's aggregation bundle whose signature
    is 64 zero bytes, just before or just after CN2 sends the real one. A
    VN takes one bundle per expected proof key, and only one its prover
    signed: the copy is dropped and logged (its signature fails, or its key
    is already taken), and touches neither the VN's map nor its stored
    bundles."""
    import dataclasses

    from privq import ledger

    sim = Simulation(_topo(46), seed=46)
    cn2 = sim.cns["CN2"]
    honest_send, real = cn2.send, {}

    def send(query_id, round_, recipient, payload=b""):
        bundle = ledger.ProofBundle.decode(payload) if round_ == "proof_bundle" else None
        if bundle is None or bundle.proof_type != "aggregation":
            return honest_send(query_id, round_, recipient, payload)
        real[recipient] = payload
        forged = dataclasses.replace(bundle, signature=b"\x00" * 64).encode()
        for sender, data in (("DP1", forged), ("CN2", payload))[::1 if forged_first else -1]:
            sim.bus.post(query_id, round_, sender, recipient, data)

    cn2.send = send
    out = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out.result.values[0] == sum(FLAT)
    assert sim.audit(out.query_id).ok
    assert [entry[:3] for entry in sim.bus.dropped] == [
        (vn, "proof_bundle", "DP1") for vn in sim.topology.vn_ids]
    assert all(entry[3].startswith("UnexpectedInput(") for entry in sim.bus.dropped)
    key = ledger.proof_key(out.query_id, "CN2", "aggregation", 0)
    for vn, node in sim.vns.items():
        assert node.kv[out.query_id][key] == real[vn]


def test_withheld_keyswitch_share_names_stage_and_cn():
    """CN2 never sends its key-switch share: the root aborts at the hard
    timeout, naming the stage and the CN it still awaits."""
    sim = Simulation(_topo(42), seed=42)
    cn2 = sim.cns["CN2"]
    honest_send = cn2.send

    def send(query_id, round_, recipient, payload=b""):
        if round_ != "round_share":
            honest_send(query_id, round_, recipient, payload)

    cn2.send = send
    with pytest.raises(CnUnavailable, match=r"stage keyswitch: unresponsive CNs: \['CN2'\]"):
        sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    _assert_no_query_state(sim)


@pytest.mark.parametrize("range_first", [True, False], ids=["range_first", "aggregation_first"])
def test_range_proved_ciphertext_must_be_the_aggregated_one(range_first):
    """DP2 range-proves one ciphertext and sends its CN another (the same
    value under a fresh nonce). Whichever of DP2's range bundle and CN2's
    aggregation bundle a VN gets first, every VN marks DP2's range proof
    false, and nothing else."""
    from privq import elgamal

    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, profile="pairing80", seed=37)
    topo.dp_data = {"DP1": [{"x": 3}], "DP2": [{"x": 5}]}
    sim = Simulation(topo, seed=37)
    dp2, cn2 = sim.dps["DP2"], sim.cns["CN2"]
    dp_send, cn_send, held = dp2.send, cn2.send, []

    def send_dp(query_id, round_, recipient, payload=b""):
        if round_ == "dp_response":
            cts = unpack_cts(topo.group, Reader(payload))
            cts[0] = cts[0] + elgamal.encrypt(topo.group, 0, topo.collective_key().public,
                                              dp2.rng)
            payload = pack_cts(cts)
        if round_ == "proof_bundle" and not range_first:
            held.append((query_id, round_, recipient, payload))
        else:
            dp_send(query_id, round_, recipient, payload)

    def send_cn(query_id, round_, recipient, payload=b""):
        if round_ == "cta_partial":  # CN2's aggregation bundle is already queued
            while held:
                dp_send(*held.pop(0))
        cn_send(query_id, round_, recipient, payload)

    dp2.send, cn2.send = send_dp, send_cn
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2 RANGE 0,16", scale=1))
    assert out.result.values[0] == 8.0
    report = sim.audit(out.query_id)
    assert [(p, t, i, vns) for _, p, t, i, vns in report.false_entries] == [
        ("DP2", "range", 0, list(topo.vn_ids))]


def test_range_proof_must_prove_the_element_its_key_names():
    """DP2 sends its CN an encryption of 1000 as element 0, and element 1's
    range proof under both its range keys, so no bundle proves element 0.
    Every VN marks DP2's range proof 0 false, and nothing else."""
    from privq import ledger

    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, profile="pairing80", seed=37)
    topo.dp_data = {"DP1": [{"x": 3}], "DP2": [{"x": 5}]}
    sim = Simulation(topo, seed=37)
    dp2 = sim.dps["DP2"]
    dp_send = dp2.send

    def send_dp(query_id, round_, recipient, payload=b""):
        if round_ == "dp_response":
            cts = unpack_cts(topo.group, Reader(payload))
            cts[0] = elgamal.encrypt(topo.group, 1000, topo.collective_key().public, dp2.rng)
            payload = pack_cts(cts)
        bundle = ledger.ProofBundle.decode(payload) if round_ == "proof_bundle" else None
        if bundle is not None and bundle.proof_type == "range":
            if bundle.seq_index == 0:  # element 0's own proof is withheld
                return
            copy = ledger.ProofBundle(query_id, "DP2", "range", 0, bundle.payloads)
            dp_send(query_id, round_, recipient,
                    copy.signed(topo.group, topo.keys["DP2"].private).encode())
        dp_send(query_id, round_, recipient, payload)

    dp2.send = send_dp
    out = sim.run(parse_query("SELECT variance x ON DP1,DP2 RANGE 0,16", scale=1))
    report = sim.audit(out.query_id)
    assert [(p, t, i, vns) for _, p, t, i, vns in report.false_entries] == [
        ("DP2", "range", 0, list(topo.vn_ids))]


@pytest.mark.parametrize("text, options, rows", [
    ("SELECT sum x ON DP1,DP2 RANGE 0,16", {}, ({"x": 3}, {"x": 5})),
    ("SELECT or flag ON DP1,DP2 RANGE 0,2", {"bitwise_mode": "bits"},
     ({"flag": 0}, {"flag": 0})),
], ids=["sum", "or_bits"])
def test_range_proof_binds_the_ciphertexts_first_point(text, options, rows):
    """DP2 shifts the first point of its element 0 by B in the ciphertext it
    sends its CN and in the one its range proof names, with an honest proof
    of the second point: decryption yields m*B minus the collective key, a
    value nobody chose (an undecodable sum, or an OR of 1 over flags of 0).
    The range statement binds C1 too, so every VN marks DP2's range proof 0
    false, and nothing else."""
    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, profile="pairing80", seed=37)
    topo.dp_data = {"DP1": [rows[0]], "DP2": [rows[1]]}
    sim = Simulation(topo, seed=37)
    dp2 = sim.dps["DP2"]
    honest_emit = dp2._emit_range_proofs

    def emit_range_proofs(query, pk, raws, nonces, cts):
        cts[0] = elgamal.Ciphertext(cts[0].c1 + topo.group.base(), cts[0].c2)
        honest_emit(query, pk, raws, nonces, cts)  # the response then sends cts too

    dp2._emit_range_proofs = emit_range_proofs
    query = parse_query(text, scale=1, **options)
    try:
        assert sim.run(query).result.values == [1]  # the CNs do not check range proofs
    except OutOfTableRange:
        assert "sum" in text
    report = sim.audit(query.query_id)
    assert [(p, t, i, vns) for _, p, t, i, vns in report.false_entries] == [
        ("DP2", "range", 0, list(topo.vn_ids))]


def test_initial_noise_computed_once_per_inputs():
    topo = Topology.build(n_cns=2, n_dps=2, n_vns=1, seed=38)
    topo.cdp_params = {"list_size": 4}
    first = topo.initial_noise()
    assert topo.initial_noise() is first and len(first) == 4
    topo.cdp_params = {"list_size": 6}
    assert len(topo.initial_noise()) == 6


def test_wide_child_partial_names_the_child():
    """CN2 sends CN1 a partial sum with one extra ciphertext: CN1 drops it
    and aborts at the timeout, naming CN2 as the CN that did not answer."""
    sim = Simulation(_topo(32), seed=32)
    cn2 = sim.cns["CN2"]
    honest_send = cn2.send

    def send(query_id, round_, recipient, payload=b""):
        if round_ == "cta_partial":
            cts = unpack_cts(sim.topology.group, Reader(payload))
            payload = pack_cts(cts + cts[:1])
        honest_send(query_id, round_, recipient, payload)

    cn2.send = send
    with pytest.raises(CnUnavailable, match=r"unresponsive CNs: \['CN2'\]"):
        sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert [entry[:3] for entry in sim.bus.dropped] == [("CN1", "cta_partial", "CN2")]
    _assert_no_query_state(sim)


def test_result_from_non_root_cn_dropped():
    """CN2 sends the querier a result of its own for the running query:
    only the root CN's result counts, so CN2's is dropped and logged."""
    sim = Simulation(_topo(43), seed=43)
    cn2 = sim.cns["CN2"]
    honest_on_query = cn2.on_query
    group = sim.topology.group
    fake = elgamal.encrypt(group, 999, sim.topology.keys["Q"].public, Drbg("fake-result"))

    def on_query(msg):
        honest_on_query(msg)
        cn2.send(msg.query_id, "result", sim.topology.querier_id, pack_cts([fake, fake]))

    cn2.on_query = on_query
    out = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out.result.values[0] == sum(FLAT)
    assert [entry[:3] for entry in sim.bus.dropped] == [("Q", "result", "CN2")]
    _assert_no_query_state(sim)


@pytest.mark.parametrize("round_", ["result", "abort"])
def test_stray_result_or_abort_dropped(round_):
    """A result or abort for a query the querier has not opened (here one
    posted by CN2 under an unknown query id) is dropped and logged instead
    of raising out of the bus."""
    sim = Simulation(_topo(44), seed=44)
    cn2 = sim.cns["CN2"]
    honest_on_query = cn2.on_query

    def on_query(msg):
        honest_on_query(msg)
        cn2.send("no-such-query", round_, sim.topology.querier_id, pack_cts([]))

    cn2.on_query = on_query
    out = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out.result.values[0] == sum(FLAT)
    assert [entry[:3] for entry in sim.bus.dropped] == [("Q", round_, "CN2")]
    _assert_no_query_state(sim)


def test_junk_map_submit_dropped():
    """One VN of 4 (f_h = 3) answers the leader's map request with junk:
    the leader assembles and seals from the three other VNs' maps."""
    topo = Topology.build(n_cns=3, n_dps=3, n_vns=4, seed=26)
    topo.dp_data = {"DP1": [{"x": 4}], "DP2": [{"x": 9}], "DP3": [{"x": 11}]}
    sim = Simulation(topo, seed=26)
    vn4 = sim.vns["VN4"]
    vn4.on_map_request = lambda msg: vn4.send(msg.query_id, "map_submit", msg.sender,
                                              b"junk")
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3", scale=100))
    assert out.result.values[0] == 24.0
    assert sorted(out.block.signatures) == ["VN1", "VN2", "VN3"]
    assert sim.audit(out.query_id).ok
    _assert_no_query_state(sim)


@pytest.mark.parametrize("forge, error", [
    ("flipped_signature", "UnexpectedInput("), ("trailing_bytes", "MalformedProof(")])
def test_forged_query_vn_dropped(forge, error):
    """A `query_vn` whose querier signature has one byte flipped, or with
    bytes after the signature, posted to every VN, is dropped and logged
    once per VN like any refused input, and no VN opens state for it; the
    next honest query still commits."""
    from privq.proofs.signatures import sign

    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, seed=45)
    topo.dp_data = {"DP1": [{"x": 4}], "DP2": [{"x": 9}]}
    sim = Simulation(topo, seed=45)
    body = parse_query("SELECT sum x ON DP1,DP2", scale=1, query_id="forged").encode()
    signature = bytearray(sign(topo.group, topo.keys[topo.querier_id].private, body))
    trailer = b"junk" if forge == "trailing_bytes" else b""
    if forge == "flipped_signature":
        signature[-1] ^= 1
    for vn in topo.vn_ids:
        sim.bus.post("forged", "query_vn", topo.querier_id, vn,
                     pack_bytes(body) + pack_bytes(bytes(signature)) + trailer)
    sim.bus.pump()
    assert sorted(entry[:3] for entry in sim.bus.dropped) == [
        (vn, "query_vn", topo.querier_id) for vn in topo.vn_ids]
    assert all(entry[3].startswith(error) for entry in sim.bus.dropped)
    _assert_no_query_state(sim)
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2", scale=1))
    assert out.result.values[0] == 13.0 and sim.audit(out.query_id).ok
    assert len(sim.bus.dropped) == len(topo.vn_ids)


def test_bundle_with_non_utf8_query_id_dropped():
    """A bundle whose query id is not UTF-8 is a malformed message from its
    sender, not a crash of the VNs that receive it."""
    from privq import ledger
    from privq.serial import pack_bytes

    sim = Simulation(_topo(32), seed=32)
    cn2 = sim.cns["CN2"]
    honest_on_query = cn2.on_query

    def on_query(msg):
        honest_on_query(msg)
        bundle = ledger.ProofBundle(msg.query_id, "CN2", "aggregation", 0, (b"x",)).signed(
            cn2.topology.group, cn2.topology.keys["CN2"].private)
        junk = bundle.encode().replace(pack_bytes(msg.query_id.encode()),
                                       pack_bytes(b"\xff\xfe"), 1)
        for vn in cn2.topology.vn_ids:
            cn2.send(msg.query_id, "proof_bundle", vn, junk)

    cn2.on_query = on_query
    out = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out.result.values[0] == sum(FLAT)
    assert sim.audit(out.query_id).ok


def test_declining_dp_hidden_in_count_only():
    sim = Simulation(_topo(6), seed=6, decline={"DP2"})
    out = sim.run(parse_query("SELECT average heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out.result.count == 4  # only the aggregate count is visible


@pytest.mark.parametrize("mode", ["random", "bits"])
def test_bitwise_pipeline(mode):
    topo = Topology.build(n_cns=3, n_dps=3, n_vns=3, seed=7)
    topo.dp_data = {"DP1": [{"flag": 1}], "DP2": [{"flag": 0}], "DP3": [{"flag": 1}]}
    sim = Simulation(topo, seed=7)
    out_or = sim.run(parse_query("SELECT or flag ON DP1,DP2,DP3", bitwise_mode=mode))
    assert out_or.result.values[0] == 1.0
    out_and = sim.run(parse_query("SELECT and flag ON DP1,DP2,DP3", bitwise_mode=mode))
    assert out_and.result.values[0] == 0.0
    for qid in (out_or.query_id, out_and.query_id):
        assert sim.audit(qid).ok


def test_bits_mode_range_proofs_audit_clean():
    """A bits-mode OR over RANGE 0,2 proves each bit under the setup's digit
    base; an honest run must audit clean."""
    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, profile="pairing80", seed=25)
    topo.dp_data = {"DP1": [{"flag": 1}], "DP2": [{"flag": 0}]}
    sim = Simulation(topo, seed=25)
    out = sim.run(parse_query("SELECT or flag ON DP1,DP2 RANGE 0,2", bitwise_mode="bits"))
    assert out.result.values[0] == 1.0
    report = sim.audit(out.query_id)
    assert report.ok, [(p, t, i) for _, p, t, i, _ in report.false_entries]


def test_bits_mode_range_query_needs_a_pairing_profile():
    """Without a pairing a bits-mode RANGE query would run with no range
    proof and audit clean; `Simulation.run`, which the CLI and the socket
    server call too, refuses it before sending anything."""
    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, seed=25)
    topo.dp_data = {"DP1": [{"flag": 1}], "DP2": [{"flag": 0}]}
    sim = Simulation(topo, seed=25)
    with pytest.raises(PairingUnavailable):
        sim.run(parse_query("SELECT or flag ON DP1,DP2 RANGE 0,2", bitwise_mode="bits"))
    assert sim.bus.delivered == 0 and len(sim.chain()) == 0


def test_one_bad_keyswitch_sub_proof_flags_only_its_cn(monkeypatch):
    """CN2's key-switch bundle carries one sub-proof with a wrong response:
    the VNs' batched check must mark CN2's keyswitch proof false on every VN
    and keep the honest CNs' keyswitch proofs true."""
    from privq import ledger, protocols
    from privq.proofs.linear import LinearRelationProof

    topo = _topo(27)
    bad_key = topo.keys["CN2"]
    honest_share = protocols.ctks_share
    shares_by_bad_cn = []

    def ctks_share(group, c1s, cn_key, target_pk, rng):
        shares, proof = honest_share(group, c1s, cn_key, target_pk, rng)
        if cn_key is bad_key:
            shares_by_bad_cn.append(proof)
            if len(shares_by_bad_cn) == 1:
                z0, z1 = proof.responses
                proof = LinearRelationProof(proof.statement, proof.commitments,
                                            proof.challenge, (z0, (z1 + 1) % group.order))
        return shares, proof

    monkeypatch.setattr(protocols, "ctks_share", ctks_share)
    sim = Simulation(topo, seed=27)
    out = sim.run(parse_query("SELECT variance heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert len(shares_by_bad_cn) == 1  # one proof: sum, sum of squares, count
    assert out.result.values[0] == pytest.approx(statistics.pvariance(FLAT), abs=0.01)
    for vn, proofs_map in out.block.maps.items():
        for cn in topo.cn_ids:
            key = ledger.proof_key(out.query_id, cn, "keyswitch", 0)
            expect = ledger.STATUS_FALSE if cn == "CN2" else ledger.STATUS_TRUE
            assert proofs_map.entries[key].status == expect, (vn, cn)
    report = sim.audit(out.query_id)
    assert [(p, t, i, vns) for _, p, t, i, vns in report.false_entries] == [
        ("CN2", "keyswitch", 0, list(topo.vn_ids))]


def test_noise_is_encoded_at_the_query_scale():
    """Topology scale 100, query scale 1: every DP-privacy sum minus the true
    sum is a value of the published noise list at scale 1, and the VNs,
    which seed the shuffle chain with the list at the query's scale too,
    audit clean."""
    from privq import protocols

    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, seed=41)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 8}
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 20}]}
    published = {elgamal.fixed_encode(v, 1).raw
                 for v in protocols.quantize_laplace(1.0, 1.0, 0.5, 8)}
    sim = Simulation(topo, seed=41)
    assert topo.scale == 100
    for i in range(6):
        out = sim.run(parse_query("SELECT sum x ON DP1,DP2", scale=1, dp_privacy=True,
                                  query_id=f"noise-scale-{i}"))
        assert out.result.values[0] - 30 in published
        assert sim.audit(out.query_id).ok


def test_minmax_pipeline():
    sim = Simulation(_topo(8), seed=8)
    out = sim.run(parse_query("SELECT min heart_rate ON DP1,DP2,DP3,DP4 RANGE 60,95"))
    assert out.result.values[0] == 65.0
    out = sim.run(parse_query("SELECT max heart_rate ON DP1,DP2,DP3,DP4 RANGE 60,95"))
    assert out.result.values[0] == 90.0


def test_cdp_noise_lazy_and_eager():
    topo = Topology.build(n_cns=3, n_dps=3, n_vns=3, seed=9)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 16}
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 20}], "DP3": [{"x": 30}]}
    sim = Simulation(topo, seed=10)
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3", scale=100,
                              dp_privacy=True))
    noise = out.result.values[0] - 60.0
    assert abs(noise * 2 - round(noise * 2)) < 1e-9  # quantized at theta = 0.5
    assert sim.audit(out.query_id).ok


def test_noise_list_shorter_than_the_result_aborts():
    """A DP-privacy variance needs two noise ciphertexts: with a one-entry
    noise list the root CN drops the shuffled list and the query aborts in
    the shuffle stage."""
    topo = Topology.build(n_cns=3, n_dps=3, n_vns=3, seed=34)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 1}
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 20}], "DP3": [{"x": 30}]}
    sim = Simulation(topo, seed=34)
    with pytest.raises(CnUnavailable, match="stage shuffle"):
        sim.run(parse_query("SELECT variance x ON DP1,DP2,DP3", scale=100,
                            dp_privacy=True))
    [(recipient, round_, _, error)] = sim.bus.dropped
    assert (recipient, round_) == (topo.cn_ids[0], "cdp_done")
    assert error.startswith("NoiseExhausted(")
    _assert_no_query_state(sim)


def test_noise_parameters_refused_before_any_message(monkeypatch):
    """theta = 2 does not divide delta_f = 1, so `quantize_laplace` refuses
    the noise list: `Simulation.run` raises InvalidPrivacyParams before a
    message is sent, and no node holds state for the query. With valid
    parameters the list is computed once per query, and the root CN and
    the VNs use that one."""
    from privq import protocols
    from privq.errors import InvalidPrivacyParams

    topo = Topology.build(n_cns=3, n_dps=3, n_vns=3, seed=5)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 2, "list_size": 8}
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 20}], "DP3": [{"x": 30}]}
    sim = Simulation(topo, seed=5)
    with pytest.raises(InvalidPrivacyParams):
        sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3", scale=100, dp_privacy=True))
    assert sim.bus.delivered == 0
    _assert_no_query_state(sim)
    calls, honest = [], protocols.initial_noise
    monkeypatch.setattr(protocols, "initial_noise",
                        lambda *args: calls.append(args) or honest(*args))
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 8}
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3", scale=100, dp_privacy=True))
    assert len(calls) == 1 and sim.audit(out.query_id).ok


def test_silent_shuffle_link_is_named():
    """CN2, the middle link of the noise shuffle chain, ignores the list CN1
    passes it: the root aborts at the hard timeout naming CN2, the first
    link that did not report, and not CN3, which CN2 starved."""
    topo = Topology.build(n_cns=3, n_dps=3, n_vns=3, seed=36)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 4}
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 20}], "DP3": [{"x": 30}]}
    sim = Simulation(topo, seed=36)
    sim.cns["CN2"].on_cdp_pass = lambda msg: None
    with pytest.raises(CnUnavailable, match=r"stage shuffle: unresponsive CNs: \['CN2'\]"):
        sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3", scale=100, dp_privacy=True))
    _assert_no_query_state(sim)


def test_shuffle_link_checked_whichever_bundle_arrives_first():
    """CN2, second in the shuffle chain, sends its shuffle bundle before CN1
    has shuffled: over an all-zero list it encrypted itself, whose shuffle
    it then forwards in place of CN1's output. The sum comes back
    noise-free, but every VN marks CN2's shuffle false, and nothing else."""
    from privq import elgamal
    from privq.harness import nodes

    topo = Topology.build(n_cns=3, n_dps=3, n_vns=3, seed=30)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 2.0, "theta": 2, "list_size": 8}
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 20}], "DP3": [{"x": 30}]}
    sim = Simulation(topo, seed=30)
    cn2 = sim.cns["CN2"]
    honest_on_query = cn2.on_query
    forged = {}

    def on_query(msg):
        honest_on_query(msg)
        group, pk = topo.group, topo.collective_key().public
        zeros = [elgamal.encrypt(group, 0, pk, cn2.rng) for _ in range(8)]
        forged[msg.query_id], proof = nodes.shuffle_and_prove(group, zeros, pk, cn2.rng)
        nodes.emit_bundle(cn2, msg.query_id, "shuffle", 0, (proof.encode(),))

    def on_cdp_pass(msg):  # forward the forged list, and report to the root as a link does
        cn2.send(msg.query_id, "cdp_pass", "CN3", elgamal.pack_cts(list(forged[msg.query_id])))
        cn2.send(msg.query_id, "cdp_ack", "CN1")

    cn2.on_query = on_query
    cn2.on_cdp_pass = on_cdp_pass
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3", scale=100, dp_privacy=True))
    assert out.result.values[0] == 60.0
    report = sim.audit(out.query_id)
    assert [(p, t, vns) for _, p, t, _, vns in report.false_entries] == [
        ("CN2", "shuffle", list(topo.vn_ids))]


def test_cdp_shuffle_chain_order_with_ten_cns():
    """CN ids sort as strings (CN1, CN10, CN2, ...); the VNs must follow the
    same shuffle-chain order as the CNs, or an honest run audits false."""
    topo = Topology.build(n_cns=10, n_dps=4, n_vns=3, seed=23)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 4}
    topo.dp_data = {f"DP{i + 1}": [{"x": 10 * (i + 1)}] for i in range(4)}
    sim = Simulation(topo, seed=23)
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3,DP4", scale=100,
                              dp_privacy=True))
    report = sim.audit(out.query_id)
    assert report.ok, [(p, t) for _, p, t, _, _ in report.false_entries]


def test_metrics_count_one_query():
    sim = Simulation(_topo(24), seed=24)
    first = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    second = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3", scale=100))
    third = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP4", scale=100))
    assert second.metrics["messages"] == third.metrics["messages"]
    assert second.metrics["proof_bundles"] == third.metrics["proof_bundles"]
    assert first.metrics["messages"] > second.metrics["messages"]
    # 3 CNs send an aggregation and a key-switch bundle to each of 3 VNs
    assert second.metrics["proof_bundles"] == 2 * 3 * 3


def test_regressions_through_pipeline():
    topo = Topology.build(n_cns=3, n_dps=5, n_vns=3, seed=17)
    topo.dp_data = {dp: [{"x": float(i * 2 + k), "y": 2.0 * (i * 2 + k) + 1.0}
                         for k in range(2)]
                    for i, dp in enumerate(topo.dp_ids)}
    sim = Simulation(topo, seed=17)
    out = sim.run(parse_query("SELECT linear_regression x,y ON " + ",".join(topo.dp_ids),
                              scale=100))
    assert out.result.values[0] == pytest.approx(1.0, abs=1e-6)
    assert out.result.values[1] == pytest.approx(2.0, abs=1e-6)

    rng = Drbg("pipeline-logreg")
    logit_data = {}
    for dp in topo.dp_ids:
        rows = []
        for _ in range(8):
            x = (rng.randbelow(400) - 200) / 100.0
            rows.append({"x": x, "label": 1 if x > 0 else 0})
        logit_data[dp] = rows
    topo2 = Topology.build(n_cns=3, n_dps=5, n_vns=3, seed=18, max_records=8)
    topo2.dp_data = logit_data
    sim2 = Simulation(topo2, seed=18)
    out2 = sim2.run(parse_query("SELECT logistic_regression x,label ON "
                                + ",".join(topo2.dp_ids), scale=100))
    model = out2.result.flags["model"]
    from privq.encodings import predict_logreg

    hits = [predict_logreg(model, (row["x"],)) == row["label"]
            for rows in logit_data.values() for row in rows]
    assert statistics.fmean(hits) >= 0.9


def test_iterative_extreme_through_pipeline():
    topo = Topology.build(n_cns=2, n_dps=3, n_vns=3, seed=11)
    topo.dp_data = {"DP1": [{"v": 3}], "DP2": [{"v": 42}], "DP3": [{"v": 77}]}
    sim = Simulation(topo, seed=11)
    value, stats = run_iterative_extreme("max", "v", (0, 100), 25, topo, simulation=sim)
    assert value == 77
    assert stats["rounds"] == 2
    value, _ = run_iterative_extreme("min", "v", (0, 100), 25, topo, simulation=sim)
    assert value == 3
    # every sub-query committed a block
    assert len(sim.chain()) == 6


def test_determinism_byte_identical_blocks():
    a = Simulation(_topo(12), seed=12).run(
        parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    b = Simulation(_topo(12), seed=12).run(
        parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert a.result.values == b.result.values
    assert a.block.encode() == b.block.encode()


def test_concurrent_scheduler_equivalence():
    """Randomized queries give identical plaintext results under the serial
    and the randomly interleaving scheduler."""
    rng = Drbg("sched-equiv")
    ops = ["sum", "mean", "variance", "min", "max", "or"]
    for trial in range(20):
        op = ops[trial % len(ops)]
        n_dps = 2 + rng.randbelow(3)
        topo_args = dict(n_cns=2, n_dps=n_dps, n_vns=3, seed=100 + trial)
        data = {f"DP{i+1}": [{"x": rng.randbelow(8)}] for i in range(n_dps)}
        dps = ",".join(data)
        clause = " RANGE 0,8" if op in ("min", "max") else ""
        text = f"SELECT {op} x ON {dps}{clause}"
        results = []
        for scheduler in ("serial", "concurrent"):
            topo = Topology.build(**topo_args)
            topo.dp_data = data
            sim = Simulation(topo, seed=100 + trial, scheduler=scheduler)
            results.append(sim.run(parse_query(text, scale=100)).result.values)
        assert results[0] == results[1], (trial, op, data)


@pytest.mark.parametrize("t_sub", [0.3, 1.0])
def test_block_maps_do_not_depend_on_delivery_order(t_sub):
    """Every node's draws are fixed by the topology seed, and only the
    concurrent scheduler's delivery order varies: each honest query commits
    the same VN maps under every order, since a VN makes its draws and
    judges a round's bundles once the round settles, in plan order."""
    topo = _one_record_topo(5, t_sub)
    for text, options in (("SELECT variance x ON DP1,DP2,DP3,DP4", {}),
                          ("SELECT sum x ON DP1,DP2,DP3,DP4", {"dp_privacy": True}),
                          ("SELECT or flag ON DP1,DP2,DP3,DP4", {"bitwise_mode": "bits"})):
        maps = set()
        for seed in range(6):
            sim = Simulation(topo, seed=seed, scheduler="concurrent")
            block = sim.run(parse_query(text, scale=1, **options)).block
            maps.add(tuple(sorted((vn, m.encode()) for vn, m in block.maps.items())))
        assert len(maps) == 1, (text, len(maps))


def test_role_composition_cn_vn_colocated():
    data = {"DP1": [{"x": 4}], "DP2": [{"x": 9}]}
    separated = Topology.build(n_cns=2, n_dps=2, n_vns=2, seed=13)
    separated.dp_data = data
    colocated = Topology(querier_id="Q", cn_ids=("N1", "N2"), dp_ids=("DP1", "DP2"),
                         vn_ids=("N1", "N2"),
                         dp_assignment={"DP1": "N1", "DP2": "N2"}, seed=13)
    colocated.dp_data = data
    colocated.generate_keys()
    r_sep = Simulation(separated, seed=13).run(parse_query("SELECT sum x ON DP1,DP2",
                                                           scale=100))
    r_colo = Simulation(colocated, seed=13).run(parse_query("SELECT sum x ON DP1,DP2",
                                                            scale=100))
    assert r_sep.result.values == r_colo.result.values
    assert len(r_colo.block.signatures) == 2


def test_confidentiality_no_plaintext_encodings_on_wire():
    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, seed=14)
    topo.dp_data = {"DP1": [{"x": 1234}], "DP2": [{"x": 777}]}
    sim = Simulation(topo, seed=14, record_trace=True)
    sim.run(parse_query("SELECT sum x ON DP1,DP2", scale=100))
    group = topo.group
    for raw in (123400, 77700, 201100):  # per-DP encodings and the aggregate
        marker = group.mul(raw, group.base()).encode()
        for message in sim.bus.trace:
            assert marker not in message.payload


def test_topology_config_roundtrip(tmp_path):
    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, seed=15)
    topo.thresholds = {"t": 1.0, "t_sub": 0.5, "f_h": 2}
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as fh:
        json.dump(topo.to_config(), fh)
    csv_path = tmp_path / "dp1.csv"
    csv_path.write_text("x,state\n5,ok\n7,bad\n")
    cfg = json.load(open(cfg_path))
    cfg["dps"]["DP1"]["data"] = str(csv_path)
    loaded = Topology.from_config(cfg)
    assert loaded.cn_ids == topo.cn_ids
    assert loaded.keys["Q"].private == topo.keys["Q"].private
    assert loaded.dp_data["DP1"] == [{"x": 5, "state": "ok"}, {"x": 7, "state": "bad"}]
    assert loaded.policy().t_sub == 0.5


def test_load_records_semicolon_delimiter(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a;b\n1;2.5\n3;x\n")
    rows = load_records(str(path))
    assert rows == [{"a": 1, "b": 2.5}, {"a": 3, "b": "x"}]


def test_unique_identities_enforced():
    with pytest.raises(ConfigError):
        Topology(querier_id="Q", cn_ids=("A",), dp_ids=("A",), vn_ids=("V",),
                 dp_assignment={"A": "A"})


def test_socket_transport_matches_in_process():
    from privq.harness.sockets import NodeServer, remote_query

    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, seed=16)
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 32}]}
    server = NodeServer(topo, port=0).start_background()
    try:
        doc = remote_query("127.0.0.1", server.port, "SELECT sum x ON DP1,DP2", seed=16)
    finally:
        server.stop()
    local = Simulation(topo, seed=16).run(parse_query("SELECT sum x ON DP1,DP2",
                                                      scale=topo.scale))
    assert doc["values"] == local.result.values
    assert doc["count"] == local.result.count


def test_node_server_answers_junk_frame_and_keeps_serving():
    import socket

    from privq.harness.bus import Message
    from privq.harness.sockets import NodeServer, _recv_frame, _send_frame, remote_query

    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, seed=16)
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 32}]}
    server = NodeServer(topo, port=0).start_background()
    try:
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
            _send_frame(sock, b"\x01\x02\x03")
            reply = Message.from_frame(_recv_frame(sock))
        doc = remote_query("127.0.0.1", server.port, "SELECT sum x ON DP1,DP2")
    finally:
        server.stop()
    assert reply.round == "error"
    assert doc["values"] == [42.0]


def test_remote_queries_extend_one_chain():
    """A node server keeps one node set, so its blocks extend one chain."""
    from privq.harness.sockets import NodeServer, remote_query

    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, seed=28)
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 32}]}
    server = NodeServer(topo, port=0).start_background()
    try:
        docs = [remote_query("127.0.0.1", server.port, f"SELECT {op} x ON DP1,DP2")
                for op in ("sum", "mean")]
    finally:
        server.stop()
    assert [doc["block_height"] for doc in docs] == [0, 1]
    assert [doc["values"] for doc in docs] == [[42.0], [21.0]]


def test_cli_query_and_audit(tmp_path):
    from click.testing import CliRunner

    from privq.harness.cli import main

    runner = CliRunner()
    cfg_path = tmp_path / "cfg.json"
    result = runner.invoke(main, ["keygen", "--config", str(cfg_path),
                                  "--cns", "2", "--dps", "2", "--vns", "3",
                                  "--seed", "21"])
    assert result.exit_code == 0, result.output
    cfg = json.load(open(cfg_path))
    cfg["chain_path"] = str(tmp_path / "chain.bin")
    for i, dp in enumerate(cfg["dps"]):
        data = tmp_path / f"{dp}.csv"
        data.write_text(f"x\n{10 + i}\n")
        cfg["dps"][dp]["data"] = str(data)
    json.dump(cfg, open(cfg_path, "w"))

    result = runner.invoke(main, ["query", "SELECT sum x ON DP1,DP2",
                                  "--config", str(cfg_path), "--seed", "3"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["values"] == [21.0]

    result = runner.invoke(main, ["audit", doc["query_id"],
                                  "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["ok"] is True

    # a second run on the same chain file commits the next block
    result = runner.invoke(main, ["query", "SELECT mean x ON DP1,DP2",
                                  "--config", str(cfg_path), "--seed", "3"])
    assert result.exit_code == 0, result.output
    doc2 = json.loads(result.output)
    assert doc2["values"] == [10.5]
    assert (doc["block_height"], doc2["block_height"]) == (0, 1)
    for query_id in (doc["query_id"], doc2["query_id"]):
        result = runner.invoke(main, ["audit", query_id, "--config", str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["ok"] is True
    blocks = Reader(open(cfg["chain_path"], "rb").read())
    stored = []
    while not blocks.done():
        stored.append(blocks.bytes_field())
    assert len(stored) == 2

    # a chain file with a flipped byte fails to open, for queries and audits
    data = bytearray(open(cfg["chain_path"], "rb").read())
    data[len(data) // 2] ^= 1
    open(cfg["chain_path"], "wb").write(bytes(data))
    for args in (["query", "SELECT sum x ON DP1,DP2"], ["audit", doc["query_id"]]):
        result = runner.invoke(main, args + ["--config", str(cfg_path)])
        assert result.exit_code == 1, result.output
        assert json.loads(result.output)["error"] == "BrokenChain"


def test_experiment_rows(tmp_path):
    from privq.harness.experiment import run_experiment, write_report, read_report

    rows = run_experiment({"operation": "mean", "n_dps": [2, 4],
                           "records": [2], "seeds": [1]})
    assert len(rows) == 2
    assert all(row["abs_error"] < 1e-6 for row in rows)
    assert rows[0]["messages"] < rows[1]["messages"]
    path = tmp_path / "rows.jsonl"
    write_report(rows, str(path))
    assert read_report(str(path)) == rows
    with pytest.raises(ConfigError):
        run_experiment({"n_dps": []})


def test_experiment_threshold_sweep_reports_p_fh():
    from privq.harness.experiment import run_experiment

    rows = run_experiment({"operation": "sum", "n_dps": [3], "n_vns": [7],
                           "records": [1], "seeds": [2],
                           "t_sub": [0.2, 0.3, 1.0]})
    p_fhs = [row["p_fh"] for row in rows]
    assert p_fhs[0] == pytest.approx(0.8348, abs=1e-3)
    assert p_fhs[1] == pytest.approx(0.9848, abs=1e-3)
    assert p_fhs[2] == 1.0


def test_shared_chain_file_refuses_a_stale_writer(tmp_path):
    """Two live Simulations over one chain file: the one whose view of the
    file is stale fails its query, naming the file, and writes nothing."""
    from privq.errors import PrivqError

    path = str(tmp_path / "chain.bin")
    topo = _topo(21, chain_path=path)
    first, second = Simulation(topo, seed=21), Simulation(topo, seed=22)
    first.run(parse_query("SELECT sum heart_rate ON DP1,DP2", scale=1))
    with pytest.raises(PrivqError, match="chain.bin"):
        second.run(parse_query("SELECT sum heart_rate ON DP3,DP4", scale=1))
    assert len(Simulation(topo, seed=23).chain()) == 1


@pytest.mark.parametrize("seed", [0, 2, 8, 10, 11, 14, 15, 16, 18, 19, 20, 21, 24, 26, 28,
                                  31, 32, 33, 35, 36, 37])
def test_bundle_failed_against_a_replaced_round_input_is_checked_again(seed):
    """Under the concurrent scheduler, honest CN1's and CN3's key-switch
    bundles may reach a VN after CN2's forged one and before the root's
    aggregation bundle. The VN checks the round's input only when the
    round settles, after the aggregation round, against its output: only
    CN2 is false, on every VN. (These are the seeds of 0..39 on which
    honest CN3 was false on one or two VNs when the first bundle's list
    fixed the round's input until the aggregation output came.)"""
    topo = Topology.build(n_cns=3, n_dps=4, n_vns=3, seed=5)
    topo.dp_data = {f"DP{i}": [{"x": i}] for i in range(1, 5)}
    sim = Simulation(topo, seed=seed, scheduler="concurrent")
    _send_forged_round_bundle(sim, "keyswitch")
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3,DP4", scale=1))
    assert out.result.values[0] == 10.0
    report = sim.audit(out.query_id)
    assert [(p, t, vns) for _, p, t, _, vns in report.false_entries] == [
        ("CN2", "keyswitch", list(topo.vn_ids))]


def test_round_bundle_with_true_proofs_over_another_input_is_false():
    """CN2's forged key-switch bundle holds true proofs, over encryptions of
    99 instead of the root's aggregation output: they pass `verify_linear`
    on their own, so the round's batch would take them. Checked against
    the round's input when the round settles, CN2's keyswitch is false on
    every VN, and the audit names only it."""
    from privq import ledger, protocols

    topo = Topology.build(n_cns=3, n_dps=4, n_vns=3, seed=5)
    topo.dp_data = {f"DP{i}": [{"x": i}] for i in range(1, 5)}
    sim = Simulation(topo, seed=5, record_trace=True)
    _send_forged_round_bundle(sim, "keyswitch")
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3,DP4", scale=1))
    [forged] = {ledger.ProofBundle.decode(m.payload) for m in sim.bus.trace
                if (m.round, m.sender) == ("proof_bundle", "CN2")
                and ledger.ProofBundle.decode(m.payload).proof_type == "keyswitch"}
    forged_proofs = [protocols.round_proof(topo.group, "keyswitch", payload,
                                           cn_public=topo.keys["CN2"].public,
                                           target_pk=topo.keys[topo.querier_id].public)[1]
                     for payload in forged.payloads]
    assert forged_proofs and protocols.verify_linear(*forged_proofs)
    key = ledger.proof_key(out.query_id, "CN2", "keyswitch", 0)
    for vn, proofs_map in out.block.maps.items():
        assert proofs_map.entries[key].status == ledger.STATUS_FALSE, vn
    assert [(p, t) for _, p, t, _, _ in sim.audit(out.query_id).false_entries] == [
        ("CN2", "keyswitch")]


@pytest.mark.parametrize("link", [0, 1, 2])
def test_tampered_shuffle_link_alone_is_false(monkeypatch, link):
    """Link `link` of the noise shuffle chain sends a proof with a wrong
    s_4 and forwards its true outputs. The VNs check the three links as
    one batch, which rejects, then each link alone: only that link's
    shuffle is false, on every VN."""
    import dataclasses

    from privq.harness import nodes

    honest, calls = nodes.shuffle_and_prove, []

    def shuffle_and_prove(group, cts, omega, rng):
        outputs, proof = honest(group, cts, omega, rng)
        calls.append(proof)
        if len(calls) == link + 1:  # the chain runs its links in order
            proof = dataclasses.replace(proof, s_4=(proof.s_4 + 1) % group.order)
        return outputs, proof

    monkeypatch.setattr(nodes, "shuffle_and_prove", shuffle_and_prove)
    topo = Topology.build(n_cns=3, n_dps=3, n_vns=3, seed=31)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 8}
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 20}], "DP3": [{"x": 30}]}
    sim = Simulation(topo, seed=31)
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3", scale=100, dp_privacy=True))
    assert len(calls) == 3
    report = sim.audit(out.query_id)
    assert [(p, t, vns) for _, p, t, _, vns in report.false_entries] == [
        (topo.cn_ids[link], "shuffle", list(topo.vn_ids))]


def test_one_bad_keyswitch_sub_proof_among_six_cns_flags_only_its_cn(monkeypatch):
    """CN4's key-switch bundle carries one sub-proof with a wrong response,
    among six CNs' bundles: the round's joint batch rejects, and the batch
    per bundle marks CN4's keyswitch false on every VN and only it."""
    from privq import ledger, protocols
    from privq.proofs.linear import LinearRelationProof

    topo = Topology.build(n_cns=6, n_dps=4, n_vns=3, seed=28)
    topo.dp_data = dict(HEART)
    bad_key, honest_share, tampered = topo.keys["CN4"], protocols.ctks_share, []

    def ctks_share(group, c1s, cn_key, target_pk, rng):
        shares, proof = honest_share(group, c1s, cn_key, target_pk, rng)
        if cn_key is bad_key and not tampered:
            z0, z1 = proof.responses
            proof = LinearRelationProof(proof.statement, proof.commitments,
                                        proof.challenge, (z0, (z1 + 1) % group.order))
            tampered.append(proof)
        return shares, proof

    monkeypatch.setattr(protocols, "ctks_share", ctks_share)
    sim = Simulation(topo, seed=28)
    out = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert tampered and out.result.values[0] == sum(FLAT)
    for vn, proofs_map in out.block.maps.items():
        for cn in topo.cn_ids:
            key = ledger.proof_key(out.query_id, cn, "keyswitch", 0)
            expect = ledger.STATUS_FALSE if cn == "CN4" else ledger.STATUS_TRUE
            assert proofs_map.entries[key].status == expect, (vn, cn)


@pytest.mark.parametrize("tamper", ["w2_plus_b", "w1_plus_b", "swap"])
def test_one_wrong_keyswitch_share_among_21_flags_only_its_cn(monkeypatch, tamper):
    """CN2 sends one wrong key-switch share among the 21 of a logistic
    regression (w2_j + B, or w1_j + B), or two of its shares swapped, with
    the honest proof of its true shares, in its payload and up the tree.
    The batched statement's weights and sums are those of the shares sent,
    so every VN marks CN2's keyswitch false, and nothing else."""
    from privq import protocols

    topo = Topology.build(n_cns=3, n_dps=4, n_vns=3, seed=40)
    topo.dp_data = {f"DP{i}": [{"a": 0.25 * i, "b": -0.5, "c": 0.125 * i, "y": i % 2}]
                    for i in range(1, 5)}
    bad_key, honest_share, widths = topo.keys["CN2"], protocols.ctks_share, []

    def ctks_share(group, c1s, cn_key, target_pk, rng):
        shares, proof = honest_share(group, c1s, cn_key, target_pk, rng)
        if cn_key is bad_key:
            widths.append(len(shares))
            (w1, w2), base = (shares[5].c1, shares[5].c2), group.base()
            if tamper == "w2_plus_b":
                shares[5] = elgamal.Ciphertext(w1, w2 + base)
            elif tamper == "w1_plus_b":
                shares[5] = elgamal.Ciphertext(w1 + base, w2)
            else:
                shares[5], shares[6] = shares[6], shares[5]
        return shares, proof

    monkeypatch.setattr(protocols, "ctks_share", ctks_share)
    sim = Simulation(topo, seed=40)
    query = parse_query("SELECT log_reg a,b,c,y ON DP1,DP2,DP3,DP4", scale=100)
    try:
        sim.run(query)  # w2_j + B moves coordinate j by one unit
    except OutOfTableRange:  # the others leave coordinates the querier cannot decode
        assert tamper != "w2_plus_b"
    assert widths == [21]
    report = sim.audit(query.query_id)
    assert [(p, t, i, vns) for _, p, t, i, vns in report.false_entries] == [
        ("CN2", "keyswitch", 0, list(topo.vn_ids))]


def test_decode_memo_scope(monkeypatch):
    """Every CN and VN decodes a query's wire points through one memo in its
    query state: each entry re-encodes to its bytes, no two nodes hold the
    same point object (a VN seeds its memo with copies of the public noise
    list), and `close` drops the memo with the state."""
    from itertools import combinations

    from privq.harness.bus import NodeBase

    memos, close = {}, NodeBase.close

    def spy(self, query_id):
        state = self.states.get(query_id)
        if state is not None and hasattr(state, "memo"):
            memos[self.identity] = state.memo
        close(self, query_id)

    monkeypatch.setattr(NodeBase, "close", spy)
    topo = Topology.build(n_cns=3, n_dps=3, n_vns=3, seed=32)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 8}
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 20}], "DP3": [{"x": 30}]}
    sim = Simulation(topo, seed=32)
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3", scale=100, dp_privacy=True))
    assert sim.audit(out.query_id).ok
    assert set(memos) == {*topo.cn_ids, *topo.vn_ids}
    for memo in memos.values():
        assert memo and all(point.encode() == data for data, point in memo.items())
    noise = {point.encode(): point for ct in topo.initial_noise() for point in (ct.c1, ct.c2)}
    for vn in topo.vn_ids:
        assert noise.keys() <= memos[vn].keys()
        assert all(memos[vn][data] is not point for data, point in noise.items())
    for a, b in combinations(memos, 2):
        shared = memos[a].keys() & memos[b].keys()
        assert shared and all(memos[a][data] is not memos[b][data] for data in shared)
    _assert_no_query_state(sim)


def test_decode_memo_never_holds_a_failed_decode():
    """A malformed point raises MalformedProof on every read through a memo,
    and only the points that decoded enter it."""
    from privq.errors import MalformedProof
    from privq.group import get_group

    group = get_group("ed25519")
    good, bad = group.mul(3, group.base()).encode(), b"\xff" * 32
    memo = {}
    for _ in range(2):
        reader = Reader(good + bad, group, memo=memo)
        assert reader.point().encode() == good
        with pytest.raises(MalformedProof):
            reader.point()
    assert list(memo) == [good]
