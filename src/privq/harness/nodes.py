"""Role runtimes: querier, computing node, data provider, verifying node.

All cross-node interaction goes through bus Messages. Per-query state
lives in each node's `states` dictionary keyed by query id; a message that
overtakes the one opening its query is parked by `NodeBase` until that one
arrives. A message whose handler raises a `PrivqError` is dropped as if it
never arrived.

Every step that waits on other nodes follows one collection rule,
`Awaited`: it takes one input from each source it awaits, and a repeat or
an input from anyone else is dropped as `UnexpectedInput`. An input is
taken only once its payload has been read and checked, so a dropped one
leaves its sender awaited. A CN's running round collects this way through
one handler, keyed by message round and sender: first the message that
opens the round on it (the parent's `round_request`, the chain
predecessor's `cdp_pass`), then what its step awaits; between rounds it
takes only the opener of a later round of its plan. A VN takes one signed
bundle per expected proof key, and the leader VN one map and one block
signature from every VN.

Timeouts are modeled by the bus idle callback: a CN missing DP responses
proceeds without them, a CN missing another CN's input aborts the query,
naming its stage and the CNs it still awaits (in the noise shuffle, whose
middle links each report to the root once they have forwarded, the first
link in chain order that has not), and the leader VN starts
block assembly once traffic has drained; on the hard timeout it assembles
and seals with the f_h maps and signatures it holds. A block enters a VN's
or the querier's chain only through `ledger.Chain.append`; a
`block_commit` it refuses is dropped. The querier takes a `result` only
from the root CN, and a `result` or an `abort` only for a query it has
open.

A node ends its part of a query with `close`: the querier when
`Simulation.run` returns, the root CN after the result or an abort, the
other CNs after their key-switch share, any CN at the hard timeout, the
leader VN once it seals or fails to seal, and the other VNs on the
committed block or an abort. A VN keeps each query's bundle bytes (`kv`).

Each rule has one implementation outside this module, and the nodes here
only route messages to it, keep per-query state and handle timeouts: the
query plan (`QueryPlan`: a query's rounds in order, the messages that
feed a CN in each and who may send them, each round's VN check
`VnNode._check_<kind>`, and how its output follows from what it proved),
the protocol steps, their verifiers and the width rule (`check_input`)
in privq.protocols, the bounded range statement in
privq.proofs.rangeproof, and the expected proofs and block rules in
privq.ledger. Provers sign and send their proof bundles with
`emit_bundle`. A response, an aggregation input and a result are one
ciphertext list, count last, which `read_cts` reads without trailing
bytes.

A VN takes each bundle as it comes, once its signature holds, and judges
it only when its round settles: `VnNode._settle` settles the query's rounds
in plan order, each once no bundle of it is awaited, and every round left
before the VN's map leaves it. It walks a round's bundles in plan order,
makes each bundle's draws and runs the round's check (`_check_<kind>`) on
each drawn sub-proof: decoding, the statement of a CTKS/CTO proof, which
`protocols.round_proof` builds from the payload and the keys the VN holds,
the shape of a shuffle proof, and the aggregation, range and chain checks.
A check compares only against values that bundles judged before it read
(`state.slots`), so it can fail only its own sub-proof and the verdicts do
not depend on arrival order; a CN's aggregation, judged after its
children's, must list their checked outputs. A CTKS/CTO bundle must run
over the round's input: the previous round's output (`Round.output`) if
the VN has it, else the list of the round's first bundle that had a
sub-proof drawn. A CTKS bundle is one sub-proof, the CN's shares of the
whole list with one batched proof; a CTO bundle has one per ciphertext.
The round's output sums the shares the payloads carry. One
`verify_linear` or `verify_shuffle` call checks the proof equations of a
round's bundles that passed (a batched statement term by term), and only
if that joint batch rejects is each bundle checked alone, so a verdict
stays per bundle and all-or-nothing within it. A VN takes `end_query`
only from the root CN and `map_request` only from the block's leader VN.

Every CN and VN reads the wire through a decode memo in its query state
(`serial.Reader`), so it decodes each distinct point once per query; a VN
seeds its memo with the public noise list it holds.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

from .. import elgamal, ledger, protocols
from ..elgamal import pack_cts, read_cts
from ..encodings import (
    decode as decode_aggregate,
    encode_with_nonces,
    neutral_response,
    train_logreg,
)
from ..errors import (
    CnUnavailable, DimensionMismatch, PrivqError, UnexpectedInput)
from ..proofs import rangeproof
from ..proofs.linear import verify_linear
from ..proofs.shuffle import decode_shuffle, shuffle_and_prove, verify_shuffle
from ..proofs.signatures import sign, verify_signature
from ..proofs.transcript import joint_verdicts
from ..serial import Reader, pack_bytes, pack_u32
from .bus import NodeBase
from .queryparse import apply_filter, decode_query

RESULT_ROUND = "result"


class Awaited:
    """One input from each awaited source, the collection rule of the module
    docstring: `inputs` in arrival order, `waiting` the sources left."""

    def __init__(self, sources, taken=None):
        self.inputs = dict(taken or {})
        self.waiting = set(sources) - self.inputs.keys()

    def take(self, sender, read):
        """Take `read()`, the sender's payload read and checked, as its input;
        a `read` that raises leaves the sender awaited."""
        if sender not in self.waiting:
            raise UnexpectedInput(f"input from {sender}, which is not awaited")
        self.inputs[sender] = read()
        self.waiting.remove(sender)


def emit_bundle(node, query_id, proof_type, seq_index, payloads):
    """Sign `payloads` as the node's proof bundle and send it to every VN."""
    bundle = ledger.ProofBundle(query_id, node.identity, proof_type, seq_index,
                                payloads).signed(
        node.topology.group, node.topology.keys[node.identity].private)
    encoded = bundle.encode()
    for vn in node.topology.vn_ids:
        node.send(query_id, "proof_bundle", vn, encoded)


# ---------------------------------------------------------------------------
# querier


class QuerierNode(NodeBase):
    def __init__(self, identity, topology, rng, table, chain):
        super().__init__(identity, topology, rng)
        self.table = table
        self.chain = chain
        self.root = protocols.build_tree(topology.cn_ids, topology.tree_shape).root

    def start(self, query):
        state = SimpleNamespace(query=query, result=None, error=None,
                                block=None, raw_values=None)
        self.states[query.query_id] = state
        body = query.encode()
        signature = sign(self.topology.group, self.topology.keys[self.identity].private, body)
        for cn in self.topology.cn_ids:
            self.send(query.query_id, "query", cn, body)
        signed = pack_bytes(body) + pack_bytes(signature)
        for vn in self.topology.vn_ids:
            self.send(query.query_id, "query_vn", vn, signed)
        return state

    def _open_state(self, msg):
        state = self.states.get(msg.query_id)
        if state is None:
            raise UnexpectedInput(f"{msg.round} for query {msg.query_id!r}, which is not open")
        return state

    def on_result(self, msg):
        state = self._open_state(msg)
        if msg.sender != self.root:
            raise UnexpectedInput(f"result from {msg.sender}, which is not the root CN")
        group = self.topology.group
        *vector, count_ct = read_cts(group, msg.payload)
        sk = self.topology.keys[self.identity].private
        op = state.query.operation
        try:
            count = elgamal.decrypt(group, count_ct, sk, self.table)
            if op.zero_test_only:
                values = [int(not elgamal.decrypt_point(group, ct, sk).is_identity())
                          for ct in vector]
            else:
                values = [elgamal.decrypt(group, ct, sk, self.table) for ct in vector]
            state.raw_values = (values, count)
            state.result = decode_aggregate(op, values, count)
            if op.kind == "log_reg" and count > 0:
                train = state.query.params.get("train", {})
                state.result.flags["model"] = train_logreg(
                    state.result.values, count, op.feature_count, op.approx_degree,
                    lam=train.get("lambda", 0.0),
                    learning_rate=train.get("learning_rate", 0.1),
                    max_iter=train.get("max_iter", 100),
                )
        except PrivqError as exc:
            state.error = exc

    def on_abort(self, msg):
        self._open_state(msg).error = CnUnavailable(msg.payload.decode(errors="replace"))

    def on_block_commit(self, msg):
        block = self.chain.accept(msg.payload)  # a block it refuses is dropped
        if block.query_id in self.states:
            self.states[block.query_id].block = block


# ---------------------------------------------------------------------------
# data provider


class DpNode(NodeBase):
    def __init__(self, identity, topology, rng, range_sigs=None,
                 decline=False, malicious_value=None):
        super().__init__(identity, topology, rng)
        self.range_sigs = range_sigs
        self.decline = decline
        self.malicious_value = malicious_value

    def _records(self, query):
        rows = apply_filter(self.topology.dp_data.get(self.identity, []), query.filter)
        exists = query.params.get("exists_range")
        if exists is not None and query.operation.kind == "or":
            lo, hi = exists
            attr = query.attributes[0]
            bit = any(lo <= row.get(attr, lo - 1) < hi for row in rows)
            return [(1 if bit else 0,)]
        records = []
        for row in rows:
            if all(attr in row for attr in query.attributes):
                records.append(tuple(row[attr] for attr in query.attributes))
        return records

    def on_query(self, msg):
        query = decode_query(msg.payload)
        if self.identity not in query.dp_list:
            return
        group = self.topology.group
        pk = self.topology.collective_key().public
        op = query.operation
        if self.decline:
            self.send(query.query_id, "dp_response", msg.sender,
                      pack_cts(neutral_response(group, op, pk, self.rng)))
            return
        records = self._records(query)
        cts, raws, nonces = encode_with_nonces(
            group, op, records, pk, self.rng,
            max_message=self.topology.max_message)
        if self.malicious_value is not None and len(cts) > 1:
            # substitute an out-of-range element 0 with a forged-digit proof
            bad = int(self.malicious_value)
            nonce = group.random_scalar(self.rng)
            cts[0] = elgamal.encrypt_with_nonce(group, bad, pk, nonce)
            raws[0], nonces[0] = bad, nonce
        if query.bounds is not None and self.range_sigs is not None:
            self._emit_range_proofs(query, pk, raws, nonces, cts)
        self.send(query.query_id, "dp_response", msg.sender, pack_cts(cts))

    def _emit_range_proofs(self, query, pk, raws, nonces, cts):
        element_bounds = query.operation.element_bounds()
        for j, (raw, nonce, bounds) in enumerate(zip(raws, nonces, element_bounds)):
            lower, upper = rangeproof.prove_bounded(
                self.topology.group, raw, nonce, pk, self.range_sigs, bounds, self.rng)
            payload = (pack_u32(j) + pack_bytes(cts[j].encode())
                       + pack_bytes(lower.encode()) + pack_bytes(upper.encode()))
            emit_bundle(self, query.query_id, "range", j, (payload,))


# ---------------------------------------------------------------------------
# computing node


class CnNode(NodeBase):
    opening_round = "query"

    def __init__(self, identity, topology, rng):
        super().__init__(identity, topology, rng)
        self.tree = protocols.build_tree(topology.cn_ids, topology.tree_shape)
        self.index = self.tree.nodes.index(identity)
        self.is_root = self.index == 0
        self.parent = None if self.is_root else self.tree.nodes[self.tree.parents[self.index]]

    def on_query(self, msg):
        query = decode_query(msg.payload)
        plan = protocols.QueryPlan(query, self.tree, self.topology.dp_assignment)
        self.states[query.query_id] = SimpleNamespace(
            query=query,
            plan=plan,
            stage=0,  # the plan round this CN runs, or last ran if between rounds
            round=None,  # plan.rounds[stage]
            opener=None,  # the (message round, sender) that opens it here, if any
            inputs=(),  # the (message round, sender) pairs it then collects
            awaited=None,  # what it awaits now, by (message round, sender)
            round_cts=None,  # the input cts of the running CTKS/CTO round
            current=None,  # root: the ciphertext list through the rounds, count last
            memo={},  # the query's decode memo (`serial.Reader`)
        )
        for round_, dp in plan.feeds("aggregation", self.identity)[1]:
            if round_ == "dp_response":
                self.send(query.query_id, "query", dp, msg.payload)
        self._next_round(query.query_id, 0)

    def _next_round(self, query_id, stage):
        """Start round `stage` of the query's plan here: await its opener, or
        run this CN's step of it."""
        state = self.states[query_id]
        state.stage, state.round = stage, state.plan.rounds[stage]
        state.opener, state.inputs = state.plan.feeds(state.round.kind, self.identity)
        if state.opener:
            state.awaited = Awaited([state.opener])
        elif state.round.kind == "shuffle":  # the root, link 0, starts the chain
            scale = state.query.operation.value_scale
            self._step(query_id, list(self.topology.initial_noise(scale)))
        else:  # aggregation, or the root's CTKS/CTO round over its output so far
            self._step(query_id, state.round.input(state.current))

    def _take_input(self, msg):
        """The one input handler of a CN: the running round takes the message
        of each (message round, sender) pair it awaits, once it is read and
        checked, and runs this CN's step once its opener is in. Between
        rounds, the opener of a later round (`QueryPlan.opens`) starts it."""
        state = self.states[msg.query_id]
        key = (msg.round, msg.sender)
        if not state.awaited.waiting:
            stage = state.plan.opens(self.identity, state.stage, key, msg.payload)
            if stage is not None:
                self._next_round(msg.query_id, stage)
        state.awaited.take(key, lambda: self._read(state, msg))
        if key == state.opener:
            self._step(msg.query_id, state.awaited.inputs[key])
        else:
            self._try_finish(msg.query_id)

    on_dp_response = on_cta_partial = on_round_request = _take_input
    on_round_share = on_cdp_pass = on_cdp_ack = on_cdp_done = _take_input

    def _read(self, state, msg):
        reader = Reader(msg.payload)
        if msg.round == "cdp_ack":  # empty: the link has forwarded its list
            reader.expect_done()
            return None
        if state.round.tag and reader.text() != state.round.tag:
            raise UnexpectedInput(f"{msg.round} for another round than {state.round.proof_type}")
        cts = read_cts(self.topology.group, reader.rest(), state.memo)
        if state.round.kind == "aggregation":  # the width rule
            return protocols.check_input(state.query.operation, cts)
        if msg.round == "cdp_done":
            return protocols.cdp_apply(state.current, cts)
        if msg.round == "round_share" and len(cts) != len(state.round_cts):
            raise DimensionMismatch(f"{len(cts)} shares, {len(state.round_cts)} expected")
        return cts

    def _step(self, query_id, cts):
        """Run this CN's step of the running CTKS/CTO round or shuffle over
        `cts`, then collect the round's inputs (aggregation has no step)."""
        state = self.states[query_id]
        group, rnd, taken = self.topology.group, state.round, {}
        if rnd.kind == "shuffle":
            outputs, proof = shuffle_and_prove(
                group, cts, self.topology.collective_key().public, self.rng)
            emit_bundle(self, query_id, "shuffle", 0, (proof.encode(),))
            following = self.tree.nodes[self.index + 1:]
            self.send(query_id, "cdp_pass" if following else "cdp_done",
                      following[0] if following else self.tree.root, pack_cts(list(outputs)))
            if following and not self.is_root:
                self.send(query_id, "cdp_ack", self.tree.root)
        elif rnd.kind == "tree":
            state.round_cts = cts
            for _, child in state.inputs:
                self.send(query_id, "round_request", child,
                          pack_bytes(rnd.tag.encode()) + pack_cts(cts))
            shares, payloads = protocols.round_shares(
                group, rnd.proof_type, cts, self.rng, self.topology.keys[self.identity],
                self.topology.keys[self.topology.querier_id].public)
            emit_bundle(self, query_id, rnd.proof_type, 0, tuple(payloads))
            taken = {("round_share", self.identity): shares}
        state.awaited = Awaited(state.inputs, taken)
        self._try_finish(query_id)

    def _try_finish(self, query_id):
        """End the running round once every awaited input is in."""
        state = self.states[query_id]
        if state.awaited.waiting:
            return
        rnd, inputs = state.round, state.awaited.inputs
        if rnd.kind == "aggregation":
            labels, parts = [sender for _, sender in inputs], list(inputs.values())
            if not parts:  # nothing from below and no local DPs: a neutral zero
                labels, parts = [protocols.neutral_label(self.identity)], [tuple(
                    neutral_response(self.topology.group, state.query.operation,
                                     self.topology.collective_key().public, self.rng))]
            agg = protocols.aggregate(labels, parts)
            emit_bundle(self, query_id, "aggregation", 0, (agg.encode(),))
            state.current = list(agg.output)
            if self.parent is not None:
                self.send(query_id, "cta_partial", self.parent, pack_cts(agg.output))
        elif rnd.kind == "shuffle":
            if self.is_root:
                state.current = inputs[state.inputs[-1]]  # the last link's list
        elif self.is_root:  # the shares of every CN
            state.current = rnd.output(state.current, list(inputs.values()))
        else:  # the sums of this CN's and its children's shares
            self.send(query_id, "round_share", self.parent, pack_bytes(rnd.tag.encode())
                      + pack_cts(protocols.sum_vectors(list(inputs.values()))))
        if rnd.proof_type != "keyswitch":  # key switching is the last round
            if self.is_root:  # the others await the next round's opener
                self._next_round(query_id, state.stage + 1)
            return
        if self.is_root:
            self.send(query_id, RESULT_ROUND, self.topology.querier_id, pack_cts(state.current))
            for vn in self.topology.vn_ids:
                self.send(query_id, "end_query", vn)
        self.close(query_id)

    # ----- timeouts -----

    def on_idle(self, level: int = 0):
        for query_id, state in list(self.states.items()):
            late_dps = {key for key in state.awaited.waiting if key[0] == "dp_response"}
            if late_dps:
                # unresponsive DPs only reduce the number of responses
                state.awaited.waiting -= late_dps
                self._try_finish(query_id)
            if level < 1:
                continue
            # hard timeout: the traffic has drained, so nothing more can
            # arrive for the queries this CN still holds (only CNs are awaited)
            waiting = state.awaited.waiting
            missing = sorted(sender for _, sender in waiting)
            if waiting and state.round.kind == "shuffle" and self.is_root:
                # a silent link starves the links after it: name the first
                missing = [next(key for key in state.inputs if key in waiting)[1]]
            if missing or self.is_root:
                self._abort(query_id, f"stage {state.round.proof_type}: "
                                      f"unresponsive CNs: {missing}")
            self.close(query_id)

    def _abort(self, query_id, reason):
        """Tell the querier, and from the root every VN, that the query failed."""
        recipients = (self.topology.querier_id,)
        if self.is_root:
            recipients += tuple(self.topology.vn_ids)
        for recipient in recipients:
            self.send(query_id, "abort", recipient, reason.encode())


# ---------------------------------------------------------------------------
# verifying node


class VnNode(NodeBase):
    opening_round = "query_vn"

    def __init__(self, identity, topology, rng, policy, chain, range_sigs=None):
        super().__init__(identity, topology, rng)
        self.policy = policy
        self.range_sigs = range_sigs
        self.tree = protocols.build_tree(topology.cn_ids, topology.tree_shape)
        self.chain = chain
        self.kv = {}  # query id -> {proof key -> bundle bytes}: every bundle taken

    # ----- query intake and proof verification -----

    def on_query_vn(self, msg):
        reader = Reader(msg.payload)
        body = reader.bytes_field()
        signature = reader.bytes_field()
        group = self.topology.group
        querier_pk = self.topology.keys[self.topology.querier_id].public
        if not verify_signature(group, querier_pk, body, signature):
            return
        query = decode_query(body)
        plan = protocols.QueryPlan(query, self.tree, self.topology.dp_assignment,
                                   self.range_sigs is not None)
        expected = ledger.expected_proofs(plan)
        slots = {}  # slot -> what a judged bundle read, for the checks after it
        memo = {}  # the query's decode memo (`serial.Reader`)
        if query.dp_privacy:  # the chain's first link shuffles the public list
            noise = self.topology.initial_noise(query.operation.value_scale)
            slots[("shuffle", 0)] = pack_cts(noise)
            # the list the VN holds, as its own points: no other node's
            memo.update((point.encode(), copy.copy(point))
                        for ct in noise for point in (ct.c1, ct.c2))
        self.states[query.query_id] = SimpleNamespace(
            query=query,
            query_bytes=body,
            plan=plan,
            map=ledger.QueryProofsMap(expected),  # its entries are in plan order
            bundles=Awaited(expected),  # one signed bundle per expected proof key
            settled=0,  # how many plan rounds `_settle` has settled, in order
            outputs=[],  # each settled round's output, while `Round.output` gives it
            slots=slots,
            memo=memo,
            ended=False,
            maps=Awaited(()),  # leader: each VN's map, once it assembles
            signatures=Awaited(()),  # leader: each VN's block signature
            block=None,  # leader: the assembled block, not yet sealed
        )

    def on_proof_bundle(self, msg):
        bundle = ledger.ProofBundle.decode(msg.payload)
        state = self.states.get(bundle.query_id)
        if state is None:
            return
        state.bundles.take(bundle.key, lambda: bundle.verified(
            self.topology.group, self.topology.keys[bundle.prover_id].public))
        self.kv.setdefault(bundle.query_id, {})[bundle.key] = msg.payload
        self._settle(state)

    def _verify_sub(self, state, bundle, kind, index, parts) -> bool:
        """The VN check of the bundle's round, `_check_<kind>`, on one
        sub-proof; what it read goes to `parts`."""
        parts[index] = None
        try:
            parts[index] = getattr(self, "_check_" + kind)(state, bundle, index)
        except (PrivqError, ValueError, IndexError, KeyError):
            return False
        return parts[index] is not None

    def _settle(self, state, force=False):
        """Settle the query's rounds in plan order, each once no bundle of it
        is awaited (with `force`, every round left: the VN's map is about to
        leave it, so this is final). A round's bundles make their draws and
        run their checks in plan order; the CTKS/CTO or shuffle bundles that
        pass are then checked with one batch, each alone only if it rejects."""
        rounds = state.plan.rounds
        while state.settled < len(rounds):
            stage, rnd = state.settled, rounds[state.settled]
            if not force and any(state.map.entries[key].proof_type == rnd.proof_type
                                 for key in state.bundles.waiting):
                return
            state.settled += 1
            if rnd.kind == "tree" and len(state.outputs) == stage:  # the round's input
                state.slots[rnd.proof_type] = b"".join(
                    ct.encode() for ct in rnd.input(state.outputs[-1]))
            judged = {}  # key -> (prover, status, what its drawn sub-proofs read, all drawn)
            for key, entry in state.map.entries.items():
                bundle = state.bundles.inputs.get(key)
                if entry.proof_type != rnd.proof_type or bundle is None:
                    continue
                parts = {}  # drawn sub-proof index -> what its check read, None if it failed
                status = ledger.probabilistic_verify(
                    bundle, self.policy, self.rng,
                    lambda i: self._verify_sub(state, bundle, rnd.kind, i, parts))
                judged[key] = (bundle.prover_id, status, list(parts.values()),
                               len(parts) == len(bundle.payloads))
            held = {key: read for key, (_, status, read, _) in judged.items()
                    if status == ledger.STATUS_TRUE}
            if held and rnd.kind in ("tree", "shuffle"):  # (what it proved, proof) each
                holds = joint_verdicts(verify_linear if rnd.kind == "tree" else verify_shuffle,
                                       ([proof for _, proof in read] for read in held.values()))
                held = {key: read for (key, read), ok in zip(held.items(), holds) if ok}
            for key, (_, status, _, _) in judged.items():
                # a bundle that passed its drawn checks but not the round's batch is false
                state.map.record(key, ledger.STATUS_FALSE if status == ledger.STATUS_TRUE
                                 and key not in held else status)
            if len(state.outputs) == stage and state.settled < len(rounds):
                self._output(state, rnd, {prover: held[key] for key, (prover, _, _, complete)
                                          in judged.items() if complete and key in held})

    @staticmethod
    def _output(state, rnd, proved):
        """Add the settled round's output, if the provers of its
        `outputs_from` proved it: `proved` maps each prover whose bundle
        holds and had every sub-proof drawn to what its sub-proofs read."""
        parts = []
        for prover in rnd.outputs_from:
            if prover not in proved:
                return
            read = proved[prover]
            if rnd.kind == "tree":  # the shares its payloads carry, in list order
                read = [share for shares, _ in read for share in shares]
            elif rnd.kind == "shuffle":
                read = [outputs for outputs, _ in read]
            parts.append(read)
        try:
            state.outputs.append(rnd.output(state.outputs[-1] if state.outputs else None,
                                            parts))
        except PrivqError:  # a noise list too short: the root drops it too
            pass

    def _check_range(self, state, bundle, index):
        """A DP's range proof holds over the ciphertext its CN aggregated, if
        the VN verified that aggregation: proving one ciphertext and
        submitting another makes this proof false."""
        group, j = self.topology.group, bundle.seq_index
        reader = Reader(bundle.payloads[index])
        if reader.u32() != j:  # a proof of another element than its key names
            return None
        ct = elgamal.decode_ciphertext(group, reader.bytes_field(), state.memo)
        proofs = (rangeproof.decode_range(group, reader.bytes_field(), state.memo),
                  rangeproof.decode_range(group, reader.bytes_field(), state.memo))
        reader.expect_done()
        bounds = state.query.operation.element_bounds()[j]
        if state.slots.get(("range", bundle.prover_id, j), ct) == ct and (
                rangeproof.verify_bounded(ct, proofs, bounds, self.range_sigs,
                                          self.topology.collective_key().public)):
            return ct
        return None

    def _check_aggregation(self, state, bundle, index):
        """A CN's aggregation sums inputs from its sources and lists for a
        child CN the output of the child's, if the VN verified it; its output
        and its DPs' ciphertexts fill the slots that its parent's check and
        their range proofs read."""
        agg = protocols.Aggregation.decode(self.topology.group, bundle.payloads[index],
                                           state.memo)
        _, inputs = state.plan.feeds("aggregation", bundle.prover_id)
        if not protocols.verify_aggregation(agg, bundle.prover_id, [s for _, s in inputs]):
            return None
        listed = list(zip(agg.labels, agg.inputs))
        if any(("cta_partial", label) in inputs
               and state.slots.get(("partial", label), cts) != cts for label, cts in listed):
            return None
        for label, cts in listed:
            if ("dp_response", label) in inputs:
                state.slots.update((("range", label, j), ct) for j, ct in enumerate(cts[:-1]))
        state.slots[("partial", bundle.prover_id)] = agg.output
        return agg.output

    def _check_tree(self, state, bundle, index):
        """Input check of one CTKS/CTO sub-proof (the round's input is set as
        the module docstring says), and its shares and its proof read against
        the VN's own statement; `_settle` verifies the proofs in a batch."""
        listed = b"".join(Reader(p).bytes_field() for p in bundle.payloads)
        if state.slots.setdefault(bundle.proof_type, listed) != listed:
            return None
        return protocols.round_proof(
            self.topology.group, bundle.proof_type, bundle.payloads[index],
            cn_public=self.topology.keys[bundle.prover_id].public,
            target_pk=self.topology.keys[self.topology.querier_id].public,
            memo=state.memo)

    def _check_shuffle(self, state, bundle, index):
        """Shape and chain check of a shuffle proof: link i shuffles link
        i - 1's output list, as its proof states it, and link 0 the public
        list. `_settle` verifies the proof in the round's batch."""
        proof = decode_shuffle(self.topology.group, bundle.payloads[index], state.memo)
        if proof.omega != self.topology.collective_key().public:
            return None
        position = self.tree.nodes.index(bundle.prover_id)
        state.slots[("shuffle", position + 1)] = pack_cts(proof.outputs)
        listed = pack_cts(proof.inputs)
        if state.slots.get(("shuffle", position), listed) != listed:
            return None
        return list(proof.outputs), proof

    # ----- block assembly -----

    def on_end_query(self, msg):
        if msg.sender != self.tree.root:  # the leader then settles for good
            raise UnexpectedInput(f"end_query from {msg.sender}, which is not the root CN")
        state = self.states.get(msg.query_id)
        if state is not None:
            state.ended = True

    def _leader(self):
        return ledger.block_leader(self.topology.vn_ids, len(self.chain))

    def on_idle(self, level: int = 0):
        for query_id, state in list(self.states.items()):
            if state.ended and not state.maps.inputs and self._leader() == self.identity:
                self._settle(state, force=True)
                state.maps = Awaited(self.topology.vn_ids, taken={self.identity: state.map})
                for vn in self.topology.vn_ids:
                    if vn != self.identity:
                        self.send(query_id, "map_request", vn)
                self._maybe_assemble(query_id)
            elif level >= 1:
                # the maps and signatures still missing will not come: a
                # block needs only f_h of them
                self._maybe_assemble(query_id, self.policy.f_h)
                self._maybe_seal(query_id, self.policy.f_h)

    def on_map_request(self, msg):
        if msg.sender != self._leader():  # the VN then settles for good
            raise UnexpectedInput(f"map_request from {msg.sender}, which is not the leader")
        state = self.states.get(msg.query_id)
        if state is not None:
            self._settle(state, force=True)
            self.send(msg.query_id, "map_submit", msg.sender, state.map.encode())

    def on_map_submit(self, msg):
        state = self.states.get(msg.query_id)
        if state is not None:
            state.maps.take(msg.sender,
                            lambda: ledger.QueryProofsMap.decode(Reader(msg.payload)))
            self._maybe_assemble(msg.query_id)

    def _maybe_assemble(self, query_id, quorum=None):
        """Assemble once `quorum` maps are in, by default one from every VN."""
        state = self.states[query_id]
        if len(state.maps.inputs) < (quorum or len(self.topology.vn_ids)) or state.block:
            return
        state.block = self.chain.next_block(query_id, state.query_bytes,
                                            state.maps.inputs)
        state.signatures = Awaited(self.topology.vn_ids)
        for vn in self.topology.vn_ids:
            self.send(query_id, "block_sign_request", vn, state.block.encode())

    def on_block_sign_request(self, msg):
        state = self.states.get(msg.query_id)
        if state is None:
            return
        signature = ledger.sign_block(
            self.topology.group, self.identity, self.topology.keys[self.identity].private,
            ledger.Block.decode(msg.payload), state.map)
        self.send(msg.query_id, "block_signature", msg.sender, signature)

    def on_block_signature(self, msg):
        state = self.states.get(msg.query_id)
        if state is not None:
            state.signatures.take(msg.sender, lambda: msg.payload)
            self._maybe_seal(msg.query_id)

    def _maybe_seal(self, query_id, quorum=None):
        """Seal once `quorum` VNs answered, by default every VN; the leader
        tries once, which ends its part of the query, and sends the block,
        or an abort if too few VNs signed, to the other VNs and the querier."""
        state = self.states[query_id]
        if len(state.signatures.inputs) < (quorum or len(self.topology.vn_ids)):
            return
        self.close(query_id)
        try:
            round_, payload = "block_commit", ledger.seal_block(
                self.chain, state.block, state.signatures.inputs).encode()
        except PrivqError as exc:
            round_, payload = "abort", str(exc).encode()
        others = [vn for vn in self.topology.vn_ids if vn != self.identity]
        for recipient in (*others, self.topology.querier_id):
            self.send(query_id, round_, recipient, payload)

    def on_block_commit(self, msg):
        self.close(self.chain.accept(msg.payload).query_id)

    def on_abort(self, msg):
        self.close(msg.query_id)


class MultiRoleNode(NodeBase):
    """One physical node hosting several roles under a single identity."""

    def __init__(self, parts):
        self.parts = parts
        first = parts[0]
        super().__init__(first.identity, first.topology, first.rng)

    @property
    def bus(self):
        return self._bus

    @bus.setter
    def bus(self, value):
        self._bus = value
        for part in getattr(self, "parts", ()):
            part.bus = value

    def handle(self, msg):
        for part in self.parts:
            if hasattr(part, "on_" + msg.round):
                part.handle(msg)
                return
        super().handle(msg)  # drops it: no part handles it

    def on_idle(self, level: int = 0):
        for part in self.parts:
            part.on_idle(level)
