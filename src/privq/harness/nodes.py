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
leaves its sender awaited. Four steps collect this way, a CN's running
stage through one handler (DP responses and child partial sums, child
shares of the CTKS/CTO round its tag names, the shuffle chain's output)
and the leader VN's maps and block signatures, one from every VN each.

Timeouts are modeled by the bus idle callback: a CN missing DP responses
proceeds without them, a CN missing another CN's input aborts the query,
naming its stage and the CNs it still awaits, and the leader VN starts
block assembly once traffic has drained; on the hard timeout it assembles
and seals with the f_h maps and signatures it holds. A block enters a VN's
or the querier's chain only through `ledger.Chain.append`; a
`block_commit` it refuses is dropped.

A node ends its part of a query with `close`: the querier when
`Simulation.run` returns, the root CN after the result or an abort, the
other CNs after their key-switch share, any CN at the hard timeout, the
leader VN once it seals or fails to seal, and the other VNs on the
committed block or an abort. A VN keeps each query's bundle bytes (`kv`).

Each rule has one implementation outside this module, and the nodes here
only route messages to it, keep per-query state and handle timeouts: the
protocol steps, their verifiers, a CN's `aggregation_sources`, the width
rule (`check_input`) and the round plan (`query_rounds`) in
privq.protocols, the bounded range statement in privq.proofs.rangeproof,
and the expected proofs and block rules in privq.ledger. Provers sign and
send their proof bundles with `emit_bundle`. A response, an aggregation
input and a result are one ciphertext list, count last, which `read_cts`
reads without trailing bytes.

A VN checks the shape of each sampled CTKS/CTO sub-proof
(`protocols.round_proof`), then verifies the bundle's linear proofs with
one batched `verify_linear` call; the verdict is all-or-nothing. Values
two bundles must agree on meet in one table through `VnNode._bind`,
whichever comes first: a DP's range-proved ciphertext and its aggregated
input, adjacent shuffle-chain links, and each round's input list.
"""

from __future__ import annotations

from functools import reduce
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
    CnUnavailable, DimensionMismatch, MalformedProof, PrivqError, UnexpectedInput)
from ..proofs import rangeproof
from ..proofs.linear import verify_linear
from ..proofs.shuffle import decode_shuffle, shuffle_and_prove, verify_shuffle
from ..proofs.signatures import sign, verify_signature
from ..serial import Reader, pack_bytes, pack_u32
from .bus import NodeBase
from .queryparse import apply_filter, decode_query

RESULT_ROUND = "result"
# the CN stage whose input each round brings; a share's round is named by its tag
INPUT_STAGE = {"dp_response": "aggregation", "cta_partial": "aggregation",
               "cdp_done": "shuffle"}
TAG_STAGE = {"cto": "obfuscation", "ctks": "keyswitch"}  # the CTO/CTKS wire tags
ROUND_TAG = {stage: tag for tag, stage in TAG_STAGE.items()}


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

    def on_result(self, msg):
        state = self.states[msg.query_id]
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
        self.states[msg.query_id].error = CnUnavailable(msg.payload.decode(errors="replace"))

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
        self.children = [self.tree.nodes[i] for i in self.tree.children(self.index)]

    def on_query(self, msg):
        query = decode_query(msg.payload)
        dps, children = protocols.aggregation_sources(
            self.tree, self.identity, query, self.topology.dp_assignment)
        self.states[query.query_id] = SimpleNamespace(
            query=query,
            dps=dps,
            stage="aggregation",  # the query_rounds entry this CN is running
            awaited=Awaited(dps + children),  # the running stage's inputs
            round_cts=None,  # the input cts of the running CTKS/CTO round
            current=None,  # root: the ciphertext list through the stages, count last
        )
        for dp in dps:
            self.send(query.query_id, "query", dp, msg.payload)
        self._try_finish(query.query_id)

    def _take_input(self, msg):
        """The one input handler of a CN, for DP responses and child partial
        sums (aggregation), child shares (`round_share`, whose tag names its
        round) and the shuffle chain's output (`cdp_done`). The running stage
        takes one input from each source it awaits, once it is read and
        checked; an input for another stage is awaited from nobody."""
        state = self.states[msg.query_id]
        reader = Reader(msg.payload)
        stage = (TAG_STAGE.get(reader.text()) if msg.round == "round_share"
                 else INPUT_STAGE[msg.round])
        awaited = state.awaited if stage == state.stage else Awaited(())
        awaited.take(msg.sender, lambda: self._check_input(
            state, read_cts(self.topology.group, reader.rest())))
        self._try_finish(msg.query_id)

    on_dp_response = on_cta_partial = on_round_share = on_cdp_done = _take_input

    def _check_input(self, state, cts):
        if state.stage == "aggregation":  # the width rule
            return protocols.check_input(state.query.operation, cts)
        if state.stage == "shuffle":
            return protocols.cdp_apply(state.current, cts)
        if len(cts) != len(state.round_cts):
            raise DimensionMismatch(f"{len(cts)} shares, {len(state.round_cts)} expected")
        return cts

    def _try_finish(self, query_id):
        """End the running stage once every awaited input is in."""
        state = self.states[query_id]
        if state.awaited.waiting:
            return
        inputs = state.awaited.inputs
        if state.stage == "aggregation":
            if not inputs:  # nothing from below and no local DPs: a neutral zero
                inputs = {protocols.neutral_label(self.identity): tuple(neutral_response(
                    self.topology.group, state.query.operation,
                    self.topology.collective_key().public, self.rng))}
            agg = protocols.aggregate(list(inputs), list(inputs.values()))
            emit_bundle(self, query_id, "aggregation", 0, (agg.encode(),))
            state.current = list(agg.output)
            if self.parent is not None:
                self.send(query_id, "cta_partial", self.parent, pack_cts(agg.output))
                return
        elif state.stage == "shuffle":
            (state.current,) = inputs.values()
        else:  # a CTKS/CTO round: the sum of this CN's and its children's shares
            sums = reduce(protocols.add_shares, inputs.values())
            if self.parent is not None:
                self.send(query_id, "round_share", self.parent,
                          pack_bytes(ROUND_TAG[state.stage].encode()) + pack_cts(sums))
                if state.stage == "keyswitch":  # key switching is the last round
                    self.close(query_id)
                return
            if state.stage == "keyswitch":
                switched = protocols.ctks_combine(state.round_cts, sums)
                self.send(query_id, RESULT_ROUND, self.topology.querier_id, pack_cts(switched))
                for vn in self.topology.vn_ids:
                    self.send(query_id, "end_query", vn)
                self.close(query_id)
                return
            # obfuscation: the summed blinded shares are the obfuscated vector
            state.current = list(sums) + state.current[-1:]
        self._advance_root(query_id)

    # ----- root stage machine -----

    def _advance_root(self, query_id):
        """Start the round that follows the finished one in the query's plan."""
        state = self.states[query_id]
        rounds = protocols.query_rounds(state.query)
        state.stage = rounds[rounds.index(state.stage) + 1]
        if state.stage == "shuffle":
            # the chain runs through the CNs in tree order, back to the root
            state.awaited = Awaited(self.tree.nodes[-1:])
            self.send(query_id, "cdp_pass", self.tree.root,
                      pack_cts(self.topology.initial_noise()))
        else:  # CTO blinds the vector, CTKS switches the count too
            self._start_tree_round(query_id, state.current[:-1]
                                   if state.stage == "obfuscation" else state.current)

    def _start_tree_round(self, query_id, cts):
        """Run this CN's step of the CTKS/CTO round `state.stage` over `cts`
        and await its children's shares."""
        state = self.states[query_id]
        state.round_cts = cts
        payload = pack_bytes(ROUND_TAG[state.stage].encode()) + pack_cts(cts)
        for child in self.children:
            self.send(query_id, "round_request", child, payload)
        group = self.topology.group
        if state.stage == "keyswitch":
            target_pk = self.topology.keys[self.topology.querier_id].public
            shares, payloads = protocols.ctks_shares(
                group, cts, self.topology.keys[self.identity], target_pk, self.rng)
        else:
            shares, payloads = protocols.cto_shares(group, cts, self.rng)
        emit_bundle(self, query_id, state.stage, 0, tuple(payloads))
        state.awaited = Awaited(self.children, taken={self.identity: shares})
        self._try_finish(query_id)

    def on_round_request(self, msg):
        reader = Reader(msg.payload)
        stage = TAG_STAGE.get(reader.text())
        if stage is None:
            raise MalformedProof("round_request names no CTKS/CTO round")
        cts = read_cts(self.topology.group, reader.rest())
        self.states[msg.query_id].stage = stage
        self._start_tree_round(msg.query_id, cts)

    # ----- collective differential privacy -----

    def on_cdp_pass(self, msg):
        group = self.topology.group
        pk = self.topology.collective_key().public
        cts = read_cts(group, msg.payload)
        outputs, proof = shuffle_and_prove(group, cts, pk, self.rng)
        emit_bundle(self, msg.query_id, "shuffle", 0, (proof.encode(),))
        pos = self.index
        if pos + 1 < len(self.tree.nodes):
            self.send(msg.query_id, "cdp_pass", self.tree.nodes[pos + 1],
                      pack_cts(list(outputs)))
        else:
            self.send(msg.query_id, "cdp_done", self.tree.root,
                      pack_cts(list(outputs)))

    # ----- timeouts -----

    def on_idle(self, level: int = 0):
        for query_id, state in list(self.states.items()):
            late_dps = state.awaited.waiting.intersection(state.dps)
            if late_dps:
                # unresponsive DPs only reduce the number of responses
                state.awaited.waiting -= late_dps
                self._try_finish(query_id)
            if level < 1:
                continue
            # hard timeout: the traffic has drained, so nothing more can
            # arrive for the queries this CN still holds (only CNs are awaited)
            if state.awaited.waiting or self.is_root:
                self._abort(query_id, f"stage {state.stage}: unresponsive CNs: "
                                      f"{sorted(state.awaited.waiting)}")
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
        self.kv = {}  # query id -> {proof key -> bundle bytes}: every bundle received

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
        expected = ledger.expected_proofs(query, self.topology.cn_ids, self.range_sigs)
        bound = {}  # slot -> the first value bound to it (`_bind`)
        if query.dp_privacy:  # the chain's first link shuffles the public list
            bound[("shuffle", 0)] = pack_cts(self.topology.initial_noise())
        self.states[query.query_id] = SimpleNamespace(
            query=query,
            query_bytes=body,
            map=ledger.QueryProofsMap(expected),
            ended=False,
            maps=Awaited(()),  # leader: each VN's map, once it assembles
            signatures=Awaited(()),  # leader: each VN's block signature
            block=None,  # leader: the assembled block, not yet sealed
            bound=bound,
        )

    def on_proof_bundle(self, msg):
        bundle = ledger.ProofBundle.decode(msg.payload)
        state = self.states.get(bundle.query_id)
        if state is None:
            return
        key = bundle.key
        self.kv.setdefault(bundle.query_id, {})[key] = msg.payload  # kept unverified too
        prover_key = self.topology.keys.get(bundle.prover_id)
        group = self.topology.group
        if prover_key is None or not verify_signature(
            group, prover_key.public, bundle.body_bytes(), bundle.signature
        ):
            state.map.record(key, ledger.STATUS_FALSE)
            return
        linear_proofs = []  # the sampled CTKS/CTO sub-proofs, checked as one batch
        status = ledger.probabilistic_verify(
            bundle, self.policy, self.rng,
            lambda i: self._verify_sub(state, bundle, i, linear_proofs),
        )
        if (status == ledger.STATUS_TRUE and linear_proofs
                and not verify_linear(*linear_proofs)):
            status = ledger.STATUS_FALSE
        state.map.record(key, status)

    def _verify_sub(self, state, bundle, index, linear_proofs) -> bool:
        checks = {"range": self._check_range, "aggregation": self._check_aggregation,
                  "shuffle": self._check_shuffle}
        try:
            if bundle.proof_type in checks:
                return checks[bundle.proof_type](state, bundle, index)
            return (bundle.proof_type in ROUND_TAG
                    and self._check_round(state, bundle, index, linear_proofs))
        except (PrivqError, ValueError, IndexError, KeyError):
            return False

    def _check_range(self, state, bundle, index) -> bool:
        if self.range_sigs is None:
            return False
        group = self.topology.group
        reader = Reader(bundle.payloads[index])
        j = reader.u32()
        ct = elgamal.decode_ciphertext(group, reader.bytes_field())
        proofs = (rangeproof.decode_range(group, reader.bytes_field()),
                  rangeproof.decode_range(group, reader.bytes_field()))
        reader.expect_done()
        bounds = state.query.operation.element_bounds()[j]
        # proved one ciphertext and submitted another: this proof is false
        if not self._bind(state, bundle, ("range", bundle.prover_id, j), ct, bundle.key):
            return False
        return rangeproof.verify_bounded(ct, proofs, bounds, self.range_sigs,
                                         self.topology.collective_key().public)

    def _check_aggregation(self, state, bundle, index) -> bool:
        agg = protocols.Aggregation.decode(self.topology.group, bundle.payloads[index])
        dps, children = protocols.aggregation_sources(
            self.tree, bundle.prover_id, state.query, self.topology.dp_assignment)
        if not protocols.verify_aggregation(agg, bundle.prover_id, dps + children):
            return False
        if state.query.bounds is None or self.range_sigs is None:
            return True
        for label, cts in zip(agg.labels, agg.inputs):
            if label in dps:  # its vector must be what the DP range-proved
                for j, ct in enumerate(cts[:-1]):
                    self._bind(state, bundle, ("range", label, j), ct,
                               ledger.proof_key(state.query.query_id, label, "range", j))
        return True

    def _check_round(self, state, bundle, index, linear_proofs) -> bool:
        """Shape check of one CTKS/CTO sub-proof; its proof joins
        `linear_proofs`, which `on_proof_bundle` verifies as one batch."""
        # all CNs must run the round over the same ciphertext list; the
        # first bundle seen for the round fixes it
        if not self._bind(state, bundle, ("round", bundle.proof_type),
                          protocols.round_inputs(bundle.payloads), bundle.key):
            return False
        proof = protocols.round_proof(
            self.topology.group, bundle.proof_type, bundle.payloads[index],
            cn_public=self.topology.keys[bundle.prover_id].public,
            target_pk=self.topology.keys[self.topology.querier_id].public)
        if proof is None:
            return False
        linear_proofs.append(proof)
        return True

    def _check_shuffle(self, state, bundle, index) -> bool:
        proof = decode_shuffle(self.topology.group, bundle.payloads[index])
        if proof.omega != self.topology.collective_key().public:
            return False
        # chain link i shuffles slot i and fills slot i + 1; slot 0 is the
        # public list, and a mismatch in slot i + 1 blames link i + 1
        position = self.tree.nodes.index(bundle.prover_id)
        ok = self._bind(state, bundle, ("shuffle", position), pack_cts(proof.inputs),
                        bundle.key)
        if position + 1 < len(self.tree.nodes):
            successor = ledger.proof_key(state.query.query_id,
                                         self.tree.nodes[position + 1], "shuffle", 0)
            self._bind(state, bundle, ("shuffle", position + 1), pack_cts(proof.outputs),
                       successor)
        return ok and verify_shuffle(proof)

    @staticmethod
    def _bind(state, bundle, slot, value, blame) -> bool:
        """Bind `value` to the query's `slot`: the first value bound stands,
        whichever bundle brings it. A different value marks the proof keyed
        `blame` false; the caller's sub-proof fails only if that proof is
        `bundle` itself."""
        if state.bound.setdefault(slot, value) == value:
            return True
        if blame == bundle.key:
            return False
        state.map.record(blame, ledger.STATUS_FALSE)
        return True

    # ----- block assembly -----

    def on_end_query(self, msg):
        state = self.states.get(msg.query_id)
        if state is not None:
            state.ended = True

    def on_idle(self, level: int = 0):
        for query_id, state in list(self.states.items()):
            if (state.ended and not state.maps.inputs
                    and ledger.block_leader(self.topology.vn_ids, len(self.chain))
                    == self.identity):
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
        state = self.states.get(msg.query_id)
        if state is not None:
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
        super().handle(msg)  # raises the no-handler error

    def on_idle(self, level: int = 0):
        for part in self.parts:
            part.on_idle(level)
