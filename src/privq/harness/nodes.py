"""Role runtimes: querier, computing node, data provider, verifying node.

All cross-node interaction goes through bus Messages. Per-query state
lives in each node's `states` dictionary keyed by query id; a message that
overtakes the one opening its query is parked by `NodeBase` until that one
arrives. A message whose handler raises a `PrivqError` is dropped as if it
never arrived. Timeouts are modeled by the bus idle callback: a CN missing
DP responses proceeds without them, a CN missing a peer CN's share aborts
the query, and the leader VN starts block assembly once traffic has
drained; on the hard timeout it assembles and seals with the f_h maps and
signatures it holds. A block enters a VN's or the querier's chain only
through `ledger.Chain.append`; a `block_commit` it refuses is dropped.

A node ends its part of a query with `close`: the querier when
`Simulation.run` returns, the root CN after the result or an abort, the
other CNs after their key-switch share, any CN at the hard timeout, the
leader VN once it seals or fails to seal, and the other VNs on the
committed block or an abort. A VN keeps each query's bundle bytes (`kv`).

Each rule has one implementation outside this module, and the nodes here
only route messages to it, keep per-query state and handle timeouts: the
protocol steps, their verifiers, the width rule of an aggregation input
(`check_input`) and the round plan (`query_rounds`) in
privq.protocols, the bounded range statement (`prove_bounded`,
`verify_bounded`) in privq.proofs.rangeproof, and the expected proofs and
block rules in privq.ledger. Provers sign and send their proof bundles
with `emit_bundle`. A VN checks the shape of each sampled CTKS/CTO
sub-proof (`protocols.round_proof`) and then verifies the linear proofs of
the bundle with one batched `verify_linear` call; the bundle's verdict is
all-or-nothing either way. A shuffle-chain link is checked against both
neighbours, whichever of the two bundles arrives first.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

from .. import elgamal, ledger, protocols
from ..elgamal import pack_cts, unpack_cts
from ..encodings import (
    EncodedResponse,
    decode as decode_aggregate,
    encode_with_nonces,
    neutral_response,
    train_logreg,
)
from ..errors import CnUnavailable, PrivqError
from ..proofs import rangeproof
from ..proofs.linear import verify_linear
from ..proofs.shuffle import decode_shuffle, shuffle_and_prove, verify_shuffle
from ..proofs.signatures import sign, verify_signature
from ..serial import Reader, pack_bytes, pack_u32
from .bus import NodeBase
from .queryparse import apply_filter, decode_query

RESULT_ROUND = "result"
ROUND_PROOF_TYPE = {"ctks": "keyswitch", "cto": "obfuscation"}


# ---------------------------------------------------------------------------
# payload codecs


def pack_response(resp: EncodedResponse) -> bytes:
    return pack_cts(list(resp.vector) + [resp.count])


def unpack_response(group, data: bytes) -> EncodedResponse:
    reader = Reader(data)
    cts = unpack_cts(group, reader)
    reader.expect_done()
    return EncodedResponse(cts[:-1], cts[-1])


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
        response = unpack_response(group, msg.payload)
        sk = self.topology.keys[self.identity].private
        op = state.query.operation
        try:
            count = elgamal.decrypt(group, response.count, sk, self.table)
            if op.zero_test_only:
                values = [
                    0 if elgamal.decrypt_point(group, ct, sk).is_identity() else 1
                    for ct in response.vector
                ]
            else:
                values = [elgamal.decrypt(group, ct, sk, self.table)
                          for ct in response.vector]
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
            response = neutral_response(group, op, pk, self.rng)
            self.send(query.query_id, "dp_response", msg.sender, pack_response(response))
            return
        records = self._records(query)
        response, raws, nonces = encode_with_nonces(
            group, op, records, pk, self.rng,
            max_message=self.topology.max_message)
        if self.malicious_value is not None and response.vector:
            # substitute an out-of-range element 0 with a forged-digit proof
            bad = int(self.malicious_value)
            nonce = group.random_scalar(self.rng)
            response = EncodedResponse(
                [elgamal.encrypt_with_nonce(group, bad, pk, nonce)] + response.vector[1:],
                response.count,
            )
            raws = [bad] + raws[1:]
            nonces = [nonce] + nonces[1:]
        if query.bounds is not None and self.range_sigs is not None:
            self._emit_range_proofs(query, pk, raws, nonces, response)
        self.send(query.query_id, "dp_response", msg.sender, pack_response(response))

    def _emit_range_proofs(self, query, pk, raws, nonces, response):
        element_bounds = query.operation.element_bounds()
        for j, (raw, nonce, bounds) in enumerate(zip(raws, nonces, element_bounds)):
            lower, upper = rangeproof.prove_bounded(
                self.topology.group, raw, nonce, pk, self.range_sigs, bounds, self.rng)
            payload = (pack_u32(j) + pack_bytes(response.vector[j].encode())
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

    def _parent(self):
        p = self.tree.parents[self.index]
        return self.tree.nodes[p] if p >= 0 else None

    def _children(self):
        return [self.tree.nodes[i] for i in self.tree.children(self.index)]

    def on_query(self, msg):
        query = decode_query(msg.payload)
        my_dps = tuple(dp for dp in query.dp_list
                       if self.topology.dp_assignment.get(dp) == self.identity)
        self.states[query.query_id] = SimpleNamespace(
            query=query,
            expected_dps=set(my_dps),
            inputs=[],  # (label, ct tuple) pairs: DP responses and child partials
            pending_children=set(self._children()),
            aggregated=False,
            stage="aggregation",  # root: the query_rounds entry it is running
            share_waits={},  # round tag -> set of children still pending
            share_sums={},  # round tag -> list of summed share ct-pairs
            round_cts={},  # round tag -> input cts of the round
            current=None,  # root: current EncodedResponse through the stages
        )
        for dp in my_dps:
            self.send(query.query_id, "query", dp, msg.payload)
        self._try_finish_collect(query.query_id)

    def on_dp_response(self, msg):
        state = self.states[msg.query_id]
        reader = Reader(msg.payload)
        cts = unpack_cts(self.topology.group, reader)
        reader.expect_done()
        state.inputs.append((msg.sender, protocols.check_input(state.query.operation, cts)))
        state.expected_dps.discard(msg.sender)
        self._try_finish_collect(msg.query_id)

    def on_cta_partial(self, msg):
        state = self.states[msg.query_id]
        reader = Reader(msg.payload)
        cts = unpack_cts(self.topology.group, reader)
        state.inputs.append((msg.sender, protocols.check_input(state.query.operation, cts)))
        state.pending_children.discard(msg.sender)
        self._try_finish_collect(msg.query_id)

    def _try_finish_collect(self, query_id):
        state = self.states[query_id]
        if state.aggregated or state.expected_dps or state.pending_children:
            return
        if not state.inputs:
            # nothing from below and no local DPs: contribute a neutral zero
            group = self.topology.group
            pk = self.topology.collective_key().public
            width = protocols.input_width(state.query.operation)
            zeros = tuple(elgamal.encrypt(group, 0, pk, self.rng) for _ in range(width))
            state.inputs.append((self.identity + "/neutral", zeros))
        state.aggregated = True
        agg = protocols.aggregate([label for label, _ in state.inputs],
                                  [cts for _, cts in state.inputs])
        emit_bundle(self, query_id, "aggregation", 0, (agg.encode(),))
        parent = self._parent()
        if parent is not None:
            self.send(query_id, "cta_partial", parent, pack_cts(agg.output))
            return
        state.current = EncodedResponse(list(agg.output[:-1]), agg.output[-1])
        self._advance_root(query_id)

    # ----- root stage machine -----

    def _advance_root(self, query_id):
        """Start the round that follows the finished one in the query's plan."""
        state = self.states[query_id]
        rounds = protocols.query_rounds(state.query)
        state.stage = rounds[rounds.index(state.stage) + 1]
        if state.stage == "obfuscation":
            self._start_tree_round(query_id, "cto", list(state.current.vector))
        elif state.stage == "shuffle":
            self._start_cdp(query_id)
        else:
            cts = list(state.current.vector) + [state.current.count]
            self._start_tree_round(query_id, "ctks", cts)

    def _start_tree_round(self, query_id, tag, cts):
        state = self.states[query_id]
        state.round_cts[tag] = cts
        payload = pack_bytes(tag.encode()) + pack_cts(cts)
        for child in self._children():
            self.send(query_id, "round_request", child, payload)
        state.share_waits[tag] = set(self._children())
        group = self.topology.group
        if tag == "ctks":
            target_pk = self.topology.keys[self.topology.querier_id].public
            shares, payloads = protocols.ctks_shares(
                group, cts, self.topology.keys[self.identity], target_pk, self.rng)
        else:
            shares, payloads = protocols.cto_shares(group, cts, self.rng)
        emit_bundle(self, query_id, ROUND_PROOF_TYPE[tag], 0, tuple(payloads))
        state.share_sums[tag] = shares
        self._try_finish_round(query_id, tag)

    def on_round_request(self, msg):
        reader = Reader(msg.payload)
        tag = reader.text()
        cts = unpack_cts(self.topology.group, reader)
        self._start_tree_round(msg.query_id, tag, cts)

    def on_round_share(self, msg):
        reader = Reader(msg.payload)
        tag = reader.text()
        shares = unpack_cts(self.topology.group, reader)
        state = self.states[msg.query_id]
        state.share_sums[tag] = protocols.add_shares(state.share_sums[tag], shares)
        state.share_waits[tag].discard(msg.sender)
        self._try_finish_round(msg.query_id, tag)

    def _try_finish_round(self, query_id, tag):
        state = self.states[query_id]
        if state.share_waits.get(tag):
            return
        sums = state.share_sums[tag]
        parent = self._parent()
        if parent is not None:
            self.send(query_id, "round_share", parent,
                      pack_bytes(tag.encode()) + pack_cts(sums))
            if tag == "ctks":  # key switching is the last round
                self.close(query_id)
            return
        if tag == "ctks":
            switched = protocols.ctks_combine(state.round_cts[tag], sums)
            self.send(query_id, RESULT_ROUND, self.topology.querier_id,
                      pack_response(EncodedResponse(switched[:-1], switched[-1])))
            for vn in self.topology.vn_ids:
                self.send(query_id, "end_query", vn)
            self.close(query_id)
        else:  # cto: the summed blinded shares are the obfuscated vector
            state.current = EncodedResponse(sums, state.current.count)
            self._advance_root(query_id)

    # ----- collective differential privacy -----

    def _start_cdp(self, query_id):
        _, initial = protocols.initial_noise(self.topology.group,
                                             *self.topology.noise_params(),
                                             self.topology.collective_key().public,
                                             scale=self.topology.scale)
        self.send(query_id, "cdp_pass", self.tree.root, pack_cts(initial))

    def on_cdp_pass(self, msg):
        group = self.topology.group
        pk = self.topology.collective_key().public
        reader = Reader(msg.payload)
        cts = unpack_cts(group, reader)
        outputs, proof = shuffle_and_prove(group, cts, pk, self.rng)
        emit_bundle(self, msg.query_id, "shuffle", 0, (proof.encode(),))
        pos = self.index
        if pos + 1 < len(self.tree.nodes):
            self.send(msg.query_id, "cdp_pass", self.tree.nodes[pos + 1],
                      pack_cts(list(outputs)))
        else:
            self.send(msg.query_id, "cdp_done", self.tree.root,
                      pack_cts(list(outputs)))

    def on_cdp_done(self, msg):
        state = self.states[msg.query_id]
        noise_cts = unpack_cts(self.topology.group, Reader(msg.payload))
        state.current = protocols.cdp_apply(state.current, noise_cts)
        self._advance_root(msg.query_id)

    # ----- timeouts -----

    def on_idle(self, level: int = 0):
        for query_id, state in list(self.states.items()):
            if state.expected_dps:
                # unresponsive DPs only reduce the number of responses
                state.expected_dps = set()
                self._try_finish_collect(query_id)
            if level < 1:
                continue
            # hard timeout: the traffic has drained, so nothing more can
            # arrive for the queries this CN still holds
            if state.pending_children:
                self._abort(query_id, f"unresponsive CNs: {sorted(state.pending_children)}")
            elif self.is_root:
                self._abort(query_id, f"round stalled in stage {state.stage}")
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
        self.states[query.query_id] = SimpleNamespace(
            query=query,
            query_bytes=body,
            map=ledger.QueryProofsMap(expected),
            ended=False,
            assembling=False,
            collected_maps={},
            signatures={},
            block=None,  # leader: the assembled block, not yet sealed
            dp_range_cts={},  # dp -> {element index -> Ciphertext}
            agg_inputs={},  # dp -> ct tuple seen in a CN aggregation proof
            round_ct_hash={},  # "keyswitch"/"obfuscation" -> first-seen input hash
            shuffle_io={},  # chain position -> (inputs enc, outputs enc)
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
        try:
            if bundle.proof_type in ROUND_PROOF_TYPE.values():
                return self._check_round(state, bundle, index, linear_proofs)
            handler = {
                "range": self._check_range,
                "aggregation": self._check_aggregation,
                "shuffle": self._check_shuffle,
            }.get(bundle.proof_type)
            if handler is None:
                return False
            return handler(state, bundle, index)
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
        state.dp_range_cts.setdefault(bundle.prover_id, {})[j] = ct
        seen = state.agg_inputs.get(bundle.prover_id)
        if seen is not None and j < len(seen) and seen[j] != ct:
            return False  # proved one ciphertext, submitted another
        return rangeproof.verify_bounded(ct, proofs, bounds, self.range_sigs,
                                         self.topology.collective_key().public)

    def _check_aggregation(self, state, bundle, index) -> bool:
        agg = protocols.Aggregation.decode(self.topology.group, bundle.payloads[index])
        ok = protocols.verify_aggregation(agg)
        for label, cts in zip(agg.labels, agg.inputs):
            if label in state.query.dp_list:
                state.agg_inputs[label] = cts
                proven = state.dp_range_cts.get(label, {})
                for j, proven_ct in proven.items():
                    if j < len(cts) and cts[j] != proven_ct:
                        key = ledger.proof_key(state.query.query_id, label, "range", j)
                        state.map.record(key, ledger.STATUS_FALSE)
        return ok

    def _check_round(self, state, bundle, index, linear_proofs) -> bool:
        """Shape check of one CTKS/CTO sub-proof; its proof joins
        `linear_proofs`, which `on_proof_bundle` verifies as one batch."""
        # all CNs must run the round over the same ciphertext list; the
        # first bundle seen for the round fixes it
        digest = hashlib.sha256(protocols.round_inputs(bundle.payloads)).hexdigest()
        if state.round_ct_hash.setdefault(bundle.proof_type, digest) != digest:
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
        group = self.topology.group
        proof = decode_shuffle(group, bundle.payloads[index])
        collective = self.topology.collective_key().public
        if proof.omega != collective:
            return False
        position = self.tree.nodes.index(bundle.prover_id)
        inputs_enc = tuple(ct.encode() for ct in proof.inputs)
        outputs_enc = tuple(ct.encode() for ct in proof.outputs)
        state.shuffle_io[position] = (inputs_enc, outputs_enc)
        later = state.shuffle_io.get(position + 1)
        if later is not None and later[0] != outputs_enc:
            # the next link's bundle came first and did not shuffle this output
            key = ledger.proof_key(state.query.query_id, self.tree.nodes[position + 1],
                                   "shuffle", 0)
            state.map.record(key, ledger.STATUS_FALSE)
        if position == 0:
            _, initial = protocols.initial_noise(group, *self.topology.noise_params(),
                                                 collective, scale=self.topology.scale)
            if inputs_enc != tuple(ct.encode() for ct in initial):
                return False
        else:
            prev = state.shuffle_io.get(position - 1)
            if prev is not None and prev[1] != inputs_enc:
                return False
        return verify_shuffle(proof)

    # ----- block assembly -----

    def on_end_query(self, msg):
        state = self.states.get(msg.query_id)
        if state is not None:
            state.ended = True

    def on_idle(self, level: int = 0):
        for query_id, state in list(self.states.items()):
            if (state.ended and not state.assembling
                    and ledger.block_leader(self.topology.vn_ids, len(self.chain))
                    == self.identity):
                state.assembling = True
                state.collected_maps[self.identity] = state.map
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
        if state is None or not state.assembling:
            return
        state.collected_maps[msg.sender] = ledger.QueryProofsMap.decode(
            Reader(msg.payload))
        self._maybe_assemble(msg.query_id)

    def _maybe_assemble(self, query_id, quorum=None):
        """Assemble once `quorum` maps are in, by default one from every VN."""
        state = self.states[query_id]
        if len(state.collected_maps) < (quorum or len(self.topology.vn_ids)) or state.block:
            return
        state.block = self.chain.next_block(query_id, state.query_bytes,
                                            state.collected_maps)
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
        if state is None or state.block is None:
            return
        state.signatures[msg.sender] = msg.payload
        self._maybe_seal(msg.query_id)

    def _maybe_seal(self, query_id, quorum=None):
        """Seal once `quorum` VNs answered, by default every VN; the leader
        tries once, which ends its part of the query, and sends the block,
        or an abort if too few VNs signed, to the other VNs and the querier."""
        state = self.states[query_id]
        if (state.block is None
                or len(state.signatures) < (quorum or len(self.topology.vn_ids))):
            return
        self.close(query_id)
        try:
            round_, payload = "block_commit", ledger.seal_block(
                self.chain, state.block, state.signatures).encode()
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
