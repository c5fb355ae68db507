"""Verifying-node machinery: expected-proof derivation, probabilistic
verification, query-proofs maps, threshold-signed blocks, and audit.

Every VN derives the same list of expected proof keys from a query,
verifies incoming signed proof bundles probabilistically (thresholds T for
opening a proof, T_sub per sub-proof) with one `QueryVerifier` per query,
and records per-key verdicts. At end of query a round-robin leader
assembles a block holding the query and every VN's map; VNs sign iff
their own map is faithfully recorded, and the block commits once f_h
signatures are gathered. Blocks hash-link into an append-only chain whose
`append` is the one rule that accepts a block; `audit` reports the
verdicts of one accepted block.

Coverage probabilities follow the published formulas

    p_ver     = 1 - (1 - T)^N
    p_ver_sub = 1 - ((1 - T) + T(1 - T_sub))^N
    P_fh      = sum_{i=f_h}^{N} C(N, i) p^i (1 - p)^{N - i},  p = p_ver_sub

which treat the "at least one of N" probability as a per-VN success rate.
`monte_carlo_coverage` simulates exactly that model (per VN, N independent
open/check coin pairs, the VN counting as verifier if any pair succeeds),
so the simulation and the closed form agree by construction of the model,
not by shortcut.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from . import protocols
from .elgamal import decode_ciphertext, pack_cts
from .errors import (
    BlockNotFound,
    BrokenChain,
    InsufficientSignatures,
    InvalidPolicy,
    MalformedProof,
    MalformedQuery,
    PrivqError,
    UnexpectedInput,
)
from .proofs import rangeproof
from .proofs.linear import verify_linear
from .proofs.shuffle import decode_shuffle, verify_shuffle
from .proofs.signatures import sign, verify_signature
from .proofs.transcript import joint_verdicts
from .serial import Reader, pack_bytes, pack_u32

STATUS_TRUE = "true"
STATUS_FALSE = "false"
STATUS_STORED = "stored"  # received, not (yet) verified
STATUS_NOT_RECEIVED = "not_received"
_STATUS_CODES = {STATUS_TRUE: 1, STATUS_FALSE: 2, STATUS_STORED: 3, STATUS_NOT_RECEIVED: 0}
_CODE_STATUS = {v: k for k, v in _STATUS_CODES.items()}


# ---------------------------------------------------------------------------
# policy and coverage


@dataclass(frozen=True)
class VerificationPolicy:
    t: float  # probability a VN opens a proof
    t_sub: float  # probability it checks each sub-proof
    f_h: int  # honest signature threshold
    n_vn: int

    def __post_init__(self):
        if not (0.0 <= self.t <= 1.0 and 0.0 <= self.t_sub <= 1.0):
            raise InvalidPolicy("thresholds must lie in [0, 1]")
        if not 1 <= self.f_h <= self.n_vn:
            raise InvalidPolicy("need 1 <= f_h <= n_vn")


def default_f_h(n_vn: int) -> int:
    """ceil((2n+1)/3): the 2f+1-of-3f+1 honest threshold."""
    return (2 * n_vn + 1 + 2) // 3


@dataclass(frozen=True)
class CoverageProbability:
    p_ver: float
    p_ver_sub: float
    p_fh: float


def coverage_probability(policy: VerificationPolicy) -> CoverageProbability:
    """The published coverage of one proof with one sub-proof. T_sub is
    drawn once per payload (`probabilistic_verify`), so p_ver_sub is also
    the coverage of a CTKS bundle, one payload for all of a CN's shares."""
    n, t, t_sub = policy.n_vn, policy.t, policy.t_sub
    p_ver = 1.0 - (1.0 - t) ** n
    p_ver_sub = 1.0 - ((1.0 - t) + t * (1.0 - t_sub)) ** n
    p = p_ver_sub
    p_fh = sum(
        math.comb(n, i) * p**i * (1.0 - p) ** (n - i)
        for i in range(policy.f_h, n + 1)
    )
    return CoverageProbability(p_ver, p_ver_sub, p_fh)


def monte_carlo_coverage(policy: VerificationPolicy, trials: int = 100_000,
                         seed: int = 0) -> float:
    """Simulate the coverage model and return the empirical P_fh."""
    rng = np.random.default_rng(seed)
    n = policy.n_vn
    opened = rng.random((trials, n, n)) < policy.t
    checked = rng.random((trials, n, n)) < policy.t_sub
    vn_verified = (opened & checked).any(axis=2)
    return float((vn_verified.sum(axis=1) >= policy.f_h).mean())


# ---------------------------------------------------------------------------
# proof keys, bundles, maps


def proof_key(query_id: str, prover_id: str, proof_type: str, seq_index: int) -> str:
    digest = hashlib.sha256(
        pack_bytes(query_id.encode())
        + pack_bytes(prover_id.encode())
        + pack_bytes(proof_type.encode())
        + pack_u32(seq_index)
    ).hexdigest()
    return digest


@dataclass(frozen=True)
class ProofBundle:
    """A signed, typed proof addressed to the VNs; payloads are sub-proofs."""

    query_id: str
    prover_id: str
    proof_type: str
    seq_index: int
    payloads: tuple
    signature: bytes = b""

    @property
    def key(self) -> str:
        return proof_key(self.query_id, self.prover_id, self.proof_type, self.seq_index)

    def body_bytes(self) -> bytes:
        out = [
            pack_bytes(self.query_id.encode()),
            pack_bytes(self.prover_id.encode()),
            pack_bytes(self.proof_type.encode()),
            pack_u32(self.seq_index),
            pack_u32(len(self.payloads)),
        ]
        out.extend(pack_bytes(p) for p in self.payloads)
        return b"".join(out)

    def signed(self, group, sk: int) -> "ProofBundle":
        return ProofBundle(self.query_id, self.prover_id, self.proof_type,
                           self.seq_index, self.payloads,
                           sign(group, sk, self.body_bytes()))

    def verified(self, group, public) -> "ProofBundle":
        """The bundle, if its prover's key `public` signed it: else it does
        not come from its prover."""
        if not verify_signature(group, public, self.body_bytes(), self.signature):
            raise UnexpectedInput(f"{self.proof_type} bundle not signed by {self.prover_id}")
        return self

    def encode(self) -> bytes:
        return self.body_bytes() + pack_bytes(self.signature)

    @classmethod
    def decode(cls, data: bytes) -> "ProofBundle":
        reader = Reader(data)
        query_id = reader.text()
        prover_id = reader.text()
        proof_type = reader.text()
        seq_index = reader.u32()
        n = reader.u32()
        payloads = tuple(reader.bytes_field() for _ in range(n))
        signature = reader.bytes_field()
        reader.expect_done()
        return cls(query_id, prover_id, proof_type, seq_index, payloads, signature)


@dataclass
class MapEntry:
    status: str
    prover_id: str
    proof_type: str
    seq_index: int


class QueryProofsMap:
    """Per-VN verdict table keyed by deterministically derived proof keys."""

    def __init__(self, expected: dict):
        # expected: key -> (prover_id, proof_type, seq_index)
        self.entries = {
            key: MapEntry(STATUS_NOT_RECEIVED, *meta) for key, meta in expected.items()
        }

    def record(self, key: str, status: str):
        if key in self.entries:
            self.entries[key].status = status

    def encode(self) -> bytes:
        out = [pack_u32(len(self.entries))]
        for key in sorted(self.entries):
            e = self.entries[key]
            out.append(pack_bytes(bytes.fromhex(key)))
            out.append(bytes([_STATUS_CODES[e.status]]))
            out.append(pack_bytes(e.prover_id.encode()))
            out.append(pack_bytes(e.proof_type.encode()))
            out.append(pack_u32(e.seq_index))
        return b"".join(out)

    @classmethod
    def decode(cls, reader: Reader) -> "QueryProofsMap":
        n = reader.u32()
        obj = cls({})
        for _ in range(n):
            key = reader.bytes_field().hex()
            status = _CODE_STATUS.get(reader.u8())
            if status is None:
                raise MalformedProof("unknown status code")
            prover = reader.text()
            ptype = reader.text()
            idx = reader.u32()
            obj.entries[key] = MapEntry(status, prover, ptype, idx)
        return obj

    def __eq__(self, other):
        return isinstance(other, QueryProofsMap) and self.encode() == other.encode()


def expected_proofs(plan) -> dict:
    """key -> (prover_id, proof_type, seq_index), identical on every VN: the
    proofs of every round of the query's `protocols.QueryPlan`, in its order."""
    query = plan.query
    if not getattr(query, "dp_list", None):
        raise MalformedQuery("query names no data providers")
    return {proof_key(query.query_id, prover, r.proof_type, i): (prover, r.proof_type, i)
            for r in plan.rounds for prover in r.provers for i in range(r.proofs)}


def _uniform(rng) -> float:
    return rng.randbelow(1 << 53) / float(1 << 53)


def probabilistic_verify(bundle: ProofBundle, policy: VerificationPolicy, rng,
                         verify_sub) -> str:
    """Open the bundle with probability T; check each sub-proof with
    probability T_sub via `verify_sub(index) -> bool`. The bundle is stored
    regardless; unopened or unchecked bundles report "stored". T_sub is
    drawn once per payload: a CTKS bundle, one payload for all of a CN's
    shares, is checked with probability T * T_sub, a CTO bundle's
    ciphertexts each with T_sub."""
    if _uniform(rng) >= policy.t:
        return STATUS_STORED
    verdicts = []
    for i in range(len(bundle.payloads)):
        if _uniform(rng) < policy.t_sub:
            verdicts.append(bool(verify_sub(i)))
    if not verdicts:
        return STATUS_STORED
    return STATUS_TRUE if all(verdicts) else STATUS_FALSE


class QueryVerifier:
    """One VN's verdicts on one query's proof bundles, judged with no bus
    against the query's `protocols.QueryPlan`: `add` takes each bundle whose
    signature holds, `settle` judges, `map` holds the verdicts and `outputs`
    each settled round's output while it is known.

    The rounds settle in plan order, each once none of its bundles is
    missing, or all that are left with `settle(force=True)`, which is final.
    A round's bundles make their draws (`probabilistic_verify`) in plan
    order, and its check runs on each drawn sub-proof: decoding, a CTKS/CTO
    statement (`protocols.round_proof`), a shuffle proof's shape, and the
    aggregation, range and chain checks. A check compares only against what
    bundles judged before it read (`slots`), so it fails only its own
    sub-proof and the verdicts do not depend on the order of `add`; a
    CTKS/CTO bundle must run over the previous round's output if that is
    known, else over the list of the round's first bundle with a sub-proof
    drawn. A check returns what `Round.output` takes and the proof for the
    round's joint batch (`batch`), or None. Only if a joint batch rejects is
    each bundle checked alone, so a verdict stays per bundle and
    all-or-nothing within it. A round's output follows from what each bundle
    of its `outputs_from` proved, if it holds and had every sub-proof drawn.
    Points are read through one decode memo, `memo`, seeded with the VN's
    own copy of the public `noise` list."""

    def __init__(self, plan, group, cn_keys, target_pk, collective_pk, policy, rng,
                 range_sigs=None, noise=(), batch=(verify_linear, verify_shuffle)):
        self.plan, self.group, self.cn_keys = plan, group, cn_keys
        self.target_pk, self.collective_pk = target_pk, collective_pk
        self.policy, self.rng, self.range_sigs = policy, rng, range_sigs
        self.memo = {}  # the query's decode memo (`serial.Reader`)
        self.batch = dict(zip(("tree", "shuffle"), batch))
        self.map = QueryProofsMap(expected_proofs(plan))  # its entries are in plan order
        self.bundles = {}  # key -> the bundle added for it
        self.settled = 0  # how many plan rounds have settled, in order
        self.outputs = []  # each settled round's output, while `Round.output` gives it
        self.slots = {}  # slot -> what a judged bundle read, for the checks after it
        if noise:  # the chain's first link shuffles the public list
            self.slots[("shuffle", 0)] = pack_cts(noise)
            self.memo.update((p.encode(), copy.copy(p)) for ct in noise for p in (ct.c1, ct.c2))

    def add(self, bundle: ProofBundle):
        """Take a signed bundle of an expected key; settle what can settle."""
        self.bundles.setdefault(bundle.key, bundle)
        self.settle()

    def settle(self, force=False):
        """Settle the rounds in plan order, as the class docstring says."""
        rounds = self.plan.rounds
        while self.settled < len(rounds):
            stage, rnd = self.settled, rounds[self.settled]
            keys = [key for key, e in self.map.entries.items() if e.proof_type == rnd.proof_type]
            if not force and any(key not in self.bundles for key in keys):
                return
            self.settled += 1
            known = len(self.outputs) == stage  # the round's input
            if rnd.kind == "tree" and known:
                self.slots[rnd.proof_type] = b"".join(
                    ct.encode() for ct in rnd.input(self.outputs[-1]))
            judged = {key: self._judge(rnd, self.bundles[key]) for key in keys
                      if key in self.bundles}
            held = {key: read for key, (status, read) in judged.items() if status == STATUS_TRUE}
            if held and rnd.kind in self.batch:
                holds = joint_verdicts(self.batch[rnd.kind], (
                    [proof for _, proof in read.values()] for read in held.values()))
                held = {key: read for (key, read), ok in zip(held.items(), holds) if ok}
            for key, (status, _) in judged.items():
                # a bundle that passed its drawn checks but not the round's batch is false
                self.map.record(key, STATUS_FALSE if status == STATUS_TRUE
                                and key not in held else status)
            if not known or self.settled == len(rounds):
                continue
            # what each prover proved, if its bundle holds and had every sub-proof drawn
            proved = {self.bundles[key].prover_id: [x for part, _ in read.values() for x in part]
                      for key, read in held.items()
                      if len(read) == len(self.bundles[key].payloads)}
            if set(rnd.outputs_from) <= proved.keys():
                with suppress(PrivqError):  # a noise list too short: the root drops it too
                    self.outputs.append(rnd.output(self.outputs[-1] if self.outputs else None,
                                                   [proved[p] for p in rnd.outputs_from]))

    def _judge(self, rnd, bundle):
        """The bundle's status, and what the check returned on each drawn
        sub-proof, by index: (part, proof), or None if it failed."""
        read = {}
        check = {"range": self._range, "aggregation": self._aggregation,
                 "tree": self._tree, "shuffle": self._shuffle}[rnd.kind]

        def verify_sub(index):
            read[index] = None
            with suppress(PrivqError, ValueError, IndexError, KeyError):
                read[index] = check(bundle, index)
            return read[index] is not None

        return probabilistic_verify(bundle, self.policy, self.rng, verify_sub), read

    def _range(self, bundle, index):
        """A DP's range proof holds over the ciphertext its CN aggregated, if
        that aggregation was verified: proving one ciphertext and submitting
        another makes this proof false."""
        j, reader = bundle.seq_index, Reader(bundle.payloads[index])
        if reader.u32() != j:  # a proof of another element than its key names
            return None
        ct = decode_ciphertext(self.group, reader.bytes_field(), self.memo)
        proofs = [rangeproof.decode_range(self.group, reader.bytes_field(), self.memo)
                  for _ in range(2)]
        reader.expect_done()
        bounds = self.plan.query.operation.element_bounds()[j]
        if self.slots.get(("range", bundle.prover_id, j), ct) == ct and (
                rangeproof.verify_bounded(ct, proofs, bounds, self.range_sigs,
                                          self.collective_pk)):
            return (ct,), None
        return None

    def _aggregation(self, bundle, index):
        """A CN's aggregation sums inputs from its sources and lists a child
        CN's output as checked; its output and its DPs' ciphertexts fill the
        slots that its parent's check and their range proofs read."""
        agg = protocols.Aggregation.decode(self.group, bundle.payloads[index], self.memo)
        _, inputs = self.plan.feeds("aggregation", bundle.prover_id)
        if not protocols.verify_aggregation(agg, bundle.prover_id, [s for _, s in inputs]):
            return None
        listed = list(zip(agg.labels, agg.inputs))
        if any(("cta_partial", label) in inputs
               and self.slots.get(("partial", label), cts) != cts for label, cts in listed):
            return None
        for label, cts in listed:
            if ("dp_response", label) in inputs:
                self.slots.update((("range", label, j), ct) for j, ct in enumerate(cts[:-1]))
        self.slots[("partial", bundle.prover_id)] = agg.output
        return agg.output, None

    def _tree(self, bundle, index):
        """Input check, then shares and proof, of one CTKS/CTO sub-proof."""
        listed = b"".join(Reader(p).bytes_field() for p in bundle.payloads)
        if self.slots.setdefault(bundle.proof_type, listed) != listed:
            return None
        return protocols.round_proof(self.group, bundle.proof_type, bundle.payloads[index],
                                     cn_public=self.cn_keys[bundle.prover_id],
                                     target_pk=self.target_pk, memo=self.memo)

    def _shuffle(self, bundle, index):
        """Shape and chain check of a shuffle proof: link i shuffles link
        i - 1's output list as its proof states it, link 0 the public list."""
        proof = decode_shuffle(self.group, bundle.payloads[index], self.memo)
        if proof.omega != self.collective_pk:
            return None
        position = self.plan.tree.nodes.index(bundle.prover_id)
        self.slots[("shuffle", position + 1)] = pack_cts(proof.outputs)
        listed = pack_cts(proof.inputs)
        if self.slots.get(("shuffle", position), listed) != listed:
            return None
        return list(proof.outputs), proof


# ---------------------------------------------------------------------------
# blocks and chain


@dataclass
class Block:
    height: int
    query_id: str
    query_bytes: bytes
    maps: dict  # vn_id -> QueryProofsMap
    prev_hash: bytes
    signatures: dict = field(default_factory=dict)  # vn_id -> bytes

    def body_bytes(self) -> bytes:
        out = [
            pack_u32(self.height),
            pack_bytes(self.query_id.encode()),
            pack_bytes(self.query_bytes),
            pack_bytes(self.prev_hash),
            pack_u32(len(self.maps)),
        ]
        for vn in sorted(self.maps):
            out.append(pack_bytes(vn.encode()))
            out.append(pack_bytes(self.maps[vn].encode()))
        return b"".join(out)

    def block_hash(self) -> bytes:
        return hashlib.sha256(self.body_bytes()).digest()

    def encode(self) -> bytes:
        out = [self.body_bytes(), pack_u32(len(self.signatures))]
        for vn in sorted(self.signatures):
            out.append(pack_bytes(vn.encode()))
            out.append(pack_bytes(self.signatures[vn]))
        return b"".join(out)

    @classmethod
    def decode(cls, data: bytes) -> "Block":
        reader = Reader(data)
        height = reader.u32()
        query_id = reader.text()
        query_bytes = reader.bytes_field()
        prev_hash = reader.bytes_field()
        n_maps = reader.u32()
        maps = {}
        for _ in range(n_maps):
            vn = reader.text()
            maps[vn] = QueryProofsMap.decode(Reader(reader.bytes_field()))
        n_sigs = reader.u32()
        signatures = {}
        for _ in range(n_sigs):
            vn = reader.text()
            signatures[vn] = reader.bytes_field()
        reader.expect_done()
        return cls(height, query_id, query_bytes, maps, prev_hash, signatures)


GENESIS_HASH = b"\x00" * 32


class Chain:
    """Append-only block chain of one VN set, optionally backed by a file.

    `append` is the one block rule: a block extends the head (height and
    `prev_hash`) and carries at least f_h signatures, each valid under a
    known VN key. Opening a file replays its blocks through `accept`; a
    file-backed chain appends only while the file still ends where this
    chain last read or wrote it.
    """

    def __init__(self, group, vn_pubs: dict, f_h: int, path: str | None = None):
        self.group = group
        self.vn_pubs = dict(vn_pubs)
        self.f_h = f_h
        self._verified = (None, {})  # (body, {vn: signature}) last found valid
        self.path = None  # set after loading, so replayed blocks are not rewritten
        self.blocks: list[Block] = []
        self._index: dict[str, int] = {}
        self._file_size = 0  # where the file ended when this chain last read or wrote it
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            reader = Reader(data)
            while not reader.done():
                self.accept(reader.bytes_field())
            self._file_size = len(data)
        self.path = path

    def accept(self, data: bytes) -> Block:
        """`append` the block whose canonical encoding is `data`."""
        try:
            block = Block.decode(data)
        except PrivqError as exc:
            raise BrokenChain(f"malformed block: {exc}") from exc
        if block.encode() != data:
            raise BrokenChain(f"block {block.height} is not canonically encoded")
        self.append(block)
        return block

    def copy(self) -> "Chain":
        """An in-memory chain holding the blocks this one already accepted."""
        other = Chain(self.group, self.vn_pubs, self.f_h)
        other.blocks, other._index = list(self.blocks), dict(self._index)
        return other

    def head_hash(self) -> bytes:
        return self.blocks[-1].block_hash() if self.blocks else GENESIS_HASH

    def next_block(self, query_id: str, query_bytes: bytes, maps: dict) -> Block:
        """An unsigned block for `query_id` extending the current head."""
        return Block(len(self), query_id, query_bytes, dict(maps), self.head_hash())

    def valid_signatures(self, block: Block, signatures: dict) -> dict:
        """The entries of `signatures` that a known VN made over `block`; those
        valid over the last body are kept, so `seal_block` verifies each once."""
        body = block.body_bytes()
        known = self._verified[1] if self._verified[0] == body else {}
        valid = {vn: sig for vn, sig in signatures.items()
                 if known.get(vn) == sig
                 or (vn in self.vn_pubs
                     and verify_signature(self.group, self.vn_pubs[vn], body, sig))}
        self._verified = (body, {**known, **valid})
        return valid

    def append(self, block: Block):
        if block.height != len(self) or block.prev_hash != self.head_hash():
            raise BrokenChain(f"block {block.height} does not extend the chain "
                              f"at height {len(self)}")
        invalid = sorted(set(block.signatures)
                         - set(self.valid_signatures(block, block.signatures)))
        if invalid:
            raise BrokenChain(f"invalid signature from {invalid[0]!r} in block {block.height}")
        if len(block.signatures) < self.f_h:
            raise InsufficientSignatures(f"only {len(block.signatures)} block signatures")
        if self.path:
            size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
            if size != self._file_size:
                raise BrokenChain(f"chain file {self.path} changed since this chain "
                                  f"last read or wrote it")
            record = pack_bytes(block.encode())
            with open(self.path, "ab") as fh:
                fh.write(record)
            self._file_size += len(record)
        self.blocks.append(block)
        self._index[block.query_id] = len(self.blocks) - 1

    def get(self, query_id: str) -> Block:
        if query_id not in self._index:
            raise BlockNotFound(f"no block for query {query_id!r}")
        return self.blocks[self._index[query_id]]

    def __len__(self):
        return len(self.blocks)


def block_leader(vn_ids, height: int) -> str:
    """Round-robin by height over `vn_ids` in the order given."""
    return vn_ids[height % len(vn_ids)]


def sign_block(group, vn_id: str, sk: int, block: Block, own_map) -> bytes:
    """A VN signs iff the block records its own map faithfully; b"" refuses."""
    recorded = block.maps.get(vn_id)
    if recorded is None or recorded != own_map:
        return b""
    return sign(group, sk, block.body_bytes())


def seal_block(chain: Chain, block: Block, signatures: dict) -> Block:
    """Attach the signatures that verify and append the block to `chain`,
    which raises InsufficientSignatures below f_h of them."""
    block.signatures = chain.valid_signatures(block, signatures)
    chain.append(block)
    return block


@dataclass
class AuditReport:
    query_id: str
    ok: bool
    signature_count: int
    f_h: int
    false_entries: list  # (key, prover_id, proof_type, seq_index, [vn ids])
    not_received: list
    stored_unverified: list

    def as_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "ok": self.ok,
            "signatures": self.signature_count,
            "f_h": self.f_h,
            "false_entries": [
                {"key": k, "prover": p, "type": t, "index": i, "vns": vns}
                for k, p, t, i, vns in self.false_entries
            ],
            "not_received": self.not_received,
            "stored_unverified": self.stored_unverified,
        }


def audit(query_id: str, chain: Chain) -> AuditReport:
    """Report the per-proof verdicts in the block for `query_id`, with the
    responsible prover for every false entry. The chain checked the block's
    link and signatures when it accepted it."""
    target = chain.get(query_id)
    false_entries: dict[str, list] = {}
    not_received = set()
    stored = set()
    meta = {}
    for vn, pmap in target.maps.items():
        for key, entry in pmap.entries.items():
            meta[key] = entry
            if entry.status == STATUS_FALSE:
                false_entries.setdefault(key, []).append(vn)
            elif entry.status == STATUS_NOT_RECEIVED:
                not_received.add(key)
            elif entry.status == STATUS_STORED:
                stored.add(key)
    falses = [
        (key, meta[key].prover_id, meta[key].proof_type, meta[key].seq_index,
         sorted(vns))
        for key, vns in sorted(false_entries.items())
    ]
    return AuditReport(query_id=query_id, ok=not falses,
                       signature_count=len(target.signatures), f_h=chain.f_h,
                       false_entries=falses, not_received=sorted(not_received),
                       stored_unverified=sorted(stored - set(false_entries)))
