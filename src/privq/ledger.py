"""Verifying-node machinery: expected-proof derivation, probabilistic
verification, query-proofs maps, threshold-signed blocks, and audit.

Every VN derives the same list of expected proof keys from a query,
verifies incoming signed proof bundles probabilistically (thresholds T for
opening a proof, T_sub per sub-proof), and records per-key verdicts. At
end of query a round-robin leader assembles a block holding the query and
every VN's map; VNs sign iff their own map is faithfully recorded, and the
block commits once f_h signatures are gathered. Blocks hash-link into an
append-only chain that `audit` replays.

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

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlockNotFound,
    BrokenChain,
    InsufficientSignatures,
    InvalidPolicy,
    MalformedQuery,
)
from .proofs.signatures import sign, verify_signature
from .serial import Reader, pack_bytes, pack_u32

STATUS_TRUE = "true"
STATUS_FALSE = "false"
STATUS_STORED = "stored"  # received, not (yet) verified
STATUS_NOT_RECEIVED = "not_received"
_STATUS_CODES = {STATUS_TRUE: 1, STATUS_FALSE: 2, STATUS_STORED: 3, STATUS_NOT_RECEIVED: 0}
_CODE_STATUS = {v: k for k, v in _STATUS_CODES.items()}

PROOF_TYPES = ("range", "aggregation", "obfuscation", "shuffle", "keyswitch")


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

    def encode(self) -> bytes:
        return self.body_bytes() + pack_bytes(self.signature)

    @classmethod
    def decode(cls, data: bytes) -> "ProofBundle":
        reader = Reader(data)
        query_id = reader.bytes_field().decode()
        prover_id = reader.bytes_field().decode()
        proof_type = reader.bytes_field().decode()
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

    def status_of(self, key: str) -> str:
        return self.entries[key].status

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
            status = _CODE_STATUS[reader.u8()]
            prover = reader.bytes_field().decode()
            ptype = reader.bytes_field().decode()
            idx = reader.u32()
            obj.entries[key] = MapEntry(status, prover, ptype, idx)
        return obj

    def __eq__(self, other):
        return isinstance(other, QueryProofsMap) and self.encode() == other.encode()


def expected_proofs(query, topology) -> dict:
    """key -> (prover_id, proof_type, seq_index), identical on every VN.

    One range key per DP per bounded element; one protocol key per CN per
    protocol round the query executes.
    """
    op = query.operation
    if not getattr(query, "dp_list", None):
        raise MalformedQuery("query names no data providers")
    expected = {}

    def put(prover, ptype, idx=0):
        expected[proof_key(query.query_id, prover, ptype, idx)] = (prover, ptype, idx)

    range_enabled = getattr(topology, "range_sigs", None) is not None
    if query.bounds is not None and range_enabled:
        for dp in query.dp_list:
            for j in range(op.dimension):
                put(dp, "range", j)
    for cn in topology.cn_ids:
        put(cn, "aggregation")
        if op.uses_obfuscation:
            put(cn, "obfuscation")
        if getattr(query, "dp_privacy", False):
            put(cn, "shuffle")
        put(cn, "keyswitch")
    return expected


def _uniform(rng) -> float:
    return rng.randbelow(1 << 53) / float(1 << 53)


def probabilistic_verify(bundle: ProofBundle, policy: VerificationPolicy, rng,
                         verify_sub) -> str:
    """Open the bundle with probability T; check each sub-proof with
    probability T_sub via `verify_sub(index) -> bool`. The bundle is stored
    regardless; unopened or unchecked bundles report "stored"."""
    if _uniform(rng) >= policy.t:
        return STATUS_STORED
    verdicts = []
    for i in range(len(bundle.payloads)):
        if _uniform(rng) < policy.t_sub:
            verdicts.append(bool(verify_sub(i)))
    if not verdicts:
        return STATUS_STORED
    return STATUS_TRUE if all(verdicts) else STATUS_FALSE


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
        query_id = reader.bytes_field().decode()
        query_bytes = reader.bytes_field()
        prev_hash = reader.bytes_field()
        n_maps = reader.u32()
        maps = {}
        for _ in range(n_maps):
            vn = reader.bytes_field().decode()
            maps[vn] = QueryProofsMap.decode(Reader(reader.bytes_field()))
        n_sigs = reader.u32()
        signatures = {}
        for _ in range(n_sigs):
            vn = reader.bytes_field().decode()
            signatures[vn] = reader.bytes_field()
        reader.expect_done()
        return cls(height, query_id, query_bytes, maps, prev_hash, signatures)


GENESIS_HASH = b"\x00" * 32


class Chain:
    """Append-only block chain with optional file persistence.

    File format: repeated length-prefixed serialized blocks; an in-memory
    index maps query ids to positions.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self.blocks: list[Block] = []
        self._index: dict[str, int] = {}
        if path and os.path.exists(path):
            self._load()

    def _load(self):
        with open(self.path, "rb") as fh:
            data = fh.read()
        try:
            reader = Reader(data)
            while not reader.done():
                block = Block.decode(reader.bytes_field())
                self._index[block.query_id] = len(self.blocks)
                self.blocks.append(block)
        except BrokenChain:
            raise
        except Exception as exc:
            raise BrokenChain(f"chain file corrupt: {exc}") from exc

    def head_hash(self) -> bytes:
        return self.blocks[-1].block_hash() if self.blocks else GENESIS_HASH

    def next_block(self, query_id: str, query_bytes: bytes, maps: dict) -> Block:
        """An unsigned block for `query_id` extending the current head."""
        return Block(len(self), query_id, query_bytes, dict(maps), self.head_hash())

    def append(self, block: Block):
        self.blocks.append(block)
        self._index[block.query_id] = len(self.blocks) - 1
        if self.path:
            with open(self.path, "ab") as fh:
                fh.write(pack_bytes(block.encode()))

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


def seal_block(block: Block, signatures: dict, f_h: int) -> Block:
    """Attach the non-empty signatures; a block commits with at least f_h."""
    block.signatures = {vn: sig for vn, sig in signatures.items() if sig}
    if len(block.signatures) < f_h:
        raise InsufficientSignatures(f"only {len(block.signatures)} block signatures")
    return block


def commit_block(query_id: str, query_bytes: bytes, maps: dict, vn_keys: dict,
                 policy: VerificationPolicy, chain: Chain, group,
                 local_maps: dict | None = None) -> Block:
    """Every VN in `vn_keys` signs the block over `maps` against its own
    map (`local_maps`, default `maps`); the block is appended to `chain`
    once f_h signatures seal it."""
    block = chain.next_block(query_id, query_bytes, maps)
    local_maps = local_maps if local_maps is not None else maps
    signatures = {vn: sign_block(group, vn, vn_keys[vn].private, block, local_maps.get(vn))
                  for vn in sorted(vn_keys)}
    chain.append(seal_block(block, signatures, policy.f_h))
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


def audit(query_id: str, chain: Chain, vn_pubs: dict, f_h: int, group) -> AuditReport:
    """Verify chain linkage and signatures, then report per-proof verdicts
    with the responsible prover for every false entry."""
    prev = GENESIS_HASH
    target = None
    for block in chain.blocks:
        if block.prev_hash != prev:
            raise BrokenChain(f"hash link broken at height {block.height}")
        prev = block.block_hash()
        if block.query_id == query_id:
            target = block
    if target is None:
        raise BlockNotFound(f"no block for query {query_id!r}")
    body = target.body_bytes()
    valid_sigs = 0
    for vn, sig in target.signatures.items():
        if vn not in vn_pubs or not verify_signature(group, vn_pubs[vn], body, sig):
            raise BrokenChain(f"invalid signature from {vn!r} in block {target.height}")
        valid_sigs += 1
    if valid_sigs < f_h:
        raise BrokenChain(f"only {valid_sigs} valid signatures < f_h={f_h}")
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
    return AuditReport(
        query_id=query_id,
        ok=not falses and valid_sigs >= f_h,
        signature_count=valid_sigs,
        f_h=f_h,
        false_entries=falses,
        not_received=sorted(not_received),
        stored_unverified=sorted(stored - set(false_entries)),
    )
