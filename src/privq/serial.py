"""Length-prefixed binary serialization for proofs, messages, and blocks.

Layout: every record is a one-byte type tag followed by fields; variable
fields carry a 4-byte little-endian length prefix. Point, scalar and
target-group fields use the group's canonical fixed-length encodings, and a
`Reader` made with the group reads them; every field that cannot be read
raises MalformedProof.
"""

from __future__ import annotations

import struct

from .errors import MalformedProof


def pack_bytes(data: bytes) -> bytes:
    return struct.pack("<I", len(data)) + data


class Reader:
    """Fields read in order off one record.

    A point field goes through `memo`, a decode memo from encodings to the
    points decoded from them: bytes already in it are taken from it, and a
    successful decode is added. A node keeps one memo per query in its
    query state and passes it to every reader of that query, so it decodes
    each distinct wire point once per query; without one, a reader
    memoizes within its own record. The invariant is `memo[b].encode() ==
    b` for every entry, as decoding is canonical, so a hit returns the
    point a decode would; a field that fails to decode raises on every read
    and never enters the memo. A proof's commitments, read with
    `commitment()`, bypass the memo: its prover draws them for that proof
    alone, so no other record repeats them and memoizing them would only
    keep them alive.
    """

    def __init__(self, data: bytes, group=None, memo=None):
        self.data = data
        self.pos = 0
        self.group = group
        self.memo = {} if memo is None else memo

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MalformedProof("truncated record")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def bytes_field(self) -> bytes:
        (n,) = struct.unpack("<I", self.take(4))
        return self.take(n)

    def text(self) -> str:
        """A length-prefixed UTF-8 field."""
        try:
            return self.bytes_field().decode()
        except UnicodeDecodeError as exc:
            raise MalformedProof(f"text field is not UTF-8: {exc}") from exc

    def u32(self) -> int:
        (n,) = struct.unpack("<I", self.take(4))
        return n

    def u8(self) -> int:
        return self.take(1)[0]

    def point(self):
        raw = self.take(self.group.point_bytes)
        hit = self.memo.get(raw)
        if hit is None:
            hit = self.memo[raw] = self.group.decode_point(raw)
        return hit

    def commitment(self):
        """A point a prover drew for this proof alone, decoded without the
        memo."""
        return self.group.decode_point(self.take(self.group.point_bytes))

    def scalar(self) -> int:
        return self.group.decode_scalar(self.take(self.group.scalar_bytes))

    def gt(self):
        return self.group.decode_gt(self.take(self.group.gt_bytes))

    def rest(self) -> bytes:
        out = self.data[self.pos :]
        self.pos = len(self.data)
        return out

    def done(self) -> bool:
        return self.pos == len(self.data)

    def expect_done(self):
        if not self.done():
            raise MalformedProof("trailing bytes in record")


def pack_u32(n: int) -> bytes:
    return struct.pack("<I", n)


def pack_u8(n: int) -> bytes:
    return struct.pack("<B", n)
