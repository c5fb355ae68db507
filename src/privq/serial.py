"""Length-prefixed binary serialization for proofs, messages, and blocks.

Layout: every record is a one-byte type tag followed by fields; variable
fields carry a 4-byte little-endian length prefix. Point/scalar fields use
the group's canonical fixed-length encodings.
"""

from __future__ import annotations

import struct

from .errors import MalformedProof


def pack_bytes(data: bytes) -> bytes:
    return struct.pack("<I", len(data)) + data


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

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
