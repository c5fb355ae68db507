"""Fiat-Shamir transcripts with per-proof-type domain separation.

Every absorbed item is length-prefixed before hashing, and challenges are
derived from the running state with a counter, so distinct transcripts
cannot collide and proofs of one type cannot be replayed as another.
"""

from __future__ import annotations

import hashlib

from ..serial import pack_bytes


class Transcript:
    def __init__(self, group, label: str):
        self.group = group
        self._state = hashlib.sha512(b"privq/" + label.encode()).digest()
        self._counter = 0

    def absorb(self, *items) -> "Transcript":
        for item in items:
            if isinstance(item, bytes):
                data = item
            elif isinstance(item, int):
                data = item.to_bytes((item.bit_length() + 8) // 8, "little", signed=True)
            elif item is None:
                data = b"\x00none"
            else:
                data = item.encode()  # points, ciphertexts, Gt elements
            self._state = hashlib.sha512(self._state + pack_bytes(data)).digest()
        return self

    def digest(self) -> bytes:
        """The running state: a hash of everything absorbed so far."""
        return self._state

    def challenge(self) -> int:
        block = hashlib.sha512(
            self._state + b"chal" + self._counter.to_bytes(4, "little")
        ).digest()
        self._counter += 1
        return int.from_bytes(block, "little") % self.group.order

    def challenge_vector(self, n: int) -> list[int]:
        return [self.challenge() for _ in range(n)]


def batch_weights(domain: bytes, digest: bytes, n: int):
    """n 128-bit weights for small-exponent batch verification, read from
    SHAKE-256 over `digest`, a hash of everything the batch checks, so a
    verdict is deterministic."""
    stream = hashlib.shake_256(domain + digest).digest(16 * n)
    return iter(int.from_bytes(stream[i:i + 16], "little") for i in range(0, 16 * n, 16))
