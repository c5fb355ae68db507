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


def weights(domain: bytes, digest: bytes, n: int) -> list[int]:
    """n 128-bit weights read from SHAKE-256 over `domain` and `digest`."""
    stream = hashlib.shake_256(domain + digest).digest(16 * n)
    return [int.from_bytes(stream[i:i + 16], "little") for i in range(0, 16 * n, 16)]


class Batch:
    """Small-exponent batch verification (Bellare, Garay & Rabin, EUROCRYPT
    1998): equation e gets a 128-bit weight r_e, and the batch holds iff
    sum_e r_e * (the equation's terms, moved to one side) is the identity,
    one MSM.

    The n weights are read from SHAKE-256 over `domain` and `digest`, a hash
    of everything the batch checks, so a verdict is deterministic, and a
    batch holding a false equation over prime-order points holds with
    probability at most 2^-128. Terms on equal points share one MSM term.
    """

    def __init__(self, group, domain: bytes, digest: bytes, n: int):
        self.group = group
        self._weights = iter(weights(domain, digest, n))
        self._terms = {}  # point -> its summed scalar mod the order

    def equation(self) -> int:
        """The weight of the next equation."""
        return next(self._weights)

    def add(self, k: int, point):
        self._terms[point] = (self._terms.get(point, 0) + k) % self.group.order

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        """The (scalar, point) terms, read off the batch one at a time."""
        return ((k, point) for point, k in self._terms.items())

    def holds(self) -> bool:
        """Whether the batch's MSM is the identity; the MSM reads the terms
        off the batch, with no copy of them."""
        return self.group.msm(self).is_identity()


def joint_verdicts(verify, groups) -> list:
    """The verdict of `verify(*group)` for each group of proofs, read off one
    `verify` call over the proofs of all groups when that holds; only if it
    rejects is each group checked alone. `verify` is a batch verifier
    (`verify_linear`, `verify_shuffle`), so a joint batch that holds a
    false equation holds with probability at most 2^-128."""
    groups = [tuple(group) for group in groups]
    if verify(*(proof for group in groups for proof in group)):
        return [True] * len(groups)
    if len(groups) == 1:
        return [False]
    return [verify(*group) for group in groups]
