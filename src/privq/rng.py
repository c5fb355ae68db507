"""Randomness sources: a seedable hash-counter DRBG and the OS entropy source.

Protocol nonces must come from a cryptographically strong generator; the
simulation additionally needs reproducibility, so both sources expose the
same two-method interface (`randbytes`, `randbelow`).
"""

from __future__ import annotations

import hashlib
import secrets


class Drbg:
    """Deterministic SHA-256 counter generator, seedable for reproducible runs."""

    def __init__(self, seed: bytes | str):
        if isinstance(seed, str):
            seed = seed.encode()
        self._key = hashlib.sha256(b"privq/drbg" + seed).digest()
        self._counter = 0
        self._buf = b""

    def randbytes(self, n: int) -> bytes:
        while len(self._buf) < n:
            block = hashlib.sha256(self._key + self._counter.to_bytes(8, "little")).digest()
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def randbelow(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbytes = (bound.bit_length() + 15) // 8  # extra byte keeps rejection rare
        while True:
            v = int.from_bytes(self.randbytes(nbytes), "little")
            limit = (1 << (8 * nbytes)) - ((1 << (8 * nbytes)) % bound)
            if v < limit:
                return v % bound


class SystemRng:
    """OS entropy source with the same interface as Drbg."""

    def randbytes(self, n: int) -> bytes:
        return secrets.token_bytes(n)

    def randbelow(self, bound: int) -> int:
        return secrets.randbelow(bound)


def default_rng(seed=None):
    """Seeded Drbg when a seed is given, OS entropy otherwise."""
    return SystemRng() if seed is None else Drbg(str(seed))
