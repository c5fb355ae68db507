"""Additive-homomorphic ElGamal over the group, plus key management and
fixed-point encoding of real-valued data.

A message m encrypts to (rB, mB + r*pk) with a fresh uniform nonce r, so
ciphertexts add componentwise and decrypt to the sum of plaintexts. A set
of nodes forms a collective key K = sum(K_i); decryption under K needs
every member's private key, which is the Anytrust premise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import EmptyMemberList, MessageTooLarge
from .serial import Reader, pack_u32

DEFAULT_SCALE = 100  # fixed-point scale for real-valued data
DEFAULT_MAX_MESSAGE = 1 << 20  # decodable plaintext bound, config knob


@dataclass(frozen=True)
class Ciphertext:
    """ElGamal pair (c1, c2) = (rB, mB + r*pk).

    Equality is structural (bitwise on the serialized points); plaintext
    equality can only be established by decrypting.
    """

    c1: object
    c2: object

    def __add__(self, other: "Ciphertext") -> "Ciphertext":
        return Ciphertext(self.c1 + other.c1, self.c2 + other.c2)

    def __rmul__(self, k: int) -> "Ciphertext":
        return Ciphertext(k * self.c1, k * self.c2)

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, Ciphertext):
            return NotImplemented
        return self.encode() == other.encode()

    def __hash__(self):
        return hash(self.encode())

    def encode(self) -> bytes:
        """Wire format: concatenation of the two canonical point encodings."""
        return self.c1.encode() + self.c2.encode()

    @classmethod
    def read(cls, reader: Reader) -> "Ciphertext":
        return cls(reader.point(), reader.point())


def decode_ciphertext(group, data: bytes, memo=None) -> Ciphertext:
    """One ciphertext; `memo` is the caller's decode memo (`serial.Reader`)."""
    reader = Reader(data, group, memo=memo)
    ct = Ciphertext.read(reader)
    reader.expect_done()
    return ct


def pack_cts(cts) -> bytes:
    """A ciphertext list: u32 count, then each ciphertext's encoding."""
    return pack_u32(len(cts)) + b"".join(ct.encode() for ct in cts)


def unpack_cts(group, reader: Reader) -> list[Ciphertext]:
    """A ciphertext list read off `reader`, whose points are `group`'s."""
    reader.group = group
    return [Ciphertext.read(reader) for _ in range(reader.u32())]


def read_cts(group, payload: bytes, memo=None) -> list[Ciphertext]:
    """A payload that is exactly one ciphertext list, else MalformedProof."""
    reader = Reader(payload, group, memo=memo)
    cts = unpack_cts(group, reader)
    reader.expect_done()
    return cts


@dataclass(frozen=True)
class KeyPair:
    private: int
    public: object

    @classmethod
    def generate(cls, group, rng) -> "KeyPair":
        sk = group.random_scalar(rng)
        pk = group.mul(sk, group.base())
        group.precompute(pk)
        return cls(sk, pk)


@dataclass(frozen=True)
class CollectiveKey:
    """Sum of the members' public keys; decryption needs all members."""

    public: object
    members: tuple = field(default_factory=tuple)


def collective_key(group, member_keys: Sequence, member_ids: Sequence[str] = ()) -> CollectiveKey:
    if not member_keys:
        raise EmptyMemberList("collective key needs at least one member")
    total = member_keys[0]
    for key in member_keys[1:]:
        total = total + key
    group.precompute(total)
    return CollectiveKey(total, tuple(member_ids))


def encrypt(group, m: int, pk, rng, max_message: int = DEFAULT_MAX_MESSAGE) -> Ciphertext:
    if abs(m) > max_message:
        raise MessageTooLarge(f"|{m}| exceeds decodable bound {max_message}")
    r = group.random_scalar(rng)
    base = group.base()
    return Ciphertext(group.mul(r, base), group.msm([(m, base), (r, pk)]))


def encrypt_with_nonce(group, m: int, pk, r: int) -> Ciphertext:
    """Encryption with a caller-supplied nonce; protocol code that must later
    prove statements about r uses this variant."""
    base = group.base()
    return Ciphertext(group.mul(r, base), group.msm([(m, base), (r, pk)]))


def decrypt(group, ct: Ciphertext, sk: int, table) -> int:
    point = ct.c2 - group.mul(sk, ct.c1)
    return table.decode(point)


def decrypt_point(group, ct: Ciphertext, sk: int):
    """Remove the encryption layer without dlog decoding (for zero-tests)."""
    return ct.c2 - group.mul(sk, ct.c1)


@dataclass(frozen=True)
class FixedPoint:
    """Integer representation raw/scale of a real value."""

    raw: int
    scale: int


def fixed_encode(x: float, scale: int = DEFAULT_SCALE,
                 max_message: int | None = DEFAULT_MAX_MESSAGE) -> FixedPoint:
    """Round half away from zero, the symmetric choice for signed data."""
    scaled = x * scale
    raw = int(abs(scaled) + 0.5)
    if scaled < 0:
        raw = -raw
    if max_message is not None and abs(raw) > max_message:
        raise MessageTooLarge(f"{x} at scale {scale} exceeds bound {max_message}")
    return FixedPoint(raw, scale)


def fixed_decode(fp: FixedPoint) -> float:
    return fp.raw / fp.scale
