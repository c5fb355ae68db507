"""Schnorr signatures over the active group.

Provers sign their proof bytes before sending them to verifying nodes.
Nonces are derived deterministically from (secret, message) so repeated
runs with the same inputs produce byte-identical signatures and blocks.
"""

from __future__ import annotations

import hashlib

from ..errors import PrivqError
from ..serial import Reader


def _hash_scalar(group, *chunks: bytes) -> int:
    h = hashlib.sha512()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(4, "little") + chunk)
    return int.from_bytes(h.digest(), "little") % group.order


def sign(group, sk: int, message: bytes) -> bytes:
    nonce = _hash_scalar(group, b"privq/sig-nonce", group.encode_scalar(sk), message)
    if nonce == 0:
        nonce = 1
    base = group.base()
    r_point = group.mul(nonce, base)
    pk = group.mul(sk, base)
    c = _hash_scalar(group, b"privq/sig", r_point.encode(), pk.encode(), message)
    s = (nonce + c * sk) % group.order
    return r_point.encode() + group.encode_scalar(s)


def verify_signature(group, pk, message: bytes, signature: bytes) -> bool:
    reader = Reader(signature, group)
    try:
        r_point = reader.point()
        s = reader.scalar()
        reader.expect_done()
    except PrivqError:
        return False
    c = _hash_scalar(group, b"privq/sig", r_point.encode(), pk.encode(), message)
    return group.mul(s, group.base()) == r_point + group.mul(c, pk)
