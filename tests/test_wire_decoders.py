"""Every wire decoder raises MalformedProof, the one decode error, for a
record holding a point that is not on the curve or a record cut short;
a signature that cannot be read does not verify."""

import pytest

from privq import elgamal, protocols
from privq.errors import MalformedProof
from privq.group import get_group
from privq.proofs import linear, rangeproof, shuffle
from privq.proofs.signatures import sign, verify_signature
from privq.rng import Drbg


def _ct(group, rng):
    pk = group.mul(group.random_scalar(rng), group.base())
    return elgamal.encrypt(group, 5, pk, rng)


# each builder returns (record, a point encoded in it, the decoder)

def _read_cts(group, rng):
    ct = _ct(group, rng)
    return elgamal.pack_cts([ct]), ct.c2, lambda data: elgamal.read_cts(group, data)


def _decode_ciphertext(group, rng):
    ct = _ct(group, rng)
    return ct.encode(), ct.c1, lambda data: elgamal.decode_ciphertext(group, data)


def _aggregation(group, rng):
    ct = _ct(group, rng)
    agg = protocols.Aggregation(("DP1",), ((ct,),), (ct + ct,))
    return agg.encode(), ct.c1, lambda data: protocols.Aggregation.decode(group, data)


def _linear(group, rng):
    sk = group.random_scalar(rng)
    statement = linear.LinearStatement(((group.base(),),), (group.mul(sk, group.base()),))
    proof = linear.prove_linear(statement, [sk], rng)
    return (proof.encode(), proof.commitments[0],
            lambda data: linear.decode_linear(group, data, statement))


def _range(group, rng):
    sigs, _ = rangeproof.range_setup(group, 2, 1, rng)
    omega = group.mul(group.random_scalar(rng), group.base())
    proof = rangeproof.prove_range(group, 1, group.random_scalar(rng), omega, sigs, 1, rng)
    return proof.encode(), proof.d_point, lambda data: rangeproof.decode_range(group, data)


def _shuffle(group, rng):
    omega = group.mul(group.random_scalar(rng), group.base())
    _, proof = shuffle.shuffle_and_prove(group, [_ct(group, rng)], omega, rng)
    return proof.encode(), proof.c_pts[0], lambda data: shuffle.decode_shuffle(group, data)


def _signature(group, rng):
    sk = group.random_scalar(rng)
    pk = group.mul(sk, group.base())
    signature = sign(group, sk, b"message")
    r_point = group.decode_point(signature[:group.point_bytes])
    return signature, r_point, lambda data: verify_signature(group, pk, b"message", data)


DECODERS = {
    "read_cts": ("ed25519", _read_cts),
    "decode_ciphertext": ("ed25519", _decode_ciphertext),
    "Aggregation.decode": ("ed25519", _aggregation),
    "decode_linear": ("ed25519", _linear),
    "decode_range": ("pairing80", _range),
    "decode_shuffle": ("ed25519", _shuffle),
    "verify_signature": ("ed25519", _signature),
}


@pytest.mark.parametrize("name", list(DECODERS))
def test_decoder_rejects_off_curve_point_and_truncated_record(name):
    profile, build = DECODERS[name]
    group = get_group(profile)
    data, point, decode = build(group, Drbg(f"wire-decoders/{name}"))
    assert decode(data)  # the record as written decodes (and a signature verifies)
    at = data.index(point.encode())
    off_curve = data[:at] + b"\xff" * group.point_bytes + data[at + group.point_bytes:]
    for bad in (off_curve, data[:-1]):
        if name == "verify_signature":
            assert decode(bad) is False
        else:
            with pytest.raises(MalformedProof):
                decode(bad)
