"""One point rule for every curve profile: a point made by any operation
holds affine coordinates, so it encodes without an inversion, decodes back
to itself, and compares and hashes exactly as its encoding does."""

import sys

import pytest

from privq.group import get_group
from privq.rng import Drbg

PROFILES = ["ed25519", "pairing80"]


def identity_bytes(group):
    if group.name == "ed25519":
        return (1).to_bytes(32, "little")  # y = 1, sign bit 0
    return bytes(group.point_bytes)


def points_from_every_operation(group, rng):
    base = group.base()
    fresh = group.decode_point(group.mul(7, base).encode())  # no comb table
    ks = [group.random_scalar(rng) for _ in range(200)]
    comb, window = group.mul(ks[0], base), group.mul(ks[1], fresh)
    walked = group.walk(comb, fresh, 200)
    return [
        group.identity(), base, fresh, comb, window,
        group.msm([(ks[0], base), (ks[1], fresh)]),  # Straus; equals comb + window
        group.msm(list(zip(ks, walked))),  # Pippenger (more than 192 terms)
        *walked[:3],
        comb + window, comb + fresh,  # equal to walked[1]
        comb - window, -comb, window + group.identity(), comb + comb,
        group.decode_point(comb.encode()),
    ]


@pytest.mark.parametrize("profile", PROFILES)
def test_point_contract(profile, monkeypatch):
    group = get_group(profile)
    points = points_from_every_operation(group, Drbg(f"point-contract/{profile}"))

    def no_pow(*args):
        raise AssertionError("encode() called pow")

    for module in {type(group).__module__, type(points[0]).encode.__module__}:
        monkeypatch.setattr(sys.modules[module], "pow", no_pow, raising=False)
    encodings = [P.encode() for P in points]
    monkeypatch.undo()

    for P, enc in zip(points, encodings):
        assert group.decode_point(enc) == P
        assert group.decode_point(enc).encode() == enc
    equal_pairs = 0
    for i, (P, e) in enumerate(zip(points, encodings)):
        for j, (Q, f) in enumerate(zip(points, encodings)):
            assert (P == Q) == (e == f), (i, j)
            if e == f:
                assert hash(P) == hash(Q), (i, j)
                equal_pairs += i != j
    assert equal_pairs >= 4  # msm = comb + window, walk = comb + fresh, a decode
    for P in points:
        zero = P + (-P)
        assert zero.is_identity() and zero == group.identity()
        assert zero.encode() == identity_bytes(group)
