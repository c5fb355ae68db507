"""Anytrust range proofs: setup well-formedness, completeness, boundary
rejection, multi-CN combination, bit-flip fuzzing, and range shifting."""

import random

import pytest

from privq.elgamal import encrypt_with_nonce
from privq.errors import MalformedProof, OutOfRange, PairingUnavailable
from privq.group import get_group
from privq.proofs import rangeproof as rp
from privq.rng import Drbg


@pytest.fixture(scope="module")
def ctx():
    group = get_group("pairing80")
    rng = Drbg("range-proofs")
    sigs, secrets = rp.range_setup(group, 16, 3, rng)
    omega = group.mul(group.random_scalar(rng), group.base())
    group.precompute(omega)
    return group, rng, sigs, secrets, omega


def test_setup_publishes_u_signatures_per_cn(ctx):
    group, _, sigs, _, _ = ctx
    assert sigs.n_cns == 3
    assert all(len(row) == 16 for row in sigs.digit_sigs)


def test_setup_signature_wellformedness(ctx):
    """pairing(A_{i,b}, Z_i + b*B) == pairing(B, B) for every digit."""
    group, _, sigs, _, _ = ctx
    base = group.base()
    e_bb = group.pair(base, base)
    for i in range(sigs.n_cns):
        for b in range(sigs.u):
            lhs = group.pair(sigs.digit_sigs[i][b],
                             sigs.z_points[i] + group.mul(b, base))
            assert lhs == e_bb, (i, b)


def test_setup_rejects_degenerate_base(ctx):
    group, rng, _, _, _ = ctx
    with pytest.raises(OutOfRange):
        rp.range_setup(group, 1, 3, rng)


def test_setup_needs_pairing():
    with pytest.raises(PairingUnavailable):
        rp.range_setup(get_group("ed25519"), 16, 3, Drbg("x"))


def test_completeness_basic(ctx):
    group, rng, sigs, _, omega = ctx
    nonce = group.random_scalar(rng)
    proof = rp.prove_range(group, 5, nonce, omega, sigs, 2, rng)
    assert rp.verify_range(proof, sigs, omega, group.mul(nonce, group.base()))


def test_out_of_range_at_creation(ctx):
    group, rng, sigs, _, omega = ctx
    nonce = group.random_scalar(rng)
    for m in (256, 257, 512, -1):
        with pytest.raises(OutOfRange):
            rp.prove_range(group, m, nonce, omega, sigs, 2, rng)


def test_completeness_sweep(ctx):
    """100 uniform messages in range all verify."""
    group, rng, sigs, _, omega = ctx
    for _ in range(100):
        m = rng.randbelow(256)
        nonce = group.random_scalar(rng)
        proof = rp.prove_range(group, m, nonce, omega, sigs, 2, rng)
        assert rp.verify_range(proof, sigs, omega, group.mul(nonce, group.base())), m


def test_single_cn_signature_proof_rejected(ctx):
    """A proof built against one CN's signatures fails when #CN = 3."""
    group, rng, sigs, secrets, omega = ctx
    solo = rp.RangeSignatures(group, sigs.u, sigs.z_points[:1], sigs.digit_sigs[:1])
    nonce = group.random_scalar(rng)
    proof = rp.prove_range(group, 9, nonce, omega, solo, 2, rng)
    c1 = group.mul(nonce, group.base())
    assert rp.verify_range(proof, solo, omega, c1)  # fine against its own setup
    assert not rp.verify_range(proof, sigs, omega, c1)


def test_forged_digits_rejected(ctx):
    group, rng, sigs, _, omega = ctx
    nonce = group.random_scalar(rng)
    c1 = group.mul(nonce, group.base())
    proof = rp.prove_range_unchecked(group, 300, nonce, omega, sigs, 2, rng)
    assert not rp.verify_range(proof, sigs, omega, c1)
    proof = rp.prove_range_unchecked(group, 12, nonce, omega, sigs, 2, rng,
                                     digits=[3, 1])
    assert not rp.verify_range(proof, sigs, omega, c1)


def test_mismatched_commitment_rejected(ctx):
    group, rng, sigs, _, omega = ctx
    nonce = group.random_scalar(rng)
    honest = rp.prove_range(group, 44, nonce, omega, sigs, 2, rng)
    other_c2 = group.mul(300, group.base()) + group.mul(nonce, omega)
    forged = rp.RangeProof(other_c2, honest.challenge, honest.z_r, honest.z_v,
                           honest.z_m, honest.d_point, honest.d1_point, honest.v_points,
                           honest.a_elems, honest.u, honest.l)
    assert not rp.verify_range(forged, sigs, omega, group.mul(nonce, group.base()))


def test_bitflip_fuzz_rejected(ctx):
    """0 false accepts over 1000 single-bit corruptions."""
    group, rng, sigs, _, omega = ctx
    nonce = group.random_scalar(rng)
    blob = rp.prove_range(group, 137, nonce, omega, sigs, 2, rng).encode()
    c1 = group.mul(nonce, group.base())
    flip = random.Random(77)
    accepted = 0
    for _ in range(1000):
        data = bytearray(blob)
        data[flip.randrange(len(data))] ^= 1 << flip.randrange(8)
        try:
            if rp.verify_range(rp.decode_range(group, bytes(data)), sigs, omega, c1):
                accepted += 1
        except MalformedProof:
            pass
    assert accepted == 0


def test_serialization_roundtrip(ctx):
    group, rng, sigs, _, omega = ctx
    nonce = group.random_scalar(rng)
    proof = rp.prove_range(group, 200, nonce, omega, sigs, 2, rng)
    decoded = rp.decode_range(group, proof.encode())
    assert decoded.encode() == proof.encode()
    assert rp.verify_range(decoded, sigs, omega, group.mul(nonce, group.base()))


def test_fiat_shamir_deterministic(ctx):
    group, _, sigs, _, omega = ctx
    a = rp.prove_range(group, 77, 12345, omega, sigs, 2, Drbg("range-fs"))
    b = rp.prove_range(group, 77, 12345, omega, sigs, 2, Drbg("range-fs"))
    assert a.encode() == b.encode()


def test_secret_not_in_proof_bytes(ctx):
    group, rng, sigs, _, omega = ctx
    nonce = group.random_scalar(rng)
    blob = rp.prove_range(group, 201, nonce, omega, sigs, 2, rng).encode()
    assert group.encode_scalar(nonce) not in blob
    assert group.encode_scalar(201) not in blob


def test_shift_range():
    # [40, 100) under base 16: l = 2, shifts b_l and b_u - 16^2
    assert rp.bounded_shifts((40, 100), 16) == (2, (40, 100 - 256))
    _, (lo, hi) = rp.bounded_shifts((40, 100), 16)
    assert (70 - lo, 70 - hi) == (30, 226)
    assert 40 - lo == 0 and 99 - lo == 59
    assert 99 - hi == 255 and 100 - hi == 256  # b_u leaves [0, 16^2)
    assert 39 - lo == -1
    with pytest.raises(OutOfRange):
        rp.bounded_shifts((10, 10), 16)
    # minimal l under the digit base
    assert rp.range_params((0, 16)) == (16, 1)
    assert rp.range_params((0, 17)) == (16, 2)
    assert rp.range_params((0, 2), u=2) == (2, 1)


def test_two_sided_shift_pins_exact_range():
    """m in [b_l, b_u) iff both shifted values are in [0, u^l)."""
    bounds = (40, 100)
    l, shifts = rp.bounded_shifts(bounds, 16)
    cap = 16**l
    for m in range(-50, 400):
        both_ok = all(0 <= m - shift < cap for shift in shifts)
        assert both_ok == (bounds[0] <= m < bounds[1]), m


@pytest.mark.parametrize("width", [1, 2, 16, 17, 60])
def test_bounded_pair_accepts_exactly_the_range(ctx, width):
    """prove_bounded/verify_bounded under the setup's base 16: values just
    inside both bounds verify, values just outside do not."""
    group, rng, sigs, _, omega = ctx
    solo = rp.RangeSignatures(group, sigs.u, sigs.z_points[:1], sigs.digit_sigs[:1])
    bounds = (5, 5 + width)
    for m in (bounds[0] - 1, bounds[0], bounds[1] - 1, bounds[1]):
        nonce = group.random_scalar(rng)
        ct = encrypt_with_nonce(group, m, omega, nonce)
        proofs = rp.prove_bounded(group, m, nonce, omega, solo, bounds, rng)
        assert all(p.u == 16 for p in proofs)
        ok = rp.verify_bounded(ct, proofs, bounds, solo, omega)
        assert ok == (bounds[0] <= m < bounds[1]), (bounds, m)
        if ok:  # the pair is bound to its ciphertext
            other = encrypt_with_nonce(group, m + 1, omega, nonce)
            assert not rp.verify_bounded(other, proofs, bounds, solo, omega)
