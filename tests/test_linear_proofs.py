"""Linear-relation discrete-log proofs: completeness, soundness probes,
bit-flip fuzzing, Fiat-Shamir determinism, and the testable zero-knowledge
properties."""

import random

import pytest

from privq.errors import MalformedProof
from privq.group import get_group
from privq.proofs.linear import (LinearRelationProof, LinearStatement,
                                 decode_linear, prove_linear, verify_linear)
from privq.proofs.transcript import joint_verdicts
from privq.rng import Drbg


@pytest.fixture(scope="module")
def ctx():
    group = get_group("ed25519")
    rng = Drbg("linear-proofs")
    return group, rng


def _ctks_instance(group, rng):
    """Key-switch relation: K_i = k*B, w1 = a*B, w2 = k*(-C1) + a*K'."""
    base = group.base()
    k = group.random_scalar(rng)
    a = group.random_scalar(rng)
    c1 = group.mul(group.random_scalar(rng), base)
    kq = group.mul(group.random_scalar(rng), base)
    statement = LinearStatement(
        bases=((base, None), (None, base), (-c1, kq)),
        targets=(group.mul(k, base), group.mul(a, base),
                 group.msm([(k, -c1), (a, kq)])),
    )
    return statement, (k, a)


def _cto_instance(group, rng):
    """Obfuscation relation: C'_1 = s*C1, C'_2 = s*C2."""
    base = group.base()
    s = group.random_scalar(rng)
    c1 = group.mul(group.random_scalar(rng), base)
    c2 = group.mul(group.random_scalar(rng), base)
    statement = LinearStatement(
        bases=((c1,), (c2,)),
        targets=(group.mul(s, c1), group.mul(s, c2)),
    )
    return statement, (s,)


def test_ctks_relation_verifies(ctx):
    group, rng = ctx
    statement, secrets = _ctks_instance(group, rng)
    assert verify_linear(prove_linear(statement, secrets, rng))


def test_cto_relation_verifies(ctx):
    group, rng = ctx
    statement, secrets = _cto_instance(group, rng)
    assert verify_linear(prove_linear(statement, secrets, rng))


def test_tampered_response_rejected(ctx):
    group, rng = ctx
    statement, secrets = _ctks_instance(group, rng)
    proof = prove_linear(statement, secrets, rng)
    bad = LinearRelationProof(
        statement, proof.commitments, proof.challenge,
        (proof.responses[0], (proof.responses[1] + 1) % group.order),
    )
    assert not verify_linear(bad)


def test_swapped_bases_rejected(ctx):
    group, rng = ctx
    statement, secrets = _ctks_instance(group, rng)
    proof = prove_linear(statement, secrets, rng)
    row = statement.bases[2]
    swapped = LinearStatement(
        bases=(statement.bases[0], statement.bases[1], (row[1], row[0])),
        targets=statement.targets,
    )
    assert not verify_linear(LinearRelationProof(
        swapped, proof.commitments, proof.challenge, proof.responses))


def test_completeness_sweep(ctx):
    group, rng = ctx
    for i in range(100):
        maker = _ctks_instance if i % 2 == 0 else _cto_instance
        statement, secrets = maker(group, rng)
        assert verify_linear(prove_linear(statement, secrets, rng))


def test_bitflip_fuzz_rejected(ctx):
    """No false accepts across 1000 single-bit corruptions."""
    group, rng = ctx
    statement, secrets = _ctks_instance(group, rng)
    blob = prove_linear(statement, secrets, rng).encode()
    flip = random.Random(1234)
    accepted = 0
    for _ in range(1000):
        data = bytearray(blob)
        data[flip.randrange(len(data))] ^= 1 << flip.randrange(8)
        try:
            if verify_linear(decode_linear(group, bytes(data), statement)):
                accepted += 1
        except MalformedProof:
            pass
    assert accepted == 0


def test_serialization_roundtrip(ctx):
    group, rng = ctx
    statement, secrets = _ctks_instance(group, rng)
    proof = prove_linear(statement, secrets, rng)
    decoded = decode_linear(group, proof.encode(), statement)
    assert decoded.encode() == proof.encode()
    assert verify_linear(decoded)


def test_malformed_transcript_raises(ctx):
    group, _ = ctx
    statement, _ = _cto_instance(group, Drbg("malformed-transcript"))
    with pytest.raises(MalformedProof):
        decode_linear(group, b"\x01\x00\x00", statement)
    with pytest.raises(MalformedProof):
        decode_linear(group, b"\x09" + b"\x00" * 40, statement)


def test_fiat_shamir_deterministic(ctx):
    """Same statement and same nonces give identical proof bytes."""
    group, _ = ctx
    statement, secrets = _ctks_instance(group, Drbg("fs-instance"))
    a = prove_linear(statement, secrets, Drbg("fs-nonces"))
    b = prove_linear(statement, secrets, Drbg("fs-nonces"))
    assert a.encode() == b.encode()


def test_secret_bytes_not_in_proof(ctx):
    group, rng = ctx
    statement, secrets = _ctks_instance(group, rng)
    blob = prove_linear(statement, secrets, rng).encode()
    for secret in secrets:
        assert group.encode_scalar(secret) not in blob


def test_challenge_uniformity_chi_square(ctx):
    """Low byte of 2000 challenges over fresh instances is uniform at 0.01."""
    group, rng = ctx
    counts = [0] * 256
    for _ in range(2000):
        statement, secrets = _cto_instance(group, rng)
        proof = prove_linear(statement, secrets, rng)
        counts[proof.challenge & 0xFF] += 1
    expected = 2000 / 256
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 310.46, chi2


def _ctks_batch(group, rng, n):
    """n key-switch proofs by one CN toward one querier key, as one CTKS
    bundle carries them: the bases B, K_i and K' are shared objects."""
    base = group.base()
    k = group.random_scalar(rng)
    cn_public = group.mul(k, base)
    kq = group.mul(group.random_scalar(rng), base)
    proofs = []
    for _ in range(n):
        a = group.random_scalar(rng)
        neg_c1 = -group.mul(group.random_scalar(rng), base)
        statement = LinearStatement(
            bases=((base, None), (None, base), (neg_c1, kq)),
            targets=(cn_public, group.mul(a, base), group.msm([(k, neg_c1), (a, kq)])),
        )
        proofs.append(prove_linear(statement, (k, a), rng))
    return proofs


def _tamper_response(group, proof, i):
    responses = list(proof.responses)
    responses[i] = (responses[i] + 1) % group.order
    return LinearRelationProof(proof.statement, proof.commitments, proof.challenge,
                               tuple(responses))


def test_batch_matches_per_proof_verdicts_on_bitflip_corpus(ctx):
    """The bit-flip corpus of `test_bitflip_fuzz_rejected`, each corrupted
    proof placed in a batch between two honest ones: the batch verdict
    equals the per-proof verdicts, and no batch is accepted."""
    group, rng = ctx
    statement, secrets = _ctks_instance(group, rng)
    blob = prove_linear(statement, secrets, rng).encode()
    honest = _ctks_batch(group, rng, 2)
    assert verify_linear(*honest, decode_linear(group, blob, statement))
    flip = random.Random(1234)
    compared = 0
    for trial in range(1000):
        data = bytearray(blob)
        data[flip.randrange(len(data))] ^= 1 << flip.randrange(8)
        try:
            corrupted = decode_linear(group, bytes(data), statement)
        except MalformedProof:
            continue
        batch = list(honest)
        batch.insert(trial % 3, corrupted)
        verdict = verify_linear(*batch)
        assert verdict == all(verify_linear(p) for p in batch)
        assert not verdict
        compared += 1
    assert compared > 100


def test_batch_of_21_rejects_one_tampered_proof_at_every_position(ctx):
    group, rng = ctx
    proofs = _ctks_batch(group, rng, 21)
    assert verify_linear(*proofs)
    for position in range(len(proofs)):
        batch = list(proofs)
        batch[position] = _tamper_response(group, proofs[position], position % 2)
        assert not verify_linear(*batch), position


def test_batch_verdict_is_deterministic(ctx):
    group, rng = ctx
    proofs = _ctks_batch(group, rng, 21)
    tampered = list(proofs)
    tampered[7] = _tamper_response(group, proofs[7], 1)
    assert [verify_linear(*proofs) for _ in range(3)] == [True] * 3
    assert [verify_linear(*tampered) for _ in range(3)] == [False] * 3


def test_joint_verdicts_match_per_bundle_verdicts_on_bitflip_corpus(ctx):
    """The bit-flip corpus again, each corrupted proof in one of three
    bundles of a round: one joint batch over the round, then one batch per
    bundle only if it rejects, gives every bundle the verdict that
    `verify_linear` on that bundle alone gives."""
    group, rng = ctx
    statement, secrets = _ctks_instance(group, rng)
    blob = prove_linear(statement, secrets, rng).encode()
    honest = _ctks_batch(group, rng, 3)
    assert joint_verdicts(verify_linear, [honest[:1], honest[1:]]) == [True, True]
    flip = random.Random(1234)
    compared = 0
    for trial in range(1000):
        data = bytearray(blob)
        data[flip.randrange(len(data))] ^= 1 << flip.randrange(8)
        try:
            corrupted = decode_linear(group, bytes(data), statement)
        except MalformedProof:
            continue
        bundles = [honest[:1], honest[1:2], honest[2:]]
        bundles[trial % 3] = bundles[trial % 3] + [corrupted]
        verdicts = joint_verdicts(verify_linear, bundles)
        assert verdicts == [verify_linear(*bundle) for bundle in bundles]
        assert verdicts.count(False) == 1
        compared += 1
    assert compared > 100
