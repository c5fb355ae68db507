"""Verifiable shuffle: multiset invariance, unlinkability of ciphertext
bytes, soundness probes, and bit-flip fuzzing."""

import dataclasses
import random

import pytest

from privq import elgamal
from privq.errors import EmptyList, MalformedProof
from privq.group import DlogTable, get_group
from privq.proofs.shuffle import (ShuffleProof, decode_shuffle,
                                  shuffle_and_prove, verify_shuffle)
from privq.proofs.transcript import joint_verdicts
from privq.rng import Drbg


@pytest.fixture(scope="module")
def ctx():
    group = get_group("ed25519")
    rng = Drbg("shuffle")
    kp = elgamal.KeyPair.generate(group, rng)
    table = DlogTable(group, 4096)
    return group, rng, kp, table


def _encrypt_list(ctx, values):
    group, rng, kp, _ = ctx
    return [elgamal.encrypt(group, v, kp.public, rng) for v in values]


def test_multiset_preserved(ctx):
    group, rng, kp, table = ctx
    cts = _encrypt_list(ctx, [1, 2, 3, 4, 5])
    outputs, proof = shuffle_and_prove(group, cts, kp.public, rng)
    assert verify_shuffle(proof)
    decrypted = sorted(elgamal.decrypt(group, ct, kp.private, table) for ct in outputs)
    assert decrypted == [1, 2, 3, 4, 5]


def test_ciphertexts_unlinkable_bytes(ctx):
    group, rng, kp, _ = ctx
    cts = _encrypt_list(ctx, [7, 7, 7])
    outputs, _ = shuffle_and_prove(group, cts, kp.public, rng)
    before = {ct.encode() for ct in cts}
    after = {ct.encode() for ct in outputs}
    assert not (before & after)


def test_singleton(ctx):
    group, rng, kp, table = ctx
    cts = _encrypt_list(ctx, [9])
    outputs, proof = shuffle_and_prove(group, cts, kp.public, rng)
    assert verify_shuffle(proof)
    assert outputs[0].encode() != cts[0].encode()
    assert elgamal.decrypt(group, outputs[0], kp.private, table) == 9


def test_empty_list_rejected(ctx):
    group, rng, kp, _ = ctx
    with pytest.raises(EmptyList):
        shuffle_and_prove(group, [], kp.public, rng)


def test_substituted_output_rejected(ctx):
    group, rng, kp, _ = ctx
    cts = _encrypt_list(ctx, [1, 2, 3, 4])
    outputs, proof = shuffle_and_prove(group, cts, kp.public, rng)
    tampered = list(outputs)
    tampered[1] = elgamal.encrypt(group, 99, kp.public, rng)
    bad = ShuffleProof(proof.inputs, tuple(tampered), proof.omega, proof.gamma_pt,
                       proof.a_pts, proof.c_pts, proof.u_pts, proof.w_pts,
                       proof.lambda1, proof.lambda2, proof.d_pts, proof.sigma,
                       proof.tau, proof.theta_pts, proof.alpha)
    assert not verify_shuffle(bad)


def test_completeness_sweep(ctx):
    group, rng, kp, _ = ctx
    for trial in range(100):
        n = 1 + trial % 8
        cts = _encrypt_list(ctx, [rng.randbelow(100) for _ in range(n)])
        _, proof = shuffle_and_prove(group, cts, kp.public, rng)
        assert verify_shuffle(proof), trial


def test_bitflip_fuzz_rejected(ctx):
    group, rng, kp, _ = ctx
    cts = _encrypt_list(ctx, [5, 6, 7, 8])
    _, proof = shuffle_and_prove(group, cts, kp.public, rng)
    blob = proof.encode()
    flip = random.Random(99)
    accepted = 0
    for _ in range(1000):
        data = bytearray(blob)
        data[flip.randrange(len(data))] ^= 1 << flip.randrange(8)
        try:
            if verify_shuffle(decode_shuffle(group, bytes(data))):
                accepted += 1
        except MalformedProof:
            pass
    assert accepted == 0


def test_serialization_roundtrip(ctx):
    group, rng, kp, _ = ctx
    cts = _encrypt_list(ctx, [1, 2])
    _, proof = shuffle_and_prove(group, cts, kp.public, rng)
    decoded = decode_shuffle(group, proof.encode())
    assert decoded.encode() == proof.encode()
    assert verify_shuffle(decoded)


def test_permutation_and_factors_not_leaked(ctx):
    """Proof bytes contain no scalar encoding of the rerandomization factors.

    The prover's rng stream is mirrored draw for draw (permutation swaps,
    then one factor per element) to learn the factors out of band.
    """
    group, _, kp, _ = ctx
    cts = [elgamal.encrypt(group, v, kp.public, Drbg("ct-gen")) for v in (1, 2, 3)]
    probe = Drbg("leak-check")
    _ = [probe.randbelow(i + 1) for i in range(2, 0, -1)]  # Fisher-Yates draws
    betas = [probe.randbelow(group.order) for _ in range(3)]
    _, proof = shuffle_and_prove(group, cts, kp.public, Drbg("leak-check"))
    blob = proof.encode()
    for beta in betas:
        assert group.encode_scalar(beta) not in blob


def test_verdict_reads_no_os_randomness(ctx, monkeypatch):
    """Batch weights come from the transcript, so a verdict needs no OS
    entropy and is the same on every verifying node."""
    import dataclasses
    import secrets

    group, rng, kp, _ = ctx
    cts = _encrypt_list(ctx, [1, 2, 3])
    _, proof = shuffle_and_prove(group, cts, kp.public, rng)
    # alpha_1 enters no challenge, so only the weighted equations catch it
    alpha = (proof.alpha[0], (proof.alpha[1] + 1) % group.order, *proof.alpha[2:])
    bad = dataclasses.replace(proof, alpha=alpha)

    def no_entropy(n):
        raise AssertionError("verify_shuffle read OS randomness")

    monkeypatch.setattr(secrets, "token_bytes", no_entropy)
    assert verify_shuffle(proof)
    assert not verify_shuffle(bad)


def test_chain_of_shuffles_verifies_as_one_batch(ctx):
    """Three links, each shuffling the previous one's outputs, verify in
    one batch; a tampered link makes the joint batch reject."""
    group, rng, kp, _ = ctx
    cts, proofs = _encrypt_list(ctx, [1, 2, 3]), []
    for _ in range(3):
        cts, proof = shuffle_and_prove(group, cts, kp.public, rng)
        proofs.append(proof)
    assert verify_shuffle(*proofs)
    for i, proof in enumerate(proofs):
        tampered = list(proofs)
        tampered[i] = dataclasses.replace(proof, tau=(proof.tau + 1) % group.order)
        assert not verify_shuffle(*tampered), i
        assert verify_shuffle(*(p for j, p in enumerate(proofs) if j != i))


def test_joint_verdicts_match_per_bundle_verdicts_on_bitflip_corpus(ctx):
    """The first half of the bit-flip corpus of `test_bitflip_fuzz_rejected`,
    each corrupted proof one of three links' bundles: one joint batch, then
    one batch per bundle only if it rejects, gives every bundle the verdict
    that `verify_shuffle` on that bundle alone gives."""
    group, rng, kp, _ = ctx
    cts = _encrypt_list(ctx, [5, 6, 7, 8])
    _, proof = shuffle_and_prove(group, cts, kp.public, rng)
    blob = proof.encode()
    honest = [shuffle_and_prove(group, cts, kp.public, rng)[1] for _ in range(2)]
    assert verify_shuffle(honest[0]) and verify_shuffle(honest[1])
    flip = random.Random(99)
    memo = {}  # a corrupted proof shares all points but one with the others
    compared = 0
    for trial in range(500):
        data = bytearray(blob)
        data[flip.randrange(len(data))] ^= 1 << flip.randrange(8)
        try:
            corrupted = decode_shuffle(group, bytes(data), memo)
        except MalformedProof:
            continue
        bundles, alone = [(honest[0],), (honest[1],)], [True, True]
        bundles.insert(trial % 3, (corrupted,))
        alone.insert(trial % 3, verify_shuffle(corrupted))
        assert joint_verdicts(verify_shuffle, bundles) == alone
        assert alone.count(False) == 1
        compared += 1
    assert compared > 100
