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
    bad = ShuffleProof(proof.inputs, tuple(tampered), proof.omega, proof.c_pts,
                       proof.c_hat, proof.t_1, proof.t_2, proof.t_3, proof.t_4,
                       proof.t_hat, proof.s_1, proof.s_2, proof.s_3, proof.s_4,
                       proof.s_hat, proof.s_prime)
    assert not verify_shuffle(bad)


@pytest.mark.parametrize("half", [0, 1])
def test_proof_over_outputs_with_a_shifted_component_rejected(ctx, monkeypatch, half):
    """A prover that adds the base point to one component of every output,
    so that each output decrypts to another value, and proves honestly over
    those outputs: the half of t_4 on that component rejects it."""
    import privq.proofs.shuffle as shuffle

    group, rng, kp, _ = ctx
    base, honest = group.base(), elgamal.Ciphertext
    monkeypatch.setattr(shuffle, "Ciphertext", lambda c1, c2: (
        honest(c1 + base, c2) if half == 0 else honest(c1, c2 + base)))
    _, proof = shuffle_and_prove(group, _encrypt_list(ctx, [1, 2, 3]), kp.public, rng)
    monkeypatch.undo()
    assert not verify_shuffle(proof)


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
    # s'_2 enters no challenge, so only the weighted equations catch it
    s_prime = (proof.s_prime[0], (proof.s_prime[1] + 1) % group.order, *proof.s_prime[2:])
    bad = dataclasses.replace(proof, s_prime=s_prime)

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
        tampered[i] = dataclasses.replace(proof, s_4=(proof.s_4 + 1) % group.order)
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


def _tampered(proof):
    """(name, proof) for every single-element change of `proof`: each point
    of each point field moved by the base point, each scalar plus one."""
    group = proof.omega.group
    base = group.base()

    def moved(ct, half):
        return elgamal.Ciphertext(ct.c1 + base, ct.c2) if half == 0 else \
            elgamal.Ciphertext(ct.c1, ct.c2 + base)

    out = [("omega", dataclasses.replace(proof, omega=proof.omega + base))]
    for name in ("inputs", "outputs"):
        series = getattr(proof, name)
        for j in range(len(series)):
            for half in (0, 1):
                changed = series[:j] + (moved(series[j], half),) + series[j + 1:]
                out.append((f"{name}[{j}].c{half + 1}", dataclasses.replace(proof, **{name: changed})))
    for name in ("c_pts", "c_hat", "t_4", "t_hat", "s_hat", "s_prime"):
        series = getattr(proof, name)
        for j in range(len(series)):
            element = (series[j] + 1) % group.order if name.startswith("s_") else series[j] + base
            changed = series[:j] + (element,) + series[j + 1:]
            out.append((f"{name}[{j}]", dataclasses.replace(proof, **{name: changed})))
    for name in ("t_1", "t_2", "t_3"):
        out.append((name, dataclasses.replace(proof, **{name: getattr(proof, name) + base})))
    for name in ("s_1", "s_2", "s_3", "s_4"):
        out.append((name, dataclasses.replace(proof, **{name: (getattr(proof, name) + 1) % group.order})))
    return out


@pytest.mark.parametrize("profile", ["ed25519", "pairing80"])
def test_every_tampered_field_rejected_alone_and_in_a_chain(profile):
    """Three chained links of 3 entries verify together. Each single-element
    change of any field of a link's proof (the statement's key, inputs and
    outputs, the commitments c, c^, t_1..t_4, t^ and every response) is
    rejected alone and inside the joint batch of the three links, the
    changed link at each position in turn."""
    group = get_group(profile)
    rng = Drbg(f"tamper/{profile}")
    kp = elgamal.KeyPair.generate(group, rng)
    cts, chain = [elgamal.encrypt(group, v, kp.public, rng) for v in (3, 1, 4)], []
    for _ in range(3):
        cts, proof = shuffle_and_prove(group, cts, kp.public, rng)
        chain.append(proof)
    assert verify_shuffle(*chain)
    changes = [_tampered(proof) for proof in chain]  # the same fields, link by link
    assert len(changes[0]) == 1 + 4 * 3 + 2 * 3 + 2 + 3 * 3 + 3 + 4
    for k in range(len(changes[0])):
        position = k % 3
        name, bad = changes[position][k]
        assert not verify_shuffle(bad), name
        joint = list(chain)
        joint[position] = bad
        assert not verify_shuffle(*joint), (name, position)


@pytest.mark.parametrize("profile", ["ed25519", "pairing80"])
def test_generators_are_distinct_points_of_prime_order(profile):
    """`hash_to_point` is deterministic, and the shuffle's h, h_1..h_n are
    n + 1 distinct non-identity points, each of prime order: times the
    order, by a double-and-add that never reduces the scalar, each is the
    identity."""
    from privq.proofs.shuffle import _generators
    from privq.serial import pack_u32

    group = get_group(profile)
    n = 5
    generators = _generators(group, n)
    assert len(generators) == n + 1 and len(set(generators)) == n + 1
    for i, point in enumerate(generators):
        assert point == group.hash_to_point(b"shuffle/" + pack_u32(i))
        assert not point.is_identity() and point != group.base()
        acc = group.identity()
        for bit in bin(group.order)[2:]:
            acc = acc + acc
            if bit == "1":
                acc = acc + point
        assert acc.is_identity(), i
