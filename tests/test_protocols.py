"""Collective protocols over CN trees: aggregation, key switching,
obfuscation, and the shuffled noise chain."""

import math

import pytest

from privq import elgamal, protocols
from privq.encodings import EncodedResponse, OperationSpec
from privq.errors import (DimensionMismatch, InvalidPrivacyParams, NoiseExhausted,
                          OutOfTableRange)
from privq.group import DlogTable, get_group
from privq.harness.pipeline import Simulation
from privq.harness.queryparse import parse_query
from privq.harness.topology import Topology
from privq.proofs.linear import verify_linear
from privq.proofs.shuffle import decode_shuffle, verify_shuffle
from privq.rng import Drbg
from privq.serial import pack_bytes

import protocol_steps as ps

SUM = OperationSpec("sum")


@pytest.fixture(scope="module")
def ctx():
    group = get_group("ed25519")
    rng = Drbg("protocols")
    cn_ids = ["cn1", "cn2", "cn3", "cn4", "cn5", "cn6"]
    keys = {c: elgamal.KeyPair.generate(group, rng) for c in cn_ids}
    collective = elgamal.collective_key(group, [keys[c].public for c in cn_ids], cn_ids)
    sk = sum(keys[c].private for c in cn_ids) % group.order
    table = DlogTable(group, 1 << 20)
    return group, rng, cn_ids, keys, collective, sk, table


def _response(ctx, values, pk=None):
    group, rng, _, _, collective, _, _ = ctx
    pk = pk or collective.public
    return EncodedResponse(
        [elgamal.encrypt(group, v, pk, rng) for v in values],
        elgamal.encrypt(group, 1, pk, rng),
    )


def test_tree_shapes():
    tree = protocols.build_tree(["c", "a", "b"])
    assert tree.nodes == ("a", "b", "c")
    assert tree.parents == (-1, 0, 0)
    chain = protocols.build_tree(["a", "b", "c"], "chain")
    assert chain.parents == (-1, 0, 1)
    star = protocols.build_tree(["a", "b", "c", "d"], "star")
    assert star.parents == (-1, 0, 0, 0)
    with pytest.raises(ValueError):
        protocols.build_tree(["a"], "ring")


def test_cta_single_dp(ctx):
    group, rng, cn_ids, keys, collective, sk, table = ctx
    tree = protocols.build_tree(cn_ids)
    resp = _response(ctx, [7])
    agg, steps = ps.aggregate_tree(tree, SUM, {"cn1": [resp]})
    assert elgamal.decrypt(group, agg.vector[0], sk, table) == 7
    assert elgamal.decrypt(group, agg.count, sk, table) == 1


def test_cta_homomorphic_sum(ctx):
    group, rng, cn_ids, keys, collective, sk, table = ctx
    tree = protocols.build_tree(cn_ids)
    contributions = {"cn1": [_response(ctx, [2])], "cn2": [_response(ctx, [3])],
                     "cn3": [_response(ctx, [4])]}
    agg, steps = ps.aggregate_tree(tree, SUM, contributions)
    assert elgamal.decrypt(group, agg.vector[0], sk, table) == 9
    assert elgamal.decrypt(group, agg.count, sk, table) == 3
    for cn, payloads in steps:
        agg = protocols.Aggregation.decode(group, payloads[0])
        assert protocols.verify_aggregation(agg), cn


def test_cta_sixty_dps_matches_plaintext(ctx):
    group, rng, cn_ids, _, _, sk, table = ctx
    tree = protocols.build_tree(cn_ids)
    values = [rng.randbelow(500) for _ in range(60)]
    contributions = {cn: [] for cn in cn_ids}
    for i, v in enumerate(values):
        contributions[cn_ids[i % len(cn_ids)]].append(_response(ctx, [v]))
    agg, _ = ps.aggregate_tree(tree, SUM, contributions)
    assert elgamal.decrypt(group, agg.vector[0], sk, table) == sum(values)
    assert elgamal.decrypt(group, agg.count, sk, table) == 60


def test_cta_dimension_mismatch(ctx):
    _, _, cn_ids, _, _, _, _ = ctx
    tree = protocols.build_tree(cn_ids)
    with pytest.raises(DimensionMismatch):
        ps.aggregate_tree(tree, SUM, {"cn1": [_response(ctx, [1])],
                                      "cn2": [_response(ctx, [1, 2])]})


def test_cta_tree_shape_independence():
    """Six CNs, one DP each, run as a binary tree, a chain and a star."""
    dps = ",".join(f"DP{i + 1}" for i in range(6))
    results = []
    for shape in ("binary", "chain", "star"):
        topo = Topology.build(n_cns=6, n_dps=6, n_vns=3, seed=33, tree_shape=shape)
        topo.dp_data = {f"DP{i + 1}": [{"x": i + 1}] for i in range(6)}
        out = Simulation(topo, seed=33).run(
            parse_query(f"SELECT variance x ON {dps}", scale=100))
        values, _ = out.raw_values
        results.append(values)
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("n_cns", [1, 3, 6])
def test_ctks_correctness(ctx, n_cns):
    group, rng, cn_ids, keys, _, _, table = ctx
    ids = cn_ids[:n_cns]
    tree = protocols.build_tree(ids)
    sub_collective = elgamal.collective_key(group, [keys[c].public for c in ids])
    target = elgamal.KeyPair.generate(group, rng)
    resp = _response(ctx, [7], pk=sub_collective.public)
    switched, steps = ps.key_switch(group, tree, resp, target.public,
                                    {c: keys[c] for c in ids}, rng)
    assert elgamal.decrypt(group, switched.vector[0], target.private, table) == 7
    assert elgamal.decrypt(group, switched.count, target.private, table) == 1
    assert len(steps) == n_cns
    # per-CN proofs verify against the CN key and input ciphertext
    cts = list(resp.vector) + [resp.count]
    for cn, payloads in steps:
        for j, payload in enumerate(payloads):
            assert payload.startswith(pack_bytes(cts[j].encode()))
            proof = protocols.round_proof(group, "keyswitch", payload,
                                          keys[cn].public, target.public)
            assert proof is not None and verify_linear(proof)


def test_ctks_old_key_isolated(ctx):
    group, rng, cn_ids, keys, collective, sk, table = ctx
    tree = protocols.build_tree(cn_ids)
    target = elgamal.KeyPair.generate(group, rng)
    switched, _ = ps.key_switch(group, tree, _response(ctx, [5]),
                                target.public, keys, rng)
    with pytest.raises(OutOfTableRange):
        elgamal.decrypt(group, switched.vector[0], sk, table)


def test_ctks_randomized_sweep(ctx):
    """200 trials over 1-8 CN trees and plaintexts up to 10^4 round-trip."""
    group, rng, cn_ids, keys, _, _, table = ctx
    extra = {f"cn{i}": elgamal.KeyPair.generate(group, rng) for i in (7, 8)}
    keys = dict(keys) | extra
    cn_ids = cn_ids + ["cn7", "cn8"]
    for _ in range(200):
        n = 1 + rng.randbelow(8)
        ids = cn_ids[:n]
        sub = elgamal.collective_key(group, [keys[c].public for c in ids])
        m = rng.randbelow(20001) - 10000
        target = elgamal.KeyPair.generate(group, rng)
        resp = EncodedResponse(
            [elgamal.encrypt(group, m, sub.public, rng)],
            elgamal.encrypt(group, 0, sub.public, rng))
        switched, _ = ps.key_switch(group, protocols.build_tree(ids), resp,
                                    target.public, {c: keys[c] for c in ids}, rng)
        assert elgamal.decrypt(group, switched.vector[0], target.private, table) == m


def test_cto_zero_preserved(ctx):
    group, rng, cn_ids, keys, collective, sk, table = ctx
    tree = protocols.build_tree(cn_ids)
    (obf,), steps = ps.obfuscate(
        group, tree, [elgamal.encrypt(group, 0, collective.public, rng)], rng)
    assert elgamal.decrypt_point(group, obf, sk).is_identity()
    for _, payloads in steps:
        assert len(payloads) == 1


def test_cto_nonzero_blinded(ctx):
    group, rng, cn_ids, keys, collective, sk, table = ctx
    tree = protocols.build_tree(cn_ids)
    seen = set()
    for _ in range(50):
        (obf,), _ = ps.obfuscate(
            group, tree, [elgamal.encrypt(group, 1, collective.public, rng)], rng)
        point = elgamal.decrypt_point(group, obf, sk)
        assert not point.is_identity()
        seen.add(point.encode())
    assert len(seen) == 50  # blinded values never repeat


def test_cto_blinding_core_1000_trials(ctx):
    """The summed-share blinding s = sum(s_i) never maps m != 0 to the
    identity across 1000 trials (share math without proof overhead)."""
    group, rng, _, _, _, _, _ = ctx
    point = group.mul(17, group.base())
    for _ in range(1000):
        s = sum(group.random_scalar(rng) for _ in range(3)) % group.order
        assert not group.mul(s, point).is_identity()


def test_cto_proofs_verify(ctx):
    group, rng, cn_ids, keys, collective, _, _ = ctx
    tree = protocols.build_tree(cn_ids)
    ct = elgamal.encrypt(group, 1, collective.public, rng)
    _, steps = ps.obfuscate(group, tree, [ct], rng)
    for _, payloads in steps:
        assert payloads[0].startswith(pack_bytes(ct.encode()))
        proof = protocols.round_proof(group, "obfuscation", payloads[0])
        assert proof is not None and verify_linear(proof)


def test_quantize_laplace_contract():
    values = protocols.quantize_laplace(1.0, 1.0, 0.5, 100)
    assert len(values) == 100
    assert 0.0 in values
    assert sorted(values) == sorted(-v for v in values)
    assert all(abs(v * 2 - round(v * 2)) < 1e-12 for v in values)
    with pytest.raises(InvalidPrivacyParams):
        protocols.quantize_laplace(0.0, 1.0, 0.5, 100)
    with pytest.raises(InvalidPrivacyParams):
        protocols.quantize_laplace(1.0, 1.0, 0.5, 0)
    # larger epsilon concentrates the noise
    wide = protocols.quantize_laplace(1.0, 1.0, 0.5, 101)
    narrow = protocols.quantize_laplace(4.0, 1.0, 0.5, 101)
    assert sum(map(abs, narrow)) < sum(map(abs, wide))


def test_quantize_laplace_single_value():
    assert protocols.quantize_laplace(1.0, 1.0, 0.5, 1) == [0.0]


def test_cdp_generate_multiset_through_chain(ctx):
    group, rng, cn_ids, keys, collective, sk, table = ctx
    tree = protocols.build_tree(cn_ids[:3])
    sub = elgamal.collective_key(group, [keys[c].public for c in cn_ids[:3]])
    sub_sk = sum(keys[c].private for c in cn_ids[:3]) % group.order
    values, encrypted, steps = ps.noise_chain(group, 1.0, 1.0, 0.5, 25, tree,
                                              sub.public, rng, scale=100)
    assert len(encrypted) == 25
    assert len(steps) == 3
    for _, payloads in steps:
        assert verify_shuffle(decode_shuffle(group, payloads[0]))
    decrypted = sorted(elgamal.decrypt(group, ct, sub_sk, table)
                       for ct in encrypted)
    expected = sorted(int(round(v * 100)) for v in values)
    assert decrypted == expected


def test_cdp_generate_single_noise_value(ctx):
    group, rng, cn_ids, keys, _, _, table = ctx
    tree = protocols.build_tree(cn_ids[:1])
    _, encrypted, _ = ps.noise_chain(group, 1.0, 1.0, 0.5, 1, tree,
                                     keys["cn1"].public, rng)
    assert len(encrypted) == 1
    assert elgamal.decrypt(group, encrypted[0], keys["cn1"].private,
                           table) == 0


def test_cdp_apply_consumption_order(ctx):
    group, rng, cn_ids, keys, collective, sk, table = ctx
    tree = protocols.build_tree(cn_ids[:3])
    sub = elgamal.collective_key(group, [keys[c].public for c in cn_ids[:3]])
    sub_sk = sum(keys[c].private for c in cn_ids[:3]) % group.order
    _, encrypted, _ = ps.noise_chain(group, 1.0, 1.0, 0.5, 8, tree,
                                     sub.public, rng, scale=100)
    leading = [elgamal.decrypt(group, ct, sub_sk, table) for ct in encrypted[:5]]
    resp = EncodedResponse(
        [elgamal.encrypt(group, v, sub.public, rng) for v in (10, 20, 30)],
        elgamal.encrypt(group, 3, sub.public, rng))
    noisy = protocols.cdp_apply(resp, encrypted)
    values = [elgamal.decrypt(group, ct, sub_sk, table) for ct in noisy.vector]
    assert values == [10 + leading[0], 20 + leading[1], 30 + leading[2]]
    # a second application consumes the next elements
    noisy2 = protocols.cdp_apply(
        EncodedResponse([elgamal.encrypt(group, 0, sub.public, rng)] * 2,
                        resp.count), encrypted[3:])
    values2 = [elgamal.decrypt(group, ct, sub_sk, table) for ct in noisy2.vector]
    assert values2 == [leading[3], leading[4]]
    with pytest.raises(NoiseExhausted):
        protocols.cdp_apply(
            EncodedResponse([resp.vector[0]] * 4, resp.count), encrypted[5:])


def test_cdp_zero_noise_leaves_result(ctx):
    group, rng, cn_ids, keys, _, _, table = ctx
    kp = keys["cn1"]
    noise = [elgamal.encrypt(group, 0, kp.public, rng)]
    resp = EncodedResponse([elgamal.encrypt(group, 10, kp.public, rng)],
                           elgamal.encrypt(group, 1, kp.public, rng))
    noisy = protocols.cdp_apply(resp, noise)
    assert elgamal.decrypt(group, noisy.vector[0], kp.private, table) == 10
