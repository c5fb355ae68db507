"""Verifying-node machinery: coverage formulas, probabilistic verification,
deterministic proof keys, block commits, chain persistence, and audit."""

import random
from types import SimpleNamespace

import pytest

from privq import ledger
from privq.elgamal import KeyPair
from privq.encodings import OperationSpec
from privq.errors import (BlockNotFound, BrokenChain, InsufficientSignatures,
                          InvalidPolicy, MalformedProof, PrivqError)
from privq.group import get_group
from privq.protocols import QueryPlan, build_tree
from privq.rng import Drbg
from privq.serial import pack_bytes

from protocol_steps import commit_block


# ----- coverage -----

def test_policy_validation():
    with pytest.raises(InvalidPolicy):
        ledger.VerificationPolicy(1.2, 0.3, 5, 7)
    with pytest.raises(InvalidPolicy):
        ledger.VerificationPolicy(1.0, 0.3, 8, 7)
    assert ledger.default_f_h(7) == 5


def test_coverage_paper_values():
    cov = ledger.coverage_probability(ledger.VerificationPolicy(1.0, 0.3, 5, 7))
    assert cov.p_ver == 1.0
    assert cov.p_fh == pytest.approx(0.9848, abs=1e-4)
    cov2 = ledger.coverage_probability(ledger.VerificationPolicy(1.0, 0.2, 5, 7))
    assert cov2.p_fh == pytest.approx(0.8348, abs=1e-4)
    certain = ledger.coverage_probability(ledger.VerificationPolicy(1.0, 1.0, 5, 7))
    assert certain.p_fh == 1.0


def test_coverage_monte_carlo_agreement():
    for t, t_sub, f_h, n in [(1.0, 0.3, 5, 7), (1.0, 0.2, 5, 7),
                             (0.6, 0.5, 3, 5), (0.9, 0.7, 6, 9)]:
        policy = ledger.VerificationPolicy(t, t_sub, f_h, n)
        cov = ledger.coverage_probability(policy)
        mc = ledger.monte_carlo_coverage(policy, trials=100_000, seed=17)
        assert abs(mc - cov.p_fh) < 0.005, (t, t_sub, f_h, n)


# ----- probabilistic verification -----

def test_probabilistic_verify_thresholds():
    rng = Drbg("pv")
    bundle = ledger.ProofBundle("q", "cn1", "keyswitch", 0, (b"a", b"b", b"c"))
    full = ledger.VerificationPolicy(1.0, 1.0, 1, 1)
    checked = []
    status = ledger.probabilistic_verify(bundle, full, rng,
                                         lambda i: checked.append(i) or True)
    assert status == ledger.STATUS_TRUE and checked == [0, 1, 2]
    never = ledger.VerificationPolicy(0.0, 1.0, 1, 1)
    assert all(ledger.probabilistic_verify(bundle, never, rng, lambda i: True)
               == ledger.STATUS_STORED for _ in range(30))


def test_probabilistic_verify_frequency():
    rng = Drbg("pv-freq")
    bundle = ledger.ProofBundle("q", "cn1", "keyswitch", 0, tuple(b"x" for _ in range(3)))
    policy = ledger.VerificationPolicy(1.0, 0.3, 1, 1)
    total = [0]
    for _ in range(10_000):
        ledger.probabilistic_verify(bundle, policy, rng,
                                    lambda i: total.__setitem__(0, total[0] + 1) or True)
    fraction = total[0] / 30_000
    assert abs(fraction - 0.3) < 0.02


def test_probabilistic_verify_false_subproof():
    rng = Drbg("pv-false")
    bundle = ledger.ProofBundle("q", "cn1", "keyswitch", 0, (b"a", b"b"))
    policy = ledger.VerificationPolicy(1.0, 1.0, 1, 1)
    status = ledger.probabilistic_verify(bundle, policy, rng,
                                         lambda i: i != 1)
    assert status == ledger.STATUS_FALSE


# ----- expected proofs -----

def _query(kind="variance", dps=("dp1", "dp2"), bounds=None, dp_privacy=False,
           bitwise_mode="random"):
    op = OperationSpec(kind, bounds=bounds, bitwise_mode=bitwise_mode)
    return SimpleNamespace(query_id="q1", operation=op, dp_list=dps,
                           bounds=bounds, dp_privacy=dp_privacy)


def _plan(query, cn_ids, range_proofs=True):
    return QueryPlan(query, build_tree(cn_ids), range_proofs=range_proofs)


def test_expected_proofs_counting():
    expected = ledger.expected_proofs(_plan(_query(bounds=(0, 16)), ("cn1", "cn2", "cn3")))
    range_keys = [m for m in expected.values() if m[1] == "range"]
    cn_keys = [m for m in expected.values() if m[1] != "range"]
    assert len(range_keys) == 4  # 2 DPs x dimension 2
    assert len(cn_keys) == 6  # aggregation + keyswitch per CN


def test_expected_proofs_no_bounds_no_range_keys():
    expected = ledger.expected_proofs(_plan(_query(), ("cn1",)))
    assert not [m for m in expected.values() if m[1] == "range"]


def test_expected_proofs_deterministic_across_vns():
    a = ledger.expected_proofs(_plan(_query(bounds=(0, 4)), ("cn1", "cn2")))
    b = ledger.expected_proofs(_plan(_query(bounds=(0, 4)), ("cn1", "cn2")))
    assert a == b


def test_expected_proofs_rounds():
    q = _query(kind="or", dp_privacy=True, bitwise_mode="bits")
    expected = ledger.expected_proofs(_plan(q, ("cn1",), range_proofs=False))
    types = sorted(m[1] for m in expected.values())
    assert types == ["aggregation", "keyswitch", "obfuscation", "shuffle"]


def test_proof_key_derivation_stable():
    key = ledger.proof_key("q1", "dp1", "range", 0)
    assert key == ledger.proof_key("q1", "dp1", "range", 0)
    assert key != ledger.proof_key("q1", "dp1", "range", 1)
    assert key != ledger.proof_key("q2", "dp1", "range", 0)
    int(key, 16)  # hex encoded


# ----- bundles -----

def test_bundle_roundtrip_and_signature():
    group = get_group("ed25519")
    rng = Drbg("bundle")
    kp = KeyPair.generate(group, rng)
    bundle = ledger.ProofBundle("q1", "cn1", "aggregation", 0,
                                (b"payload-a", b"payload-b")).signed(group, kp.private)
    decoded = ledger.ProofBundle.decode(bundle.encode())
    assert decoded == bundle
    from privq.proofs.signatures import verify_signature

    assert verify_signature(group, kp.public, decoded.body_bytes(), decoded.signature)


# ----- blocks, chain, audit -----

@pytest.fixture()
def block_ctx(tmp_path):
    group = get_group("ed25519")
    rng = Drbg("blocks")
    vn_keys = {f"vn{i}": KeyPair.generate(group, rng) for i in range(7)}
    vn_pubs = {k: v.public for k, v in vn_keys.items()}
    expected = {ledger.proof_key("q1", "dp1", "range", j): ("dp1", "range", j)
                for j in range(2)}
    maps = {}
    for vn in vn_keys:
        pmap = ledger.QueryProofsMap(expected)
        for key in expected:
            pmap.record(key, ledger.STATUS_TRUE)
        maps[vn] = pmap
    chain = ledger.Chain(group, vn_pubs, 5, str(tmp_path / "chain.bin"))
    policy = ledger.VerificationPolicy(1.0, 0.3, 5, 7)
    return group, vn_keys, vn_pubs, expected, maps, chain, policy


def test_commit_and_audit_honest(block_ctx):
    group, vn_keys, vn_pubs, expected, maps, chain, policy = block_ctx
    block = commit_block("q1", b"QUERY", maps, vn_keys, chain)
    assert len(block.signatures) == 7
    report = ledger.audit("q1", chain)
    assert report.ok and report.signature_count == 7
    assert not report.false_entries


def test_commit_threshold_arithmetic(block_ctx):
    group, vn_keys, vn_pubs, expected, maps, chain, policy = block_ctx
    refused = ledger.QueryProofsMap(expected)  # all not_received: mismatch
    local = dict(maps)
    local["vn0"] = refused
    local["vn1"] = refused
    block = commit_block("q1", b"Q", maps, vn_keys, chain, local_maps=local)
    assert len(block.signatures) == 5  # 2 of 7 refuse, still >= f_h
    local["vn2"] = refused
    with pytest.raises(InsufficientSignatures):
        commit_block("q2", b"Q", maps, vn_keys, chain, local_maps=local)


def test_commit_refusal_patterns(block_ctx):
    group, vn_keys, vn_pubs, expected, maps, chain, policy = block_ctx
    rnd = random.Random(4)
    refused_map = ledger.QueryProofsMap(expected)
    for trial in range(12):
        refusers = rnd.sample(sorted(vn_keys), rnd.randint(0, 4))
        local = dict(maps)
        for vn in refusers:
            local[vn] = refused_map
        qid = f"q-pat-{trial}"
        if 7 - len(refusers) >= policy.f_h:
            block = commit_block(qid, b"Q", maps, vn_keys, chain,
                                        local_maps=local)
            assert len(block.signatures) == 7 - len(refusers)
        else:
            with pytest.raises(InsufficientSignatures):
                commit_block(qid, b"Q", maps, vn_keys, chain,
                                    local_maps=local)


def test_false_entry_attribution(block_ctx):
    group, vn_keys, vn_pubs, expected, maps, chain, policy = block_ctx
    bad_key = next(iter(expected))
    bad_maps = {}
    for vn in vn_keys:
        pmap = ledger.QueryProofsMap(expected)
        for key in expected:
            pmap.record(key, ledger.STATUS_TRUE)
        pmap.record(bad_key, ledger.STATUS_FALSE)
        bad_maps[vn] = pmap
    commit_block("q1", b"Q", bad_maps, vn_keys, chain)
    report = ledger.audit("q1", chain)
    assert not report.ok
    assert len(report.false_entries) == 1
    key, prover, ptype, idx, vns = report.false_entries[0]
    assert key == bad_key and prover == "dp1" and ptype == "range"
    assert len(vns) == 7


def test_chain_persistence_roundtrip(block_ctx, tmp_path):
    group, vn_keys, vn_pubs, expected, maps, chain, policy = block_ctx
    commit_block("q1", b"A", maps, vn_keys, chain)
    commit_block("q2", b"B", maps, vn_keys, chain)
    reloaded = ledger.Chain(group, vn_pubs, 5, chain.path)
    assert len(reloaded) == 2
    assert reloaded.get("q2").prev_hash == reloaded.get("q1").block_hash()
    assert ledger.audit("q2", reloaded).ok


def test_single_byte_tamper_always_detected(block_ctx, tmp_path):
    group, vn_keys, vn_pubs, expected, maps, chain, policy = block_ctx
    commit_block("q1", b"A", maps, vn_keys, chain)
    commit_block("q2", b"B", maps, vn_keys, chain)
    with open(chain.path, "rb") as fh:
        original = fh.read()
    rnd = random.Random(8)
    tampered_path = str(tmp_path / "tampered.bin")
    for _ in range(120):
        data = bytearray(original)
        data[rnd.randrange(len(data))] ^= 1 << rnd.randrange(8)
        with open(tampered_path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(PrivqError):  # opening the file replays every block
            ledger.Chain(group, vn_pubs, 5, tampered_path)


def test_block_not_found(block_ctx):
    group, vn_keys, vn_pubs, expected, maps, chain, policy = block_ctx
    commit_block("q1", b"A", maps, vn_keys, chain)
    with pytest.raises(BlockNotFound):
        ledger.audit("missing", chain)


def test_broken_link_detected(block_ctx, tmp_path):
    """A block whose prev_hash is not the head hash is refused on append,
    and a chain file holding one fails to open."""
    group, vn_keys, vn_pubs, expected, maps, chain, policy = block_ctx
    commit_block("q1", b"A", maps, vn_keys, chain)
    block = chain.next_block("q2", b"B", maps)
    block.prev_hash = b"\x00" * 32
    block.signatures = {vn: ledger.sign_block(group, vn, kp.private, block, maps[vn])
                        for vn, kp in vn_keys.items()}
    with pytest.raises(BrokenChain):
        chain.append(block)
    assert len(chain) == 1
    path = tmp_path / "relinked.bin"
    path.write_bytes(open(chain.path, "rb").read() + pack_bytes(block.encode()))
    with pytest.raises(BrokenChain):
        ledger.Chain(group, vn_pubs, 5, str(path))


def test_append_rule_refuses_bad_blocks(block_ctx):
    """`Chain.append` refuses a block at the wrong height, one carrying a
    signature under an unknown VN name or a junk signature, and one with
    fewer than f_h signatures; the chain is left as it was."""
    group, vn_keys, vn_pubs, expected, maps, chain, policy = block_ctx
    commit_block("q1", b"A", maps, vn_keys, chain)

    def signed(block, signers):
        block.signatures = {vn: ledger.sign_block(group, vn, vn_keys[vn].private,
                                                  block, maps[vn]) for vn in signers}
        return block

    skipped = ledger.Block(7, "q2", b"B", dict(maps), chain.head_hash())
    outsider = signed(chain.next_block("q2", b"B", maps), sorted(vn_keys))
    outsider.signatures["vn9"] = outsider.signatures["vn0"]
    junk = signed(chain.next_block("q2", b"B", maps), sorted(vn_keys))
    junk.signatures["vn3"] = b"\x01" * 64
    short = signed(chain.next_block("q2", b"B", maps), ["vn0", "vn1", "vn2", "vn3"])
    for block, error in ((signed(skipped, sorted(vn_keys)), BrokenChain),
                         (outsider, BrokenChain), (junk, BrokenChain),
                         (short, InsufficientSignatures)):
        with pytest.raises(error):
            chain.append(block)
    assert [b.height for b in chain.blocks] == [0]
    assert len(ledger.Chain(group, vn_pubs, 5, chain.path)) == 1


def test_seal_block_attaches_only_valid_signatures(block_ctx):
    group, vn_keys, vn_pubs, expected, maps, chain, policy = block_ctx
    block = chain.next_block("q1", b"A", maps)
    signatures = {vn: ledger.sign_block(group, vn, kp.private, block, maps[vn])
                  for vn, kp in vn_keys.items()}
    signatures["vn6"] = b"\x01" * 64
    signatures["vn5"] = b""  # a refusal
    ledger.seal_block(chain, block, signatures)
    assert sorted(block.signatures) == ["vn0", "vn1", "vn2", "vn3", "vn4"]
    assert ledger.audit("q1", chain).ok
    block = chain.next_block("q2", b"B", maps)
    with pytest.raises(InsufficientSignatures):
        ledger.seal_block(chain, block, {"vn0": signatures["vn0"], "vn6": b"\x01" * 64})
    assert len(chain) == 1


def test_renamed_signer_in_file_detected(block_ctx, tmp_path):
    """Renaming one signer of a stored block to another signer's name leaves
    six valid signatures, but the file no longer holds the block's own
    encoding, so it fails to open."""
    group, vn_keys, vn_pubs, expected, maps, chain, policy = block_ctx
    commit_block("q1", b"A", maps, vn_keys, chain)
    data = open(chain.path, "rb").read()
    sigs_at = data.index(pack_bytes(b"vn0") + pack_bytes(chain.blocks[0].signatures["vn0"]))
    path = tmp_path / "renamed.bin"
    path.write_bytes(data[:sigs_at + 6] + b"1" + data[sigs_at + 7:])
    with pytest.raises(BrokenChain):
        ledger.Chain(group, vn_pubs, 5, str(path))


@pytest.mark.parametrize("field", ["query_id", "status"])
def test_malformed_block_field_refused(block_ctx, field):
    """A query id that is not UTF-8, or an unknown status code, is a
    malformed block: decoding raises MalformedProof and `accept` BrokenChain."""
    group, vn_keys, vn_pubs, expected, maps, chain, policy = block_ctx
    data = commit_block("qid-x", b"A", maps, vn_keys,
                               ledger.Chain(group, vn_pubs, 5)).encode()
    if field == "query_id":
        old, new = pack_bytes(b"qid-x"), pack_bytes(b"\xff\xfe")
    else:
        key = pack_bytes(bytes.fromhex(next(iter(expected))))
        old, new = key + b"\x01", key + b"\x09"
    assert old in data
    junk = data.replace(old, new, 1)
    with pytest.raises(MalformedProof):
        ledger.Block.decode(junk)
    with pytest.raises(BrokenChain):
        chain.accept(junk)
    assert len(chain) == 0
