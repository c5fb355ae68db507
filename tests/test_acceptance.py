"""Acceptance suite: one test per acceptance criterion, each printing a
pass line and enforcing its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The end-to-end matrix and the audit path run the full simulated
pipeline (3 CNs / 10 DPs / 3 VNs); cryptographic tests on the pairing
profile use the reduced-size test curve.
"""

import math
import random
import statistics
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from privq import elgamal, encodings as enc, ledger, protocols
from privq.errors import MalformedProof, OutOfRange, PrivqError
from privq.group import DlogTable, get_group
from privq.harness.pipeline import Simulation
from privq.harness.queryparse import parse_query
from privq.harness.topology import Topology
from privq.proofs import linear as lp, rangeproof as rp, shuffle as sp
from privq.rng import Drbg

from protocol_steps import noise_chain


class _budget:
    """Assert the criterion stays inside its runtime bound and print verdict."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name}: {elapsed:.1f}s over budget {self.seconds}s"
            print(f"\n[ACCEPTANCE] {self.name}: PASS ({elapsed:.1f}s)")
        else:
            print(f"\n[ACCEPTANCE] {self.name}: FAIL ({elapsed:.1f}s)")
        return False


# ---------------------------------------------------------------------------


def test_probabilistic_verification_formulas():
    with _budget("probabilistic-verification formulas", 10):
        pol3 = ledger.VerificationPolicy(1.0, 0.3, 5, 7)
        cov3 = ledger.coverage_probability(pol3)
        assert abs(cov3.p_fh - 0.9848) <= 0.0001, cov3.p_fh
        pol2 = ledger.VerificationPolicy(1.0, 0.2, 5, 7)
        cov2 = ledger.coverage_probability(pol2)
        assert abs(cov2.p_fh - 0.8348) <= 0.0001, cov2.p_fh
        for policy, cov in ((pol3, cov3), (pol2, cov2)):
            mc = ledger.monte_carlo_coverage(policy, trials=100_000, seed=42)
            assert abs(mc - cov.p_fh) < 0.005, (policy, mc, cov.p_fh)


def test_iterative_extreme_workload():
    with _budget("iterative-extreme workload", 30):
        g, n = enc.iterative_workload(1000, 100)
        assert (g, n) == (3, 128)
        reduction = 1000 / n
        assert reduction == 7.8125
        assert float(f"{reduction:.2g}") == 7.8
        # binary search equals brute-force max on 100 random instances
        rnd = random.Random(2024)
        for _ in range(100):
            hi = rnd.randint(10, 2000)
            values = [rnd.randrange(hi) for _ in range(rnd.randint(1, 12))]
            el = rnd.randint(1, hi)

            def issue(kind, lo, hi2, values=values):
                inside = [v for v in values if lo <= v < hi2]
                if kind == "exists":
                    return bool(inside)
                return max(inside)

            got, _ = enc.iterative_extreme("max", (0, hi), el, issue)
            assert got == max(values), (values, el)


def test_malicious_dp_bound():
    with _budget("malicious-DP influence bound", 5):
        # 8922-patient cohort, 1% malicious (89 DPs) sending ([100], 0)
        err = enc.malicious_influence(70.0, 8833, 89, 100.0, 0)
        assert abs(err - 0.0144) <= 0.0001, err


def test_bitwise_error_probability():
    with _budget("bitwise error probability (exact)", 5):
        for order in (5, 7, 11, 13, 17):
            for n in (2, 3, 4):
                count = sum(1 for tup in product(range(1, order), repeat=n)
                            if sum(tup) % order == 0)
                exact = Fraction(count, (order - 1) ** n)
                assert enc.bitwise_error_prob(n, order, exact=True) == exact
        for order in (5, 7, 11, 13, 17):
            for n in range(2, 21):
                assert enc.bitwise_error_prob(n, order, exact=True) \
                    <= Fraction(1, order - 1)


# ---------------------------------------------------------------------------
# end-to-end oracle equivalence


E2E_OPS = ["sum", "mean", "variance", "stddev", "and", "or", "min", "max",
           "freq_count", "set_intersection", "set_union", "cosim", "r2",
           "lin_reg"]


def _make_data(op, dp_ids, rng):
    data = {}
    for dp in dp_ids:
        if op in ("and", "or"):
            rows = [{"x": rng.randbelow(2)}]
        elif op in ("min", "max", "freq_count", "set_intersection", "set_union"):
            rows = [{"x": rng.randbelow(12)} for _ in range(1 + rng.randbelow(2))]
        elif op == "cosim":
            rows = [{"a": 1 + rng.randbelow(9), "b": 1 + rng.randbelow(9)}
                    for _ in range(2)]
        elif op == "r2":
            rows = [{"y": rng.randbelow(10), "p": rng.randbelow(10)}
                    for _ in range(2)]
        elif op == "lin_reg":
            rows = [{"a": rng.randbelow(10), "y": 0}, {"a": rng.randbelow(10) + 10, "y": 0}]
            for row in rows:
                row["y"] = 3 * row["a"] + 2 + rng.randbelow(3)
        else:  # sum / mean / variance / stddev: values in [0, 256)
            rows = [{"x": rng.randbelow(256)} for _ in range(2)]
        data[dp] = rows
    return data


def _query_text(op, dp_ids):
    dps = ",".join(dp_ids)
    if op in ("min", "max", "freq_count", "set_intersection", "set_union"):
        return f"SELECT {op} x ON {dps} RANGE 0,12"
    if op == "cosim":
        return f"SELECT cosim a,b ON {dps}"
    if op == "r2":
        return f"SELECT r2 y,p ON {dps}"
    if op == "lin_reg":
        return f"SELECT lin_reg a,y ON {dps}"
    return f"SELECT {op} x ON {dps}"


def _plaintext_oracle(op, data):
    """Independent computation of f over the pooled records."""
    if op == "cosim":
        a = [r["a"] for rows in data.values() for r in rows]
        b = [r["b"] for rows in data.values() for r in rows]
        return [sum(x * y for x, y in zip(a, b))
                / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))]
    if op == "r2":
        ys = [r["y"] for rows in data.values() for r in rows]
        ps = [r["p"] for rows in data.values() for r in rows]
        mean = statistics.fmean(ys)
        ss_tot = sum((y - mean) ** 2 for y in ys)
        return [1 - sum((y - p) ** 2 for y, p in zip(ys, ps)) / ss_tot]
    if op == "lin_reg":
        xs = [r["a"] for rows in data.values() for r in rows]
        ys = [r["y"] for rows in data.values() for r in rows]
        design = np.column_stack([np.ones(len(xs)), np.array(xs, dtype=float)])
        coeffs, *_ = np.linalg.lstsq(design, np.array(ys, dtype=float), rcond=None)
        return list(coeffs)
    values = [r["x"] for rows in data.values() for r in rows]
    if op == "sum":
        return [float(sum(values))]
    if op == "mean":
        return [statistics.fmean(values)]
    if op == "variance":
        return [statistics.pvariance(values), statistics.fmean(values)]
    if op == "stddev":
        return [statistics.pstdev(values), statistics.fmean(values)]
    if op == "and":
        return [1.0 if all(values) else 0.0]
    if op == "or":
        return [1.0 if any(values) else 0.0]
    if op == "min":
        return [float(min(values))]
    if op == "max":
        return [float(max(values))]
    if op == "freq_count":
        return [float(values.count(v)) for v in range(12)]
    if op == "set_union":
        return [float(v) for v in sorted(set(values))]
    if op == "set_intersection":
        sets = [set(r["x"] for r in rows) for rows in data.values() if rows]
        inter = set.intersection(*sets)
        return [float(v) for v in sorted(inter)]
    raise AssertionError(op)


EXACT_OPS = {"sum", "and", "or", "min", "max", "freq_count",
             "set_intersection", "set_union"}


def test_end_to_end_oracle_equivalence():
    with _budget("end-to-end oracle equivalence (14 ops x 20 seeds)", 300):
        topo = Topology.build(n_cns=3, n_dps=10, n_vns=3, seed=0,
                              thresholds={"t": 1.0, "t_sub": 0.3})
        topo.max_message = 1 << 28
        scale = topo.scale
        for op in E2E_OPS:
            for seed in range(20):
                rng = Drbg(f"e2e/{op}/{seed}")
                data = _make_data(op, topo.dp_ids, rng)
                topo.dp_data = data
                topo.seed = 1000 + seed
                sim = Simulation(topo, seed=1000 + seed)
                out = sim.run(parse_query(_query_text(op, topo.dp_ids), scale=scale))
                expected = _plaintext_oracle(op, data)
                got = out.result.values
                if op in EXACT_OPS:
                    assert got == expected, (op, seed, got, expected)
                elif op == "lin_reg":
                    assert max(abs(g - e) for g, e in zip(got, expected)) < 0.02, \
                        (op, seed, got, expected)
                else:
                    assert len(got) >= len(expected)
                    for g, e in zip(got, expected):
                        assert abs(g - e) <= 1.0 / scale + 1e-9, (op, seed, got, expected)
                total_records = sum(len(rows) for rows in data.values())
                assert out.result.count == total_records


# ---------------------------------------------------------------------------
# logistic regression at desk scale


def _plaintext_logreg_gd(X, y, lr, iters, lam=0.0):
    theta = np.zeros(X.shape[1] + 1)
    design = np.column_stack([np.ones(len(X)), X])
    n = len(X)
    for _ in range(iters):
        z = design @ theta
        h = 1.0 / (1.0 + np.exp(z))
        grad = design.T @ (y - h) / n
        grad[1:] += lam / n * theta[1:]
        theta = theta - lr * grad
    return theta


def _accuracy(theta, X, y):
    z = theta[0] + X @ np.asarray(theta[1:])
    return float(np.mean((z < 0).astype(int) == y))


def test_logistic_regression_desk_scale():
    sklearn_data = pytest.importorskip("sklearn.datasets")
    with _budget("logistic regression desk scale", 120):
        raw = sklearn_data.load_breast_cancer()
        X, y = raw.data, raw.target  # 569 records, public binary dataset
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        rnd = np.random.default_rng(7)
        perm = rnd.permutation(len(X))
        X, y = X[perm], y[perm]
        split = int(0.8 * len(X))
        Xtr, ytr, Xte, yte = X[:split], y[:split], X[split:], y[split:]
        d = X.shape[1]

        group = get_group("ed25519")
        rng = Drbg("logreg-acc")
        kp = elgamal.KeyPair.generate(group, rng)
        table = DlogTable(group, 1 << 24, baby=1 << 16)
        op = enc.OperationSpec("log_reg", feature_count=d, approx_degree=2)

        # (a) encrypted aggregation of A coefficients is exact in fixed point
        shards = np.array_split(np.arange(len(Xtr)), 10)
        agg_vector = agg_count = None
        plain_sum = None
        for shard in shards:
            records = [tuple(map(float, Xtr[i])) + (int(ytr[i]),) for i in shard]
            resp, raws, _ = enc.encode_with_nonces(group, op, records, kp.public, rng,
                                                   max_message=1 << 24)
            if agg_vector is None:
                agg_vector, agg_count, plain_sum = list(resp.vector), resp.count, list(raws)
            else:
                agg_vector = [a + b for a, b in zip(agg_vector, resp.vector)]
                agg_count = agg_count + resp.count
                plain_sum = [a + b for a, b in zip(plain_sum, raws)]
        decrypted = [elgamal.decrypt(group, ct, kp.private, table)
                     for ct in agg_vector]
        count = elgamal.decrypt(group, agg_count, kp.private, table)
        assert decrypted == plain_sum
        assert count == len(Xtr)

        # (b) trained accuracy within 2 points of the plaintext trainer
        a_values = [v / 100 for v in decrypted]
        model = enc.train_logreg(a_values, count, d, 2,
                                 learning_rate=0.1, max_iter=100)
        theta_plain = _plaintext_logreg_gd(Xtr, ytr, lr=0.1, iters=100)
        acc_model = _accuracy(model.coefficients, Xte, yte)
        acc_plain = _accuracy(theta_plain, Xte, yte)
        assert abs(acc_model - acc_plain) <= 0.02, (acc_model, acc_plain)

        # (c) approximated-loss gradient matches central finite differences
        coeffs = enc.logsigmoid_coeffs(2)
        theta = np.asarray(theta_plain) * 0.5
        _, grad = enc.logreg_loss_and_grad(theta, a_values, count, d, 2, 0.0, coeffs)
        for i in range(0, d + 1, 7):
            eps = 1e-5
            tp, tm = theta.copy(), theta.copy()
            tp[i] += eps
            tm[i] -= eps
            lp_, _ = enc.logreg_loss_and_grad(tp, a_values, count, d, 2, 0.0, coeffs)
            lm_, _ = enc.logreg_loss_and_grad(tm, a_values, count, d, 2, 0.0, coeffs)
            fd = (lp_ - lm_) / (2 * eps)
            assert abs(fd - grad[i]) / max(1e-9, abs(grad[i])) < 1e-6, i


# ---------------------------------------------------------------------------
# proof-system soundness suite


def _flip_fuzz(blob, decode, verify, trials, seed):
    rnd = random.Random(seed)
    accepted = 0
    for _ in range(trials):
        data = bytearray(blob)
        data[rnd.randrange(len(data))] ^= 1 << rnd.randrange(8)
        try:
            if verify(decode(bytes(data))):
                accepted += 1
        except (MalformedProof, PrivqError):
            pass
    return accepted


def test_proof_system_soundness_suite():
    with _budget("proof-system soundness suite", 120):
        ed = get_group("ed25519")
        pg = get_group("pairing80")
        rng = Drbg("soundness")

        # linear: completeness sweep + fuzz
        base = ed.base()
        for _ in range(100):
            k, a = ed.random_scalar(rng), ed.random_scalar(rng)
            c1 = ed.mul(ed.random_scalar(rng), base)
            kq = ed.mul(ed.random_scalar(rng), base)
            st = lp.LinearStatement(
                bases=((base, None), (None, base), (-c1, kq)),
                targets=(ed.mul(k, base), ed.mul(a, base),
                         ed.msm([(k, -c1), (a, kq)])))
            proof = lp.prove_linear(st, (k, a), rng)
            assert lp.verify_linear(proof)
        assert _flip_fuzz(proof.encode(), lambda b: lp.decode_linear(ed, b),
                          lp.verify_linear, 1000, 101) == 0

        # range: completeness sweep, boundary rejects, forged transcripts, fuzz
        sigs, _ = rp.range_setup(pg, 16, 3, rng)
        omega = pg.mul(pg.random_scalar(rng), pg.base())
        pg.precompute(omega)
        for _ in range(100):
            m = rng.randbelow(256)
            nonce = pg.random_scalar(rng)
            proof = rp.prove_range(pg, m, nonce, omega, sigs, 2, rng)
            assert rp.verify_range(proof, sigs, omega)
        for m in (16**2, 16**2 + 1, 2 * 16**2):
            with pytest.raises(OutOfRange):
                rp.prove_range(pg, m, pg.random_scalar(rng), omega, sigs, 2, rng)
            forged = rp.prove_range_unchecked(pg, m, pg.random_scalar(rng),
                                              omega, sigs, 2, rng)
            assert not rp.verify_range(forged, sigs, omega)
        assert _flip_fuzz(proof.encode(), lambda b: rp.decode_range(pg, b),
                          lambda p: rp.verify_range(p, sigs, omega),
                          1000, 102) == 0

        # shuffle: completeness sweep + fuzz
        kp = elgamal.KeyPair.generate(ed, rng)
        for trial in range(100):
            n = 1 + trial % 6
            cts = [elgamal.encrypt(ed, rng.randbelow(50), kp.public, rng)
                   for _ in range(n)]
            _, sproof = sp.shuffle_and_prove(ed, cts, kp.public, rng)
            assert sp.verify_shuffle(sproof)
        cts = [elgamal.encrypt(ed, v, kp.public, rng) for v in (1, 2, 3, 4)]
        _, sproof = sp.shuffle_and_prove(ed, cts, kp.public, rng)
        assert _flip_fuzz(sproof.encode(), lambda b: sp.decode_shuffle(ed, b),
                          sp.verify_shuffle, 1000, 103) == 0


# ---------------------------------------------------------------------------
# audit path with fault injection


def test_audit_path_with_fault_injection():
    with _budget("audit path (fault injection + tamper)", 60):
        topo = Topology.build(n_cns=3, n_dps=4, n_vns=3, profile="pairing80",
                              seed=321, thresholds={"t": 1.0, "t_sub": 1.0})
        topo.dp_data = {
            "DP1": [{"heart_rate": 72}], "DP2": [{"heart_rate": 65}],
            "DP3": [{"heart_rate": 90}], "DP4": [{"heart_rate": 77}],
        }
        text = "SELECT average heart_rate ON DP1,DP2,DP3,DP4 RANGE 40,100"

        sim = Simulation(topo, seed=321, malicious={"DP2": 120})
        out = sim.run(parse_query(text, scale=1))
        report = sim.audit(out.query_id)
        assert not report.ok
        assert len(report.false_entries) == 1
        _, prover, ptype, _, vns = report.false_entries[0]
        assert prover == "DP2" and ptype == "range"
        assert len(vns) == 3  # T = T_sub = 1: every VN caught it
        assert report.signature_count >= sim.policy.f_h
        assert len(out.block.signatures) >= sim.policy.f_h

        # an honest run audits clean
        sim2 = Simulation(topo, seed=322)
        out2 = sim2.run(parse_query(text, scale=1))
        assert sim2.audit(out2.query_id).ok

        # tampering one block byte makes the chain file fail to open
        import os
        import tempfile

        chain_path = os.path.join(tempfile.mkdtemp(), "chain.bin")
        vn_pubs = {vn: topo.keys[vn].public for vn in topo.vn_ids}
        chain = ledger.Chain(topo.group, vn_pubs, sim2.policy.f_h, chain_path)
        chain.append(out2.block)
        with open(chain_path, "rb") as fh:
            blob = bytearray(fh.read())
        rnd = random.Random(5)
        for _ in range(20):
            tampered = bytearray(blob)
            tampered[rnd.randrange(len(tampered))] ^= 1 << rnd.randrange(8)
            with open(chain_path, "wb") as fh:
                fh.write(bytes(tampered))
            with pytest.raises(PrivqError):
                ledger.Chain(topo.group, vn_pubs, sim2.policy.f_h, chain_path)


# ---------------------------------------------------------------------------
# CDP distribution


def test_cdp_distribution():
    with _budget("CDP noise distribution", 30):
        values = protocols.quantize_laplace(1.0, 1.0, 0.5, 100)
        assert len(values) == 100

        def laplace_cdf(x):
            return 0.5 * math.exp(x) if x < 0 else 1.0 - 0.5 * math.exp(-x)

        sorted_vals = sorted(values)
        ks = 0.0
        for i, x in enumerate(sorted_vals):
            ks = max(ks, abs((i + 1) / 100 - laplace_cdf(x)),
                     abs(i / 100 - laplace_cdf(x)))
        assert ks <= 0.1 + 1e-9, ks

        # the shuffled encrypted list decrypts to the same multiset
        group = get_group("ed25519")
        rng = Drbg("cdp-acc")
        cn_keys = [elgamal.KeyPair.generate(group, rng) for _ in range(3)]
        collective = elgamal.collective_key(group, [k.public for k in cn_keys])
        sk = sum(k.private for k in cn_keys) % group.order
        tree = protocols.build_tree(["cn1", "cn2", "cn3"])
        table = DlogTable(group, 1 << 16)
        noise_values, encrypted, steps = noise_chain(group, 1.0, 1.0, 0.5, 100, tree,
                                                     collective.public, rng, scale=100)
        decrypted = sorted(elgamal.decrypt(group, ct, sk, table)
                           for ct in encrypted)
        expected = sorted(int(round(v * 100)) for v in noise_values)
        assert decrypted == expected
        for _, payloads in steps:
            assert sp.verify_shuffle(sp.decode_shuffle(group, payloads[0]))
