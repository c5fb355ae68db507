"""Encodings: per-operation rho/pi pairs against independent plaintext
oracles, neutral-response invariance, the iterative extreme, and the
analytic bounds."""

import math
import random
import statistics
from fractions import Fraction
from itertools import product

import pytest

from privq import elgamal, encodings as enc
from privq.errors import (ArityMismatch, CallbackFailure, InvalidArgs,
                          LabelNotBinary, MalformedQuery, SingularSystem,
                          ValueOutOfBounds, ZeroCount)
from privq.group import DlogTable, get_group
from privq.rng import Drbg


@pytest.fixture(scope="module")
def ctx():
    group = get_group("ed25519")
    rng = Drbg("encodings")
    kp = elgamal.KeyPair.generate(group, rng)
    table = DlogTable(group, 1 << 22)
    return group, rng, kp, table


def aggregate_and_decode(ctx, op, dp_records):
    """Encrypted pipeline without protocols: encode per DP, sum, decrypt."""
    group, rng, kp, table = ctx
    responses = [enc.encode_with_nonces(group, op, recs, kp.public, rng,
                                        max_message=1 << 22)[0] for recs in dp_records]
    vector = responses[0].vector
    count = responses[0].count
    for resp in responses[1:]:
        vector = [a + b for a, b in zip(vector, resp.vector)]
        count = count + resp.count
    decoded_count = elgamal.decrypt(group, count, kp.private, table)
    if op.zero_test_only:
        values = [0 if elgamal.decrypt_point(group, ct, kp.private).is_identity() else 1
                  for ct in vector]
    else:
        values = [elgamal.decrypt(group, ct, kp.private, table) for ct in vector]
    return enc.decode(op, values, decoded_count)


# ----- dimensional bookkeeping -----

def test_dimensions():
    assert enc.OperationSpec("sum").dimension == 1
    assert enc.OperationSpec("variance").dimension == 2
    assert enc.OperationSpec("cosim").dimension == 3
    assert enc.OperationSpec("min", bounds=(10, 30)).dimension == 20
    assert enc.OperationSpec("lin_reg", feature_count=2).dimension == 8
    assert enc.OperationSpec("log_reg", feature_count=2, approx_degree=2).dimension == 12
    with pytest.raises(MalformedQuery):
        enc.OperationSpec("min")  # bounds required
    with pytest.raises(MalformedQuery):
        enc.OperationSpec("bogus")


def test_arity_checks(ctx):
    _, rng, _, _ = ctx
    with pytest.raises(ArityMismatch):
        enc.plaintext_encode(enc.OperationSpec("cosim"), [(1.0,)], rng)
    with pytest.raises(ValueOutOfBounds):
        enc.plaintext_encode(enc.OperationSpec("sum", bounds=(0, 10)), [(11,)], rng)


# ----- numeric statistics against direct computation -----

def test_variance_encoding_example(ctx):
    _, rng, _, _ = ctx
    raws, count = enc.plaintext_encode(enc.OperationSpec("variance"),
                                       [(1,), (2,), (3,)], rng)
    assert raws == [600, 1400] and count == 3  # scale 100: [6, 14]


def test_variance_pipeline_matches_statistics(ctx):
    op = enc.OperationSpec("variance")
    data = [[(1,), (2,)], [(3,)]]
    flat = [1, 2, 3]
    result = aggregate_and_decode(ctx, op, data)
    assert abs(result.values[0] - statistics.pvariance(flat)) < 1e-9
    assert abs(result.values[1] - statistics.fmean(flat)) < 1e-9


def test_stddev(ctx):
    op = enc.OperationSpec("stddev")
    data = [[(4.0,), (8.0,)], [(6.0,), (2.0,)]]
    flat = [4.0, 8.0, 6.0, 2.0]
    result = aggregate_and_decode(ctx, op, data)
    assert abs(result.values[0] - statistics.pstdev(flat)) < 0.02


def test_sum_empty_records_is_neutral(ctx):
    group, rng, kp, table = ctx
    op = enc.OperationSpec("sum")
    resp, raws, _ = enc.encode_with_nonces(group, op, [], kp.public, rng)
    assert raws == [0]
    assert elgamal.decrypt(group, resp.count, kp.private, table) == 0


def test_mean_zero_count(ctx):
    with pytest.raises(ZeroCount):
        enc.decode(enc.OperationSpec("mean"), [0], 0)


def test_negative_variance_clamped():
    result = enc.decode(enc.OperationSpec("variance"), [1000, 999], 1)
    assert result.values[0] == 0.0
    assert "clamped_negative_variance" in result.flags


def test_cosim_identical_vectors(ctx):
    op = enc.OperationSpec("cosim")
    result = aggregate_and_decode(ctx, op, [[(1.0, 1.0), (2.0, 2.0)], [(3.0, 3.0)]])
    assert abs(result.values[0] - 1.0) < 1e-2


def test_cosim_oracle(ctx):
    rnd = random.Random(5)
    a = [rnd.uniform(0, 5) for _ in range(6)]
    b = [rnd.uniform(0, 5) for _ in range(6)]
    expected = sum(x * y for x, y in zip(a, b)) / (
        math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))
    data = [[(a[i], b[i])] for i in range(6)]
    result = aggregate_and_decode(ctx, enc.OperationSpec("cosim"), data)
    assert abs(result.values[0] - expected) < 0.01


def test_r2_oracle(ctx):
    rnd = random.Random(6)
    ys = [rnd.uniform(0, 10) for _ in range(8)]
    preds = [y + rnd.uniform(-1, 1) for y in ys]
    mean = statistics.fmean(ys)
    expected = 1 - sum((y - p) ** 2 for y, p in zip(ys, preds)) / \
        sum((y - mean) ** 2 for y in ys)
    data = [[(ys[i], preds[i])] for i in range(8)]
    result = aggregate_and_decode(ctx, enc.OperationSpec("r2"), data)
    assert abs(result.values[0] - expected) < 0.02


# ----- neutral responses -----

@pytest.mark.parametrize("kind,rows", [
    ("sum", [[(5,)], [(7,)]]),
    ("mean", [[(5,)], [(7,)]]),
    ("and", [[(1,)], [(1,)]]),
    ("or", [[(0,)], [(0,)]]),
    ("min", [[(3,)], [(6,)]]),
])
def test_neutral_response_invariance(ctx, kind, rows):
    group, rng, kp, table = ctx
    bounds = (0, 8) if kind == "min" else None
    op = enc.OperationSpec(kind, bounds=bounds)
    base = aggregate_and_decode(ctx, op, rows)
    with_neutrals = aggregate_and_decode(
        ctx, op, rows + [[]] * 3)  # empty record sets encode neutrally
    assert base.values == with_neutrals.values


def test_neutral_indistinguishable_shape(ctx):
    group, rng, kp, _ = ctx
    op = enc.OperationSpec("variance")
    neutral = enc.neutral_response(group, op, kp.public, rng)
    real, _, _ = enc.encode_with_nonces(group, op, [(5,)], kp.public, rng)
    assert len(neutral.vector) == len(real.vector)
    assert neutral.vector[0].encode() != real.vector[0].encode()
    other = enc.neutral_response(group, op, kp.public, rng)
    assert neutral.vector[0].encode() != other.vector[0].encode()


def test_and_neutral_contributes_identity(ctx):
    op = enc.OperationSpec("and")
    result = aggregate_and_decode(ctx, op, [[(1,)], [(1,)], [(1,)], []])
    assert result.values[0] == 1.0


# ----- bitwise -----

@pytest.mark.parametrize("mode", ["random", "bits"])
def test_or_and_truth_tables(ctx, mode):
    for kind, bits, expected in [
        ("or", [0, 0, 0], 0.0), ("or", [0, 1, 0], 1.0),
        ("and", [1, 1, 1], 1.0), ("and", [1, 0, 1], 0.0),
    ]:
        op = enc.OperationSpec(kind, bitwise_mode=mode)
        result = aggregate_and_decode(ctx, op, [[(b,)] for b in bits])
        assert result.values[0] == expected, (kind, bits, mode)


def test_minmax_pattern_example(ctx):
    _, rng, _, _ = ctx
    assert enc.encode_minmax(2, (0, 4), "min", "bits", rng) == [0, 0, 0, 1]
    assert enc.encode_minmax(0, (0, 4), "max", "bits", rng) == [0, 0, 0, 0]
    with pytest.raises(ValueOutOfBounds):
        enc.encode_minmax(4, (0, 4), "min", "bits", rng)


def test_minmax_brute_force_sweep(ctx):
    rnd = random.Random(11)
    for _ in range(40):
        hi = rnd.randint(2, 14)
        dp_values = [rnd.randrange(hi) for _ in range(rnd.randint(1, 6))]
        for kind, oracle in (("min", min), ("max", max)):
            op = enc.OperationSpec(kind, bounds=(0, hi))
            result = aggregate_and_decode(ctx, op, [[(v,)] for v in dp_values])
            assert result.values[0] == oracle(dp_values), (kind, dp_values)


def test_two_dp_min_example(ctx):
    op = enc.OperationSpec("min", bounds=(0, 4))
    result = aggregate_and_decode(ctx, op, [[(1,)], [(3,)]])
    assert result.values[0] == 1.0


def test_freq_count(ctx):
    op = enc.OperationSpec("freq_count", bounds=(0, 5), max_records=5)
    result = aggregate_and_decode(ctx, op, [[(0,), (1,), (1,)], [(4,), (1,)]])
    assert result.values == [1.0, 3.0, 0.0, 0.0, 1.0]


def test_set_operations(ctx):
    union = aggregate_and_decode(
        ctx, enc.OperationSpec("set_union", bounds=(0, 6)),
        [[(1,), (2,)], [(2,), (5,)]])
    assert union.values == [1.0, 2.0, 5.0]
    inter = aggregate_and_decode(
        ctx, enc.OperationSpec("set_intersection", bounds=(0, 6)),
        [[(1,), (2,)], [(2,), (5,)]])
    assert inter.values == [2.0]


# ----- linear regression -----

def test_linreg_sums_example(ctx):
    _, rng, _, _ = ctx
    op = enc.OperationSpec("lin_reg", feature_count=1)
    raws, count = enc.plaintext_encode(op, [(1, 3), (2, 5)], rng)
    assert raws == [300, 500, 800, 1300]
    assert count == 2


def test_linreg_exact_fit(ctx):
    op = enc.OperationSpec("lin_reg", feature_count=1)
    data = [[(float(x), 2.0 * x + 1.0)] for x in range(6)]
    result = aggregate_and_decode(ctx, op, data)
    assert abs(result.values[0] - 1.0) < 1e-9
    assert abs(result.values[1] - 2.0) < 1e-9


def test_linreg_two_features_oracle(ctx):
    import numpy as np

    rnd = random.Random(13)
    rows = [(rnd.uniform(0, 4), rnd.uniform(0, 4)) for _ in range(12)]
    ys = [1.5 + 2.0 * a - 0.5 * b + rnd.uniform(-0.01, 0.01) for a, b in rows]
    op = enc.OperationSpec("lin_reg", feature_count=2)
    data = [[(a, b, y)] for (a, b), y in zip(rows, ys)]
    result = aggregate_and_decode(ctx, op, data)
    design = np.column_stack([np.ones(len(rows)), np.array(rows)])
    expected, *_ = np.linalg.lstsq(design, np.array(ys), rcond=None)
    assert max(abs(g - e) for g, e in zip(result.values, expected)) < 0.05


def test_linreg_single_point_exact(ctx):
    model = enc.solve_linreg([200, 400, 700, 1400], 1, 1, 100)
    # one point (x=2, y=7): system n=1 picks the interpolating line
    assert abs(model.coefficients[0] + 2 * model.coefficients[1] - 7) < 1e-9


def test_linreg_collinear_singular(ctx):
    # second feature is exactly twice the first over enough samples
    _, rng, _, _ = ctx
    op = enc.OperationSpec("lin_reg", feature_count=2)
    records = [(x, 2.0 * x, 3.0 * x + 1) for x in (1.0, 2.0, 3.0, 4.0)]
    raws, count = enc.plaintext_encode(op, records, rng)
    with pytest.raises(SingularSystem):
        enc.solve_linreg(raws, count, 2, 100)


# ----- iterative extreme -----

def test_iterative_workload_formula():
    assert enc.iterative_workload(1000, 100) == (3, 128)
    assert enc.iterative_workload(50, 100) == (0, 50)
    assert enc.iterative_workload(100, 100) == (0, 100)
    with pytest.raises(InvalidArgs):
        enc.iterative_workload(0, 10)


def _oracle_callback(values):
    def issue(kind, lo, hi):
        inside = [v for v in values if lo <= v < hi]
        if kind == "exists":
            return bool(inside)
        return max(inside) if kind == "max" else min(inside)
    return issue


def test_iterative_extreme_example():
    value, stats = enc.iterative_extreme("max", (0, 100), 25,
                                         _oracle_callback([3, 42, 77]))
    assert value == 77
    assert stats["rounds"] == 2


def test_iterative_matches_brute_force():
    rnd = random.Random(21)
    for _ in range(100):
        hi = rnd.randint(8, 400)
        values = [rnd.randrange(hi) for _ in range(rnd.randint(1, 10))]
        el = rnd.randint(1, hi)
        for kind, oracle in (("min", min), ("max", max)):
            got, _ = enc.iterative_extreme(kind, (0, hi), el,
                                           _oracle_callback(values))
            assert got == oracle(values), (kind, values, el)


def test_iterative_callback_failure():
    def broken(kind, lo, hi):
        raise RuntimeError("nope")

    with pytest.raises(CallbackFailure):
        enc.iterative_extreme("max", (0, 100), 10, broken)


# ----- analytic bounds -----

def test_bitwise_error_prob_base_cases():
    assert enc.bitwise_error_prob(2, 11) == pytest.approx(0.1)
    assert enc.bitwise_error_prob(3, 11) == pytest.approx(0.09)


def test_bitwise_error_prob_matches_enumeration():
    for order in (5, 7, 11, 13, 17):
        for n in (2, 3, 4):
            count = sum(1 for tup in product(range(1, order), repeat=n)
                        if sum(tup) % order == 0)
            brute = Fraction(count, (order - 1) ** n)
            assert enc.bitwise_error_prob(n, order, exact=True) == brute


def test_bitwise_error_prob_bound():
    for n in range(2, 21):
        assert enc.bitwise_error_prob(n, 11, exact=True) <= Fraction(1, 10)
    with pytest.raises(InvalidArgs):
        enc.bitwise_error_prob(1, 11)


def test_malicious_influence():
    assert enc.malicious_influence(70.0, 8833, 89, 100.0, 0) == \
        pytest.approx(0.0144, abs=1e-4)
    assert enc.malicious_influence(70.0, 100, 0, 100.0, 0) == 0.0
    assert enc.malicious_influence(70.0, 100, 5, 70.0, 5) == pytest.approx(0.0)
    with pytest.raises(InvalidArgs):
        enc.malicious_influence(70.0, 0, 1, 100.0, 0)


def test_logreg_labels_validated(ctx):
    _, rng, _, _ = ctx
    op = enc.OperationSpec("log_reg", feature_count=1, approx_degree=2)
    with pytest.raises(LabelNotBinary):
        enc.plaintext_encode(op, [(1.0, 2)], rng)
