"""Pairing-curve arithmetic against an affine reference.

The backend adds in Jacobian coordinates and runs a projective Miller
loop. The oracle here is the textbook affine form: chord-and-tangent
addition with one inversion per step, and a Miller loop with affine T and
the final exponentiation through GtElement.__pow__. Every result must be
equal as a value, so wire encodings cannot move.
"""

import pytest
from hypothesis import given, settings, strategies as st

from privq.group import DlogTable, get_group, mult
from privq.group.pairing import GtElement
from privq.proofs import rangeproof as rp
from privq.rng import Drbg

PG = get_group("pairing80")
ED = get_group("ed25519")
R = PG.order
SCALARS = st.integers(min_value=1, max_value=R - 1)
FAST = settings(derandomize=True, max_examples=6, deadline=None)


# ---------------------------------------------------------------------------
# affine reference


def ref_add(P, Q):
    g = P.group
    if P.is_identity():
        return Q
    if Q.is_identity():
        return P
    p = g.p
    if P.x == Q.x:
        if (P.y + Q.y) % p == 0:
            return g.identity()
        lam = (3 * P.x * P.x + 1) * pow(2 * P.y, -1, p) % p
    else:
        lam = (Q.y - P.y) * pow(Q.x - P.x, -1, p) % p
    x3 = (lam * lam - P.x - Q.x) % p
    return type(P)(x3, (lam * (P.x - x3) - P.y) % p, g)


def ref_mul(k, P):
    acc = P.group.identity()
    for bit in bin(k % R)[2:]:
        acc = ref_add(acc, acc)
        if bit == "1":
            acc = ref_add(acc, P)
    return acc


def ref_pair(P, Q):
    g = P.group
    if P.is_identity() or Q.is_identity():
        return g.gt_one()
    p = g.p
    mxq, neg_yq = (-Q.x) % p, (-Q.y) % p
    fr, fi = 1, 0
    tx, ty = P.x, P.y
    done = False
    for bit in bin(R)[3:]:
        lam = (3 * tx * tx + 1) * pow(2 * ty, -1, p) % p
        lre = (lam * (mxq - tx) + ty) % p
        sr, si = (fr * fr - fi * fi) % p, 2 * fr * fi % p
        fr, fi = (sr * lre - si * neg_yq) % p, (sr * neg_yq + si * lre) % p
        x3 = (lam * lam - 2 * tx) % p
        tx, ty = x3, (lam * (tx - x3) - ty) % p
        if bit == "1" and not done:
            if tx == P.x and (ty + P.y) % p == 0:
                done = True  # vertical line
                continue
            lam = (P.y - ty) * pow(P.x - tx, -1, p) % p
            lre = (lam * (mxq - tx) + ty) % p
            fr, fi = (fr * lre - fi * neg_yq) % p, (fr * neg_yq + fi * lre) % p
            x3 = (lam * lam - tx - P.x) % p
            tx, ty = x3, (lam * (tx - x3) - ty) % p
    norm = pow(fr * fr + fi * fi, -1, p)
    g_elem = GtElement((fr * fr - fi * fi) * norm % p, -2 * fr * fi * norm % p, g)
    return g_elem ** g.cofactor


def order_two_point():
    """(0, 0): on the curve, outside the order-r subgroup, accepted by decode_point."""
    return PG.decode_point(bytes(PG.point_bytes - 1) + b"\x02")


def fresh(k):
    """k * B as a point without a comb table, so `mul` takes the window path."""
    return PG.decode_point(PG.mul(k, PG.base()).encode())


# ---------------------------------------------------------------------------
# points


@FAST
@given(k=SCALARS)
def test_mul_matches_reference(k):
    P = fresh(7)
    for scalar in (0, 1, R - 1, k):
        assert PG.mul(scalar, P) == ref_mul(scalar, P)
    assert PG.mul(k, PG.identity()).is_identity()
    assert PG.mul(R - 1, P) == -P


@FAST
@given(a=SCALARS, b=SCALARS)
def test_addition_special_cases(a, b):
    P, Q = fresh(a), fresh(b)
    O = PG.identity()
    assert P + Q == ref_add(P, Q)
    assert P + P == ref_add(P, P) == PG.mul(2 * a, PG.base())
    assert (P + (-P)).is_identity()
    assert O + P == P and P + O == P and (O + O).is_identity()
    assert P - Q == ref_add(P, -Q)


@FAST
@given(k=SCALARS)
def test_comb_and_window_paths_agree(k):
    P = fresh(11)
    window = PG.mul(k, P)
    PG.precompute(P)
    assert P._comb is not None
    assert PG.mul(k, P) == window == ref_mul(k, P)
    assert PG.mul(k, PG.base()) == PG.mul(k, fresh(1))


def test_msm_matches_sum_of_muls(rng):
    def check(n):
        points = [fresh(PG.random_scalar(rng)) for _ in range(n // 2)]
        points += [PG.identity(), PG.base()] + points[: n - len(points) - 2]
        scalars = [PG.random_scalar(rng) for _ in points]
        scalars[0] = 0
        expected = PG.identity()
        for k, P in zip(scalars, points):
            expected = expected + PG.mul(k, P)
        assert PG.msm(list(zip(scalars, points))) == expected

    check(5)  # Straus
    check(200)  # Pippenger (past the crossover `mult.window` prices)


def test_cancelling_msm_is_identity():
    P = fresh(5)
    assert PG.msm([(3, P), (R - 3, P)]).is_identity()
    assert PG.msm([(2, P), (1, P), (R - 3, P)]).is_identity()


def test_small_order_point_in_tables():
    T = order_two_point()
    assert (T + T).is_identity()
    window = [PG.mul(k, T) for k in (1, 2, 3)]
    PG.precompute(T)  # its comb table holds the identity
    assert [PG.mul(k, T) for k in (1, 2, 3)] == window == [T, PG.identity(), T]


def test_walk_matches_repeated_addition():
    P, step = fresh(3), fresh(5)
    expected = [P]
    for _ in range(5):
        expected.append(ref_add(expected[-1], step))
    assert PG.walk(P, step, 6) == expected
    assert PG.walk(PG.identity(), step, 3) == [PG.identity(), step, step + step]


# ---------------------------------------------------------------------------
# pairing and target group


@FAST
@given(a=SCALARS, b=SCALARS)
def test_pair_matches_affine_reference(a, b):
    P, Q = fresh(a), fresh(b)
    assert PG.pair(P, Q) == ref_pair(P, Q)


def test_pair_fails_closed_outside_the_subgroup():
    """Where the affine loop inverts zero, the projective one raises too;
    a point with an order-2 component pairs as the reference does."""
    T = order_two_point()
    with pytest.raises(ValueError):
        ref_pair(T, PG.base())
    with pytest.raises(ValueError):
        PG.pair(T, PG.base())
    for P, Q in ((PG.base(), T), (fresh(5) + T, fresh(9))):
        assert PG.pair(P, Q) == ref_pair(P, Q)


def test_order_two_digit_signature_forgery_rejected():
    """V_ij = (0, 0) for every CN would make both pairings of the digit's
    equations 1, leaving its z_m free: a proof of an out-of-range value."""
    rng = Drbg("torsion-forgery")
    sigs, _ = rp.range_setup(PG, 16, 2, rng)
    omega = PG.mul(PG.random_scalar(rng), PG.base())
    m, r_nonce = 20, PG.random_scalar(rng)  # 20 is outside [0, 16)
    c2 = PG.mul(m, PG.base()) + PG.mul(r_nonce, omega)
    s0, t0, n_nonce = (PG.random_scalar(rng) for _ in range(3))
    d_point = PG.msm([(s0, PG.base()), (n_nonce, omega)])
    e_bb = PG.pair(PG.base(), PG.base())
    v_points = ((order_two_point(),),) * sigs.n_cns
    a_elems = ((e_bb ** t0,),) * sigs.n_cns
    c = rp._challenge(PG, omega, sigs, c2, d_point, v_points, a_elems, 16, 1)
    proof = rp.RangeProof(c2, c, (n_nonce - r_nonce * c) % R, (t0,), ((s0 - m * c) % R,),
                          d_point, v_points, a_elems, 16, 1)
    proof = rp.decode_range(PG, proof.encode())  # the points a VN would decode
    try:
        accepted = rp.verify_range(proof, sigs, omega)
    except ValueError:  # a VN records a sub-proof that raises this as false
        accepted = False
    assert not accepted


@settings(derandomize=True, max_examples=3, deadline=None)
@given(a=SCALARS, b=SCALARS)
def test_pairing_bilinear(a, b):
    P, Q = fresh(3), fresh(5)
    lhs = PG.pair(PG.mul(a, P), PG.mul(b, Q))
    assert lhs == PG.pair(P, Q) ** (a * b % R)
    assert lhs == PG.pair(PG.mul(b, Q), PG.mul(a, P))


@FAST
@given(ks=st.lists(st.integers(min_value=0, max_value=2 * R), min_size=1, max_size=4))
def test_gt_msm_matches_powers(ks):
    elems = [PG.pair(fresh(i + 2), PG.base()) for i in range(len(ks))]
    elems[0] = elems[0].conjugate()
    expected = PG.gt_one()
    for k, e in zip(ks, elems):
        expected = expected * (e ** k)
    assert PG.gt_msm(zip(ks, elems)) == expected


def test_gt_msm_empty_and_zero_is_one():
    e = PG.pair(PG.base(), PG.base())
    assert PG.gt_msm([]) == PG.gt_one()
    assert PG.gt_msm([(0, e), (R, e)]) == PG.gt_one()


# ---------------------------------------------------------------------------
# batched normalization


def test_batch_inverse_maps_zero_to_zero():
    p = PG.p
    values = [5, 0, p - 1, 123456789, 0]
    out = mult.batch_inverse(values, p)
    assert out[1] == out[4] == 0
    for v, inv in zip(values, out):
        if v:
            assert v * inv % p == 1


@pytest.mark.parametrize("group", [PG, ED], ids=["pairing80", "ed25519"])
def test_dlog_table_matches_one_step_walk(group):
    table = DlogTable(group, 2500)  # 2501 baby steps: three walks
    point, naive = group.identity(), {}
    for m in range(table.baby):
        naive[point.encode()] = m
        point = point + group.base()
    assert list(table._table.items()) == list(naive.items())
