"""The signed-digit kernels of privq.group.mult against textbook references.

The reference is affine double-and-add written here, with one inversion
per addition. MSM terms use points whose discrete logs are known, so the
expected sum is one reference multiplication of the base. The cases reach
every kernel: Straus and Pippenger on either side of their crossover,
comb walks, folded scalars (order - k taken as -k) and scalars that need
no folding, the identity, repeated and cancelling terms, and points with a
comb table next to decoded copies without one.
"""

import itertools

import pytest

from privq.group import get_group, mult
from privq.group.curve import Point
from privq.rng import Drbg

PROFILES = ["ed25519", "pairing80"]


# ---------------------------------------------------------------------------
# affine references


def ref_add(P, Q):
    g = P.group
    if g.name == "ed25519":  # -x^2 + y^2 = 1 + d x^2 y^2; complete
        from privq.group.ed25519 import D, P as p

        t = D * P.x * Q.x % p * P.y % p * Q.y % p
        x3 = (P.x * Q.y + P.y * Q.x) * pow(1 + t, -1, p) % p
        y3 = (P.y * Q.y + P.x * Q.x) * pow(1 - t, -1, p) % p
        return Point(x3, y3, g)
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
    return Point(x3, (lam * (P.x - x3) - P.y) % p, g)


def ref_mul(k, P):
    acc = P.group.identity()
    for bit in bin(k % P.group.order)[2:]:
        acc = ref_add(acc, acc)
        if bit == "1":
            acc = ref_add(acc, P)
    return acc


# ---------------------------------------------------------------------------
# inputs


def special_scalars(group, rng):
    """The scalar shapes the kernels treat apart, in a fixed cycle."""
    n = group.order
    short = lambda: rng.randbelow(1 << 128)  # noqa: E731
    return [
        0, 1, n - 1, short(), n - short(), group.random_scalar(rng), n,
        n + group.random_scalar(rng), 3 * n - 2, -short(), n // 2, n // 2 + 1,
    ]


def decoded(P):
    """P as decoded off the wire: equal, without a comb table."""
    return P.group.decode_point(P.encode())


def known_points(group, rng, count, plain=False):
    """`count` (log, point) pairs: decoded points of known discrete log,
    with repeats, and unless `plain` also the identity, the base and a key
    that have a comb table, and a decoded copy of that key."""
    n = group.order
    s, t = group.random_scalar(rng), group.random_scalar(rng)
    walked = group.walk(group.mul(s, group.base()), group.mul(t, group.base()),
                        max(1, count // 2))
    pool = [((s + i * t) % n, decoded(P)) for i, P in enumerate(walked)]
    if not plain:
        k = group.random_scalar(rng)
        key = group.mul(k, group.base())
        group.precompute(key)
        pool += [(0, group.identity()), (1, group.base()), (k, key), (k, decoded(key))]
    return [pool[(7 * i) % len(pool)] for i in range(count)]


def crossover(group):
    """The fewest full-width terms that `msm` sends to Pippenger."""
    bits = (group.order >> 1).bit_length()
    return next(m for m in itertools.count(1) if mult.window(m, bits))


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("profile", PROFILES)
def test_known_points_have_their_logs(profile):
    group = get_group(profile)
    for log, P in known_points(group, Drbg("logs"), 8):
        assert ref_mul(log, group.base()) == P


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("size", ["0", "1", "2", "below", "at", "above", "1100"])
def test_msm_matches_reference(profile, size, monkeypatch):
    """At the crossover sizes every term is a nonzero multiple of a point
    without a table, so the term count is exactly what `window` prices."""
    group = get_group(profile)
    rng = Drbg(f"msm/{profile}/{size}")
    cross = crossover(group)
    near = {"below": cross - 1, "at": cross, "above": cross + 1}
    m = near.get(size) or int(size)
    terms = known_points(group, rng, m, plain=size in near)
    scalars = special_scalars(group, rng)
    if size in near:
        scalars = [k for k in scalars if k % group.order]
    pairs = [(scalars[i % len(scalars)] if i % 3 else group.random_scalar(rng), P)
             for i, (_, P) in enumerate(terms)]
    if m >= 4:  # a cancelling pair on a repeated point
        k, P = group.random_scalar(rng), terms[1][1]
        pairs[2:4] = [(k, P), (group.order - k, P)]
        terms[2:4] = [terms[1], terms[1]]
    ran = []
    pippenger = mult.pippenger
    monkeypatch.setattr(mult, "pippenger", lambda *a: ran.append(a) or pippenger(*a))
    expected = sum(k * log for (k, _), (log, _) in zip(pairs, terms))
    assert group.msm(pairs) == ref_mul(expected, group.base())
    assert bool(ran) == (size in ("at", "above", "1100"))


@pytest.mark.parametrize("profile", PROFILES)
def test_mul_matches_reference(profile):
    group = get_group(profile)
    rng = Drbg(f"mul/{profile}")
    P = decoded(group.mul(group.random_scalar(rng), group.base()))
    for k in special_scalars(group, rng):
        assert group.mul(k, P) == ref_mul(k, P), k
    assert group.mul(group.random_scalar(rng), group.identity()).is_identity()


@pytest.mark.parametrize("profile", PROFILES)
def test_comb_mul_matches_decoded_mul(profile):
    group = get_group(profile)
    rng = Drbg(f"comb/{profile}")
    key = group.mul(group.random_scalar(rng), group.base())
    group.precompute(key)
    plain = decoded(key)
    assert key._comb is not None and plain._comb is None
    for k in special_scalars(group, rng) + [group.random_scalar(rng) for _ in range(4)]:
        assert group.mul(k, key) == group.mul(k, plain) == ref_mul(k, plain), k
        assert group.msm([(k, key), (k, -plain)]).is_identity()


def test_gt_msm_matches_powers():
    group = get_group("pairing80")
    rng = Drbg("gt-msm")
    scalars = special_scalars(group, rng)
    elems = [group.pair(decoded(group.mul(i + 2, group.base())), group.base())
             for i in range(len(scalars))]
    elems[1::2] = [e.conjugate() for e in elems[1::2]]
    expected = group.gt_one()
    for k, e in zip(scalars, elems):
        expected = expected * e ** k
    assert group.gt_msm(zip(scalars, elems)) == expected
    assert group.gt_msm([(5, elems[0]), (group.order - 5, elems[0])]) == group.gt_one()
