"""Group arithmetic: field axioms, distributivity, pairing bilinearity,
serialization round trips, and discrete-log decoding."""

import pytest
from hypothesis import given, settings, strategies as st

from privq.errors import OutOfTableRange, PairingUnavailable, PrivqError
from privq.group import DlogTable, get_group, require_pairing
from privq.rng import Drbg

PROFILES = ["ed25519", "pairing80"]


@pytest.fixture(params=PROFILES)
def group(request):
    return get_group(request.param)


def test_scalar_random_uniform_sanity(group):
    rng = Drbg("uniform")
    draws = [group.random_scalar(rng) for _ in range(200)]
    assert len(set(draws)) == len(draws)  # collisions are negligible
    assert all(0 <= s < group.order for s in draws)
    # additive inverse is a field axiom
    s = draws[0]
    assert (s + (group.order - s)) % group.order == 0


def test_scalar_random_low_bits_chi_square():
    """Chi-square on the low byte over 10^5 draws at 0.01 significance."""
    rng = Drbg("chi")
    group = get_group("ed25519")
    counts = [0] * 256
    data = rng.randbytes(100_000)
    for b in data:
        counts[b] += 1
    expected = 100_000 / 256
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # chi-square critical value, 255 dof, alpha = 0.01
    assert chi2 < 310.46, chi2
    assert group.order.bit_length() >= 160


def test_point_mul_identities(group):
    base = group.base()
    assert group.mul(0, base).is_identity()
    assert group.mul(1, base) == base
    assert group.mul(2, base) + group.mul(3, base) == group.mul(5, base)


@settings(max_examples=20, deadline=None)
@given(a=st.integers(min_value=0, max_value=2**64), b=st.integers(min_value=0, max_value=2**64))
def test_scalar_mul_associative(a, b):
    group = get_group("ed25519")
    point = group.mul(7, group.base())
    assert group.mul(a * b % group.order, point) == group.mul(a, group.mul(b, point))


def test_mul_distributes_over_scalar_addition(group, rng):
    a = group.random_scalar(rng)
    b = group.random_scalar(rng)
    base = group.base()
    assert group.mul(a, base) + group.mul(b, base) == group.mul((a + b) % group.order, base)


def test_point_serialization_roundtrip(group, rng):
    for _ in range(1000):
        point = group.mul(group.random_scalar(rng), group.base())
        data = point.encode()
        assert group.decode_point(data) == point
        assert group.decode_point(data).encode() == data


def test_identity_serialization(group):
    identity = group.identity()
    assert group.decode_point(identity.encode()).is_identity()


def test_decode_rejects_garbage(group):
    with pytest.raises(PrivqError):
        group.decode_point(b"\xff" * group.point_bytes)
    with pytest.raises(PrivqError):
        group.decode_point(b"\x01")


def _inverting_recover_x(y, sign):
    """Ed25519 x from y as decoded before RFC 8032's single exponentiation:
    invert d*y^2 + 1, then take the square root of x^2."""
    from privq.group.ed25519 import D, P, SQRT_M1

    if y >= P:
        raise PrivqError("point encoding not canonical")
    x2 = (y * y - 1) * pow(D * y * y % P + 1, -1, P) % P
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P != 0:
        x = x * SQRT_M1 % P
    if (x * x - x2) % P != 0:
        raise PrivqError("not a curve point")
    if x == 0 and sign == 1:
        raise PrivqError("point encoding not canonical")
    return P - x if x & 1 != sign else x


def test_ed25519_decode_matches_inverting_reference(ed):
    from privq.group.ed25519 import P

    def reference(data):
        v = int.from_bytes(data, "little")
        y = v & ((1 << 255) - 1)
        return _inverting_recover_x(y, v >> 255), y

    edge = [b"\xff" * 32, (P - 1).to_bytes(32, "little"), P.to_bytes(32, "little"),
            bytes(32), (1).to_bytes(32, "little"), ((1 << 255) | 1).to_bytes(32, "little"),
            ((1 << 255) | (P - 1)).to_bytes(32, "little"), ed.base().encode(),
            ed.mul(5, ed.base()).encode(), (-ed.base()).encode()]
    rng = Drbg("decode-differential")
    outcomes = {"point": 0, "rejected": 0}
    for data in edge + [rng.randbytes(32) for _ in range(3000)]:
        try:
            want = reference(data)
        except PrivqError as exc:
            with pytest.raises(PrivqError, match=str(exc)):
                ed.decode_point(data)
            outcomes["rejected"] += 1
        else:
            got = ed.decode_point(data)
            assert (got.x, got.y) == want and got.encode() == data
            outcomes["point"] += 1
    assert min(outcomes.values()) > 1000, outcomes


def _pow_recover_x(y, sign):
    """Ed25519 x from y by RFC 8032's single exponentiation, the power
    (p-5)/8 taken with `pow`."""
    from privq.group.ed25519 import D, P, SQRT_M1

    if y >= P:
        raise PrivqError("point encoding not canonical")
    u, v = (y * y - 1) % P, (D * y * y + 1) % P
    x = u * pow(v, 3, P) * pow(u * pow(v, 7, P), (P - 5) // 8, P) % P
    if v * x * x % P != u:
        if v * x * x % P != (-u) % P:
            raise PrivqError("not a curve point")
        x = x * SQRT_M1 % P
    if x == 0 and sign == 1:
        raise PrivqError("point encoding not canonical")
    return P - x if x & 1 != sign else x


def test_ed25519_square_root_chain_matches_pow_reference(ed):
    """Decoding, whose square root runs an addition chain, accepts and
    rejects exactly as the `pow`-based reference and returns its point."""
    from privq.group.ed25519 import P

    def reference(data):
        v = int.from_bytes(data, "little")
        y = v & ((1 << 255) - 1)
        return _pow_recover_x(y, v >> 255), y

    def rejected(y):
        try:
            _pow_recover_x(y, 0)
        except PrivqError:
            return True
        return False

    non_square = next(y for y in range(2, 100) if rejected(y))  # u/v not a square
    edge = [P.to_bytes(32, "little"), (P + 5).to_bytes(32, "little"),  # y >= p
            non_square.to_bytes(32, "little"),
            ((1 << 255) | 1).to_bytes(32, "little"),  # x = 0 with the sign bit set
            ed.identity().encode(), ed.base().encode()]
    rng = Drbg("square-root-chain")
    verdicts = []
    for data in edge + [rng.randbytes(32) for _ in range(10_000)]:
        try:
            want = reference(data)
        except PrivqError as exc:
            with pytest.raises(PrivqError, match=str(exc)):
                ed.decode_point(data)
            verdicts.append(False)
        else:
            got = ed.decode_point(data)
            assert (got.x, got.y) == want
            verdicts.append(True)
    assert verdicts[:6] == [False, False, False, False, True, True]
    assert 4000 < sum(verdicts) < 6000


def test_msm_matches_naive(group, rng):
    pairs = [(group.random_scalar(rng) % 1000, group.mul(i + 2, group.base()))
             for i in range(25)]
    expected = group.identity()
    for k, point in pairs:
        expected = expected + group.mul(k, point)
    assert group.msm(pairs) == expected


def test_pairing_bilinear(pg, rng):
    base = pg.base()
    e_bb = pg.pair(base, base)
    assert e_bb != pg.gt_one()
    assert e_bb**0 == pg.gt_one()
    assert pg.pair(pg.mul(2, base), pg.mul(3, base)) == e_bb**6
    x = pg.random_scalar(rng)
    assert pg.pair(pg.mul(x, base), base) == \
        pg.pair(base, pg.mul(x, base))
    assert e_bb**pg.order == pg.gt_one()


def test_pairing_gt_serialization(pg):
    e = pg.pair(pg.base(), pg.base())
    assert pg.decode_gt(e.encode()) == e
    assert (e**5) * (e**-5) == pg.gt_one()


def test_pairing_unavailable_on_ed25519(ed):
    with pytest.raises(PairingUnavailable):
        require_pairing(ed)


def test_dlog_exhaustive_small(ed):
    table = DlogTable(ed, 4096)
    base = ed.base()
    point = ed.identity()
    for m in range(0, 4097, 1):
        assert table.decode(point) == m
        point = point + base


def test_dlog_signed_and_bounds(ed):
    table = DlogTable(ed, 10_000)
    assert table.decode(ed.mul(42, ed.base())) == 42
    assert table.decode(ed.mul(-733, ed.base())) == -733
    assert table.decode(ed.identity()) == 0
    with pytest.raises(OutOfTableRange):
        table.decode(ed.mul(10_001, ed.base()))


def test_dlog_sampled_large(ed):
    table = DlogTable(ed, 1 << 20)
    rng = Drbg("dlog")
    for _ in range(20):
        m = rng.randbelow(1 << 20)
        sign = 1 if rng.randbelow(2) else -1
        assert table.decode(ed.mul(sign * m, ed.base())) == sign * m


def test_pairing_curve_parameters(pg):
    # order r prime divides p + 1; base point has order exactly r
    p = int(pg.p)
    assert p % 4 == 3
    assert (p + 1) % pg.order == 0
    assert pg.mul(pg.order, pg.base()).is_identity()
    assert not pg.mul(pg.order // 3, pg.base()).is_identity()


def test_pairing128_profile_smoke():
    """The production-size profile constructs and its pairing is bilinear."""
    big = get_group("pairing128")
    assert int(big.p).bit_length() >= 1536
    assert big.order.bit_length() >= 256
    assert (int(big.p) + 1) % big.order == 0
    base = big.base()
    e = big.pair(base, base)
    assert e != big.gt_one()
    assert big.pair(big.mul(3, base), big.mul(5, base)) == e**15
    point = big.mul(12345, base)
    assert big.decode_point(point.encode()) == point
