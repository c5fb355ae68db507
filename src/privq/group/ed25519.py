"""Ed25519 prime-order group: the fast curve profile (no pairing).

Points live in the prime-order subgroup and are represented internally in
extended homogeneous coordinates (X, Y, Z, T) with x = X/Z, y = Y/Z,
T = XY/Z. Wire encoding is the usual 32-byte little-endian y with the sign
of x in the top bit; encodings are canonical and round-trip bit-exactly.
"""

from __future__ import annotations

from ..errors import PrivqError
from . import mult

P = 2**255 - 19
ORDER = 2**252 + 27742317777372353535851937790883648493
D = (-121665 * pow(121666, -1, P)) % P
D2 = (2 * D) % P
SQRT_M1 = pow(2, (P - 1) // 4, P)

_IDENTITY = (0, 1, 1, 0)


def _add(a, b):
    x1, y1, z1, t1 = a
    x2, y2, z2, t2 = b
    aa = (y1 - x1) * (y2 - x2) % P
    bb = (y1 + x1) * (y2 + x2) % P
    cc = t1 * D2 % P * t2 % P
    dd = 2 * z1 * z2 % P
    e = bb - aa
    f = dd - cc
    g = dd + cc
    h = bb + aa
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _dbl(a):
    x1, y1, z1, _ = a
    aa = x1 * x1 % P
    bb = y1 * y1 % P
    cc = 2 * z1 * z1 % P
    e = ((x1 + y1) * (x1 + y1) - aa - bb) % P
    g = bb - aa
    f = g - cc
    h = (-aa - bb) % P
    return (e * f % P, g * h % P, f * g % P, e * h % P)


class Ed25519Point:
    """Immutable group element; supports +, -, unary -, and int multiplication."""

    __slots__ = ("co", "_comb")

    def __init__(self, co):
        self.co = co
        self._comb = None

    def __add__(self, other):
        return Ed25519Point(_add(self.co, other.co))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        x, y, z, t = self.co
        return Ed25519Point(((-x) % P, y, z, (-t) % P))

    def __rmul__(self, k):
        return GROUP.mul(k, self)

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, Ed25519Point):
            return NotImplemented
        x1, y1, z1, _ = self.co
        x2, y2, z2, _ = other.co
        return (x1 * z2 - x2 * z1) % P == 0 and (y1 * z2 - y2 * z1) % P == 0

    def __hash__(self):
        return hash(self.encode())

    def is_identity(self):
        x, y, z, _ = self.co
        return x == 0 and (y - z) % P == 0

    def encode(self) -> bytes:
        x, y, z, _ = self.co
        zi = pow(z, -1, P)
        xa = x * zi % P
        ya = y * zi % P
        return (ya | ((xa & 1) << 255)).to_bytes(32, "little")

    def __repr__(self):
        return f"Ed25519Point({self.encode().hex()[:16]}...)"


class Ed25519Group:
    name = "ed25519"
    order = ORDER
    has_pairing = False
    point_bytes = 32
    scalar_bytes = 32

    def __init__(self):
        self._identity = Ed25519Point(_IDENTITY)
        by = 4 * pow(5, -1, P) % P
        bx = self._recover_x(by, 0)
        self._base = Ed25519Point((bx, by, 1, bx * by % P))
        self.precompute(self._base)

    def base(self):
        return self._base

    def identity(self):
        return self._identity

    def random_scalar(self, rng) -> int:
        return rng.randbelow(self.order)

    def mul(self, k: int, point: Ed25519Point) -> Ed25519Point:
        k = k % self.order
        if k == 0:
            return self._identity
        if point._comb is not None:
            return Ed25519Point(mult.comb_mul(k, point._comb, _add, _IDENTITY))
        return Ed25519Point(mult.window_mul(k, point.co, _add, _dbl, _IDENTITY))

    def precompute(self, point: Ed25519Point) -> None:
        """Attach a fixed-base table; later multiplications of this instance get ~5x faster."""
        if point._comb is None:
            point._comb = mult.comb_table(point.co, _add, self.order.bit_length())

    def msm(self, pairs) -> Ed25519Point:
        """sum(k_i * P_i) over a list of (int, point) pairs; a single term
        goes through `mul`, which uses the point's comb table if it has one."""
        if len(pairs) == 1:
            return self.mul(*pairs[0])
        native = [(k, p.co) for k, p in pairs]
        return Ed25519Point(
            mult.multi_scalar_mul(native, _add, _dbl, _IDENTITY, self.order)
        )

    def walk(self, start: Ed25519Point, step: Ed25519Point, n: int) -> list:
        """[start + k*step for k in range(n)]."""
        out, cur = [], start.co
        for _ in range(n):
            out.append(Ed25519Point(cur))
            cur = _add(cur, step.co)
        return out

    def encode_many(self, points) -> list:
        """`[P.encode() for P in points]` with one field inversion in all."""
        cos = [q.co for q in points]
        return [((y * zi % P) | ((x * zi % P & 1) << 255)).to_bytes(32, "little")
                for (x, y, _, _), zi in zip(cos, mult.batch_inverse([c[2] for c in cos], P))]

    def encode_scalar(self, s: int) -> bytes:
        return (s % self.order).to_bytes(32, "little")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != 32:
            raise PrivqError("scalar encoding must be 32 bytes")
        v = int.from_bytes(data, "little")
        if v >= self.order:
            raise PrivqError("non-canonical scalar encoding")
        return v

    @staticmethod
    def _recover_x(y, sign):
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
        if x & 1 != sign:
            x = P - x
        return x

    def decode_point(self, data: bytes) -> Ed25519Point:
        if len(data) != 32:
            raise PrivqError("point encoding must be 32 bytes")
        v = int.from_bytes(data, "little")
        sign = v >> 255
        y = v & ((1 << 255) - 1)
        x = self._recover_x(y, sign)
        return Ed25519Point((x, y, 1, x * y % P))


GROUP = Ed25519Group()
