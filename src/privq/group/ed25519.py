"""Ed25519 prime-order group: the fast curve profile (no pairing).

A point is the affine (x, y) of `curve.Point`, with (0, 1) the identity;
arithmetic runs in extended homogeneous coordinates (X, Y, Z, T) with
x = X/Z, y = Y/Z, T = XY/Z. Wire encoding is the usual 32-byte
little-endian y with the sign of x in the top bit; encodings are canonical
and round-trip bit-exactly. Decoding takes one exponentiation (RFC 8032,
section 5.1.3).
"""

from __future__ import annotations

from ..errors import MalformedProof
from . import mult
from .curve import CurveGroup, Point

P = 2**255 - 19
ORDER = 2**252 + 27742317777372353535851937790883648493
D = (-121665 * pow(121666, -1, P)) % P
D2 = (2 * D) % P
SQRT_M1 = pow(2, (P - 1) // 4, P)


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


def _recover_x(y, sign):
    """x with the given sign bit and (x, y) on the curve: the square root of
    u/v, u = y^2 - 1 and v = d*y^2 + 1, as x = u*v^3*(u*v^7)^((p-5)/8)."""
    if y >= P:
        raise MalformedProof("point encoding not canonical")
    yy = y * y % P
    u, v = (yy - 1) % P, (D * yy + 1) % P
    v3 = v * v % P * v % P
    uv3 = u * v3 % P
    x = uv3 * pow(uv3 * v3 % P * v % P, (P - 5) // 8, P) % P
    vxx = v * x % P * x % P
    if vxx != u:
        if vxx != P - u:
            raise MalformedProof("not a curve point")
        x = x * SQRT_M1 % P
    if x == 0 and sign == 1:
        raise MalformedProof("point encoding not canonical")
    if x & 1 != sign:
        x = P - x
    return x


class Ed25519Group(CurveGroup):
    name = "ed25519"
    order = ORDER
    has_pairing = False
    point_bytes = 32
    scalar_bytes = 32
    _INF = (0, 1, 1, 0)
    _add = staticmethod(_add)
    _dbl = staticmethod(_dbl)
    # defined in this body, not inherited: perfbench wraps them per class
    mul, msm = CurveGroup.mul, CurveGroup.msm

    def __init__(self):
        self._identity = Point(0, 1, self)
        by = 4 * pow(5, -1, P) % P
        self._base = Point(_recover_x(by, 0), by, self)
        self.precompute(self._base)

    @staticmethod
    def _proj(point):
        return (point.x, point.y, 1, point.x * point.y % P)

    def _affine(self, points):
        return [Point(x * zi % P, y * zi % P, self)
                for (x, y, _, _), zi in zip(points, mult.batch_inverse([q[2] for q in points], P))]

    def _neg(self, point):
        return Point((-point.x) % P, point.y, self)

    @staticmethod
    def _encode(point):
        return (point.y | ((point.x & 1) << 255)).to_bytes(32, "little")

    def decode_point(self, data: bytes) -> Point:
        if len(data) != 32:
            raise MalformedProof("point encoding must be 32 bytes")
        v = int.from_bytes(data, "little")
        y = v & ((1 << 255) - 1)
        return Point(_recover_x(y, v >> 255), y, self)
