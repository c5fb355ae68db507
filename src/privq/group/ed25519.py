"""Ed25519 prime-order group: the fast curve profile (no pairing).

A point is the affine (x, y) of `curve.Point`, with (0, 1) the identity;
arithmetic runs in extended homogeneous coordinates (X, Y, Z, T) with
x = X/Z, y = Y/Z, T = XY/Z. Tables and MSM inputs keep the cached form
(Y+X, Y-X, 2Z, 2d*T), which adds to an extended point in 8
multiplications (Bernstein et al., "High-speed high-security signatures",
CHES 2011) and negates by swapping Y+X with Y-X and negating 2d*T.

Wire encoding is the usual 32-byte little-endian y with the sign of x in
the top bit; encodings are canonical and round-trip bit-exactly. Decoding
takes one exponentiation (RFC 8032, section 5.1.3).
"""

from __future__ import annotations

from ..errors import MalformedProof
from . import mult
from .curve import CurveGroup, Point

P = 2**255 - 19
ORDER = 2**252 + 27742317777372353535851937790883648493
D = (-121665 * pow(121666, -1, P)) % P
D2 = (2 * D) % P
D_INV = pow(D, -1, P)
# v = (v & _LOW) + 19 * (v >> 255) (mod P), as 2^255 = 19: for a product of
# two coordinates a cheaper partial reduction than % P, and small enough
# for the one more multiplication each such value feeds; every coordinate
# the formulas return is reduced with % P
_LOW = (1 << 255) - 1
SQRT_M1 = pow(2, (P - 1) // 4, P)


def _add(a, b):
    """Extended a plus cached b (add-2008-hwcd-3 with its k*T2 and 2*Z2
    read off the cached form)."""
    x1, y1, z1, t1 = a
    yp, ym, z2, t2 = b
    aa = (y1 - x1) * ym
    aa = (aa & _LOW) + 19 * (aa >> 255)
    bb = (y1 + x1) * yp
    bb = (bb & _LOW) + 19 * (bb >> 255)
    cc = t1 * t2
    cc = (cc & _LOW) + 19 * (cc >> 255)
    dd = z1 * z2
    dd = (dd & _LOW) + 19 * (dd >> 255)
    e = bb - aa
    f = dd - cc
    g = dd + cc
    h = bb + aa
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def _cache(a):
    x, y, z, t = a
    return (y + x, y - x, 2 * z, t * D2 % P)


def _lift(b):
    """The extended point (2X, 2Y, 2Z, 2T) of a cached one."""
    yp, ym, z2, t2 = b
    return (yp - ym, yp + ym, z2, t2 * D_INV % P)


def _neg_entry(b):
    yp, ym, z2, t2 = b
    return (ym, yp, z2, -t2)


def _dbl(a, n=1):
    """2^n * a by dbl-2008-hwcd; T, which doubling does not read, is
    computed for the result only."""
    x, y, z, _ = a
    for _ in range(n):
        aa = x * x
        aa = (aa & _LOW) + 19 * (aa >> 255)
        bb = y * y
        bb = (bb & _LOW) + 19 * (bb >> 255)
        cc = 2 * z * z
        cc = (cc & _LOW) + 19 * (cc >> 255)
        e = (x + y) * (x + y) - aa - bb
        e = (e & _LOW) + 19 * (e >> 255)
        g = bb - aa
        f = g - cc
        h = -aa - bb
        x, y, z = e * f % P, g * h % P, f * g % P
    return (x, y, z, e * h % P)


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
    _add = staticmethod(_add)
    _dbl = staticmethod(_dbl)
    _cache = staticmethod(_cache)
    _lift = staticmethod(_lift)
    _neg_entry = staticmethod(_neg_entry)
    # defined in this body, not inherited: perfbench wraps them per class
    mul, msm = CurveGroup.mul, CurveGroup.msm

    def __init__(self):
        super().__init__()
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
