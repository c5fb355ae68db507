"""Pairing-friendly curve profile: supersingular y^2 = x^3 + x over F_p.

p = 3 (mod 4) makes the curve supersingular with #E(F_p) = p + 1; group
operations happen in the order-r subgroup (r prime, r | p + 1).

Coordinates: a point is the affine (x, y) of `curve.Point`, with no
coordinates for the identity. Arithmetic runs in Jacobian (X, Y, Z),
x = X/Z^2 and y = Y/Z^3, Z = 0 for the identity, with the EFD formulas
dbl-2007-bl and add-2007-bl (madd-2007-bl when Z2 = 1) for a = 1; table
entries and MSM inputs have Z = 1, so they add with madd. An inversion
costs 25-40 multiplications mod p.

Pairing: the reduced Tate pairing composed with the distortion map
(x, y) -> (-x, iy) into E(F_p^2), F_p^2 = F_p[i]/(i^2 + 1). Miller's loop
keeps T in Jacobian coordinates and scales each line by a factor in F_p
(Barreto-Kim-Lynn-Scott, CRYPTO 2002) and skips the last vertical line;
the final exponentiation to (p - 1)(p + 1)/r removes both. Its f^(p-1) =
conj(f)^2/N(f) costs one inversion and has norm 1, so the power to the
cofactor squares with (a + bi)^2 = (2a^2 - 1) + ((a + b)^2 - 1)i.

Two parameter sets: "pairing128" (1536-bit p, production default) and
"pairing80" (512-bit p, reduced security for fast test runs).

Wire encodings (interop-sensitive, fixed here): source-group points are
compressed to a little-endian x coordinate plus one byte carrying the
parity of y (0x02/0x03), all-zero for the identity. Target-group elements
serialize as the two little-endian field coordinates (real part, then the
coefficient of i); there is no compression in the target group.
"""

from __future__ import annotations

from ..errors import MalformedProof, PairingUnavailable
from . import mult
from .curve import CurveGroup, Point

PARAMS = {
    "pairing80": dict(
        p=0x4000000000000000000000000000000000000C22C000000000000000000000000000000000000000002F17AE80000000000000000000000000000008EE0293BF7,
        r=0x1000000000000000000000000000000000000308B,
        base_x=0x2E95F8A96C653944A406F8D3866618469C7A8279DD1EDD0771E58414E9A1642902A6124A8F3A8FCE6C732AD842D839B98E5961635B781D1884BC33857FAECEDEC,
        base_y=0x16C237B55BB47707070D13D2A888BE7DD270969C499195D32DA1ED1B351D0ADC20A9D675A4CEE3B2C34BD164E668E77B0D3C765FBAF6C1CE40A1D19BEE21EBB41,
    ),
    "pairing128": dict(
        p=int(
            "4000000000000000000000000000000000000000000000000000000000000c55c0000000000000000000"
            "000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
            "000000000000000000000000000000000000000000000000000000000000000000000000000000000000"
            "000000000000000000000000000000000000000000000000000000000000002f195cc000000000000000"
            "000000000000000000000000000000000000000913dc5f453",
            16,
        ),
        r=int(
            "10000000000000000000000000000000000000000000000000000000000003157",
            16,
        ),
        base_x=int(
            "359d5ede0cecc05d8b959dc10c05c388c25382e48dc1f9d41ea9a526a25c2d42731555d799c45b8fea1c"
            "c6e405e62864ded1d6e87f55bbf3c43372bf6932040a50175050a0e934fbda5db28c09ecd56871e77c5b"
            "26d67b424b700700f48720efd22a7d19d98c14aabdad30dc2b980bd447f61f500c14421511e33634d7d9"
            "c127da86c93d5d0761113a46c5cebb50ab820e5da9aa1146a17c803838739ded37901ebcb65acb24c9de"
            "c2831b05519c5b5975ee8221b8d082422a479eb4d852ba69b",
            16,
        ),
        base_y=int(
            "185895e417048502d8daa1c46d10c2cc3e451e5be4659458974b9c9c0ff24d2833e81d6bb6466b05da86"
            "fab2311e6b830fe05f3594a9b6e69ec162cdf22b72508b55eaad8a6537f5c07c834d8b67dff36a5c7b55"
            "3623993d3dfbb5d1e07709b8469d6c489bbc38bdab45a9566aa153c320e3f7f978dcb59c118935a5c132"
            "a26e457c83e33aa91d3dea7f2cacc72462348d5a031fcd31a54810b0e5baf3d51add09face0b35bcde7c"
            "4ed9cbc9ab9435cc7cfc29ddd56f9f03595ada0570ee7835f",
            16,
        ),
    ),
}


class GtElement:
    """Target-group element in F_p^2; multiplicative notation."""

    __slots__ = ("re", "im", "group")

    def __init__(self, re, im, group):
        self.re = re
        self.im = im
        self.group = group

    def __mul__(self, other):
        p = self.group.p
        a, b, c, d = self.re, self.im, other.re, other.im
        t1, t2 = a * c, b * d
        return GtElement((t1 - t2) % p, ((a + b) * (c + d) - t1 - t2) % p, self.group)

    def __pow__(self, e):
        acc = mult.straus([(abs(e), -1 if e < 0 else 1, self)], _ANY_OPS)
        return self.group.gt_one() if acc is None else acc

    def inverse(self):
        p = self.group.p
        n = pow(self.re * self.re + self.im * self.im, -1, p)
        return GtElement(self.re * n % p, (-self.im) * n % p, self.group)

    def conjugate(self):
        """Inverse for elements of the order-r pairing subgroup (unit norm)."""
        return GtElement(self.re, (-self.im) % self.group.p, self.group)

    def __eq__(self, other):
        if not isinstance(other, GtElement):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def encode(self) -> bytes:
        n = self.group.point_bytes - 1
        return self.re.to_bytes(n, "little") + self.im.to_bytes(n, "little")

    def __repr__(self):
        return f"GtElement({self.encode().hex()[:16]}...)"


def _unit_sqr(a, n):
    """a^(2^n) of a norm-1 element a, by (a + bi)^2 = (2a^2 - 1) + ((a + b)^2 - 1)i."""
    p, re, im = a.group.p, a.re, a.im
    for _ in range(n):
        re, im = (2 * re * re - 1) % p, ((re + im) ** 2 - 1) % p
    return GtElement(re, im, a.group)


def _sqr(a, n):
    for _ in range(n):
        a = a * a
    return a


def _same(a):
    return a


# the target group as `mult` kernels see it: an element is its own entry;
# norm-1 elements square with `_unit_sqr` and invert by conjugation, any
# other element (`**` accepts any) squares and inverts in full
_UNIT_OPS = mult.Ops(GtElement.__mul__, _unit_sqr, _same, _same, _same, GtElement.conjugate)
_ANY_OPS = mult.Ops(GtElement.__mul__, _sqr, _same, _same, _same, GtElement.inverse)


class PairingGroup(CurveGroup):
    has_pairing = True
    _INF = (1, 1, 0)  # Jacobian identity: any (X, Y, 0)
    # defined in this body, not inherited: perfbench wraps them per class
    mul, msm = CurveGroup.mul, CurveGroup.msm

    def __init__(self, name: str):
        super().__init__()
        params = PARAMS[name]
        self.name = name
        self.p = params["p"]
        self.order = params["r"]
        self.cofactor = (params["p"] + 1) // params["r"]
        self.gt_order = params["r"]
        self.point_bytes = (params["p"].bit_length() + 7) // 8 + 1
        self.scalar_bytes = (params["r"].bit_length() + 7) // 8
        self.gt_bytes = 2 * (self.point_bytes - 1)
        self._identity = Point(None, None, self)
        self._base = Point(params["base_x"], params["base_y"], self)
        self._pair_cache = {}
        self.precompute(self._base)

    def _proj(self, point):
        return self._INF if point.x is None else (point.x, point.y, 1)

    def _affine(self, points):
        p, out = self.p, []
        for (x, y, z), zi in zip(points, mult.batch_inverse([q[2] for q in points], p)):
            zi2 = zi * zi % p
            out.append(Point(x * zi2 % p, y * zi2 % p * zi % p, self) if z else self._identity)
        return out

    def _entries(self, points):
        """Table entries normalized to Z = 1 with one inversion, so that they
        add with madd-2007-bl."""
        return [self._proj(q) for q in self._affine(points)] if points else []

    @staticmethod
    def _cache(a):
        return a

    _lift = _cache

    def _neg_entry(self, a):
        x, y, z = a
        return (x, (-y) % self.p, z)

    def _neg(self, point):
        return point if point.x is None else Point(point.x, (-point.y) % self.p, self)

    def _encode(self, point):
        n = self.point_bytes - 1
        if point.x is None:
            return bytes(n + 1)
        return point.x.to_bytes(n, "little") + bytes([2 | (point.y & 1)])

    def _dbl(self, a, n=1):
        """2^n * a by dbl-2007-bl for a = 1, its squared sums written as
        products."""
        p = self.p
        x, y, z = a
        for _ in range(n):
            yy = y * y % p
            zz = z * z % p
            m = (3 * x * x + zz * zz) % p
            s = 4 * x * yy % p
            z = 2 * y * z % p
            x = (m * m - 2 * s) % p
            y = (m * (s - x) - 8 * yy * yy) % p
        return (x, y, z)

    def _add(self, a, b):
        """add-2007-bl, or madd-2007-bl when b has Z = 1; P + P doubles and
        P + (-P) gives the identity."""
        x1, y1, z1 = a
        x2, y2, z2 = b
        if not z1:
            return b
        if not z2:
            return a
        p = self.p
        z1z1 = z1 * z1 % p
        if z2 == 1:
            u1, s1, zz = x1, y1, z1
        else:
            z2z2 = z2 * z2 % p
            u1, s1, zz = x1 * z2z2 % p, y1 * z2 % p * z2z2 % p, z1 * z2 % p
        h = (x2 * z1z1 - u1) % p
        r = 2 * (y2 * z1 % p * z1z1 - s1) % p
        if not h:
            return self._dbl(a) if not r else self._INF
        i = 4 * h * h % p
        j = h * i % p
        v = u1 * i % p
        x3 = (r * r - j - 2 * v) % p
        return (x3, (r * (v - x3) - 2 * s1 * j) % p, 2 * zz * h % p)

    def decode_point(self, data: bytes) -> Point:
        if len(data) != self.point_bytes:
            raise MalformedProof("bad point length")
        if data == bytes(self.point_bytes):
            return self._identity
        tag = data[-1]
        if tag not in (2, 3):
            raise MalformedProof("bad point compression tag")
        x = int.from_bytes(data[:-1], "little")
        if x >= self.p:
            raise MalformedProof("point encoding not canonical")
        y2 = (x * x * x + x) % self.p
        y = pow(y2, (self.p + 1) // 4, self.p)
        if y * y % self.p != y2:
            raise MalformedProof("not a curve point")
        if y & 1 != tag & 1:
            y = (-y) % self.p
        return Point(x, y, self)

    def gt_one(self) -> GtElement:
        return GtElement(1, 0, self)

    def decode_gt(self, data: bytes) -> GtElement:
        n = self.point_bytes - 1
        if len(data) != self.gt_bytes:
            raise MalformedProof("bad target-group element length")
        re = int.from_bytes(data[:n], "little")
        im = int.from_bytes(data[n:], "little")
        if re >= self.p or im >= self.p:
            raise MalformedProof("target-group encoding not canonical")
        return GtElement(re, im, self)

    def pair(self, P: Point, Q: Point) -> GtElement:
        """Symmetric pairing e(P, Q); results are memoized since proof verification
        re-evaluates the same argument pairs many times."""
        if P.is_identity() or Q.is_identity():
            return self.gt_one()
        key = (P.encode(), Q.encode())
        hit = self._pair_cache.get(key)
        if hit is None:
            if len(self._pair_cache) > 8192:
                self._pair_cache.clear()
            hit = self._pair_cache[key] = self._tate(P, Q)
        return hit

    def gt_msm(self, pairs) -> GtElement:
        """prod(g ** (k mod r)) over (int k, GtElement g) pairs, one squaring chain.
        It squares with the norm-1 formula and inverts by conjugation, so it
        accepts only pairing outputs and their conjugates; any other element
        needs `**`."""
        acc = mult.msm([(k, g, None) for k, g in pairs], _UNIT_OPS, self.gt_order)
        return self.gt_one() if acc is None else acc

    def _tate(self, P, Q):
        p = self.p
        mxq = (-Q.x) % p
        neg_yq = (-Q.y) % p
        px, py = P.x, P.y
        mxq_px = (mxq - px) % p
        fr, fi = 1, 0
        x, y, z = px, py, 1  # T in Jacobian coordinates
        done = False
        for bit in bin(self.order)[3:]:
            if not y:  # T of order 2 (P outside the order-r subgroup): fail closed
                raise ValueError("tangent at a point of order 2 in the Miller loop")
            # f <- f^2 * line_{T,T}(phi Q) = (lam(-xq - xT) + yT) - i*yq, scaled by z3*Z^2
            yy = y * y % p
            zz = z * z % p
            m = (3 * x * x + zz * zz) % p
            z3 = 2 * y * z % p
            lre = (m * (mxq * zz - x) + 2 * yy) % p
            lim = neg_yq * z3 % p * zz % p
            sr, si = (fr + fi) * (fr - fi) % p, 2 * fr * fi % p
            u1, u2 = sr * lre, si * lim
            fr, fi = (u1 - u2) % p, ((sr + si) * (lre + lim) - u1 - u2) % p
            s = 4 * x * yy % p
            x = (m * m - 2 * s) % p
            y = (m * (s - x) - 8 * yy * yy) % p
            z = z3
            if bit == "1" and not done:
                zz = z * z % p
                h = (px * zz - x) % p
                if not h:
                    if py * z % p * zz % p == y:  # T = P: no chord, fail closed
                        raise ValueError("T = P in the Miller loop")
                    done = True  # T = -P: vertical line, eliminated by final exponentiation
                    continue
                # f <- f * line_{T,P}(phi Q) through P: lam = r/z3, scaled by z3
                z3 = 2 * z * h % p
                lre = (2 * (py * z % p * zz - y) * mxq_px + py * z3) % p
                lim = neg_yq * z3 % p
                u1, u2 = fr * lre, fi * lim
                fr, fi = (u1 - u2) % p, ((fr + fi) * (lre + lim) - u1 - u2) % p
                x, y, z = self._add((x, y, z), (px, py, 1))
        # final exponentiation: f^(p-1) = conj(f)^2 / N(f), then ^cofactor
        norm = pow(fr * fr + fi * fi, -1, p)
        gr = fr * fr % p - fi * fi % p
        g = GtElement(gr * norm % p, (-2 * fr * fi) % p * norm % p, self)
        return mult.straus([(self.cofactor, 1, g)], _UNIT_OPS)


def build(name: str) -> PairingGroup:
    if name not in PARAMS:
        raise PairingUnavailable(f"unknown pairing profile {name!r}")
    return PairingGroup(name)
