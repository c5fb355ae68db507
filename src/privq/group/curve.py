"""The point design both curve backends share.

A `Point` holds the affine (x, y) that is encoded, compared and hashed, and
the group it belongs to, so `encode`, `==` and `hash` never invert. Each
operation that makes a point (`mul`, `msm`, `walk`, `+`, `-`) converts to
the backend's projective coordinates, adds there and normalizes its result
once, with one simultaneous inversion per call. `precompute` builds its
comb table in projective coordinates too.

A backend subclasses `CurveGroup` and supplies `_INF` (the projective
identity), `_proj(point)`, `_add`, `_dbl`, `_affine(projective points)`,
`_neg(point)`, `_encode(point)` and `decode_point`, and may override
`_comb_rows`.
"""

from __future__ import annotations

from ..errors import MalformedProof
from . import mult


class Point:
    """Immutable group element; supports +, -, unary -, and int multiplication.
    The identity is whatever its curve defines."""

    __slots__ = ("x", "y", "group", "_comb")

    def __init__(self, x, y, group):
        self.x = x
        self.y = y
        self.group = group
        self._comb = None

    def is_identity(self):
        return self == self.group._identity

    def __add__(self, other):
        g = self.group
        return g._affine([g._add(g._proj(self), g._proj(other))])[0]

    def __neg__(self):
        return self.group._neg(self)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, k):
        return self.group.mul(k, self)

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def encode(self) -> bytes:
        return self.group._encode(self)

    def __repr__(self):
        return f"Point({self.encode().hex()[:16]}...)"


class CurveGroup:
    """Scalars, fixed points and the point-making operations of a curve."""

    def base(self):
        return self._base

    def identity(self):
        return self._identity

    def random_scalar(self, rng) -> int:
        return rng.randbelow(self.order)

    def encode_scalar(self, s: int) -> bytes:
        return (s % self.order).to_bytes(self.scalar_bytes, "little")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.scalar_bytes:
            raise MalformedProof(f"scalar encoding must be {self.scalar_bytes} bytes")
        v = int.from_bytes(data, "little")
        if v >= self.order:
            raise MalformedProof("non-canonical scalar encoding")
        return v

    def mul(self, k: int, point: Point) -> Point:
        k = k % self.order
        if k == 0 or point.is_identity():
            return self._identity
        if point._comb is not None:
            q = mult.comb_mul(k, point._comb, self._add, self._INF)
        else:
            q = mult.straus([(k, self._proj(point))], self._add, self._dbl, self._INF)
        return self._affine([q])[0]

    def msm(self, pairs) -> Point:
        """sum(k_i * P_i) over a list of (int, point) pairs; a single term
        goes through `mul`, which uses the point's comb table if it has one."""
        pairs = list(pairs)
        if len(pairs) == 1:
            return self.mul(*pairs[0])
        native = [(k, self._proj(q)) for k, q in pairs]
        return self._affine([mult.multi_scalar_mul(native, self._add, self._dbl, self._INF,
                                                   self.order)])[0]

    def walk(self, start: Point, step: Point, n: int) -> list:
        """[start + k*step for k in range(n)]."""
        cur, inc, out = self._proj(start), self._proj(step), []
        for _ in range(n):
            out.append(cur)
            cur = self._add(cur, inc)
        return self._affine(out)

    def precompute(self, point: Point) -> None:
        """Attach a comb table; later multiplications of this instance take
        one table addition per 4-bit window."""
        if point._comb is None and not point.is_identity():
            rows = mult.comb_table(self._proj(point), self._add, self.order.bit_length())
            point._comb = self._comb_rows(rows)

    def _comb_rows(self, rows):
        """The comb table as kept: in projective coordinates by default."""
        return rows
