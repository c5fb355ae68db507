"""The point design both curve backends share.

A `Point` holds the affine (x, y) that is encoded, compared and hashed, and
the group it belongs to, so `encode`, `==` and `hash` never invert. Each
operation that makes a point (`mul`, `msm`, `walk`, `+`, `-`) converts to
the backend's projective coordinates, adds there and normalizes its result
once, with one simultaneous inversion per call.

The signed-digit kernels of `mult` see a point as an accumulator (the
projective point) or as an entry (the form a table keeps it in), through
`Ops` built from the backend's hooks. `precompute` attaches a comb table:
rows of multiples built as accumulators and kept as the entries
`_entries` returns. `mul` walks the table, and `msm` walks the table of
every term that has one into the accumulator of the others.

A backend subclasses `CurveGroup` and supplies `_proj(point)` (the
accumulator of an affine point), `_add(accumulator, entry)`,
`_dbl(accumulator, n)`, `_cache` (one accumulator to its entry), `_lift`
(entry to accumulator), `_neg_entry`, `_affine(accumulators)`,
`_neg(point)`, `_encode(point)` and `decode_point`, and may override
`_entries`, which converts a table's accumulators at once.
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
        return g._affine([g._add(g._proj(self), g._cache(g._proj(other)))])[0]

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

    def __init__(self):
        self._ops = mult.Ops(self._add, self._dbl, self._cache, self._entries, self._lift,
                             self._neg_entry)

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

    def _sum(self, pairs) -> Point:
        """sum(k_i * P_i) through `mult.msm`, normalized once."""
        terms = [(k, None, q._comb) if q._comb is not None
                 else (k, self._cache(self._proj(q)), None) for k, q in pairs]
        acc = mult.msm(terms, self._ops, self.order)
        return self._identity if acc is None else self._affine([acc])[0]

    def mul(self, k: int, point: Point) -> Point:
        return self._sum([(k, point)])

    def msm(self, pairs) -> Point:
        """sum(k_i * P_i) over a list of (int, point) pairs; a single term
        goes through `mul`."""
        pairs = list(pairs)
        if len(pairs) == 1:
            return self.mul(*pairs[0])
        return self._sum(pairs)

    def walk(self, start: Point, step: Point, n: int) -> list:
        """[start + k*step for k in range(n)]."""
        cur, inc, out = self._proj(start), self._cache(self._proj(step)), []
        for _ in range(n):
            out.append(cur)
            cur = self._add(cur, inc)
        return self._affine(out)

    def precompute(self, point: Point) -> None:
        """Attach a comb table; later multiplications of this instance take
        one table addition per signed 5-bit window of the folded scalar."""
        if point._comb is None and not point.is_identity():
            point._comb = mult.comb_table(self._proj(point), self._ops,
                                          (self.order >> 1).bit_length())

    def _entries(self, points):
        """Entries of a table's accumulators: one `_cache` each by default."""
        return [self._cache(q) for q in points]
