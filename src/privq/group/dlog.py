"""Small-message discrete-log decoding via baby-step/giant-step lookup.

A DlogTable maps points m*B back to m for |m| <= max_message. Small bounds
get a full lookup table; larger bounds use a baby table of `baby` entries
plus up to ceil((max_message+1)/baby) giant steps per decode. Signed
messages are handled by walking P and -P in parallel so small magnitudes
(the common case) decode fastest.
"""

from __future__ import annotations

from ..errors import OutOfTableRange

_FULL_TABLE_LIMIT = 1 << 16
_CHUNK = 1024  # baby steps per walk: one inversion each, little memory


class DlogTable:
    def __init__(self, group, max_message: int = 1 << 20, baby: int | None = None):
        if max_message < 1:
            raise ValueError("max_message must be positive")
        self.group = group
        self.max_message = max_message
        if baby is None:
            if max_message < _FULL_TABLE_LIMIT:
                baby = max_message + 1
            else:
                # balance table size against worst-case giant-step count
                baby = min(1 << 16, 1 << ((max_message.bit_length() + 1) // 2))
        self.baby = min(baby, max_message + 1)
        self._table = {}
        start = group.identity()
        for lo in range(0, self.baby, _CHUNK):
            points = group.walk(start, group.base(), min(_CHUNK, self.baby - lo) + 1)
            start = points.pop()
            for m, point in enumerate(points, lo):
                self._table[point.encode()] = m
        self._stride = group.mul(self.baby, group.base())
        self._giant_max = (max_message + self.baby) // self.baby

    def decode(self, point) -> int:
        """Return m with point == m * base, |m| <= max_message."""
        pos, neg = point, -point
        for q in range(self._giant_max):
            hit = self._table.get(pos.encode())
            if hit is not None:
                m = q * self.baby + hit
                if m <= self.max_message:
                    return m
            hit = self._table.get(neg.encode())
            if hit is not None and hit + q * self.baby != 0:
                m = q * self.baby + hit
                if m <= self.max_message:
                    return -m
            pos = pos - self._stride
            neg = neg - self._stride
        raise OutOfTableRange(f"no discrete log within +-{self.max_message}")
