"""Generic scalar-multiplication helpers shared by the curve backends.

All functions work on backend-native coordinate objects through the supplied
`add`/`dbl` callables, so each backend keeps its own point representation.
"""

from __future__ import annotations


def batch_inverse(values, modulus):
    """Inverses of `values` mod `modulus` with one modular inversion
    (Montgomery's simultaneous inversion); a zero maps to zero."""
    prefix, acc = [], 1
    for v in values:
        prefix.append(acc)
        acc = acc * v % modulus if v else acc
    inv, out = pow(acc, -1, modulus), []
    for v, before in zip(reversed(values), reversed(prefix)):
        out.append(inv * before % modulus if v else 0)
        inv = inv * v % modulus if v else inv
    return out[::-1]


def comb_table(point, add, bits):
    """Precompute per-4-bit-window multiples of a fixed base.

    tables[i][j] = j * 16^i * point; build cost ~(bits/4)*16 additions.
    """
    tables = []
    cur = point
    for _ in range((bits + 3) // 4):
        row = [None, cur]
        for _ in range(14):
            row.append(add(row[-1], cur))
        tables.append(row)
        cur = add(row[-1], cur)  # 16 * cur
    return tables


def comb_mul(k, tables, add, identity):
    """Multiply using a `comb_table`; one table addition per nonzero window."""
    acc = identity
    i = 0
    while k:
        w = k & 15
        if w:
            acc = add(acc, tables[i][w])
        k >>= 4
        i += 1
    return acc


def multi_scalar_mul(pairs, add, dbl, identity, order):
    """sum(k_i * P_i): Straus interleaving for few terms, Pippenger buckets
    for many.

    `pairs` is a list of (int scalar, native point).
    """
    pairs = [(k % order, p) for k, p in pairs]
    pairs = [(k, p) for k, p in pairs if k]
    if len(pairs) <= 192:
        return straus(pairs, add, dbl, identity)
    return _pippenger(pairs, add, dbl, identity)


def straus(pairs, add, dbl, identity):
    """sum(k_i * P_i) for non-negative k_i: one 4-bit window table per point
    and one shared doubling chain. With one pair this is fixed-window
    multiplication, and with a multiplicative `add`/`dbl` it is a power."""
    tables = []
    bits = 0
    for k, p in pairs:
        row = [None, p]
        for _ in range(14):
            row.append(add(row[-1], p))
        tables.append((k, row))
        bits = max(bits, k.bit_length())
    acc = None  # the identity until the first nonzero digit
    for shift in range(4 * ((bits - 1) // 4), -1, -4):
        if acc is not None:
            acc = dbl(dbl(dbl(dbl(acc))))
        for k, row in tables:
            digit = (k >> shift) & 15
            if digit:
                acc = row[digit] if acc is None else add(acc, row[digit])
    return identity if acc is None else acc


def _pippenger(pairs, add, dbl, identity):
    m = len(pairs)
    c = 8 if m > 384 else 6
    bits = max(k.bit_length() for k, _ in pairs)
    nwin = (bits + c - 1) // c
    mask = (1 << c) - 1
    result = identity
    for w in range(nwin - 1, -1, -1):
        if result is not identity:
            for _ in range(c):
                result = dbl(result)
        buckets = [identity] * (mask + 1)
        shift = w * c
        for k, p in pairs:
            digit = (k >> shift) & mask
            if digit:
                buckets[digit] = add(buckets[digit], p)
        running = identity
        acc = identity
        for b in range(mask, 0, -1):
            running = add(running, buckets[b])
            acc = add(acc, running)
        result = add(result, acc)
    return result
