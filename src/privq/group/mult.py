"""Signed-digit scalar-multiplication kernels shared by the curve backends
and the pairing target group.

A kernel sees a point in two forms, through the backend's `Ops`:

- an accumulator, the backend's projective point, which `dbl(acc, n)`
  doubles n times;
- an entry, the form a point takes in a table or as an MSM input, which
  `add(accumulator, entry)` adds and `neg` negates for the cost of a
  field negation. `entry` converts one accumulator, and `entries` a
  table's worth, which a backend may normalize with one inversion.

On ed25519 an accumulator is an extended (X, Y, Z, T) and an entry the
cached (Y+X, Y-X, 2Z, 2d*T) of Bernstein et al. (CHES 2011), added with
the 8-multiplication mixed formula; on the pairing curve both are Jacobian
points, tables normalized to Z = 1 so that they add with the mixed
formula, and in the target group both are GtElements. Kernels return an
accumulator, with None for the identity.

Every scalar is recoded into signed digits (Moeller, SAC 2001): width-5
wNAF in Straus, signed c-bit windows over 2^(c-1) buckets in Pippenger and
signed 5-bit windows in the comb. `msm` first folds each scalar: k is
reduced mod the order and k > order/2 is taken as order - k with every
digit negated, so a negated short scalar stays short. Folding uses
order * P = identity, which holds on the prime-order subgroup.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

WNAF_WIDTH = 5  # Straus: 8 odd multiples per point
COMB_WIDTH = 5  # comb rows of 16 multiples


class Ops(NamedTuple):
    add: Callable  # (accumulator, entry) -> accumulator
    dbl: Callable  # (accumulator, n) -> 2^n * accumulator
    entry: Callable  # accumulator -> entry
    entries: Callable  # accumulators -> entries, for tables
    lift: Callable  # entry -> accumulator
    neg: Callable  # entry -> -entry


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


def fold(k, order):
    """(k', s) with k = s * k' mod order, s = +-1 and 0 <= k' <= order/2."""
    k %= order
    return (order - k, -1) if k > order >> 1 else (k, 1)


def signed_windows(k, c):
    """Digits of k >= 0 in base 2^c, least significant first, each in
    (-2^(c-1), 2^(c-1)]; k < 2^b takes (b + c) // c of them."""
    half, full, mask = 1 << (c - 1), 1 << c, (1 << c) - 1
    digits = []
    while k:
        d = k & mask
        k >>= c
        if d > half:
            d -= full
            k += 1
        digits.append(d)
    return digits


def wnaf(k):
    """(position, digit) for the nonzero width-5 NAF digits of k >= 0: odd
    digits below 16 in magnitude, at least 5 positions apart."""
    w = WNAF_WIDTH
    half, full, mask = 1 << (w - 1), 1 << w, (1 << w) - 1
    out, pos = [], 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        d = k & mask
        if d >= half:
            d -= full
        out.append((pos, d))
        k = (k - d) >> w
        pos += w
    return out


def window(m, bits):
    """Pippenger's window width for m terms below 2^bits, or 0 where Straus
    costs less. The model counts additions: (bits + 1)/c windows of m bucket
    additions and 2^c reduction additions for Pippenger, and per term a
    table of 8 plus one addition per w + 1 bits for Straus, weighted by 4/3:
    Straus adds projective table entries where Pippenger adds its affine
    inputs, and timed on both curves its term cost a third more than
    counted. The shared doubling chain costs both the same."""
    best = 4 * m * (min(1 << (WNAF_WIDTH - 2), bits) + -(-bits // (WNAF_WIDTH + 1))) // 3
    best_c = 0
    for c in range(2, 17):
        cost = (bits + c) // c * (m + (1 << c))
        if cost < best:
            best, best_c = cost, c
    return best_c


def straus(terms, ops):
    """sum(s * k * P) over (k >= 0, s = +-1, entry P) terms: per point a
    table of the odd multiples up to the largest wNAF digit of k, at most
    min(k, 15), and one doubling chain. With one term this is a width-5
    wNAF multiplication."""
    add, dbl, entry, entries, lift, neg = ops
    terms = [t for t in terms if t[0]]
    biggest = (1 << (WNAF_WIDTH - 1)) - 1  # the largest wNAF digit
    odd = []  # 3P, 5P, ... of every term, in one list for `entries`
    for k, _, p in terms:
        if k > 2:
            cur = lift(p)
            two = entry(dbl(cur, 1))
            for _ in range((min(k, biggest) - 1) // 2):
                cur = add(cur, two)
                odd.append(cur)
    odd = entries(odd)
    slots, start = {}, 0  # slots: bit position -> entries to add there
    for k, s, p in terms:
        end = start + (min(k, biggest) - 1) // 2
        table = [(e, neg(e)) if s > 0 else (neg(e), e) for e in (p, *odd[start:end])]
        start = end
        for pos, d in wnaf(k):
            slots.setdefault(pos, []).append(table[abs(d) >> 1][d < 0])
    acc = last = None
    for pos in sorted(slots, reverse=True):
        if acc is not None:
            acc = dbl(acc, last - pos)
        for e in slots[pos]:
            acc = lift(e) if acc is None else add(acc, e)
        last = pos
    if last:
        acc = dbl(acc, last)
    return acc


def pippenger(terms, ops, c):
    """sum(s * k * P) over (k >= 0, s = +-1, entry P) terms with signed c-bit
    windows: per window, each term goes into the bucket of its digit's
    magnitude, as P or -P, and 2^(c-1) buckets are summed by running sums."""
    add, dbl, entry, _, lift, neg = ops
    nwin = (max(k for k, _, _ in terms).bit_length() + c) // c
    slots = [([], []) for _ in range(nwin)]  # per window: bucket indices, entries
    for k, s, p in terms:
        plus, minus = (p, neg(p)) if s > 0 else (neg(p), p)
        for (indices, entries), d in zip(slots, signed_windows(k, c)):
            if d:
                indices.append(abs(d) - 1)  # buckets[b - 1] for digits +-b
                entries.append(plus if d > 0 else minus)
    result = None
    for indices, entries in reversed(slots):
        if result is not None:
            result = dbl(result, c)
        buckets = [None] * (1 << (c - 1))
        for b, e in zip(indices, entries):
            bucket = buckets[b]
            buckets[b] = lift(e) if bucket is None else add(bucket, e)
        running = total = None
        for bucket in reversed(buckets):
            if bucket is not None:
                running = bucket if running is None else add(running, entry(bucket))
            if running is not None:
                total = running if total is None else add(total, entry(running))
        if total is not None:
            result = total if result is None else add(result, entry(total))
    return result


def comb_table(point, ops, bits):
    """Rows of entries j * 2^(w*i) * P, j = 1..2^(w-1), for the signed w-bit
    windows (w = 5) of scalars below 2^bits, from P's accumulator. Even
    multiples are doublings and odd ones one addition."""
    add, dbl, entry, w = ops.add, ops.dbl, ops.entry, COMB_WIDTH
    flat, cur, width = [], point, 1 << (w - 1)
    for _ in range((bits + w) // w):
        row, e = [cur], entry(cur)
        for j in range(2, width + 1):
            row.append(dbl(row[j // 2 - 1], 1) if j % 2 == 0 else add(row[-1], e))
        flat += row
        cur = dbl(row[-1], 1)
    flat = ops.entries(flat)
    return [flat[i:i + width] for i in range(0, len(flat), width)]


def comb_mul(k, s, rows, ops, acc=None):
    """acc + s * k * P with P's comb rows: one table addition per nonzero
    signed window of k."""
    add, lift, neg = ops.add, ops.lift, ops.neg
    for row, d in zip(rows, signed_windows(k, COMB_WIDTH)):
        if d:
            e = row[abs(d) - 1]
            if (d > 0) != (s > 0):
                e = neg(e)
            acc = lift(e) if acc is None else add(acc, e)
    return acc


def msm(terms, ops, order):
    """sum(k * P) over (int k, entry P, comb rows of P or None) terms. The
    terms without rows go through Straus or Pippenger, whichever `window`
    prices lower, and each term with rows walks them into the same
    accumulator."""
    loose, combed = [], []
    for k, p, rows in terms:
        k, s = fold(k, order)
        if k:
            if rows is None:
                loose.append((k, s, p))
            else:
                combed.append((k, s, rows))
    acc = None
    if loose:
        c = window(len(loose), max(k for k, _, _ in loose).bit_length())
        acc = pippenger(loose, ops, c) if c else straus(loose, ops)
    for k, s, rows in combed:
        acc = comb_mul(k, s, rows, ops, acc)
    return acc
