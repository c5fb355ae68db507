"""Anytrust range proofs: a value encrypted as (C1, C2) = (rB, mB + r*Omega)
is shown to lie in [0, u^l) without revealing it.

Setup: each computing node i picks a secret x_i and publishes Z_i = x_i*B
together with digit signatures A_{i,b} = (x_i + b)^{-1} * B for every base-u
digit b. A prover decomposes m into digits and, for each digit and EVERY
node, blinds that node's signature on the digit (V_{i,j} = v_j * A_{i,m_j}).
Since at least one node's x_i is unknown to the prover (the Anytrust
premise), the blinded signatures are unforgeable for any digit value the
nodes did not sign.

Verification checks two linear equations over the ciphertext,

    D == c*C2 + z_r*Omega + sum_j (u^j * z_mj) * B,
    D1 == c*C1 + z_r*B,

as one `transcript.Batch`: the first binds the digit responses to the
committed value, and the second, through the z_r both share, binds C2's
nonce to C1, so that the ciphertext decrypts to the proved value. Per
(node, digit) one pairing equation,

    a_{i,j} == e(V_{i,j}, Z_i)^c * e(V_{i,j}, B)^{-z_mj} * e(B, B)^{z_vj}.

The challenge c is the transcript hash over the statement (C1 and C2
among it) AND the commitments (D, D1, every V_{i,j}, every a_{i,j});
binding the commitments is what makes the non-interactive proof sound. C1
is not on the wire: a verifier passes the C1 of the ciphertext it holds.

Arbitrary ranges [b_l, b_u) reduce to this form by proving both m - b_l
and m - b_u + u^l in [0, u^l) with minimal l (`prove_bounded` and
`verify_bounded`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MalformedProof, OutOfRange
from ..group import require_pairing
from ..serial import Reader, pack_u8, pack_u32
from .transcript import Batch, Transcript

_TAG = 0x02
DEFAULT_DIGIT_BASE = 16


@dataclass(frozen=True)
class RangeSignatures:
    """Public per-CN signature material for digits 0..u-1."""

    group: object
    u: int
    z_points: tuple  # Z_i per CN
    digit_sigs: tuple  # digit_sigs[i][b] = (x_i + b)^{-1} * B

    @property
    def n_cns(self) -> int:
        return len(self.z_points)


def range_setup(group, u: int, n_cns: int, rng):
    """Generate each CN's secret x_i and the published signatures.

    Returns (RangeSignatures, secrets); in a deployment each CN keeps its
    own x_i and only the public part circulates.
    """
    require_pairing(group)
    if u < 2:
        raise OutOfRange("digit base u must be at least 2")
    if n_cns < 1:
        raise OutOfRange("need at least one CN")
    base = group.base()
    secrets, z_points, digit_sigs = [], [], []
    for _ in range(n_cns):
        while True:
            x = group.random_scalar(rng)
            if all((x + b) % group.order != 0 for b in range(u)):
                break
        secrets.append(x)
        z_points.append(group.mul(x, base))
        row = tuple(
            group.mul(pow(x + b, -1, group.order), base) for b in range(u)
        )
        digit_sigs.append(row)
    return RangeSignatures(group, u, tuple(z_points), tuple(digit_sigs)), secrets


@dataclass(frozen=True)
class RangeProof:
    c2: object
    challenge: int
    z_r: int
    z_v: tuple  # per digit j
    z_m: tuple  # per digit j
    d_point: object
    d1_point: object
    v_points: tuple  # v_points[i][j], per CN i and digit j
    a_elems: tuple  # a_elems[i][j], target-group elements
    u: int
    l: int

    def encode(self) -> bytes:
        enc_s = self.c2.group.encode_scalar
        out = [
            pack_u8(_TAG),
            pack_u32(self.u),
            pack_u32(self.l),
            pack_u32(len(self.v_points)),
            self.c2.encode(),
            self.d_point.encode(),
            self.d1_point.encode(),
            enc_s(self.challenge),
            enc_s(self.z_r),
        ]
        out.extend(enc_s(z) for z in self.z_v)
        out.extend(enc_s(z) for z in self.z_m)
        for row in self.v_points:
            out.extend(p.encode() for p in row)
        for row in self.a_elems:
            out.extend(a.encode() for a in row)
        return b"".join(out)


def range_params(bounds: tuple[int, int], u: int = DEFAULT_DIGIT_BASE):
    """Minimal digit count l with u^l >= b_u - b_l."""
    b_l, b_u = bounds
    if b_u <= b_l:
        raise OutOfRange(f"empty range [{b_l}, {b_u})")
    width = b_u - b_l
    l = 1
    cap = u
    while cap < width:
        cap *= u
        l += 1
    return u, l


def bounded_shifts(bounds: tuple[int, int], u: int):
    """Digit count l and the two shifts (b_l, b_u - u^l) of [b_l, b_u).

    m lies in [b_l, b_u) iff m minus EACH shift lies in [0, u^l); a single
    shifted proof only bounds m by [b_l, b_l + u^l), which overshoots
    whenever u^l exceeds the range width.
    """
    _, l = range_params(bounds, u)
    return l, (bounds[0], bounds[1] - u**l)


def _digits(m: int, u: int, l: int) -> list[int]:
    out = []
    for _ in range(l):
        out.append(m % u)
        m //= u
    return out


def _transcript(group, omega, sigs, c1, c2, d_point, d1_point, v_points, a_elems,
                u, l) -> Transcript:
    """The range transcript over the statement and the commitments, from
    which the challenge is drawn."""
    tr = Transcript(group, "range")
    tr.absorb(group.base(), omega, c1, c2, u, l, len(sigs.z_points))
    tr.absorb(*sigs.z_points)
    tr.absorb(d_point, d1_point)
    for row in v_points:
        tr.absorb(*row)
    for row in a_elems:
        tr.absorb(*row)
    return tr


def prove_range(group, m: int, r_nonce: int, omega, sigs: RangeSignatures,
                l: int, rng) -> RangeProof:
    """Prove (C1, C2) = (rB, mB + r*Omega) encrypts m in [0, u^l)."""
    if not 0 <= m < sigs.u**l:
        raise OutOfRange(f"{m} outside [0, {sigs.u}^{l})")
    return prove_range_unchecked(group, m, r_nonce, omega, sigs, l, rng)


def prove_range_unchecked(group, m: int, r_nonce: int, omega,
                          sigs: RangeSignatures, l: int, rng,
                          digits=None) -> RangeProof:
    """Range-proof transcript without the domain check; with `digits` not
    matching m the proof cannot verify. Models a cheating prover in the
    fault-injection tests and harness."""
    u = sigs.u
    order = group.order
    base = group.base()
    c1 = group.mul(r_nonce, base)
    c2 = group.mul(m, base) + group.mul(r_nonce, omega)
    digits = digits if digits is not None else _digits(m % u**l, u, l)

    e_bb = group.pair(base, base)
    s_list, t_list, v_list = [], [], []
    v_points = [[] for _ in range(sigs.n_cns)]
    a_elems = [[] for _ in range(sigs.n_cns)]
    for j in range(l):
        s_j = group.random_scalar(rng)
        t_j = group.random_scalar(rng)
        v_j = group.random_scalar(rng)
        s_list.append(s_j)
        t_list.append(t_j)
        v_list.append(v_j)
        for i in range(sigs.n_cns):
            v_ij = group.mul(v_j, sigs.digit_sigs[i][digits[j]])
            v_points[i].append(v_ij)
            e_vb = group.pair(v_ij, base)
            a_elems[i].append(group.gt_msm([(s_j, e_vb.conjugate()), (t_j, e_bb)]))
    n_nonce = group.random_scalar(rng)
    d_point = group.msm(
        [(pow(u, j, order) * s_list[j] % order, base) for j in range(l)]
        + [(n_nonce, omega)]
    )
    d1_point = group.mul(n_nonce, base)
    v_points = tuple(tuple(row) for row in v_points)
    a_elems = tuple(tuple(row) for row in a_elems)
    c = _transcript(group, omega, sigs, c1, c2, d_point, d1_point, v_points, a_elems,
                    u, l).challenge()
    z_v = tuple((t_list[j] - v_list[j] * c) % order for j in range(l))
    z_m = tuple((s_list[j] - digits[j] * c) % order for j in range(l))
    z_r = (n_nonce - r_nonce * c) % order
    return RangeProof(c2, c, z_r, z_v, z_m, d_point, d1_point, v_points, a_elems, u, l)


def verify_range(proof: RangeProof, sigs: RangeSignatures, omega, c1) -> bool:
    """Check the proof against the ciphertext (c1, proof.c2): its two linear
    equations as one batch, then all pairing equations."""
    group = sigs.group
    u, l = proof.u, proof.l
    if u != sigs.u or l < 1:
        return False
    if len(proof.v_points) != sigs.n_cns or len(proof.a_elems) != sigs.n_cns:
        return False
    if any(len(row) != l for row in proof.v_points):
        return False
    if any(len(row) != l for row in proof.a_elems):
        return False
    if len(proof.z_v) != l or len(proof.z_m) != l:
        return False
    tr = _transcript(group, omega, sigs, c1, proof.c2, proof.d_point, proof.d1_point,
                     proof.v_points, proof.a_elems, u, l)
    c = tr.challenge()
    if c != proof.challenge:
        return False
    order = group.order
    base = group.base()
    digits_term = sum(pow(u, j, order) * proof.z_m[j] for j in range(l)) % order
    batch = Batch(group, b"privq/range-batch", tr.absorb(proof.z_r, *proof.z_m).digest(), 2)
    r = batch.equation()  # c*C2 + z_r*Omega + digits_term*B - D
    for k, point in ((c, proof.c2), (proof.z_r, omega), (digits_term, base),
                     (-1, proof.d_point)):
        batch.add(r * k, point)
    r = batch.equation()  # c*C1 + z_r*B - D1
    for k, point in ((c, c1), (proof.z_r, base), (-1, proof.d1_point)):
        batch.add(r * k, point)
    if not batch.holds():
        return False
    e_bb = group.pair(base, base)
    for i in range(sigs.n_cns):
        z_i = sigs.z_points[i]
        for j in range(l):
            v_ij = proof.v_points[i][j]
            expected = group.gt_msm([
                (c, group.pair(v_ij, z_i)),
                (proof.z_m[j], group.pair(v_ij, base).conjugate()),
                (proof.z_v[j], e_bb),
            ])
            if expected != proof.a_elems[i][j]:
                return False
    return True


def prove_bounded(group, m: int, r_nonce: int, omega, sigs: RangeSignatures,
                  bounds: tuple[int, int], rng) -> tuple[RangeProof, RangeProof]:
    """Prove that (C1, C2) = (rB, mB + r*Omega) encrypts m in [b_l, b_u): one proof
    per shift of `bounded_shifts` under the setup's digit base.

    An out-of-range m still gets both proofs, and the one whose shifted
    value leaves [0, u^l) cannot verify; a cheating prover is caught by a
    false proof rather than by a missing one.
    """
    l, shifts = bounded_shifts(bounds, sigs.u)
    proofs = []
    for shift in shifts:
        shifted = m - shift
        prove = prove_range if 0 <= shifted < sigs.u**l else prove_range_unchecked
        proofs.append(prove(group, shifted, r_nonce, omega, sigs, l, rng))
    return tuple(proofs)


def verify_bounded(ct, proofs, bounds: tuple[int, int], sigs: RangeSignatures,
                   omega) -> bool:
    """Check a `prove_bounded` pair against the ciphertext `ct`: each proof
    has the setup's base and the minimal l, commits to ct.c2 minus its
    shift times B, and verifies with ct.c1."""
    group = sigs.group
    l, shifts = bounded_shifts(bounds, sigs.u)
    lower, upper = proofs
    for proof, shift in zip((lower, upper), shifts):
        if (proof.u, proof.l) != (sigs.u, l):
            return False
        if proof.c2 != ct.c2 - group.mul(shift, group.base()):
            return False
        if not verify_range(proof, sigs, omega, ct.c1):
            return False
    return True


def decode_range(group, data: bytes, memo=None) -> RangeProof:
    reader = Reader(data, group, memo=memo)
    if reader.u8() != _TAG:
        raise MalformedProof("wrong proof type tag")
    u = reader.u32()
    l = reader.u32()
    n_cns = reader.u32()
    if not (2 <= u <= 4096 and 1 <= l <= 64 and 1 <= n_cns <= 64):
        raise MalformedProof("implausible proof shape")
    c2 = reader.point()
    d_point = reader.commitment()
    d1_point = reader.commitment()
    challenge = reader.scalar()
    z_r = reader.scalar()
    z_v = tuple(reader.scalar() for _ in range(l))
    z_m = tuple(reader.scalar() for _ in range(l))
    v_points = tuple(tuple(reader.commitment() for _ in range(l)) for _ in range(n_cns))
    a_elems = tuple(tuple(reader.gt() for _ in range(l)) for _ in range(n_cns))
    reader.expect_done()
    return RangeProof(c2, challenge, z_r, z_v, z_m, d_point, d1_point, v_points, a_elems,
                      u, l)
