"""Verifiable shuffle of ElGamal pairs.

`shuffle_and_prove` permutes a ciphertext list with a secret permutation
psi, rerandomizes every pair with a fresh secret factor, and emits an
argument that some such (psi, factors) exists, revealing neither: output
i is input psi(i) plus (beta_psi(i)*B, beta_psi(i)*Omega).

Construction: the Terelius-Wikstrom proof of a shuffle (AFRICACRYPT
2010), as written in pseudo-code by Haenni, Locher, Koenig & Dubuis (FC
2017 workshops, `GenShuffleProof` / `CheckShuffleProof`), made
non-interactive with Fiat-Shamir. The prover commits to the permutation
with c_psi(i) = r_psi(i)*B + h_i, and to the challenges it permutes, u'_i
= u_psi(i), with the chain c^_i = r^_i*B + u'_i*c^_{i-1}, c^_0 = h. The
transcript, in absorb order, is:

    statement : base B, key Omega, n, inputs (X_j, Y_j), outputs (Xb_i, Yb_i)
    round 1   : c_1..c_n                                   -> u_1..u_n
    round 2   : c^_1..c^_n, t_1, t_2, t_3, t_4 (a pair),
                t^_1..t^_n                                 -> c
    round 3   : s_1, s_2, s_3, s_4, s^_1..s^_n, s'_1..s'_n

Verification checks these n + 5 equations as one `transcript.Batch`, with
weights hashed from the whole transcript (from the transcripts of all
proofs checked together):

    t_1   == s_1*B - c*(sum c_j - sum h_i)
    t_2   == s_2*B - c*(c^_n - (prod u_j)*h)
    t_3   == s_3*B + sum s'_i*h_i - c*sum u_j*c_j
    t_4   == sum s'_i*(Xb_i, Yb_i) - c*sum u_j*(X_j, Y_j) - s_4*(B, Omega)
    t^_i  == s^_i*B + s'_i*c^_{i-1} - c*c^_i          (i = 1..n)

The first three force the c_j to commit to a permutation matrix and the
c^_i to the product of the u_j; the t_4 pair then forces the outputs to be
a rerandomization of the inputs under that permutation.

Generators: h, h_1, h_2, ... are `group.hash_to_point` of the label
"shuffle/" and the index 0, 1, 2, ..., so nobody knows a discrete-log
relation among them or to B. They are public constants: each process
derives them once, at its first shuffle or check, and every proof of any
size uses a prefix of the same list. Only h gets a comb table, which the
prover's c^_i and t^_i use.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..elgamal import Ciphertext
from ..errors import EmptyList, MalformedProof
from ..serial import Reader, pack_u8, pack_u32
from .transcript import Batch, Transcript

_TAG = 0x03

_GENERATORS = {}  # group -> [h, h_1, h_2, ...], derived as far as needed


def _generators(group, n: int) -> list:
    """h, h_1..h_n (module docstring)."""
    known = _GENERATORS.setdefault(group, [])
    while len(known) <= n:
        known.append(group.hash_to_point(b"shuffle/" + pack_u32(len(known))))
        if len(known) == 1:
            group.precompute(known[0])
    return known[:n + 1]


@dataclass(frozen=True)
class ShuffleProof:
    inputs: tuple  # Ciphertext list
    outputs: tuple
    omega: object
    c_pts: tuple  # permutation commitments c_1..c_n
    c_hat: tuple  # chain commitments c^_1..c^_n
    t_1: object
    t_2: object
    t_3: object
    t_4: tuple  # (on the first components, on the second)
    t_hat: tuple
    s_1: int
    s_2: int
    s_3: int
    s_4: int
    s_hat: tuple
    s_prime: tuple

    def points(self) -> tuple:
        """The prover's points, in wire and transcript order after c_pts."""
        return (*self.c_hat, self.t_1, self.t_2, self.t_3, *self.t_4, *self.t_hat)

    def scalars(self) -> tuple:
        return (self.s_1, self.s_2, self.s_3, self.s_4, *self.s_hat, *self.s_prime)

    def encode(self) -> bytes:
        enc_s = self.omega.group.encode_scalar
        out = [pack_u8(_TAG), pack_u32(len(self.inputs)), self.omega.encode()]
        out.extend(ct.encode() for ct in (*self.inputs, *self.outputs))
        out.extend(p.encode() for p in (*self.c_pts, *self.points()))
        out.extend(enc_s(s) for s in self.scalars())
        return b"".join(out)


def _statement_transcript(group, inputs, outputs, omega) -> Transcript:
    tr = Transcript(group, "shuffle")
    tr.absorb(group.base(), omega, len(inputs))
    for ct in inputs:
        tr.absorb(ct)
    for ct in outputs:
        tr.absorb(ct)
    return tr


def shuffle_and_prove(group, inputs, omega, rng):
    """Return (outputs, proof); outputs decrypt to a permutation of inputs."""
    n = len(inputs)
    if n == 0:
        raise EmptyList("cannot shuffle an empty ciphertext list")
    order = group.order
    base = group.base()
    h, *hs = _generators(group, n)

    perm = list(range(n))
    for i in range(n - 1, 0, -1):  # Fisher-Yates on the node's rng
        j = rng.randbelow(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    beta = [group.random_scalar(rng) for _ in range(n)]
    outputs = tuple(
        Ciphertext(
            inputs[perm[i]].c1 + group.mul(beta[perm[i]], base),
            inputs[perm[i]].c2 + group.mul(beta[perm[i]], omega),
        )
        for i in range(n)
    )

    inv_perm = [0] * n
    for i, p in enumerate(perm):
        inv_perm[p] = i
    r = [group.random_scalar(rng) for _ in range(n)]
    c_pts = tuple(group.msm([(r[j], base), (1, hs[inv_perm[j]])]) for j in range(n))
    tr = _statement_transcript(group, inputs, outputs, omega)
    u = tr.absorb(*c_pts).challenge_vector(n)

    # c^_i = R_i*B + U_i*h and t^_i = w^_i*B + w'_i*c^_{i-1}, as scalars of B and h
    r_hat = [group.random_scalar(rng) for _ in range(n)]
    w = [group.random_scalar(rng) for _ in range(4)]
    w_hat = [group.random_scalar(rng) for _ in range(n)]
    w_prime = [group.random_scalar(rng) for _ in range(n)]
    c_hat, t_hat, big_r, big_u = [], [], 0, 1
    for i in range(n):
        t_hat.append(group.msm([((w_hat[i] + w_prime[i] * big_r) % order, base),
                                (w_prime[i] * big_u % order, h)]))
        big_r = (r_hat[i] + u[perm[i]] * big_r) % order
        big_u = big_u * u[perm[i]] % order
        c_hat.append(group.msm([(big_r, base), (big_u, h)]))
    t_1, t_2 = group.mul(w[0], base), group.mul(w[1], base)
    t_3 = group.msm([(w[2], base), *zip(w_prime, hs)])
    t_4 = (group.msm([(-w[3], base), *((wp, ct.c1) for wp, ct in zip(w_prime, outputs))]),
           group.msm([(-w[3], omega), *((wp, ct.c2) for wp, ct in zip(w_prime, outputs))]))
    tr.absorb(*c_hat, t_1, t_2, t_3, *t_4, *t_hat)
    c = tr.challenge()

    proof = ShuffleProof(
        tuple(inputs), outputs, omega, c_pts, tuple(c_hat), t_1, t_2, t_3, t_4, tuple(t_hat),
        (w[0] + c * sum(r)) % order,
        (w[1] + c * big_r) % order,
        (w[2] + c * sum(rj * uj for rj, uj in zip(r, u))) % order,
        (w[3] + c * sum(bj * uj for bj, uj in zip(beta, u))) % order,
        tuple((w_hat[i] + c * r_hat[i]) % order for i in range(n)),
        tuple((w_prime[i] + c * u[perm[i]]) % order for i in range(n)),
    )
    return outputs, proof


def _challenges(proof: ShuffleProof):
    """(u, c, digest) recomputed from the proof's transcript, its digest
    covering every field, or None if the proof's shape does not check."""
    n = len(proof.inputs)
    if n == 0 or len(proof.outputs) != n or len(proof.t_4) != 2:
        return None
    if any(len(series) != n for series in (proof.c_pts, proof.c_hat, proof.t_hat,
                                           proof.s_hat, proof.s_prime)):
        return None
    tr = _statement_transcript(proof.omega.group, proof.inputs, proof.outputs, proof.omega)
    u = tr.absorb(*proof.c_pts).challenge_vector(n)
    c = tr.absorb(*proof.points()).challenge()
    return u, c, tr.absorb(*proof.scalars()).digest()


def _add_equations(batch: Batch, proof: ShuffleProof, u, c, generators):
    """The proof's n + 5 equations, each weighted by the batch."""
    group, put = batch.group, batch.add
    base, h = group.base(), generators[0]
    g1, g2, g3, g4, g5 = (batch.equation() for _ in range(5))
    put(-g1, proof.t_1)
    put(-g2, proof.t_2)
    put(-g3, proof.t_3)
    put(-g4, proof.t_4[0])
    put(-g5, proof.t_4[1])
    put(g1 * proof.s_1 + g2 * proof.s_2 + g3 * proof.s_3 - g4 * proof.s_4, base)
    put(-g5 * proof.s_4, proof.omega)
    prod_u = 1
    for uj in u:
        prod_u = prod_u * uj % group.order
    put(g2 * c * prod_u, h)
    put(-g2 * c, proof.c_hat[-1])
    for j, (uj, sp, hj) in enumerate(zip(u, proof.s_prime, generators[1:])):
        put(-c * (g1 + g3 * uj), proof.c_pts[j])
        put(g1 * c + g3 * sp, hj)
        put(g4 * sp, proof.outputs[j].c1)
        put(g5 * sp, proof.outputs[j].c2)
        put(-g4 * c * uj, proof.inputs[j].c1)
        put(-g5 * c * uj, proof.inputs[j].c2)
    previous = h
    for t_hat, s_hat, sp, c_hat in zip(proof.t_hat, proof.s_hat, proof.s_prime, proof.c_hat):
        g = batch.equation()
        put(-g, t_hat)
        put(g * s_hat, base)
        put(g * sp, previous)
        put(-g * c, c_hat)
        previous = c_hat


def verify_shuffle(*proofs: ShuffleProof) -> bool:
    """True iff every proof's shape checks and all its equations hold: the
    equations of every proof are checked as one `Batch`, with weights
    hashed from the transcripts of all of them. A chain's links share
    points (one link's outputs are the next one's inputs, and every link
    uses the same generators), which then share one MSM term."""
    if not proofs:
        return True
    checks = [_challenges(proof) for proof in proofs]
    if None in checks:
        return False
    group = proofs[0].omega.group
    generators = _generators(group, max(len(proof.inputs) for proof in proofs))
    batch = Batch(group, b"privq/shuffle-batch", b"".join(digest for *_, digest in checks),
                  sum(len(proof.inputs) + 5 for proof in proofs))
    for proof, (u, c, _) in zip(proofs, checks):
        _add_equations(batch, proof, u, c, generators)
    return batch.holds()


def decode_shuffle(group, data: bytes, memo=None) -> ShuffleProof:
    reader = Reader(data, group, memo=memo)
    if reader.u8() != _TAG:
        raise MalformedProof("wrong proof type tag")
    n = reader.u32()
    if not 1 <= n <= 100000:
        raise MalformedProof("implausible shuffle size")
    omega = reader.point()
    inputs = tuple(Ciphertext.read(reader) for _ in range(n))
    outputs = tuple(Ciphertext.read(reader) for _ in range(n))
    c_pts, c_hat = (tuple(reader.commitment() for _ in range(n)) for _ in range(2))
    t_1, t_2, t_3 = (reader.commitment() for _ in range(3))
    t_4 = (reader.commitment(), reader.commitment())
    t_hat = tuple(reader.commitment() for _ in range(n))
    s_1, s_2, s_3, s_4 = (reader.scalar() for _ in range(4))
    s_hat, s_prime = (tuple(reader.scalar() for _ in range(n)) for _ in range(2))
    reader.expect_done()
    return ShuffleProof(inputs, outputs, omega, c_pts, c_hat, t_1, t_2, t_3, t_4, t_hat,
                        s_1, s_2, s_3, s_4, s_hat, s_prime)
