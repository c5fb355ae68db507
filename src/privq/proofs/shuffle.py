"""Verifiable shuffle of ElGamal pairs.

`shuffle_and_prove` permutes a ciphertext list with a secret permutation
pi, rerandomizes every pair with a fresh secret factor, and emits an
argument that some such (pi, factors) exists, revealing neither.

Construction: a Fiat-Shamir version of the chained-commitment shuffle
argument (simple k-shuffle on exponents, lifted to ElGamal pairs). The
transcript, in absorb order, is:

    statement : base B, key Omega, inputs (X_i, Y_i), outputs (Xb_i, Yb_i)
    round 1   : Gamma, A_i, C_i, U_i, W_i, Lambda1, Lambda2   -> rho_i
    round 2   : D_i                                           -> lambda
    round 3   : sigma_i, tau                                  -> t
    round 4   : Theta_i (2n commitments)                      -> c
    round 5   : alpha_i (2n responses)

Verification checks, as one `transcript.Batch` with weights hashed from
the whole transcript (from the transcripts of all proofs checked
together):

    Theta_i == alpha_i*Rh_i - alpha_{i+1}*Sh_i          (i < n)
    Theta_i == alpha_i*Gamma - alpha_{(i+1) mod 2n}*B   (n <= i < 2n)
    sigma_i*Gamma == W_i + D_i
    sum sigma_i*Xb_i - sum rho_j*X_j == Lambda1 + tau*B
    sum sigma_i*Yb_i - sum rho_j*Y_j == Lambda2 + tau*Omega

with Rh_i = A_i + lambda*(rho_i*B - U_i) - t*B and
Sh_i = C_i + lambda*D_i - t*Gamma. The chained Theta equations force the
committed exponent lists to be related by a scalar gamma and a permutation
(a polynomial-identity test at the random point t); the Lambda equations
then force each output pair to be a rerandomization, with one shared
factor per pair, of the permuted input pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..elgamal import Ciphertext
from ..errors import EmptyList, MalformedProof
from ..serial import Reader, pack_u8, pack_u32
from .transcript import Batch, Transcript

_TAG = 0x03


@dataclass(frozen=True)
class ShuffleProof:
    inputs: tuple  # Ciphertext list
    outputs: tuple
    omega: object
    gamma_pt: object
    a_pts: tuple
    c_pts: tuple
    u_pts: tuple
    w_pts: tuple
    lambda1: object
    lambda2: object
    d_pts: tuple
    sigma: tuple  # scalars
    tau: int
    theta_pts: tuple  # 2n commitments
    alpha: tuple  # 2n scalars

    def encode(self) -> bytes:
        enc_s = self.gamma_pt.group.encode_scalar
        n = len(self.inputs)
        out = [pack_u8(_TAG), pack_u32(n), self.omega.encode()]
        for ct in self.inputs:
            out.append(ct.encode())
        for ct in self.outputs:
            out.append(ct.encode())
        out.append(self.gamma_pt.encode())
        for series in (self.a_pts, self.c_pts, self.u_pts, self.w_pts):
            out.extend(p.encode() for p in series)
        out.append(self.lambda1.encode())
        out.append(self.lambda2.encode())
        out.extend(p.encode() for p in self.d_pts)
        out.extend(enc_s(s) for s in self.sigma)
        out.append(enc_s(self.tau))
        out.extend(p.encode() for p in self.theta_pts)
        out.extend(enc_s(a) for a in self.alpha)
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

    a = [group.random_scalar(rng) for _ in range(n)]
    u = [group.random_scalar(rng) for _ in range(n)]
    w = [group.random_scalar(rng) for _ in range(n)]
    tau0 = group.random_scalar(rng)
    gamma = 0
    while gamma == 0:
        gamma = group.random_scalar(rng)

    inv_perm = [0] * n
    for i, p in enumerate(perm):
        inv_perm[p] = i

    gamma_pt = group.mul(gamma, base)
    a_pts = tuple(group.mul(ai, base) for ai in a)
    c_pts = tuple(group.mul(gamma * a[perm[i]] % order, base) for i in range(n))
    u_pts = tuple(group.mul(ui, base) for ui in u)
    w_pts = tuple(group.mul(gamma * wi % order, base) for wi in w)
    lam_scalar = (tau0 + sum(w[i] * beta[perm[i]] for i in range(n))) % order
    lambda1 = group.msm(
        [(lam_scalar, base)]
        + [((w[inv_perm[j]] - u[j]) % order, inputs[j].c1) for j in range(n)]
    )
    lambda2 = group.msm(
        [(lam_scalar, omega)]
        + [((w[inv_perm[j]] - u[j]) % order, inputs[j].c2) for j in range(n)]
    )

    tr = _statement_transcript(group, inputs, outputs, omega)
    tr.absorb(gamma_pt, *a_pts, *c_pts, *u_pts, *w_pts, lambda1, lambda2)
    rho = tr.challenge_vector(n)

    b = [(rho[i] - u[i]) % order for i in range(n)]
    d_pts = tuple(group.mul(gamma * b[perm[i]] % order, base) for i in range(n))
    tr.absorb(*d_pts)
    lam = tr.challenge()

    r = [(a[i] + lam * b[i]) % order for i in range(n)]
    s = [gamma * r[perm[i]] % order for i in range(n)]
    sigma = tuple((w[i] + b[perm[i]]) % order for i in range(n))
    tau = (-tau0 + sum(b[j] * beta[j] for j in range(n))) % order
    tr.absorb(*sigma, tau)
    t = tr.challenge()

    r_hat = [(ri - t) % order for ri in r]
    s_hat = [(si - gamma * t) % order for si in s]
    if any(v == 0 for v in s_hat) or any(v == 0 for v in r_hat):
        raise RuntimeError("degenerate shuffle transcript (negligible event)")

    theta = [0] + [group.random_scalar(rng) for _ in range(2 * n - 1)]
    theta_exp = []
    for i in range(2 * n):
        if i < n:
            theta_exp.append((theta[i] * r_hat[i] - theta[(i + 1) % (2 * n)] * s_hat[i]) % order)
        else:
            theta_exp.append((theta[i] * gamma - theta[(i + 1) % (2 * n)]) % order)
    theta_pts = tuple(group.mul(e, base) for e in theta_exp)
    tr.absorb(*theta_pts)
    c = tr.challenge()

    alpha = [c]
    tmp = c
    for i in range(2 * n - 1):
        if i < n:
            tmp = tmp * r_hat[i] % order * pow(s_hat[i], -1, order) % order
        elif i == n:
            tmp = c * pow(gamma, -(n - 1), order) % order
        else:
            tmp = tmp * gamma % order
        alpha.append((tmp + theta[i + 1]) % order)

    proof = ShuffleProof(
        tuple(inputs), outputs, omega, gamma_pt, a_pts, c_pts, u_pts, w_pts,
        lambda1, lambda2, d_pts, sigma, tau, theta_pts, tuple(alpha),
    )
    return outputs, proof


def _challenges(proof: ShuffleProof):
    """(rho, lambda, t, digest) recomputed from the proof's transcript, its
    digest covering every field, or None if the proof's shape or its
    challenge c = alpha_0 does not check."""
    n = len(proof.inputs)
    if n == 0 or len(proof.outputs) != n:
        return None
    for series, want in (
        (proof.a_pts, n), (proof.c_pts, n), (proof.u_pts, n), (proof.w_pts, n),
        (proof.d_pts, n), (proof.sigma, n), (proof.theta_pts, 2 * n), (proof.alpha, 2 * n),
    ):
        if len(series) != want:
            return None
    tr = _statement_transcript(proof.gamma_pt.group, proof.inputs, proof.outputs,
                               proof.omega)
    tr.absorb(proof.gamma_pt, *proof.a_pts, *proof.c_pts, *proof.u_pts,
              *proof.w_pts, proof.lambda1, proof.lambda2)
    rho = tr.challenge_vector(n)
    tr.absorb(*proof.d_pts)
    lam = tr.challenge()
    tr.absorb(*proof.sigma, proof.tau)
    t = tr.challenge()
    tr.absorb(*proof.theta_pts)
    if proof.alpha[0] != tr.challenge():
        return None
    return rho, lam, t, tr.absorb(*proof.alpha).digest()


def _add_equations(batch: Batch, proof: ShuffleProof, rho, lam, t):
    """The proof's 3n + 2 equations, each weighted by the batch."""
    n = len(proof.inputs)
    base = batch.group.base()
    put = batch.add
    alpha = proof.alpha
    for i in range(n):
        # theta_i == alpha_i*(A_i + lam*rho_i*B - lam*U_i - t*B)
        #          - alpha_{i+1}*(C_i + lam*D_i - t*Gamma)
        g1 = batch.equation()
        a_i, a_n = alpha[i], alpha[(i + 1) % (2 * n)]
        put(g1 * a_i, proof.a_pts[i])
        put(g1 * (a_i * (lam * rho[i] - t)), base)
        put(-g1 * a_i * lam, proof.u_pts[i])
        put(-g1 * a_n, proof.c_pts[i])
        put(-g1 * a_n * lam, proof.d_pts[i])
        put(g1 * a_n * t, proof.gamma_pt)
        put(-g1, proof.theta_pts[i])
    for i in range(n, 2 * n):
        g1 = batch.equation()
        put(g1 * alpha[i], proof.gamma_pt)
        put(-g1 * alpha[(i + 1) % (2 * n)], base)
        put(-g1, proof.theta_pts[i])
    for i in range(n):
        # sigma_i*Gamma == W_i + D_i
        g1 = batch.equation()
        put(g1 * proof.sigma[i], proof.gamma_pt)
        put(-g1, proof.w_pts[i])
        put(-g1, proof.d_pts[i])
    g1 = batch.equation()
    for i in range(n):
        put(g1 * proof.sigma[i], proof.outputs[i].c1)
        put(-g1 * rho[i], proof.inputs[i].c1)
    put(-g1, proof.lambda1)
    put(-g1 * proof.tau, base)
    g2 = batch.equation()
    for i in range(n):
        put(g2 * proof.sigma[i], proof.outputs[i].c2)
        put(-g2 * rho[i], proof.inputs[i].c2)
    put(-g2, proof.lambda2)
    put(-g2 * proof.tau, proof.omega)


def verify_shuffle(*proofs: ShuffleProof) -> bool:
    """True iff every proof's challenges recompute and all its equations
    hold: the equations of every proof are checked as one `Batch`, with
    weights hashed from the transcripts of all of them. A chain's links
    share points (one link's outputs are the next one's inputs), which
    then share one MSM term."""
    if not proofs:
        return True
    checks = [_challenges(proof) for proof in proofs]
    if None in checks:
        return False
    batch = Batch(proofs[0].gamma_pt.group, b"privq/shuffle-batch",
                  b"".join(digest for *_, digest in checks),
                  sum(3 * len(proof.inputs) + 2 for proof in proofs))
    for proof, (rho, lam, t, _) in zip(proofs, checks):
        _add_equations(batch, proof, rho, lam, t)
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
    gamma_pt = reader.commitment()
    a_pts = tuple(reader.commitment() for _ in range(n))
    c_pts = tuple(reader.commitment() for _ in range(n))
    u_pts = tuple(reader.commitment() for _ in range(n))
    w_pts = tuple(reader.commitment() for _ in range(n))
    lambda1 = reader.commitment()
    lambda2 = reader.commitment()
    d_pts = tuple(reader.commitment() for _ in range(n))
    sigma = tuple(reader.scalar() for _ in range(n))
    tau = reader.scalar()
    theta_pts = tuple(reader.commitment() for _ in range(2 * n))
    alpha = tuple(reader.scalar() for _ in range(2 * n))
    reader.expect_done()
    return ShuffleProof(inputs, outputs, omega, gamma_pt, a_pts, c_pts, u_pts,
                        w_pts, lambda1, lambda2, d_pts, sigma, tau, theta_pts, alpha)
