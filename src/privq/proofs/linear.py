"""Linear-relation discrete-log proofs (generalized Schnorr).

Proves knowledge of scalars y_1..y_n satisfying a system of equations
P_j = sum_i y_i * G_{j,i} over public points, without revealing the y_i.
Key-switch shares, obfuscation shares, and key-possession statements are
all instances. Non-interactive via the transcript in `transcript.py`,
which absorbs the whole statement; prover and verifier each build the
statement from values they hold, so it is not on the wire.
`verify_linear` checks any number of proofs as one `transcript.Batch`, in
which equal points share one MSM term.

A base or a target may be a `WeightedSum` of points (as in
`protocols.ctks_statement`): the transcript absorbs its terms,
`prove_linear` expands it, and `verify_linear` adds its terms to the
batch, so a point that several statements share stays one term.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MalformedProof
from ..serial import Reader, pack_u8
from .transcript import Batch, Transcript

_TAG = 0x01


@dataclass(frozen=True)
class WeightedSum:
    """sum_t k_t * Q_t over its (int, Point) `terms`."""

    terms: tuple

    @property
    def group(self):
        return self.terms[0][1].group

    def point(self):
        return self.group.msm(self.terms)


def _absorb(tr: Transcript, item):
    if isinstance(item, WeightedSum):
        tr.absorb(len(item.terms))
        for k, point in item.terms:
            tr.absorb(k, point)
    else:
        tr.absorb(item)


def _fold(batch: Batch, k: int, item):
    """Add k * item to `batch`, a WeightedSum term by term."""
    if isinstance(item, WeightedSum):
        for weight, point in item.terms:
            batch.add(k * weight, point)
    else:
        batch.add(k, item)


@dataclass(frozen=True)
class LinearStatement:
    """Equations P_j = sum_i y_i * G_{j,i}; a None base means y_i is absent
    from equation j. A base or a target may be a `WeightedSum`."""

    bases: tuple  # tuple of rows, each row a tuple of Point | None
    targets: tuple  # tuple of Point, one per row

    def __post_init__(self):
        if len(self.bases) != len(self.targets):
            raise ValueError("one target per equation required")
        widths = {len(row) for row in self.bases}
        if len(widths) != 1:
            raise ValueError("all equation rows must cover the same secrets")

    @property
    def n_secrets(self) -> int:
        return len(self.bases[0])


@dataclass(frozen=True)
class LinearRelationProof:
    statement: LinearStatement
    commitments: tuple  # W_j per equation
    challenge: int
    responses: tuple  # z_i per secret

    def encode(self) -> bytes:
        """Tag, commitments, challenge, responses: no statement (`decode_linear`)."""
        group = self.statement.targets[0].group
        out = [pack_u8(_TAG)]
        out.extend(w.encode() for w in self.commitments)
        out.append(group.encode_scalar(self.challenge))
        out.extend(group.encode_scalar(z) for z in self.responses)
        return b"".join(out)


def _absorb_statement(tr: Transcript, statement: LinearStatement):
    tr.absorb(len(statement.targets), statement.n_secrets)
    for row in statement.bases:
        for base in row:
            _absorb(tr, base)
    for target in statement.targets:
        _absorb(tr, target)


def prove_linear(statement: LinearStatement, secrets, rng) -> LinearRelationProof:
    """Prover side; `secrets` must genuinely satisfy the statement."""
    group = statement.targets[0].group
    nonces = [group.random_scalar(rng) for _ in range(statement.n_secrets)]
    commitments = []
    for row in statement.bases:
        pairs = [(v, g.point() if isinstance(g, WeightedSum) else g)
                 for v, g in zip(nonces, row) if g is not None]
        commitments.append(group.msm(pairs))
    tr = Transcript(group, "linear")
    _absorb_statement(tr, statement)
    tr.absorb(*commitments)
    c = tr.challenge()
    responses = tuple((v + c * y) % group.order for v, y in zip(nonces, secrets))
    return LinearRelationProof(statement, tuple(commitments), c, responses)


def verify_linear(*proofs: LinearRelationProof) -> bool:
    """True iff every proof's challenge recomputes and every equation
    sum_i z_i*G_{j,i} == W_j + c*P_j of every proof holds.

    The equations are checked together as one `Batch`, each one as
    sum_i z_i*G_{j,i} - c*P_j - W_j with weights hashed from every proof in
    the batch.
    """
    if not proofs:
        return True
    group = proofs[0].statement.targets[0].group
    digests = []
    for proof in proofs:
        statement = proof.statement
        if len(proof.commitments) != len(statement.targets):
            return False
        if len(proof.responses) != statement.n_secrets:
            return False
        tr = Transcript(group, "linear")
        _absorb_statement(tr, statement)
        tr.absorb(*proof.commitments)
        if tr.challenge() != proof.challenge:
            return False
        digests.append(tr.absorb(*proof.responses).digest())
    batch = Batch(group, b"privq/linear-batch", b"".join(digests),
                  sum(len(proof.commitments) for proof in proofs))
    for proof in proofs:
        c = proof.challenge
        for row, target, w in zip(proof.statement.bases, proof.statement.targets,
                                  proof.commitments):
            r = batch.equation()
            for z, g in zip(proof.responses, row):
                if g is not None:
                    _fold(batch, r * z, g)
            _fold(batch, -r * c, target)
            batch.add(-r, w)
    return batch.holds()


def decode_linear(group, data: bytes, statement: LinearStatement) -> LinearRelationProof:
    """Decode a proof of `statement`, which the caller built from values it
    holds: one commitment per equation and one response per secret."""
    reader = Reader(data, group)
    if reader.u8() != _TAG:
        raise MalformedProof("wrong proof type tag")
    commitments = tuple(reader.commitment() for _ in statement.targets)
    challenge = reader.scalar()
    responses = tuple(reader.scalar() for _ in range(statement.n_secrets))
    reader.expect_done()
    return LinearRelationProof(statement, commitments, challenge, responses)
