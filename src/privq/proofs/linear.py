"""Linear-relation discrete-log proofs (generalized Schnorr).

Proves knowledge of scalars y_1..y_n satisfying a system of equations
P_j = sum_i y_i * G_{j,i} over public points, without revealing the y_i.
Key-switch shares, obfuscation shares, and key-possession statements are
all instances. Non-interactive via the transcript in `transcript.py`;
`verify_linear` checks any number of proofs as one `transcript.Batch`, in
which equal points share one MSM term.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MalformedProof
from ..serial import Reader, pack_u8, pack_u32
from .transcript import Batch, Transcript

_TAG = 0x01


@dataclass(frozen=True)
class LinearStatement:
    """Equations P_j = sum_i y_i * G_{j,i}; a None base means y_i is absent
    from equation j."""

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
        group = self.statement.targets[0].group
        out = [pack_u8(_TAG), pack_u32(len(self.statement.targets)),
               pack_u32(self.statement.n_secrets)]
        for row in self.statement.bases:
            for base in row:
                if base is None:
                    out.append(pack_u8(0))
                else:
                    out.append(pack_u8(1))
                    out.append(base.encode())
        for target in self.statement.targets:
            out.append(target.encode())
        for w in self.commitments:
            out.append(w.encode())
        out.append(group.encode_scalar(self.challenge))
        for z in self.responses:
            out.append(group.encode_scalar(z))
        return b"".join(out)


def _absorb_statement(tr: Transcript, statement: LinearStatement):
    tr.absorb(len(statement.targets), statement.n_secrets)
    for row in statement.bases:
        for base in row:
            tr.absorb(base)
    for target in statement.targets:
        tr.absorb(target)


def prove_linear(statement: LinearStatement, secrets, rng) -> LinearRelationProof:
    """Prover side; `secrets` must genuinely satisfy the statement."""
    group = statement.targets[0].group
    nonces = [group.random_scalar(rng) for _ in range(statement.n_secrets)]
    commitments = []
    for row in statement.bases:
        pairs = [(v, g) for v, g in zip(nonces, row) if g is not None]
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
                    batch.add(r * z, g)
            batch.add(-r * c, target)
            batch.add(-r, w)
    return batch.holds()


def decode_linear(group, data: bytes, known=()) -> LinearRelationProof:
    """Decode a proof; a point encoded exactly like one in `known` is taken
    as that point instead of being decoded again."""
    reader = Reader(data, group, known)
    if reader.u8() != _TAG:
        raise MalformedProof("wrong proof type tag")
    n_eqs = reader.u32()
    n_secrets = reader.u32()
    if n_eqs == 0 or n_secrets == 0 or n_eqs > 64 or n_secrets > 64:
        raise MalformedProof("implausible proof shape")
    bases = []
    for _ in range(n_eqs):
        row = []
        for _ in range(n_secrets):
            flag = reader.u8()
            if flag == 1:
                row.append(reader.point())
            elif flag == 0:
                row.append(None)
            else:
                raise MalformedProof("non-canonical base flag")
        bases.append(tuple(row))
    targets = tuple(reader.point() for _ in range(n_eqs))
    commitments = tuple(reader.point() for _ in range(n_eqs))
    challenge = reader.scalar()
    responses = tuple(reader.scalar() for _ in range(n_secrets))
    reader.expect_done()
    return LinearRelationProof(
        LinearStatement(tuple(bases), targets), commitments, challenge, responses
    )
