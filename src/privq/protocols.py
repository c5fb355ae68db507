"""The four collective protocols run by computing nodes over a tree.

- tree aggregation (CTA): componentwise ciphertext sums up the tree;
- key switching (CTKS): re-encrypt an aggregate from the collective key to
  the querier's key without decrypting, one additive share per CN;
- obfuscation (CTO): multiplicative blinding s = sum(s_i) that preserves
  zero, for bit-wise results;
- collective differential privacy (CDP): a public quantized Laplace noise
  list, sequentially and verifiably shuffled by every CN, whose leading
  ciphertexts are added to the aggregate.

Every per-CN step is a function here that returns its output and its
proof payloads; the ledger module wraps payloads into signed bundles
addressed to the verifying nodes. A response is one ciphertext list, count
last. `QueryPlan` chains the steps into a query's rounds: who runs and
proves each, which messages feed a CN in it and who may send them, and
how each round's output follows from the previous one's and from what its
proofs proved. The CNs (harness.nodes) run the plan over inputs that obey
the width rule (`check_input`), and each verifying node's
`ledger.QueryVerifier` checks payloads with the verifiers defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import elgamal
from .elgamal import Ciphertext, pack_cts, unpack_cts
from .errors import DimensionMismatch, InvalidPrivacyParams, MalformedProof, NoiseExhausted
# verify_linear and shuffle_and_prove are not called here: they are
# imported because perfbench/spans.py patches them on this module
from .proofs.linear import (
    LinearStatement, WeightedSum, decode_linear, prove_linear, verify_linear)
from .proofs.shuffle import shuffle_and_prove
from .proofs.transcript import Transcript, weights
from .serial import Reader, pack_bytes, pack_u32


# ---------------------------------------------------------------------------
# CN tree


@dataclass(frozen=True)
class CnTree:
    """Rooted tree over CN identities; deterministic given the sorted ids.

    `nodes` is also the order of the CDP shuffle chain: the CN at index i
    shuffles the list the CN at index i - 1 produced, and index 0 starts
    from the public initial noise list.
    """

    nodes: tuple
    parents: tuple  # parent index per node, -1 for the root
    shape: str = "binary"

    @property
    def root(self):
        return self.nodes[0]

    def children(self, index: int) -> list[int]:
        return [i for i, p in enumerate(self.parents) if p == index]

    def bottom_up(self) -> list[int]:
        """Indices ordered leaves-first so parents follow all their children."""
        depth = [0] * len(self.nodes)
        for i in range(1, len(self.nodes)):
            depth[i] = depth[self.parents[i]] + 1
        return sorted(range(len(self.nodes)), key=lambda i: -depth[i])


def build_tree(cn_ids, shape: str = "binary") -> CnTree:
    ids = tuple(sorted(cn_ids))
    if not ids:
        raise ValueError("need at least one CN")
    if shape == "binary":
        parents = tuple(-1 if i == 0 else (i - 1) // 2 for i in range(len(ids)))
    elif shape == "chain":
        parents = tuple(i - 1 for i in range(len(ids)))
    elif shape == "star":
        parents = tuple(-1 if i == 0 else 0 for i in range(len(ids)))
    else:
        raise ValueError(f"unknown tree shape {shape!r}")
    return CnTree(ids, parents, shape)


# ---------------------------------------------------------------------------
# Aggregation (CTA)


def sum_vectors(input_lists) -> tuple:
    """Componentwise sum of ciphertext tuples, as wide as the first one:
    each component sums as one MSM with unit scalars, which adds in
    projective coordinates and normalizes once."""
    if len(input_lists) == 1:
        return tuple(input_lists[0])
    totals = []
    for j, first in enumerate(input_lists[0]):
        group = first.c1.group
        totals.append(Ciphertext(group.msm([(1, cts[j].c1) for cts in input_lists]),
                                 group.msm([(1, cts[j].c2) for cts in input_lists])))
    return tuple(totals)


@dataclass(frozen=True)
class Aggregation:
    """One CN's aggregation step: labelled input ciphertext tuples and their
    componentwise sum. A label names the DP or the child CN an input came
    from; verifying nodes use it to bind range-proved ciphertexts to DPs.

    Payload: u32 input count, then per input its label and its ciphertext
    list, then the output ciphertext list.
    """

    labels: tuple
    inputs: tuple  # tuple of ciphertext tuples
    output: tuple  # ciphertext tuple

    def encode(self) -> bytes:
        out = [pack_u32(len(self.labels))]
        for label, cts in zip(self.labels, self.inputs):
            out.append(pack_bytes(label.encode()))
            out.append(pack_cts(cts))
        out.append(pack_cts(self.output))
        return b"".join(out)

    @classmethod
    def decode(cls, group, data: bytes, memo=None) -> "Aggregation":
        reader = Reader(data, group, memo=memo)
        labels, inputs = [], []
        for _ in range(reader.u32()):
            labels.append(reader.text())
            inputs.append(tuple(unpack_cts(group, reader)))
        output = tuple(unpack_cts(group, reader))
        reader.expect_done()
        return cls(tuple(labels), tuple(inputs), output)


def check_input(operation, cts) -> tuple:
    """The width rule: every aggregation input, a DP's response or a child
    CN's partial sum, is the operation's vector plus the count. Returns
    `cts` as a tuple if it obeys it, else raises DimensionMismatch."""
    width = operation.dimension + 1
    if len(cts) != width:
        raise DimensionMismatch(f"aggregation input of {len(cts)} ciphertexts, "
                                f"{width} expected")
    return tuple(cts)


def neutral_label(cn) -> str:
    return cn + "/neutral"


def aggregate(labels, input_lists) -> Aggregation:
    """CTA step: sum the labelled inputs; the result is also the payload."""
    return Aggregation(tuple(labels), tuple(input_lists), sum_vectors(input_lists))


def verify_aggregation(agg: Aggregation, cn, sources) -> bool:
    """CN `cn`'s aggregation sums inputs from distinct `sources`, or the
    neutral input alone, into its output."""
    labels = agg.labels
    if labels != (neutral_label(cn),) and (
            len(set(labels)) != len(labels) or not set(labels) <= set(sources)):
        return False
    if not agg.inputs or any(len(cts) != len(agg.output) for cts in agg.inputs):
        return False
    return bool(agg.output) and sum_vectors(agg.inputs) == agg.output


# ---------------------------------------------------------------------------
# Key switching (CTKS)


def ctks_statement(group, c1s, cn_public, target_pk, shares) -> LinearStatement:
    """A CN's key-switch shares (w1_j, w2_j) = (alpha_j*B, -k_i*C1_j +
    alpha_j*K') of ciphertexts with first points `c1s`, k_i that of its
    published key K_i = k_i*B, as one statement (Chaum-Pedersen, batched as
    in Privacy Pass): with 128-bit weights rho_j hashed from the two keys and
    every (C1_j, w1_j, w2_j), K_i = k_i*B, sum rho_j*w1_j = alpha*B and
    sum rho_j*w2_j = -k_i*sum rho_j*C1_j + alpha*K', alpha = sum rho_j*alpha_j.
    A wrong share passes with probability about 2^-128 over the weights."""
    if len(c1s) != len(shares) or not shares:
        raise ValueError("one key-switch share per ciphertext required")
    tr = Transcript(group, "ctks-weights").absorb(cn_public, target_pk, len(shares))
    for c1, share in zip(c1s, shares):
        tr.absorb(c1, share.c1, share.c2)
    rho = weights(b"privq/ctks-weights", tr.digest(), len(shares))
    base = group.base()
    return LinearStatement(
        bases=((base, None), (None, base),
               (WeightedSum(tuple((-r, c1) for r, c1 in zip(rho, c1s))), target_pk)),
        targets=(cn_public, WeightedSum(tuple((r, s.c1) for r, s in zip(rho, shares))),
                 WeightedSum(tuple((r, s.c2) for r, s in zip(rho, shares)))))


def ctks_share(group, c1s, cn_key, target_pk, rng):
    """One CN's key-switch shares of the ciphertexts with first points `c1s`,
    each a Ciphertext (w1, w2), with one proof of their `ctks_statement`."""
    base = group.base()
    alphas = [group.random_scalar(rng) for _ in c1s]
    shares = [Ciphertext(group.mul(a, base), group.msm([(cn_key.private, -c1), (a, target_pk)]))
              for c1, a in zip(c1s, alphas)]
    statement = ctks_statement(group, c1s, cn_key.public, target_pk, shares)
    rho = [r for r, _ in statement.targets[1].terms]  # the statement's weights
    alpha = sum(r * a for r, a in zip(rho, alphas)) % group.order
    return shares, prove_linear(statement, (cn_key.private, alpha), rng)


# ---------------------------------------------------------------------------
# Obfuscation (CTO)


def cto_statement(ct: Ciphertext, blinded: Ciphertext) -> LinearStatement:
    """The blinded pair is s*(C1, C2), one s for both points."""
    return LinearStatement(bases=((ct.c1,), (ct.c2,)), targets=(blinded.c1, blinded.c2))


def cto_share(group, ct: Ciphertext, rng):
    """One CN's multiplicative blinding share s_i * (C1, C2), with the proof
    of its `cto_statement`."""
    s = 0
    while s == 0:
        s = group.random_scalar(rng)
    blinded = Ciphertext(group.mul(s, ct.c1), group.mul(s, ct.c2))
    proof = prove_linear(cto_statement(ct, blinded), (s,), rng)
    return blinded, proof


# ---------------------------------------------------------------------------
# CTKS and CTO rounds: per-CN shares, root combine, sub-proof verifier


def round_shares(group, proof_type, cts, rng, cn_key=None, target_pk=None):
    """One CN's CTKS ("keyswitch") or CTO ("obfuscation") step over a
    ciphertext list: its shares, which add componentwise (a key-switch share
    (w1, w2) is carried as a Ciphertext), and its payloads. A payload is the
    input ciphertexts it covers, their shares, then the proof of them,
    without its statement: one payload covers a key switch's whole list, and
    obfuscation has one per ciphertext, whose blinding factor is its own."""
    if proof_type == "keyswitch":
        shares, proof = ctks_share(group, [ct.c1 for ct in cts], cn_key, target_pk, rng)
        return shares, [_round_payload(cts, shares, proof)]
    shares, payloads = [], []
    for ct in cts:
        share, proof = cto_share(group, ct, rng)
        shares.append(share)
        payloads.append(_round_payload([ct], [share], proof))
    return shares, payloads


def _round_payload(cts, shares, proof) -> bytes:
    return (pack_bytes(b"".join(ct.encode() for ct in cts))
            + b"".join(share.encode() for share in shares) + proof.encode())


def ctks_combine(cts, share_sums) -> list:
    """Root step of CTKS: (sum w1, C2 + sum w2) encrypts the same message
    under the target key."""
    return [Ciphertext(s.c1, ct.c2 + s.c2) for ct, s in zip(cts, share_sums)]


def round_proof(group, proof_type: str, payload: bytes, cn_public=None,
                target_pk=None, memo=None):
    """The shares of one CTKS ("keyswitch") or CTO ("obfuscation") payload
    and its linear proof, read against the statement built from its input
    ciphertexts and shares (and, for a key switch, the CN's key `cn_public`
    and `target_pk`): (shares, proof)."""
    reader = Reader(payload, group, memo=memo)
    listed = Reader(reader.bytes_field(), group, memo=memo)
    cts = []
    while not listed.done():
        cts.append(Ciphertext.read(listed))
    if not cts or (proof_type != "keyswitch" and len(cts) != 1):
        raise MalformedProof(f"{proof_type} payload over {len(cts)} ciphertexts")
    shares = [Ciphertext.read(reader) for _ in cts]
    if proof_type == "keyswitch":
        statement = ctks_statement(group, [ct.c1 for ct in cts], cn_public, target_pk, shares)
    else:
        statement = cto_statement(cts[0], shares[0])
    return shares, decode_linear(group, reader.rest(), statement)


# ---------------------------------------------------------------------------
# Collective differential privacy (CDP)


def quantize_laplace(epsilon: float, delta_f: float, theta: float, l_count: int):
    """Deterministic symmetric quantization of Laplace(0, delta_f/epsilon)
    onto the lattice {k*theta}.

    Atom counts are chosen so that the quantized cumulative distribution
    centers every lattice interval of the target CDF (cumulative count
    through atom k is round(l * (F(k*theta) + F((k+1)*theta)) / 2)). This
    is the Kolmogorov-optimal placement for a fixed lattice: the sup
    deviation is half the heaviest interval's mass, which naive
    per-sample rounding roughly doubles by centering atoms instead of
    cumulative counts. The list is exactly symmetric and contains 0.

    theta must divide delta_f: on another lattice a neighbour's shift by
    delta_f lands between atoms, and the two lists' supports drift apart.
    """
    if epsilon <= 0 or delta_f <= 0 or theta <= 0 or l_count < 1:
        raise InvalidPrivacyParams("need epsilon, delta_f, theta > 0 and l >= 1")
    steps = delta_f / theta
    if not math.isclose(steps, round(steps), rel_tol=1e-9):
        raise InvalidPrivacyParams(f"theta {theta} does not divide delta_f {delta_f}")
    b = delta_f / epsilon

    def cdf(x: float) -> float:
        return 0.5 * math.exp(x / b) if x < 0 else 1.0 - 0.5 * math.exp(-x / b)

    # cumulative count through atom k (number of values <= k*theta), k >= 0
    cum = []
    k = 0
    while True:
        mid = (cdf(k * theta) + cdf((k + 1) * theta)) / 2.0
        m_k = round(l_count * mid)
        if cum:
            m_k = max(m_k, cum[-1])
        if k == 0:
            m_k = max(m_k, l_count // 2 + 1)  # keep at least one 0 in the list
        cum.append(min(m_k, l_count))
        if cum[-1] >= l_count:
            break
        k += 1
    # cum[0] > l/2 and cum[-1] == l: n0 >= 1 zeros, and l values in all
    n0 = 2 * cum[0] - l_count
    values = [0.0] * n0
    for k in range(1, len(cum)):
        n_k = cum[k] - cum[k - 1]
        values.extend([k * theta] * n_k)
        values.extend([-k * theta] * n_k)
    values.sort()
    return values


def initial_noise(group, epsilon, delta_f, theta, l_count, collective_pk,
                  scale: int = elgamal.DEFAULT_SCALE):
    """The public quantized noise values and the list that starts the
    shuffle chain. Its encryptions are trivial (nonce 0): the list is
    public, so the first CN's verifiable shuffle supplies the actual
    rerandomization. Returns (values, ciphertext list)."""
    values = quantize_laplace(epsilon, delta_f, theta, l_count)
    return values, [
        elgamal.encrypt_with_nonce(group, elgamal.fixed_encode(v, scale).raw,
                                   collective_pk, 0)
        for v in values
    ]


def cdp_apply(cts, noise_cts) -> list:
    """Add the leading noise ciphertexts to `cts`, a response (count last)."""
    d = len(cts) - 1
    if d > len(noise_cts):
        raise NoiseExhausted(f"need {d} noise ciphertexts, {len(noise_cts)} in the list")
    return [ct + noise for ct, noise in zip(cts[:-1], noise_cts)] + [cts[-1]]


# ---------------------------------------------------------------------------
# Query plan


@dataclass(frozen=True)
class Round:
    """One round of a query plan. `kind` is the step its provers run and the
    check that `ledger.QueryVerifier` runs on its sub-proofs: "range",
    "aggregation", "tree" (CTO or CTKS, whose messages carry `tag`) or
    "shuffle". Each prover signs `proofs` bundles; those of `outputs_from`
    give the round's output. A VN judges a round's bundles once the round
    settles, in the order of `provers`."""

    proof_type: str
    kind: str
    provers: tuple
    proofs: int = 1
    tag: str = ""
    outputs_from: tuple = ()

    def input(self, previous) -> list:
        """The list a CTKS/CTO round runs over; CTO blinds the vector only."""
        return previous[:-1] if self.proof_type == "obfuscation" else previous

    def output(self, previous, parts) -> list:
        """The round's output from the previous round's and `parts`, for each
        prover of `outputs_from` what its sub-proofs proved, in order: the
        root's aggregation output, the last shuffle link's output list, or a
        CN's CTKS/CTO shares (a CN passes its subtree's sums). A range round
        passes its input on."""
        if self.kind == "range":
            return previous
        if self.kind == "aggregation":
            return list(parts[0])
        if self.kind == "shuffle":
            return cdp_apply(previous, parts[0])
        sums = sum_vectors(parts)
        if self.proof_type == "obfuscation":  # the blinded vector, count last
            return list(sums) + previous[-1:]
        return ctks_combine(previous, sums)


class QueryPlan:
    """The rounds of `query` over the CN tree `tree`, in order: aggregation
    (CTA), the DPs' range proofs (with `range_proofs` and bounds), CTO for
    bit-wise results, the noise shuffle (CDP) under DP privacy, and CTKS.
    Each round after aggregation runs over the previous one's output. A VN's
    `ledger.QueryVerifier` judges the rounds in this order, and the
    aggregations children first (`CnTree.bottom_up`), so its aggregation
    check reads a CN's children's outputs, its range check the ciphertext
    the DP's CN aggregated, and its shuffle check link i - 1's output list."""

    def __init__(self, query, tree, dp_assignment=None, range_proofs=False):
        self.query, self.tree, self.dp_assignment = query, tree, dp_assignment or {}
        cns, op = tree.nodes, query.operation
        children_first = tuple(cns[i] for i in tree.bottom_up())
        rounds = [Round("aggregation", "aggregation", children_first, outputs_from=cns[:1])]
        if range_proofs and query.bounds is not None:
            rounds.append(Round("range", "range", tuple(query.dp_list), op.dimension))
        if op.uses_obfuscation:
            rounds.append(Round("obfuscation", "tree", cns, tag="cto", outputs_from=cns))
        if query.dp_privacy:
            rounds.append(Round("shuffle", "shuffle", cns, outputs_from=cns[-1:]))
        rounds.append(Round("keyswitch", "tree", cns, tag="ctks", outputs_from=cns))
        self.rounds = tuple(rounds)

    def round(self, proof_type) -> Round:
        return next(r for r in self.rounds if r.proof_type == proof_type)

    def opens(self, cn, stage, key, payload):
        """The first round after `stage` that message `key` opens on CN `cn`,
        its tag (if it has one) first in `payload`, or None."""
        for later in range(stage + 1, len(self.rounds)):
            rnd = self.rounds[later]
            if self.feeds(rnd.kind, cn)[0] == key and (
                    not rnd.tag or Reader(payload).text() == rnd.tag):
                return later
        return None

    def feeds(self, kind, cn):
        """(opener, inputs) of CN `cn` in a round of `kind`, as (message
        round, sender) pairs: the one that opens the round on it, or None,
        and those it then collects. Shuffle link i > 0 opens with link
        i - 1's list; the root, link 0, shuffles the public list with no
        opener and collects, in chain order, an empty `cdp_ack` from each
        middle link once it has forwarded and the last link's list."""
        nodes, i = self.tree.nodes, self.tree.nodes.index(cn)
        children = [("round_share", nodes[c]) for c in self.tree.children(i)]
        if kind == "aggregation":
            dps = [("dp_response", dp) for dp in self.query.dp_list
                   if self.dp_assignment.get(dp) == cn]
            return None, dps + [("cta_partial", child) for _, child in children]
        if kind == "shuffle":
            if i:
                return ("cdp_pass", nodes[i - 1]), []
            return None, [("cdp_ack", link) for link in nodes[1:-1]] + [("cdp_done", nodes[-1])]
        return (("round_request", nodes[self.tree.parents[i]]) if i else None), children
