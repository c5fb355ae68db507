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
last. The node runtimes (harness.nodes) are the only callers: the CNs run
the steps over one input from each of their `aggregation_sources` that
obeys the width rule (`check_input`), and the verifying nodes check
payloads with the verifiers defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import elgamal
from .elgamal import Ciphertext, pack_cts, unpack_cts
from .errors import DimensionMismatch, InvalidPrivacyParams, NoiseExhausted
# verify_linear and shuffle_and_prove are not called here: they are
# imported because perfbench/spans.py patches them on this module
from .proofs.linear import LinearStatement, decode_linear, prove_linear, verify_linear
from .proofs.shuffle import shuffle_and_prove
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


def query_rounds(query) -> tuple:
    """The proof types of the rounds every CN runs for `query`, in protocol
    order: aggregation (CTA), obfuscation (CTO) for bit-wise results, the
    noise shuffle (CDP) under DP privacy, and key switching (CTKS)."""
    rounds = ["aggregation"]
    if query.operation.uses_obfuscation:
        rounds.append("obfuscation")
    if query.dp_privacy:
        rounds.append("shuffle")
    rounds.append("keyswitch")
    return tuple(rounds)


# ---------------------------------------------------------------------------
# Aggregation (CTA)


def _sum_vectors(input_lists) -> tuple:
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
    def decode(cls, group, data: bytes) -> "Aggregation":
        reader = Reader(data, group)
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


def aggregation_sources(tree, cn, query, dp_assignment) -> tuple:
    """(DPs, child CNs) whose inputs CN `cn` aggregates for `query`: the
    query's DPs assigned to it, and its children in `tree`. An input is
    labelled by its source; a CN with none of them sums `neutral_label`."""
    dps = tuple(dp for dp in query.dp_list if dp_assignment.get(dp) == cn)
    children = tuple(tree.nodes[i] for i in tree.children(tree.nodes.index(cn)))
    return dps, children


def neutral_label(cn) -> str:
    return cn + "/neutral"


def aggregate(labels, input_lists) -> Aggregation:
    """CTA step: sum the labelled inputs; the result is also the payload."""
    return Aggregation(tuple(labels), tuple(input_lists), _sum_vectors(input_lists))


def verify_aggregation(agg: Aggregation, cn, sources) -> bool:
    """CN `cn`'s aggregation sums inputs from distinct `sources`, or the
    neutral input alone, into its output."""
    labels = agg.labels
    if labels != (neutral_label(cn),) and (
            len(set(labels)) != len(labels) or not set(labels) <= set(sources)):
        return False
    if not agg.inputs or any(len(cts) != len(agg.output) for cts in agg.inputs):
        return False
    return bool(agg.output) and _sum_vectors(agg.inputs) == agg.output


# ---------------------------------------------------------------------------
# Key switching (CTKS)


def ctks_share(group, c1, cn_key, target_pk, rng):
    """One CN's key-switch share for a single ciphertext.

    w1 = alpha*B, w2 = -k_i*C1 + alpha*K'; the emitted proof shows the same
    k_i as the CN's published key and the same alpha in both shares.
    """
    alpha = group.random_scalar(rng)
    base = group.base()
    w1 = group.mul(alpha, base)
    neg_c1 = -c1
    w2 = group.msm([(cn_key.private, neg_c1), (alpha, target_pk)])
    statement = LinearStatement(
        bases=((base, None), (None, base), (neg_c1, target_pk)),
        targets=(cn_key.public, w1, w2),
    )
    proof = prove_linear(statement, (cn_key.private, alpha), rng)
    return w1, w2, proof


# ---------------------------------------------------------------------------
# Obfuscation (CTO)


def cto_share(group, ct: Ciphertext, rng):
    """One CN's multiplicative blinding share s_i * (C1, C2) with proof."""
    s = 0
    while s == 0:
        s = group.random_scalar(rng)
    blinded = Ciphertext(group.mul(s, ct.c1), group.mul(s, ct.c2))
    statement = LinearStatement(
        bases=((ct.c1,), (ct.c2,)),
        targets=(blinded.c1, blinded.c2),
    )
    proof = prove_linear(statement, (s,), rng)
    return blinded, proof


# ---------------------------------------------------------------------------
# CTKS and CTO rounds: per-CN shares, root combine, sub-proof verifier


def round_payload(ct: Ciphertext, proof) -> bytes:
    """A CTKS/CTO sub-proof payload: the round's input ciphertext, then the proof."""
    return pack_bytes(ct.encode()) + proof.encode()


def round_inputs(payloads) -> bytes:
    """The encoded input ciphertexts a CN's round payloads were proved over."""
    return b"".join(Reader(p).bytes_field() for p in payloads)


def ctks_shares(group, cts, cn_key, target_pk, rng):
    """One CN's CTKS step over a ciphertext list: its shares (w1, w2), carried
    as Ciphertext pairs that add componentwise, and one payload per share."""
    shares, payloads = [], []
    for ct in cts:
        w1, w2, proof = ctks_share(group, ct.c1, cn_key, target_pk, rng)
        shares.append(Ciphertext(w1, w2))
        payloads.append(round_payload(ct, proof))
    return shares, payloads


def ctks_combine(cts, share_sums) -> list:
    """Root step of CTKS: (sum w1, C2 + sum w2) encrypts the same message
    under the target key."""
    return [Ciphertext(s.c1, ct.c2 + s.c2) for ct, s in zip(cts, share_sums)]


def cto_shares(group, cts, rng):
    """One CN's CTO step: its blinded ciphertexts and one payload per share.
    The sum of all CNs' blinded ciphertexts is the round's output."""
    shares, payloads = [], []
    for ct in cts:
        blinded, proof = cto_share(group, ct, rng)
        shares.append(blinded)
        payloads.append(round_payload(ct, proof))
    return shares, payloads


def add_shares(share_sums, shares) -> list:
    return [total + share for total, share in zip(share_sums, shares)]


def round_proof(group, proof_type: str, payload: bytes, cn_public=None,
                target_pk=None):
    """The linear proof of one CTKS ("keyswitch") or CTO ("obfuscation")
    payload if its statement has exactly the shape the step proves over the
    payload's input ciphertext, else None. A key-switch proof must also use
    the CN's published key `cn_public` and the target key `target_pk`.

    The fixed statement parts are matched by their encodings and never
    decoded: only the input ciphertext and the points the prover chose are.
    """
    reader = Reader(payload)
    ct = elgamal.decode_ciphertext(group, reader.bytes_field())
    if proof_type == "keyswitch":
        base, neg_c1 = group.base(), -ct.c1
        bases = ((base, None), (None, base), (neg_c1, target_pk))
        fixed = (base, neg_c1, target_pk, cn_public)
    elif proof_type == "obfuscation":
        bases = ((ct.c1,), (ct.c2,))
        fixed = (ct.c1, ct.c2)
    else:
        return None
    proof = decode_linear(group, reader.rest(), known=fixed)
    if proof.statement.bases != bases:
        return None
    if proof_type == "keyswitch" and proof.statement.targets[0] != cn_public:
        return None
    return proof


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
    """
    if epsilon <= 0 or delta_f <= 0 or theta <= 0 or l_count < 1:
        raise InvalidPrivacyParams("need epsilon, delta_f, theta > 0 and l >= 1")
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
