"""Encodable operations as one table: per-DP encodings, querier-side
decodings, neutral responses, and the iterative range-reduction scheme.

An operation f over distributed records factors into a local encoding rho
(each DP computes a short vector V plus its record count c on its own
data) and a post-processing pi applied by the querier to the
homomorphically aggregated vectors. `_OPS` holds one record per operation
kind, and `OperationSpec`, `plaintext_encode` and `decode` read it. Most
kinds encode a list of per-record terms summed over the records, each with
its own element bound, so the list fixes the dimension. Bit-valued
operations use a negated representation so that every neutral response is
an all-zeros encoding: AND/set-intersection encode "input violates the
identity" (so the aggregate is zero iff the AND holds), OR/set-union encode
membership directly (aggregate nonzero iff the OR holds).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable

import numpy as np

from . import elgamal
from .elgamal import DEFAULT_SCALE
from .errors import (
    ArityMismatch,
    CallbackFailure,
    Divergence,
    InvalidArgs,
    LabelNotBinary,
    MalformedQuery,
    SingularSystem,
    ValueOutOfBounds,
    ZeroCount,
)

RANDOM_MARKER_MAX = 255  # random-integer bitwise marker bound, keeps sums decodable
TAYLOR_LOGSIGMOID = (-math.log(2.0), 0.5, -0.125, 0.0, 1.0 / 192.0)
# (spec field, least, greatest or None) that every operation needs
_LIMITS = (("scale", 1, None), ("max_records", 1, None))


@dataclass(frozen=True)
class OperationSpec:
    kind: str
    bounds: tuple | None = None  # [b_l, b_u) on attribute values
    feature_count: int = 1  # D for regressions
    approx_degree: int = 2  # k for logistic regression
    bitwise_mode: str = "random"  # "random" (no CTO) or "bits" (CTO required)
    scale: int = DEFAULT_SCALE
    max_records: int = 1  # per-DP record bound, used for element ranges

    def __post_init__(self):
        op = _OPS.get(self.kind)
        if op is None:
            raise MalformedQuery(f"unknown operation {self.kind!r}")
        if op.needs_bounds and self.bounds is None:
            raise MalformedQuery(f"{self.kind} needs RANGE bounds")
        if self.bounds is not None and self.bounds[0] >= self.bounds[1]:
            raise MalformedQuery(f"empty bounds {self.bounds}")
        if self.bitwise_mode not in ("random", "bits"):
            raise MalformedQuery(f"unknown bitwise mode {self.bitwise_mode!r}")
        for name, least, most in _LIMITS + op.limits:
            value = getattr(self, name)
            if value < least or (most is not None and value > most):
                raise MalformedQuery(f"{self.kind} needs {name} in [{least}, "
                                     f"{'inf' if most is None else most}], got {value}")

    @property
    def _op(self) -> _Op:
        return _OPS[self.kind]

    @property
    def dimension(self) -> int:
        return self._op.dimension(self)

    @property
    def arity(self) -> int:
        return self._op.arity + (self.feature_count if self._op.labelled else 0)

    @property
    def value_scale(self) -> int:
        """Bitwise and counting encodings stay at integer scale."""
        return 1 if self._op.integer_scale else self.scale

    @property
    def zero_test_only(self) -> bool:
        """Bitwise results are read as zero/nonzero points, never dlog-decoded
        (after obfuscation the nonzero values are full-range scalars)."""
        return self._op.bitwise

    @property
    def uses_obfuscation(self) -> bool:
        return self._op.bitwise and self.bitwise_mode == "bits"

    def element_bounds(self) -> list[tuple[int, int]]:
        """Per-element plaintext range [lo, hi) each sent value must lie in,
        at raw (fixed-point) scale; the basis for range proofs."""
        if self.bounds is None:
            raise MalformedQuery("operation has no declared bounds")
        return self._op.element_bounds(self)


@dataclass
class DecodedResult:
    values: list
    count: int
    operation: OperationSpec
    flags: dict = field(default_factory=dict)


@dataclass
class RegressionModel:
    kind: str  # "linear" | "logistic"
    coefficients: list
    metadata: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# rho: local plaintext encodings


def _check_records(op: OperationSpec, records):
    """Kinds over the RANGE as a value universe silently exclude records
    outside it; strict kinds reject out-of-bounds records since they would
    poison the sums."""
    strict = op._op.strict if op.bounds is not None else None
    for rec in records:
        if len(rec) != op.arity:
            raise ArityMismatch(f"{op.kind} expects {op.arity}-tuples, got {rec!r}")
        if strict is not None:
            for v in rec[strict]:
                if not op.bounds[0] <= v < op.bounds[1]:
                    raise ValueOutOfBounds(f"{v} outside [{op.bounds[0]}, {op.bounds[1]})")


def _fx(x, op: OperationSpec) -> int:
    # the encodable bound is enforced at encryption time, not here
    return elgamal.fixed_encode(x, op.value_scale, max_message=None).raw


def _marker(mode: str, rng) -> int:
    return 1 if mode == "bits" else 1 + rng.randbelow(RANDOM_MARKER_MAX)


def plaintext_encode(op: OperationSpec, records, rng) -> tuple[list[int], int]:
    """The local encoding rho as raw integers (pre-encryption)."""
    records = [r if isinstance(r, (tuple, list)) else (r,) for r in records]
    _check_records(op, records)
    return op._op.encode(op, records, rng)


def encode_minmax(local_extreme: int, bounds, kind: str, mode: str, rng) -> list[int]:
    """Position vector for min/max: strictly-greater (min) or strictly-smaller
    (max) positions than the local extreme are marked; the OR-combination
    across DPs puts the global extreme next to the first/last marked slot."""
    lo, hi = bounds
    if not lo <= local_extreme < hi:
        raise ValueOutOfBounds(f"{local_extreme} outside [{lo}, {hi})")
    out = []
    for j in range(lo, hi):
        marked = j > local_extreme if kind == "min" else j < local_extreme
        out.append(_marker(mode, rng) if marked else 0)
    return out


def logreg_index_tuples(d: int, k: int) -> list[tuple]:
    """Deterministic coefficient order: (tau, r_1..r_tau) over indices 0..D,
    index 0 being the constant offset feature."""
    out = []
    for t in range(1, k + 1):
        out.extend((t, rs) for rs in itertools.product(range(d + 1), repeat=t))
    return out


# ---------------------------------------------------------------------------
# encryption wrappers


def encode_with_nonces(group, op: OperationSpec, records, pk, rng,
                       max_message: int = elgamal.DEFAULT_MAX_MESSAGE):
    """Encrypt the local encoding; returns (ciphertext list, count last; raw
    ints; nonces). Range proofs commit to the raw values under those nonces."""
    raws, c = plaintext_encode(op, records, rng)
    nonces = [group.random_scalar(rng) for _ in raws]
    cts = []
    for raw, nonce in zip(raws, nonces):
        if abs(raw) > max_message:
            raise elgamal.MessageTooLarge(f"encoded value {raw} exceeds bound")
        cts.append(elgamal.encrypt_with_nonce(group, raw, pk, nonce))
    cts.append(elgamal.encrypt(group, c, pk, rng))
    return cts, raws, nonces


def neutral_response(group, op: OperationSpec, pk, rng) -> list:
    """Fresh encryptions of the neutral encoding: all zeros in the negated
    bit representation, zero count. Indistinguishable from a real response."""
    return [elgamal.encrypt(group, 0, pk, rng) for _ in range(op.dimension + 1)]


# ---------------------------------------------------------------------------
# pi: querier-side decoding


def decode(op: OperationSpec, values: list[int], count: int) -> DecodedResult:
    """Apply the operation's post-processing to decrypted aggregates.

    `values` are raw integers (bitwise operations pre-reduced to 0/1 by the
    zero-test); `count` is the decrypted aggregate record count.
    """
    flags = {}
    out = op._op.decode(op, values, count, float(op.value_scale), flags)
    return DecodedResult(out, count, op, flags)


def _need_count(count):
    if count <= 0:
        raise ZeroCount("aggregate count is zero")
    return count


def solve_linreg(values: list[int], count: int, d: int, scale: int) -> RegressionModel:
    """Assemble and solve the normal-equation system from aggregated sums."""
    _need_count(count)
    s = float(scale)
    sx = [v / s for v in values[:d]]
    sxx_flat = [v / s for v in values[d : d + d * (d + 1) // 2]]
    sy = values[d + d * (d + 1) // 2] / s
    syx = [v / s for v in values[d + d * (d + 1) // 2 + 1 :]]
    mat = np.zeros((d + 1, d + 1))
    mat[0, 0] = count
    for e in range(d):
        mat[0, e + 1] = mat[e + 1, 0] = sx[e]
    pos = 0
    for e in range(d):
        for z in range(e, d):
            mat[e + 1, z + 1] = mat[z + 1, e + 1] = sxx_flat[pos]
            pos += 1
    rhs = np.array([sy] + syx)
    rank = np.linalg.matrix_rank(mat)
    if rank < d + 1:
        if count >= d + 1:
            # enough samples to identify the fit, so the features are degenerate
            raise SingularSystem("normal-equation matrix is rank-deficient")
        coeffs = np.linalg.lstsq(mat, rhs, rcond=None)[0]  # min-norm exact fit
    else:
        try:
            coeffs = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(str(exc)) from exc
    residual = float(np.linalg.norm(mat @ coeffs - rhs))
    if residual > 1e-6 * max(1.0, float(np.linalg.norm(rhs))):
        raise SingularSystem(f"normal-equation residual {residual} too large")
    return RegressionModel("linear", [float(c) for c in coeffs],
                           {"residual": residual})


# ---------------------------------------------------------------------------
# the operation table


@dataclass(frozen=True)
class _Op:
    """One operation kind. `dimension(spec)` and `element_bounds(spec)` are
    rules over the spec; `encode(spec, records, rng)` returns the raw values
    and the record count, and `decode(spec, values, count, scale, flags)`
    the result values."""
    dimension: Callable
    element_bounds: Callable
    encode: Callable
    decode: Callable
    aliases: tuple = ()
    arity: int = 1  # values per record, plus feature_count if labelled
    labelled: bool = False  # records are feature_count features, then a label
    integer_scale: bool = False
    bitwise: bool = False
    strict: slice | None = None  # the values of a record that must lie in the bounds
    needs_bounds: bool = False
    limits: tuple = ()  # as _LIMITS, for this kind alone


def _summed(terms, decode, strict=slice(None), **kw) -> _Op:
    """A kind that encodes a list of (term, span) pairs: each term is a
    per-record value summed over the records, and `span(lo, hi, largest
    magnitude)` bounds one record's term. `terms` is the list, or a rule
    that builds it from the spec. The `strict` values of each record must
    lie in the bounds, all of them by default."""
    rule = terms if callable(terms) else (lambda op: terms)

    def bounds(op):
        lo, hi = op.bounds
        m = op.max_records * op.value_scale
        spans = [span(lo, hi, max(abs(lo), abs(hi))) for _, span in rule(op)]
        return [(m * low, m * high + 1) for low, high in spans]

    def encode(op, records, rng):
        return [_fx(sum(term(r) for r in records), op) for term, _ in rule(op)], len(records)

    return _Op(lambda op: len(rule(op)), bounds, encode, decode, strict=strict, **kw)


def _sum_span(lo, hi, big):
    return min(0, lo), max(0, hi)  # 0 too: a DP may hold fewer than max_records records


def _square_span(lo, hi, big):
    return 0, big * big


def _power_span(t):
    return lambda lo, hi, big: (-big**t, big**t)


def _linreg_terms(op):
    """Normal-equation sums: x_e, x_e x_z (e <= z), y, y x_e."""
    d = op.feature_count

    def times(i, j):
        return (lambda r: r[i] * r[j]), _power_span(2)

    return ([(itemgetter(e), _sum_span) for e in range(d)]
            + [times(e, z) for e in range(d) for z in range(e, d)]
            + [(itemgetter(d), _sum_span)] + [times(d, e) for e in range(d)])


def _logreg_terms(op):
    """One approximated-loss sum per (tau, r_1..r_tau) of logreg_index_tuples."""
    d = op.feature_count

    def term(t, rs):
        def value(r):
            y = r[d]
            if y not in (0, 1):
                raise LabelNotBinary(f"label {y!r} not in {{0,1}}")
            x = (1.0, *r[:d])
            prod = 1.0
            for idx in rs:
                prod *= x[idx]
            return (y - y * (-1) ** t - 1) * prod
        return value, _power_span(t)

    return [term(t, rs) for t, rs in logreg_index_tuples(d, op.approx_degree)]


def _scaled(op, v, count, s, flags):
    return [x / s for x in v]


def _spread(root):
    def decode_spread(op, v, count, s, flags):
        mean = v[0] / (s * _need_count(count))
        var = v[1] / (s * count) - mean * mean
        if var < 0:
            flags["clamped_negative_variance"] = var
            var = 0.0
        return [root(var), mean]
    return decode_spread


def _decode_cosim(op, v, count, s, flags):
    denom = math.sqrt(v[1] / s) * math.sqrt(v[2] / s)
    if denom == 0:
        raise ZeroCount("cosine similarity undefined on zero vectors")
    return [(v[0] / s) / denom]


def _decode_r2(op, v, count, s, flags):
    _need_count(count)
    ss_tot = v[1] / s - (v[0] / s) ** 2 / count
    if ss_tot <= 0:
        raise ZeroCount("zero label variance, R^2 undefined")
    return [1.0 - (v[2] / s) / ss_tot]


def _decode_linreg(op, v, count, s, flags):
    flags["model"] = solve_linreg(v, count, op.feature_count, op.value_scale)
    return list(flags["model"].coefficients)


def _width(op):
    return op.bounds[1] - op.bounds[0]


def _bits(dimension, encode, read, **kw) -> _Op:
    """A bit-valued kind: every element is 0 or a marker, and `read(spec,
    marked)` turns the positions marked in the aggregate into the result."""
    def bounds(op):
        return [(0, 2 if op.bitwise_mode == "bits" else RANDOM_MARKER_MAX + 1)] * dimension(op)

    def decode(op, v, count, s, flags):
        return read(op, [j for j, x in enumerate(v) if x])

    return _Op(dimension, bounds, encode, decode, integer_scale=True, bitwise=True, **kw)


def _marks(marked):
    """Bit-valued encoder: a marker at each position in `marked(spec, records)`."""
    def encode(op, records, rng):
        at = marked(op, records)
        return ([_marker(op.bitwise_mode, rng) if j in at else 0 for j in range(op.dimension)],
                len(records))
    return encode


def _extreme(kind, pick):
    """min/max encoder (see encode_minmax); records outside the RANGE are skipped."""
    def encode(op, records, rng):
        lo, hi = op.bounds
        inside = [r[0] for r in records if lo <= r[0] < hi]
        if not inside:
            return [0] * op.dimension, 0
        return encode_minmax(pick(inside), op.bounds, kind, op.bitwise_mode, rng), len(inside)
    return encode


def _members(op, records):
    """RANGE offsets of the records inside it, each in the bin of its floor;
    records outside are skipped."""
    lo, hi = op.bounds
    return [math.floor(r[0]) - lo for r in records if lo <= r[0] < hi]


def _frequencies(op, records, rng):
    out = [0] * op.dimension
    counted = _members(op, records)
    for j in counted:
        out[j] += 1
    return out, len(counted)


def _values(op, positions):
    return [float(op.bounds[0] + j) for j in positions]


_X = (itemgetter(0), _sum_span)
_SPREAD = (_X, (lambda r: r[0] * r[0], _square_span))
_OPS = {
    "sum": _summed((_X,), _scaled),
    "mean": _summed((_X,), lambda op, v, n, s, flags: [v[0] / (s * _need_count(n))],
                    aliases=("average", "avg")),
    "variance": _summed(_SPREAD, _spread(lambda var: var), aliases=("var",)),
    "stddev": _summed(_SPREAD, _spread(math.sqrt), aliases=("std_dev", "std")),
    "and": _bits(lambda op: 1,  # a DP marks a record that breaks the AND
                 _marks(lambda op, records: () if all(r[0] for r in records) else (0,)),
                 lambda op, at: [0.0 if at else 1.0]),
    "or": _bits(lambda op: 1,
                _marks(lambda op, records: (0,) if any(r[0] for r in records) else ()),
                lambda op, at: [1.0 if at else 0.0]),
    "min": _bits(_width, _extreme("min", min), lambda op, at: [
        float(op.bounds[0] + at[0] - 1 if at else op.bounds[1] - 1)], needs_bounds=True),
    "max": _bits(_width, _extreme("max", max), lambda op, at: [
        float(op.bounds[0] + at[-1] + 1 if at else op.bounds[0])], needs_bounds=True),
    "freq_count": _Op(_width, lambda op: [(0, op.max_records + 1)] * _width(op), _frequencies,
                      _scaled, aliases=("frequency_count", "freqcount"), integer_scale=True,
                      needs_bounds=True),
    "set_intersection": _bits(  # a DP with records marks the values it lacks
        _width, _marks(lambda op, records: records and (
            set(range(op.dimension)) - set(_members(op, records)))),
        lambda op, at: _values(op, sorted(set(range(_width(op))) - set(at))),
        aliases=("intersection",), needs_bounds=True),
    "set_union": _bits(_width, _marks(lambda op, records: set(_members(op, records))),
                       _values, aliases=("union",), needs_bounds=True),
    "cosim": _summed(((lambda r: r[0] * r[1], _power_span(2)),
                      (lambda r: r[0] ** 2, _square_span), (lambda r: r[1] ** 2, _square_span)),
                     _decode_cosim, aliases=("cosine_similarity",), arity=2),
    "r2": _summed((_X, (lambda r: r[0] ** 2, _square_span),
                   (lambda r: (r[0] - r[1]) ** 2, lambda lo, hi, big: (0, (hi - lo) ** 2))),
                  _decode_r2, arity=2),
    "lin_reg": _summed(_linreg_terms, _decode_linreg, aliases=("linear_regression",),
                       labelled=True, limits=(("feature_count", 1, None),)),
    "log_reg": _summed(_logreg_terms, _scaled, aliases=("logistic_regression",), labelled=True,
                       strict=slice(-1),  # the 0/1 label may lie outside the bounds
                       limits=(("approx_degree", 1, len(TAYLOR_LOGSIGMOID) - 1),)),
}
KINDS = tuple(_OPS)
ALIASES = {name: kind for kind, op in _OPS.items() for name in (kind, *op.aliases)}


def default_feature_count(kind: str, n_attributes: int) -> int:
    """Labelled kinds take every attribute but the last (the label) as a feature."""
    return max(1, n_attributes - 1) if _OPS[kind].labelled else 1


# ---------------------------------------------------------------------------
# logistic regression training on aggregated A coefficients


def logsigmoid_coeffs(k: int, method: str = "taylor", span: float = 8.0):
    """Polynomial approximation coefficients a_0..a_k of log(1/(1+exp(-x))).

    "taylor" uses the exact expansion at 0 (k <= 4); "lsq" least-squares
    fits the log-sigmoid on [-span, span], the deterministic stand-in for
    the area-minimizing alternative.
    """
    if method == "taylor":
        if k > 4:
            raise InvalidArgs("taylor coefficients tabulated up to degree 4")
        return list(TAYLOR_LOGSIGMOID[: k + 1])
    if method == "lsq":
        xs = np.linspace(-span, span, 2001)
        ys = np.log1p(np.exp(-np.abs(xs))) * -1 + np.minimum(xs, 0.0)  # log sigmoid, stable
        return [float(c) for c in np.polynomial.polynomial.polyfit(xs, ys, k)]
    raise InvalidArgs(f"unknown coefficient method {method!r}")


def logreg_loss_and_grad(theta, a_values, count, d, k, lam, coeffs):
    """J_a(theta) and its gradient from aggregated A coefficients.

    J_a = -a_0 + (1/N) sum_tau a_tau sum_tuples theta-products * A_tuple
          + (lam / 2N) sum_{eta>=1} theta_eta^2
    """
    theta = np.asarray(theta, dtype=float)
    n = float(count)
    tuples = logreg_index_tuples(d, k)
    loss = -coeffs[0]
    grad = np.zeros(d + 1)
    for (t, rs), a_val in zip(tuples, a_values):
        prod = 1.0
        for idx in rs:
            prod *= theta[idx]
        loss += coeffs[t] * prod * a_val / n
        for pos in range(t):
            partial = 1.0
            for q, idx in enumerate(rs):
                if q != pos:
                    partial *= theta[idx]
            grad[rs[pos]] += coeffs[t] * partial * a_val / n
    reg_mask = np.ones(d + 1)
    reg_mask[0] = 0.0
    loss += lam / (2 * n) * float(np.sum((theta * reg_mask) ** 2))
    grad += lam / n * theta * reg_mask
    return float(loss), grad


def train_logreg(a_values, count, d, k, lam=0.0, learning_rate=0.1,
                 max_iter=100, coeffs=None) -> RegressionModel:
    """Gradient descent on the approximated cost; deterministic given inputs."""
    if count <= 0:
        raise ZeroCount("cannot train on an empty aggregate")
    if coeffs is None:
        coeffs = logsigmoid_coeffs(k)
    theta = np.zeros(d + 1)
    first_loss = None
    loss = 0.0
    for _ in range(max_iter):
        loss, grad = logreg_loss_and_grad(theta, a_values, count, d, k, lam, coeffs)
        if first_loss is None:
            first_loss = abs(loss) + 1.0
        if not np.isfinite(loss) or abs(loss) > 1e6 * first_loss:
            raise Divergence(f"loss {loss} exceeded guard")
        theta = theta - learning_rate * grad
    return RegressionModel(
        "logistic",
        [float(v) for v in theta],
        {"lambda": lam, "approx_coeffs": list(coeffs), "iterations": max_iter,
         "final_loss": loss},
    )


def predict_logreg(model: RegressionModel, features) -> int:
    """Label 1 iff the hypothesis 1/(1+exp(theta.x)) exceeds 1/2."""
    theta = model.coefficients
    z = theta[0] + sum(t * x for t, x in zip(theta[1:], features))
    return 1 if z < 0 else 0


# ---------------------------------------------------------------------------
# iterative extreme (binary-search range reduction)


def iterative_workload(d: int, entropy_limit: int) -> tuple[int, int]:
    """(rounds g, ciphertexts per DP n): g = floor(log2(d/EL)), n = g + ceil(d/2^g).

    g is the number of halvings that keep the final (leaked) interval at
    least EL wide; the final step runs one position ciphertext per value of
    the remaining interval.
    """
    if d < 1 or entropy_limit < 1:
        raise InvalidArgs("need positive range width and entropy limit")
    if d <= entropy_limit:
        return 0, d
    g = int(math.floor(math.log2(d / entropy_limit)))
    return g, g + math.ceil(d / 2**g)


def iterative_extreme(kind: str, bounds, entropy_limit: int, issue_query):
    """Find the global min/max with g OR-subrange queries, then one extreme
    query on the remaining interval.

    `issue_query("exists", lo, hi) -> bool` answers whether any DP holds a
    value in [lo, hi); `issue_query(kind, lo, hi) -> int` runs the final
    extreme query. Returns (value, {"rounds", "ciphertexts"}).
    """
    if kind not in ("min", "max"):
        raise InvalidArgs("iterative extreme supports min and max")
    lo, hi = bounds
    g, n = iterative_workload(hi - lo, entropy_limit)
    for _ in range(g):
        mid = (lo + hi) // 2
        try:
            if kind == "max":
                exists = issue_query("exists", mid, hi)
                lo, hi = (mid, hi) if exists else (lo, mid)
            else:
                exists = issue_query("exists", lo, mid)
                lo, hi = (lo, mid) if exists else (mid, hi)
        except Exception as exc:
            raise CallbackFailure(f"range-reduction query failed: {exc}") from exc
    try:
        value = issue_query(kind, lo, hi)
    except Exception as exc:
        raise CallbackFailure(f"final extreme query failed: {exc}") from exc
    return value, {"rounds": g, "ciphertexts": g + (hi - lo)}


# ---------------------------------------------------------------------------
# analytic bounds


def bitwise_error_prob(n_dps: int, group_order: int, exact: bool = False):
    """P(sum of uniform nonzero residues = 0 mod group order) via the
    recursion P_n = (1 - P_{n-1}) / (order - 1), P_1 = 0."""
    if n_dps < 2 or group_order < 3:
        raise InvalidArgs("need n_dps >= 2 and group_order >= 3")
    p = Fraction(0)
    for _ in range(n_dps - 1):
        p = (1 - p) / (group_order - 1)
    return p if exact else float(p)


def malicious_influence(a_h: float, h: int, d: int, e: float, c: int) -> float:
    """Relative error |1 - a_m/a_h| when d colluding DPs each report (e, c/d
    count) against h honest DPs averaging a_h."""
    if h <= 0:
        raise InvalidArgs("need at least one honest DP")
    if h + c <= 0 or a_h == 0:
        raise InvalidArgs("degenerate denominator")
    a_m = (h * a_h + e * d) / (h + c)
    return abs(1.0 - a_m / a_h)
