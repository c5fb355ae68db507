"""Encodable operations: per-DP encodings, querier-side decodings, neutral
responses, regression encodings, and the iterative range-reduction scheme.

An operation f over distributed records factors into a local encoding rho
(each DP computes a short vector V plus its record count c on its own
data) and a post-processing pi applied by the querier to the
homomorphically aggregated vectors. Bit-valued operations use a negated
representation so that every neutral response is an all-zeros encoding:
AND/set-intersection encode "input violates the identity" (so the
aggregate is zero iff the AND holds), OR/set-union encode membership
directly (aggregate nonzero iff the OR holds).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

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

KINDS = (
    "sum", "mean", "variance", "stddev", "and", "or", "min", "max",
    "freq_count", "set_intersection", "set_union", "cosim", "r2",
    "lin_reg", "log_reg",
)
BIT_KINDS = ("and", "or", "min", "max", "set_intersection", "set_union")
RANGE_KINDS = ("min", "max", "freq_count", "set_intersection", "set_union")
RANDOM_MARKER_MAX = 255  # random-integer bitwise marker bound, keeps sums decodable


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
        if self.kind not in KINDS:
            raise MalformedQuery(f"unknown operation {self.kind!r}")
        if self.kind in RANGE_KINDS and self.bounds is None:
            raise MalformedQuery(f"{self.kind} needs RANGE bounds")
        if self.bounds is not None and self.bounds[0] >= self.bounds[1]:
            raise MalformedQuery(f"empty bounds {self.bounds}")
        if self.bitwise_mode not in ("random", "bits"):
            raise MalformedQuery(f"unknown bitwise mode {self.bitwise_mode!r}")

    @property
    def dimension(self) -> int:
        kind, d = self.kind, self.feature_count
        if kind in ("sum", "mean", "and", "or"):
            return 1
        if kind in ("variance", "stddev"):
            return 2
        if kind in ("cosim", "r2"):
            return 3
        if kind in RANGE_KINDS:
            return self._width
        if kind == "lin_reg":
            return 2 * d + 1 + d * (d + 1) // 2
        return sum((d + 1) ** t for t in range(1, self.approx_degree + 1))

    @property
    def _width(self) -> int:
        return self.bounds[1] - self.bounds[0]

    @property
    def arity(self) -> int:
        if self.kind in ("cosim", "r2"):
            return 2
        if self.kind in ("lin_reg", "log_reg"):
            return self.feature_count + 1
        return 1

    @property
    def value_scale(self) -> int:
        """Bitwise and counting encodings stay at integer scale."""
        return 1 if self.kind in BIT_KINDS + ("freq_count",) else self.scale

    @property
    def zero_test_only(self) -> bool:
        """Bitwise results are read as zero/nonzero points, never dlog-decoded
        (after obfuscation the nonzero values are full-range scalars)."""
        return self.kind in BIT_KINDS

    @property
    def uses_obfuscation(self) -> bool:
        return self.kind in BIT_KINDS and self.bitwise_mode == "bits"

    def element_bounds(self) -> list[tuple[int, int]]:
        """Per-element plaintext range [lo, hi) each sent value must lie in,
        at raw (fixed-point) scale; the basis for range proofs."""
        if self.bounds is None:
            raise MalformedQuery("operation has no declared bounds")
        lo, hi = self.bounds
        s = self.value_scale
        mr = self.max_records
        big = max(abs(lo), abs(hi))
        if self.kind in ("min", "max", "set_intersection", "set_union", "and", "or"):
            top = 2 if self.bitwise_mode == "bits" else RANDOM_MARKER_MAX + 1
            return [(0, top)] * self.dimension
        if self.kind == "freq_count":
            return [(0, mr + 1)] * self.dimension
        sum_b = (min(0, mr * s * lo), mr * s * hi + 1)
        sq_b = (0, mr * s * big * big + 1)
        if self.kind in ("sum", "mean"):
            return [sum_b]
        if self.kind in ("variance", "stddev"):
            return [sum_b, sq_b]
        if self.kind == "cosim":
            cross = (-mr * s * big * big, mr * s * big * big + 1)
            return [cross, sq_b, sq_b]
        if self.kind == "r2":
            width = hi - lo
            return [sum_b, sq_b, (0, mr * s * width * width + 1)]
        if self.kind == "lin_reg":
            d = self.feature_count
            prod = (-mr * s * big * big, mr * s * big * big + 1)
            return [sum_b] * d + [prod] * (d * (d + 1) // 2) + [sum_b] + [prod] * d
        if self.kind == "log_reg":
            out = []
            for t in range(1, self.approx_degree + 1):
                m = mr * s * big**t
                out.extend([(-m, m + 1)] * ((self.feature_count + 1) ** t))
            return out
        raise MalformedQuery(f"no element bounds for {self.kind}")


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
    """Positional kinds (min/max/freq/set) treat the bounds as the value
    universe and silently exclude records outside it; numeric aggregates
    reject out-of-bounds records since they would poison the sums."""
    strict = op.bounds is not None and op.kind in (
        "sum", "mean", "variance", "stddev", "cosim")
    for rec in records:
        if len(rec) != op.arity:
            raise ArityMismatch(f"{op.kind} expects {op.arity}-tuples, got {rec!r}")
        if strict:
            for v in rec[: 1 if op.kind != "cosim" else 2]:
                if not op.bounds[0] <= v < op.bounds[1]:
                    raise ValueOutOfBounds(f"{v} outside [{op.bounds[0]}, {op.bounds[1]})")


def _fx(x, op: OperationSpec) -> int:
    # the encodable bound is enforced at encryption time, not here
    return elgamal.fixed_encode(x, op.value_scale, max_message=None).raw


def _marker(op: OperationSpec, rng) -> int:
    if op.bitwise_mode == "bits":
        return 1
    return 1 + rng.randbelow(RANDOM_MARKER_MAX)


def plaintext_encode(op: OperationSpec, records, rng) -> tuple[list[int], int]:
    """The local encoding rho as raw integers (pre-encryption)."""
    records = [r if isinstance(r, (tuple, list)) else (r,) for r in records]
    _check_records(op, records)
    c = len(records)
    kind = op.kind
    if kind in ("sum", "mean"):
        return [_fx(sum(r[0] for r in records), op)], c
    if kind in ("variance", "stddev"):
        vals = [r[0] for r in records]
        return [_fx(sum(vals), op), _fx(sum(v * v for v in vals), op)], c
    if kind in ("and", "or"):
        bits = [int(bool(r[0])) for r in records]
        local = all(bits) if kind == "and" else any(bits)
        violates = (not local) if kind == "and" else local
        return [_marker(op, rng) if violates else 0], c
    if kind in ("min", "max"):
        inside = [r[0] for r in records if op.bounds[0] <= r[0] < op.bounds[1]]
        if not inside:
            return [0] * op.dimension, 0
        extreme = min(inside) if kind == "min" else max(inside)
        return encode_minmax(extreme, op.bounds, kind, op.bitwise_mode, rng), len(inside)
    if kind == "freq_count":
        lo, hi = op.bounds
        out = [0] * op.dimension
        counted = 0
        for r in records:
            if lo <= r[0] < hi:
                out[int(r[0]) - lo] += 1
                counted += 1
        return out, counted
    if kind in ("set_intersection", "set_union"):
        lo, hi = op.bounds
        members = {int(r[0]) - lo for r in records if lo <= r[0] < hi}
        out = []
        for j in range(op.dimension):
            if kind == "set_union":
                marked = j in members  # membership itself
            else:
                marked = records and j not in members  # violates "everyone has it"
            out.append(_marker(op, rng) if marked else 0)
        return out, c
    if kind == "cosim":
        a = sum(r[0] * r[1] for r in records)
        b = sum(r[0] ** 2 for r in records)
        d = sum(r[1] ** 2 for r in records)
        return [_fx(a, op), _fx(b, op), _fx(d, op)], c
    if kind == "r2":
        sy = sum(r[0] for r in records)
        syy = sum(r[0] ** 2 for r in records)
        res = sum((r[0] - r[1]) ** 2 for r in records)
        return [_fx(sy, op), _fx(syy, op), _fx(res, op)], c
    if kind == "lin_reg":
        return encode_linreg_raw(records, op), c
    if kind == "log_reg":
        return encode_logreg_raw(records, op), c
    raise MalformedQuery(f"unknown operation {kind!r}")


def encode_minmax(local_extreme: int, bounds, kind: str, mode: str, rng) -> list[int]:
    """Position vector for min/max: strictly-greater (min) or strictly-smaller
    (max) positions than the local extreme are marked; the OR-combination
    across DPs puts the global extreme next to the first/last marked slot."""
    lo, hi = bounds
    if not lo <= local_extreme < hi:
        raise ValueOutOfBounds(f"{local_extreme} outside [{lo}, {hi})")
    out = []
    fake_op = OperationSpec(kind="or", bitwise_mode=mode)
    for j in range(lo, hi):
        marked = j > local_extreme if kind == "min" else j < local_extreme
        out.append(_marker(fake_op, rng) if marked else 0)
    return out


def encode_linreg_raw(records, op: OperationSpec) -> list[int]:
    d = op.feature_count
    if d < 1:
        raise MalformedQuery("lin_reg needs at least one feature")
    sx = [sum(r[e] for r in records) for e in range(d)]
    sxx = [
        sum(r[e] * r[z] for r in records)
        for e in range(d)
        for z in range(e, d)
    ]
    sy = sum(r[d] for r in records)
    syx = [sum(r[d] * r[e] for r in records) for e in range(d)]
    return [_fx(v, op) for v in sx + sxx + [sy] + syx]


def logreg_index_tuples(d: int, k: int) -> list[tuple]:
    """Deterministic coefficient order: (tau, r_1..r_tau) over indices 0..D,
    index 0 being the constant offset feature."""
    out = []
    for t in range(1, k + 1):
        out.extend((t, rs) for rs in itertools.product(range(d + 1), repeat=t))
    return out


def encode_logreg_raw(records, op: OperationSpec) -> list[int]:
    d, k = op.feature_count, op.approx_degree
    if k < 1:
        raise MalformedQuery("log_reg needs approximation degree >= 1")
    for r in records:
        if r[d] not in (0, 1):
            raise LabelNotBinary(f"label {r[d]!r} not in {{0,1}}")
    sums = []
    for t, rs in logreg_index_tuples(d, k):
        total = 0.0
        sign = (-1) ** t
        for r in records:
            x = (1.0,) + tuple(r[:d])
            y = r[d]
            coeff = y - y * sign - 1
            prod = 1.0
            for idx in rs:
                prod *= x[idx]
            total += coeff * prod
        sums.append(total)
    return [_fx(v, op) for v in sums]


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
    s = float(op.value_scale)
    kind = op.kind
    flags = {}
    if kind == "sum":
        return DecodedResult([values[0] / s], count, op)
    if kind == "mean":
        _need_count(count)
        return DecodedResult([values[0] / (s * count)], count, op)
    if kind in ("variance", "stddev"):
        _need_count(count)
        mean = values[0] / (s * count)
        var = values[1] / (s * count) - mean * mean
        if var < 0:
            flags["clamped_negative_variance"] = var
            var = 0.0
        out = [math.sqrt(var)] if kind == "stddev" else [var]
        return DecodedResult(out + [mean], count, op, flags)
    if kind in ("and", "or"):
        nonzero = values[0] != 0
        result = (not nonzero) if kind == "and" else nonzero
        return DecodedResult([1.0 if result else 0.0], count, op)
    if kind in ("min", "max"):
        lo, hi = op.bounds
        marked = [j for j, v in enumerate(values) if v != 0]
        if kind == "min":
            value = lo + (marked[0] - 1) if marked else hi - 1
        else:
            value = lo + (marked[-1] + 1) if marked else lo
        return DecodedResult([float(value)], count, op)
    if kind == "freq_count":
        return DecodedResult([float(v) for v in values], count, op)
    if kind == "set_union":
        lo, _ = op.bounds
        return DecodedResult([float(lo + j) for j, v in enumerate(values) if v != 0],
                             count, op)
    if kind == "set_intersection":
        lo, _ = op.bounds
        return DecodedResult([float(lo + j) for j, v in enumerate(values) if v == 0],
                             count, op)
    if kind == "cosim":
        denom = math.sqrt(values[1] / s) * math.sqrt(values[2] / s)
        if denom == 0:
            raise ZeroCount("cosine similarity undefined on zero vectors")
        return DecodedResult([(values[0] / s) / denom], count, op)
    if kind == "r2":
        _need_count(count)
        ss_tot = values[1] / s - (values[0] / s) ** 2 / count
        if ss_tot <= 0:
            raise ZeroCount("zero label variance, R^2 undefined")
        return DecodedResult([1.0 - (values[2] / s) / ss_tot], count, op)
    if kind == "lin_reg":
        model = solve_linreg(values, count, op.feature_count, op.value_scale)
        return DecodedResult(list(model.coefficients), count, op,
                             {"model": model})
    if kind == "log_reg":
        return DecodedResult([v / s for v in values], count, op)
    raise MalformedQuery(f"unknown operation {kind!r}")


def _need_count(count):
    if count <= 0:
        raise ZeroCount("aggregate count is zero")


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
# logistic regression training on aggregated A coefficients


TAYLOR_LOGSIGMOID = (-math.log(2.0), 0.5, -0.125, 0.0, 1.0 / 192.0)


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
