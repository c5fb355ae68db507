"""The benchmark's workloads: topology, seeded inputs, the query cycle, and
the plaintext oracles every result is checked against.

Nothing here calls into privq's encodings or protocols to compute an
expected value: each oracle recomputes the answer from the raw records
(statistics, the approximated logistic-regression sums, a numpy
gradient-descent trainer, the quantized Laplace noise list).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import statistics

import numpy as np

# Every record carries a selector `k`; queries filter with `WHERE k >= t`,
# t drawn without repetition from THRESHOLDS, so every query text (and so
# every query id) in a run is distinct. Three-digit thresholds keep the
# query bytes, and so the wire bytes, the same length for every seed.
K_RANGE = 10_000
THRESHOLDS = range(100, 1000)

# labels of the log_reg workload: P(y = 1 | x) = 1 / (1 + exp(W . (1, x))),
# the sign convention of the querier's trainer
LOGREG_W = (0.2, -3.0, 2.0, -1.0)
LOGREG_FEATURES = ("a", "b", "c")


class CheckFailed(AssertionError):
    """A result disagreed with the benchmark's own computation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def close(got, want, tol, what):
    require(len(got) == len(want), f"{what}: {len(got)} values, expected {len(want)}")
    for g, w in zip(got, want):
        require(abs(g - w) <= tol + 1e-9, f"{what}: got {list(got)}, expected {list(want)}")


# ---------------------------------------------------------------------------
# independent oracles


def laplace_noise_list(epsilon, delta_f, theta, size):
    """The published noise list: Laplace(0, delta_f/epsilon) quantized onto
    multiples of theta, with the cumulative count through atom k set to
    round(size * mean(F(k theta), F((k+1) theta))) and mirrored around 0."""
    b = delta_f / epsilon

    def cdf(x):
        return 0.5 * math.exp(x / b) if x < 0 else 1.0 - 0.5 * math.exp(-x / b)

    cum = []
    k = 0
    while not cum or cum[-1] < size:
        c = round(size * (cdf(k * theta) + cdf((k + 1) * theta)) / 2.0)
        c = max(c, cum[-1] if cum else size // 2 + 1)
        cum.append(min(c, size))
        k += 1
    values = [0.0] * (2 * cum[0] - size)
    for k in range(1, len(cum)):
        values += [k * theta, -k * theta] * (cum[k] - cum[k - 1])
    return sorted(values)


def fixed_point(x, scale):
    """Round half away from zero, as the DPs' fixed-point encoding does."""
    return int(math.copysign(math.floor(abs(x) * scale + 0.5), x))


def logreg_sums(rows):
    """The approximated-loss sums of the paper for degree 2: for every
    degree t in (1, 2) and index tuple r over (1, features), the sum over
    records of (y - y(-1)^t - 1) * prod_{i in r} x_i."""
    x = np.column_stack([np.ones(len(rows))]
                        + [[row[f] for row in rows] for f in LOGREG_FEATURES])
    y = np.array([row["y"] for row in rows], dtype=float)
    out = []
    for t in (1, 2):
        coeff = y - y * (-1) ** t - 1
        for idx in itertools.product(range(x.shape[1]), repeat=t):
            out.append(float(np.sum(coeff * np.prod(x[:, list(idx)], axis=1))))
    return out


def logreg_gd(rows, learning_rate=0.1, iterations=100):
    """Plaintext gradient descent on the exact logistic loss."""
    x = np.array([[1.0] + [row[f] for f in LOGREG_FEATURES] for row in rows])
    y = np.array([row["y"] for row in rows], dtype=float)
    theta = np.zeros(x.shape[1])
    for _ in range(iterations):
        h = 1.0 / (1.0 + np.exp(x @ theta))
        theta -= learning_rate * (x.T @ (y - h)) / len(rows)
    return theta


def logreg_accuracy(theta, rows):
    x = np.array([[1.0] + [row[f] for f in LOGREG_FEATURES] for row in rows])
    y = np.array([row["y"] for row in rows])
    return float(np.mean(((x @ np.asarray(theta)) < 0).astype(int) == y))


# ---------------------------------------------------------------------------
# workloads


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    n_cns: int
    n_dps: int
    n_vns: int
    records_per_dp: int
    ops: tuple
    max_message: int = 1 << 22
    scale: int = 100
    noise_list_size: int = 100

    def topology_kwargs(self):
        return dict(n_cns=self.n_cns, n_dps=self.n_dps, n_vns=self.n_vns,
                    profile=self.profile, scale=self.scale,
                    max_records=self.records_per_dp, max_message=self.max_message,
                    thresholds={"t": 1.0, "t_sub": 1.0},
                    cdp_params={"list_size": self.noise_list_size})

    def dp_ids(self):
        return [f"DP{i + 1}" for i in range(self.n_dps)]

    def make_data(self, rng: random.Random) -> dict:
        return {dp: [dict(k=rng.randrange(K_RANGE), **self.record(rng))
                     for _ in range(self.records_per_dp)]
                for dp in self.dp_ids()}

    def record(self, rng):
        return {"x": rng.randrange(100)}

    def query(self, op, threshold, dps=None):
        """(query text, parse_query keyword arguments); `dps` defaults to all."""
        on = ",".join(dps or self.dp_ids())
        return f"SELECT {op} x ON {on} WHERE k >= {threshold}", {}

    def expect(self, op, rows):
        raise NotImplementedError

    def check(self, op, result, expected):
        raise NotImplementedError


class Stats(Workload):
    def record(self, rng):
        return {"x": rng.randrange(100), "alarm": int(rng.randrange(32) == 0)}

    def query(self, op, threshold, dps=None):
        if op != "or":
            return super().query(op, threshold, dps)
        on = ",".join(dps or self.dp_ids())
        return (f"SELECT or alarm ON {on} WHERE k >= {threshold}",
                {"bitwise_mode": "bits"})

    def expect(self, op, rows):
        xs = [row["x"] for row in rows]
        values = {
            "sum": lambda: [float(sum(xs))],
            "mean": lambda: [statistics.fmean(xs)],
            "variance": lambda: [statistics.pvariance(xs), statistics.fmean(xs)],
            "stddev": lambda: [statistics.pstdev(xs), statistics.fmean(xs)],
            "or": lambda: [1.0 if any(row["alarm"] for row in rows) else 0.0],
        }[op]()
        return {"values": values, "count": len(rows)}

    def check(self, op, result, expected):
        require(result.count == expected["count"],
                f"{op} count {result.count}, expected {expected['count']}")
        if op in ("sum", "or"):
            require(list(result.values) == expected["values"],
                    f"{op}: got {result.values}, expected {expected['values']}")
        else:
            close(result.values, expected["values"], 1.0 / self.scale, op)


class LogReg(Workload):
    def record(self, rng):
        x = [rng.uniform(-1.0, 1.0) for _ in LOGREG_FEATURES]
        z = LOGREG_W[0] + sum(w * v for w, v in zip(LOGREG_W[1:], x))
        y = int(rng.random() < 1.0 / (1.0 + math.exp(z)))
        return dict(zip(LOGREG_FEATURES, x), y=y)

    def query(self, op, threshold, dps=None):
        attrs = ",".join(LOGREG_FEATURES + ("y",))
        on = ",".join(dps or self.dp_ids())
        return f"SELECT log_reg {attrs} ON {on} WHERE k >= {threshold}", {}

    def expect(self, op, rows):
        return {"sums": logreg_sums(rows), "count": len(rows),
                "plain_accuracy": logreg_accuracy(logreg_gd(rows), rows), "rows": rows}

    def check(self, op, result, expected):
        require(result.count == expected["count"],
                f"log_reg count {result.count}, expected {expected['count']}")
        # each DP rounds its own sums to fixed point: at most one unit per DP
        close(result.values, expected["sums"], self.n_dps / self.scale,
              "log_reg coefficients")
        model = result.flags["model"].coefficients
        acc = logreg_accuracy(model, expected["rows"])
        require(abs(acc - expected["plain_accuracy"]) <= 0.02,
                f"trained accuracy {acc:.4f} vs plaintext trainer "
                f"{expected['plain_accuracy']:.4f}")


class PrivateSum(Workload):
    def query(self, op, threshold, dps=None):
        text, _ = super().query(op, threshold, dps)
        return text, {"dp_privacy": True}

    def expect(self, op, rows):
        noise = laplace_noise_list(1.0, 1.0, 0.5, self.noise_list_size)
        return {"raw_sum": fixed_point(sum(row["x"] for row in rows), self.scale),
                "noise": {fixed_point(v, self.scale) for v in noise},
                "count": len(rows)}

    def check(self, op, result, expected):
        require(result.count == expected["count"],
                f"private sum count {result.count}, expected {expected['count']}")
        noise = round(result.values[0] * self.scale) - expected["raw_sum"]
        require(noise in expected["noise"],
                f"private sum {result.values[0]} is the exact sum plus {noise}/"
                f"{self.scale}, which is not in the published noise list")


class RangeSum(Workload):
    def record(self, rng):
        return {"x": rng.randrange(16)}

    def query(self, op, threshold, dps=None):
        text, _ = super().query(op, threshold, dps)
        return text + " RANGE 0,16", {}

    def expect(self, op, rows):
        return {"values": [float(sum(row["x"] for row in rows))], "count": len(rows)}

    def check(self, op, result, expected):
        require(result.count == expected["count"],
                f"range sum count {result.count}, expected {expected['count']}")
        require(list(result.values) == expected["values"],
                f"range sum: got {result.values}, expected {expected['values']}")

    def malicious_value(self, rng):
        """A per-DP sum above the declared element range [0, 16 m], inside
        the 16^l span of the lower-shift proof, so that exactly the
        upper-shift proof is forged."""
        top = self.records_per_dp * self.scale * 16 + 1
        cap = 16
        while cap < top:
            cap *= 16
        return rng.randrange(top, cap)


# Why each workload is there is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    wl.name: wl for wl in (
        Stats("stats-ed25519", "ed25519", n_cns=3, n_dps=10, n_vns=3, records_per_dp=4,
              ops=("sum", "mean", "variance", "stddev", "or"), max_message=1 << 28),
        LogReg("logreg-ed25519", "ed25519", n_cns=6, n_dps=12, n_vns=3, records_per_dp=40,
               ops=("log_reg",)),
        PrivateSum("private-ed25519", "ed25519", n_cns=3, n_dps=10, n_vns=3,
                   records_per_dp=4, ops=("sum",)),
        RangeSum("range-pairing80", "pairing80", n_cns=3, n_dps=3, n_vns=3,
                 records_per_dp=2, ops=("sum",), scale=1),
    )
}

# the smallest shape of each workload that still runs every check; the
# self-check uses these
MINIMAL = {
    "stats-ed25519": dict(n_cns=2, n_dps=2, n_vns=3),
    "logreg-ed25519": dict(n_cns=2, n_dps=2, n_vns=3),
    "private-ed25519": dict(n_cns=2, n_dps=2, n_vns=3, noise_list_size=10),
    "range-pairing80": dict(n_cns=2, n_dps=2, n_vns=3, records_per_dp=1),
}


def minimal(name):
    return dataclasses.replace(WORKLOADS[name], **MINIMAL[name])


def check_audit(report, expected_false=()):
    """The block verifies (hash chain, >= f_h VN signatures) and its false
    verdicts are exactly `expected_false`, as (prover, proof type, index)."""
    found = {(prover, ptype, index) for _, prover, ptype, index, _ in report.false_entries}
    require(found == set(expected_false),
            f"audit of {report.query_id}: false entries {sorted(found)}, "
            f"expected {sorted(expected_false)}")
    require(report.signature_count >= report.f_h,
            f"audit of {report.query_id}: {report.signature_count} signatures < f_h")
    require(report.ok == (not expected_false), f"audit of {report.query_id}: ok={report.ok}")


def check_height(height, expected):
    require(height == expected, f"chain height {height}, expected {expected} queries")


def threshold_pool(rng: random.Random) -> list:
    """Every WHERE threshold in a seeded order; pop() draws the next."""
    pool = list(THRESHOLDS)
    rng.shuffle(pool)
    return pool


def filtered(data, threshold):
    return [row for rows in data.values() for row in rows if row["k"] >= threshold]
