"""The operation table: every kind's dimension, element bounds, encoding
and neutral response agree; operation names parse to their kinds;
degenerate operations are refused where the spec is built; and a sum over
a RANGE at or below zero audits clean end to end."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from privq import elgamal, encodings as enc
from privq.errors import MalformedQuery, QuerySyntaxError
from privq.group import get_group
from privq.harness.pipeline import Simulation
from privq.harness.queryparse import decode_query, parse_query
from privq.harness.topology import Topology
from privq.rng import Drbg

GROUP = get_group("ed25519")
PK = elgamal.KeyPair.generate(GROUP, Drbg("operation-table")).public


@st.composite
def spec_and_records(draw, kind):
    lo = draw(st.integers(-40, 40))
    hi = lo + draw(st.integers(1, 12))
    feature_count = draw(st.integers(1, 3)) if kind in ("lin_reg", "log_reg") else 1
    op = enc.OperationSpec(
        kind, bounds=(lo, hi), feature_count=feature_count,
        approx_degree=draw(st.integers(1, 4 if feature_count == 1 else 3)),
        bitwise_mode=draw(st.sampled_from(["random", "bits"])),
        scale=draw(st.sampled_from([1, 7, 100])), max_records=draw(st.integers(1, 4)))
    value = st.one_of(st.integers(lo, hi - 1),
                      st.floats(lo, hi, exclude_max=True, allow_nan=False))
    if kind in ("and", "or"):
        value = st.integers(0, 1)
    fields = [value] * op.arity
    if kind == "log_reg":
        fields[-1] = st.integers(0, 1)
    records = draw(st.lists(st.tuples(*fields), max_size=op.max_records))
    return op, records


@pytest.mark.parametrize("kind", enc.KINDS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_dimension_bounds_and_encoding_agree(kind, data):
    op, records = data.draw(spec_and_records(kind))
    raws, count = enc.plaintext_encode(op, records, Drbg("table"))
    bounds = op.element_bounds()
    assert len(raws) == op.dimension == len(bounds)
    assert len(enc.neutral_response(GROUP, op, PK, Drbg("neutral"))) == op.dimension + 1
    for raw, (low, high) in zip(raws, bounds):
        assert low <= raw < high, (raw, low, high)
    assert 0 <= count <= len(records)


ALIASES = {
    "sum": "sum",
    "average": "mean",
    "avg": "mean",
    "mean": "mean",
    "variance": "variance",
    "var": "variance",
    "stddev": "stddev",
    "std_dev": "stddev",
    "std": "stddev",
    "and": "and",
    "or": "or",
    "min": "min",
    "max": "max",
    "freq_count": "freq_count",
    "frequency_count": "freq_count",
    "freqcount": "freq_count",
    "set_intersection": "set_intersection",
    "intersection": "set_intersection",
    "set_union": "set_union",
    "union": "set_union",
    "cosim": "cosim",
    "cosine_similarity": "cosim",
    "r2": "r2",
    "lin_reg": "lin_reg",
    "linear_regression": "lin_reg",
    "log_reg": "log_reg",
    "logistic_regression": "log_reg",
}


@pytest.mark.parametrize("name,kind", sorted(ALIASES.items()))
def test_alias_parses_to_kind(name, kind):
    q = parse_query(f"SELECT {name.upper()} a,b ON DP1 RANGE 0,4")
    assert q.operation.kind == kind


def test_aliases_are_exactly_the_reference():
    assert enc.ALIASES == ALIASES
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("SELECT averages x ON DP1")
    assert (err.value.line, err.value.column) == (1, 7)


DEGENERATE = [
    ("log_reg", {"approx_degree": 0}),
    ("log_reg", {"approx_degree": 5}),
    ("lin_reg", {"feature_count": 0}),
    ("sum", {"scale": 0}),
    ("sum", {"scale": -1}),
    ("mean", {"max_records": 0}),
]


@pytest.mark.parametrize("kind,params", DEGENERATE)
def test_degenerate_operation_refused_at_spec(kind, params):
    with pytest.raises(MalformedQuery):
        enc.OperationSpec(kind, **params)
    with pytest.raises(QuerySyntaxError):
        parse_query(f"SELECT {kind} a,b ON DP1", **params)
    doc = json.loads(parse_query(f"SELECT {kind} a,b ON DP1").encode())
    doc.update(params)
    with pytest.raises(MalformedQuery):
        decode_query(json.dumps(doc).encode())


def test_limits_admit_their_edges():
    enc.OperationSpec("log_reg", approx_degree=1)
    enc.OperationSpec("log_reg", approx_degree=4)
    enc.OperationSpec("lin_reg", feature_count=1, scale=1, max_records=1)


def test_sum_over_a_range_at_or_below_zero_audits_clean():
    """A DP holding fewer than max_records records under a RANGE whose upper
    bound is at or below zero proves its sum inside the element bound."""
    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, profile="pairing80", seed=37)
    topo.dp_data = {"DP1": [{"x": -15}], "DP2": [{"x": -12}, {"x": -11}]}
    sim = Simulation(topo, seed=37)
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2 RANGE -20,-10", scale=1, max_records=2))
    assert out.result.values == [-38.0]
    report = sim.audit(out.query_id)
    assert report.ok, [(p, t, i) for _, p, t, i, _ in report.false_entries]
