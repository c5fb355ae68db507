"""Golden wire digests: seeded queries must reproduce every bus frame and
the committed block byte for byte.

The digests pin wire formats, proof payloads and the RNG draw order of
every node. They change only when one of those changes on purpose; a
refactor of the node runtimes or the protocol functions must leave them
as they are.
"""

import hashlib

import pytest

from privq.harness.pipeline import Simulation
from privq.harness.queryparse import parse_query
from privq.harness.topology import Topology
from privq.serial import pack_bytes

SEED = 21
DATA = {
    "DP1": [{"x": 12, "flag": 1}],
    "DP2": [{"x": 30, "flag": 0}],
    "DP3": [{"x": 7, "flag": 1}],
    "DP4": [{"x": 45, "flag": 0}],
}
DPS = "DP1,DP2,DP3,DP4"

CDP = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 16}

# name -> (Topology options, query text, parse_query options, Simulation options,
#          message count, frames sha256, block sha256)
GOLDEN = {
    "sum": (
        {}, f"SELECT sum x ON {DPS}", {}, {},
        55,
        "8093e678bb2d3e99359c31ad2d65c12fe47041310653ba5ece265caf6538a2b9",
        "d02b651d1478428469d865efac03a1678f4c1d9b6b11309440edc665fe991976",
    ),
    "or_bits": (
        {}, f"SELECT or flag ON {DPS}", {"bitwise_mode": "bits"}, {},
        68,
        "679dd0dbe985fcdfca83fa26b0cb87d7229e4493bf40177ce408b747291c38f4",
        "db2a391e22c1b9413ea1b27d6f87504d7e80ae1db0e7e7b04fedd1d80ad441ae",
    ),
    # the one four-round plan: aggregation, obfuscation, shuffle, keyswitch
    "or_bits_dp": (
        {}, f"SELECT or flag ON {DPS}", {"bitwise_mode": "bits", "dp_privacy": True}, {},
        81,
        "f6bdce9a2a5902920868bd0cc5f0d1c21b47e4cea58517b4c0b9e2f7e5bb631a",
        "f2fd2ee0211ef15918887fe5e6ac34933d689be43c572c2f92a679f4b1b323cb",
    ),
    "dp_sum": (
        {}, f"SELECT sum x ON {DPS}", {"dp_privacy": True}, {},
        68,
        "beee209902028db36b8b417634f0ac7136da244ce536eec41c259f63b0dd45f0",
        "2c17627f0c51045a76a9b1ae19c9a3e7351366e569bad00d81531ef4d7e6876e",
    ),
    "variance_chain": (
        {"tree_shape": "chain"}, f"SELECT variance x ON {DPS}", {}, {},
        55,
        "fc82e9fa833834892b4485e73649b909b82fbaafbf6225d4971c38531fc04da6",
        "d74116e5294cda9330722f287aef1a0dbc51e01e5d1975d5c664d67d6c13af21",
    ),
    "range_sum": (
        {"profile": "pairing80"}, f"SELECT sum flag ON {DPS} RANGE 0,2", {}, {},
        67,
        "7b07def20b1953e4fc5bb5be5b19629567a4542215ca3b64e57d986eb99133fa",
        "bd0c535bb327d181c895b637cb5790b223505b49b51587d826fc3134c4dee1a9",
    ),
}


def _run(topo_options, text, options, sim_options):
    topo = Topology.build(n_cns=3, n_dps=4, n_vns=3, seed=SEED, **topo_options)
    topo.dp_data = dict(DATA)
    topo.cdp_params = dict(CDP)
    sim = Simulation(topo, seed=SEED, record_trace=True, **sim_options)
    outcome = sim.run(parse_query(text, scale=100, **options))
    assert sim.audit(outcome.query_id).ok
    frames = hashlib.sha256()
    for message in sim.bus.trace:
        frames.update(pack_bytes(message.frame()))
    block = hashlib.sha256(outcome.block.encode()).hexdigest()
    return len(sim.bus.trace), frames.hexdigest(), block


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_wire_digests(name):
    topo_options, text, options, sim_options, count, frames, block = GOLDEN[name]
    assert _run(topo_options, text, options, sim_options) == (count, frames, block)
