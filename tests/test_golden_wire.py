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
        "596b844d2f04010ee6ae3d196840c4b2448111ca8c406777b73a48a08bf366fa",
        "d02b651d1478428469d865efac03a1678f4c1d9b6b11309440edc665fe991976",
    ),
    "or_bits": (
        {}, f"SELECT or flag ON {DPS}", {"bitwise_mode": "bits"}, {},
        68,
        "6db7bccd8557539852198cc61e8f996ddfcb91ebfc33c94411badbf5f586abff",
        "db2a391e22c1b9413ea1b27d6f87504d7e80ae1db0e7e7b04fedd1d80ad441ae",
    ),
    # the one four-round plan: aggregation, obfuscation, shuffle, keyswitch
    "or_bits_dp": (
        {}, f"SELECT or flag ON {DPS}", {"bitwise_mode": "bits", "dp_privacy": True}, {},
        81,
        "c9164dd25116410cbcd2bf77f1a8be6c24fd417bf6c4b0d699368b4f3d8fe6ff",
        "f2fd2ee0211ef15918887fe5e6ac34933d689be43c572c2f92a679f4b1b323cb",
    ),
    "dp_sum": (
        {}, f"SELECT sum x ON {DPS}", {"dp_privacy": True}, {},
        68,
        "d27f8b9aca541bd24e9cf7c11b66d50c70125a9504d1738a012625bb682b3f8b",
        "2c17627f0c51045a76a9b1ae19c9a3e7351366e569bad00d81531ef4d7e6876e",
    ),
    "variance_chain": (
        {"tree_shape": "chain"}, f"SELECT variance x ON {DPS}", {}, {},
        55,
        "3579ba9af53defd278fbab6cd07ec45127b7a666a36c425c481c622da5e2561e",
        "d74116e5294cda9330722f287aef1a0dbc51e01e5d1975d5c664d67d6c13af21",
    ),
    "range_sum": (
        {"profile": "pairing80"}, f"SELECT sum flag ON {DPS} RANGE 0,2", {}, {},
        67,
        "0cdd16c5ae5b6fac476eee481e6dec6ab64760d2b7c80a16bf7e6f082dc2b6e3",
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
