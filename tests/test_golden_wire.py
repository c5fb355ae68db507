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
        "51a07e05facdefe5d8c9bd1de7563218aebb7398abd1384f74e7431cd83815cf",
        "d02b651d1478428469d865efac03a1678f4c1d9b6b11309440edc665fe991976",
    ),
    "or_bits": (
        {}, f"SELECT or flag ON {DPS}", {"bitwise_mode": "bits"}, {},
        68,
        "b55bf348e5aee036b7682c3db8cf88bcf83ca37b301b58b8982bd02a4b514f1b",
        "db2a391e22c1b9413ea1b27d6f87504d7e80ae1db0e7e7b04fedd1d80ad441ae",
    ),
    "dp_sum": (
        {}, f"SELECT sum x ON {DPS}", {"dp_privacy": True}, {},
        68,
        "4eec8444a77dbe7b54149fcf38206f9a60461a05c5b7c1149c158447b09f9e87",
        "2c17627f0c51045a76a9b1ae19c9a3e7351366e569bad00d81531ef4d7e6876e",
    ),
    "dp_sum_eager": (
        {}, f"SELECT sum x ON {DPS}", {"dp_privacy": True}, {"eager_noise": True},
        67,
        "f801a09c1d11cad8415cfaca6c67133117b14e7a91588fccfd28c3be7570c2de",
        "2c17627f0c51045a76a9b1ae19c9a3e7351366e569bad00d81531ef4d7e6876e",
    ),
    "variance_chain": (
        {"tree_shape": "chain"}, f"SELECT variance x ON {DPS}", {}, {},
        55,
        "9d24c461db01126ae0791cc2d867421a3405349057114c3b26b5b83a38e4b2f9",
        "d74116e5294cda9330722f287aef1a0dbc51e01e5d1975d5c664d67d6c13af21",
    ),
    "range_sum": (
        {"profile": "pairing80"}, f"SELECT sum flag ON {DPS} RANGE 0,2", {}, {},
        67,
        "cbed7ffe3e658b1c556021e84d7f4e192e014753534bc5b24f15d3b5c4e47731",
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
