"""Command-line interface.

Subcommands: keygen, run-nodes, query, audit, experiment, plot.
All commands work against a JSON config file describing the topology,
curve profile, thresholds, scale, and CDP parameters.
"""

from __future__ import annotations

import json
import sys

import click

from .. import ledger
from ..errors import PrivqError
from .experiment import plot_report, read_report, run_experiment, write_report
from .pipeline import Simulation
from .queryparse import parse_query
from .sockets import NodeServer, remote_query
from .topology import Topology


@click.group()
def main():
    """Decentralized privacy-preserving statistical queries."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--cns", default=3, show_default=True, help="number of computing nodes")
@click.option("--dps", default=6, show_default=True, help="number of data providers")
@click.option("--vns", default=3, show_default=True, help="number of verifying nodes")
@click.option("--profile", default="ed25519", show_default=True)
@click.option("--seed", default=None, type=int)
def keygen(config_path, cns, dps, vns, profile, seed):
    """Generate a topology config with fresh node keys."""
    import os

    if os.path.exists(config_path):
        topo = Topology.from_config(config_path)
        topo.generate_keys()
    else:
        topo = Topology.build(n_cns=cns, n_dps=dps, n_vns=vns,
                              profile=profile, seed=seed)
        topo.thresholds = {"t": 1.0, "t_sub": 1.0}
        topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5,
                           "list_size": 100}
    with open(config_path, "w") as fh:
        json.dump(topo.to_config(), fh, indent=2)
    click.echo(f"wrote {config_path} ({len(topo.keys)} keys, profile {topo.profile})")


@main.command()
@click.argument("text")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", default=None, type=int)
@click.option("--dp-privacy", is_flag=True, help="add collective noise to the result")
@click.option("--range", "range_", default=None, help="lo,hi value bounds")
@click.option("--bitwise", type=click.Choice(["bits", "random"]), default="random",
              show_default=True)
@click.option("--connect", default=None, help="host:port of a run-nodes server")
def query(text, config_path, seed, dp_privacy, range_, bitwise, connect):
    """Run a query, print the JSON result, and commit its block to the chain."""
    if range_:
        lo, hi = range_.split(",")
        text = f"{text} RANGE {int(lo)},{int(hi)}"
    if connect:
        host, port = connect.rsplit(":", 1)
        doc = remote_query(host, int(port), text,
                           dp_privacy=dp_privacy, bitwise_mode=bitwise)
        click.echo(json.dumps(doc, indent=2))
        return
    topo = Topology.from_config(config_path)
    parsed = parse_query(text, scale=topo.scale, max_records=topo.max_records,
                         bitwise_mode=bitwise, dp_privacy=dp_privacy)
    try:  # opening the node set's chain file checks every block in it
        sim = Simulation(topo, seed=seed if seed is not None else topo.seed)
        outcome = sim.run(parsed)
    except PrivqError as exc:
        click.echo(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        sys.exit(1)
    doc = {
        "query_id": outcome.query_id,
        "values": outcome.result.values,
        "count": outcome.result.count,
        "flags": {k: str(v) for k, v in outcome.result.flags.items()},
        "block_height": outcome.block.height,
        "seconds": round(outcome.metrics["wall_time"], 3),
    }
    click.echo(json.dumps(doc, indent=2))


@main.command("run-nodes")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--port", default=7700, show_default=True)
def run_nodes(config_path, host, port):
    """Host the CN/DP/VN node set behind a TCP listener."""
    topo = Topology.from_config(config_path)
    server = NodeServer(topo, host=host, port=port)
    click.echo(f"serving {len(topo.cn_ids)} CNs / {len(topo.dp_ids)} DPs / "
               f"{len(topo.vn_ids)} VNs on {host}:{server.port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()


@main.command()
@click.argument("query_id")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def audit(query_id, config_path):
    """Emit the JSON audit report of a query's block in the config's chain."""
    topo = Topology.from_config(config_path)
    if not topo.chain_path:
        click.echo(json.dumps({"error": "config has no chain_path"}))
        sys.exit(1)
    topo.generate_keys()
    vn_pubs = {vn: topo.keys[vn].public for vn in topo.vn_ids}
    try:
        chain = ledger.Chain(topo.group, vn_pubs, topo.policy().f_h, topo.chain_path)
        report = ledger.audit(query_id, chain)
    except PrivqError as exc:
        click.echo(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        sys.exit(1)
    click.echo(json.dumps(report.as_dict(), indent=2))
    sys.exit(0 if report.ok else 2)


@main.command()
@click.argument("spec_path", type=click.Path(exists=True))
@click.option("--out", "out_path", default="report.jsonl", show_default=True)
def experiment(spec_path, out_path):
    """Run the sweep described by a JSON spec; write JSONL rows."""
    with open(spec_path) as fh:
        spec = json.load(fh)
    rows = run_experiment(spec)
    write_report(rows, out_path)
    click.echo(f"{len(rows)} rows -> {out_path}")


@main.command()
@click.argument("report_path", type=click.Path(exists=True))
@click.option("--out", "out_path", default="report.png", show_default=True)
def plot(report_path, out_path):
    """Render charts from an experiment report."""
    rows = read_report(report_path)
    try:
        path = plot_report(rows, out_path)
    except PrivqError as exc:
        click.echo(str(exc))
        sys.exit(1)
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
