"""Node runtime and full pipeline: end-to-end queries, failure handling,
collective noise, determinism, scheduler equivalence, role composition,
the confidentiality byte-scan, and the socket transport."""

import json
import statistics

import pytest

from privq.errors import CnUnavailable, ConfigError
from privq.harness.pipeline import Simulation, run_iterative_extreme
from privq.harness.queryparse import parse_query
from privq.harness.topology import Topology, load_records
from privq.rng import Drbg

HEART = {
    "DP1": [{"heart_rate": 72, "state": "ok"}, {"heart_rate": 81, "state": "hyper"}],
    "DP2": [{"heart_rate": 65, "state": "ok"}],
    "DP3": [{"heart_rate": 90, "state": "hyper"}],
    "DP4": [{"heart_rate": 77, "state": "ok"}],
}
FLAT = [72, 81, 65, 90, 77]


def _topo(seed, **kw):
    topo = Topology.build(n_cns=3, n_dps=4, n_vns=3, seed=seed, **kw)
    topo.dp_data = dict(HEART)
    return topo


def test_run_query_one_shot():
    from privq.harness.pipeline import run_query

    topo = _topo(0)
    outcome = run_query("SELECT average heart_rate ON DP1,DP2,DP3,DP4",
                        topo, seed=0)
    assert outcome.result.values[0] == pytest.approx(statistics.fmean(FLAT))
    assert outcome.block is not None


def test_mean_and_variance_end_to_end():
    sim = Simulation(_topo(1), seed=1)
    out = sim.run(parse_query("SELECT average heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out.result.values[0] == pytest.approx(statistics.fmean(FLAT))
    assert out.result.count == 5
    out2 = sim.run(parse_query("SELECT variance heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out2.result.values[0] == pytest.approx(statistics.pvariance(FLAT), abs=0.01)
    assert sim.audit(out.query_id).ok
    assert sim.audit(out2.query_id).ok
    assert len(sim.chain()) == 2


def test_where_filter_local_to_dps():
    sim = Simulation(_topo(2), seed=2)
    out = sim.run(parse_query(
        "SELECT average heart_rate ON DP1,DP2,DP3,DP4 WHERE state = 'hyper'", scale=100))
    assert out.result.count == 2
    assert out.result.values[0] == pytest.approx((81 + 90) / 2)


def test_all_dps_neutral_surfaces_zero_count():
    from privq.errors import ZeroCount

    sim = Simulation(_topo(3), seed=3, decline={"DP1", "DP2", "DP3", "DP4"})
    with pytest.raises(ZeroCount):
        sim.run(parse_query("SELECT average heart_rate ON DP1,DP2,DP3,DP4", scale=100))


def test_dead_dp_reduces_count():
    sim = Simulation(_topo(4), seed=4)
    sim.kill("DP3")
    out = sim.run(parse_query("SELECT average heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out.result.count == 4
    assert out.result.values[0] == pytest.approx((72 + 81 + 65 + 77) / 4)


def test_dead_cn_aborts():
    sim = Simulation(_topo(5), seed=5)
    sim.kill("CN2")
    with pytest.raises(CnUnavailable):
        sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))


def test_declining_dp_hidden_in_count_only():
    sim = Simulation(_topo(6), seed=6, decline={"DP2"})
    out = sim.run(parse_query("SELECT average heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert out.result.count == 4  # only the aggregate count is visible


@pytest.mark.parametrize("mode", ["random", "bits"])
def test_bitwise_pipeline(mode):
    topo = Topology.build(n_cns=3, n_dps=3, n_vns=3, seed=7)
    topo.dp_data = {"DP1": [{"flag": 1}], "DP2": [{"flag": 0}], "DP3": [{"flag": 1}]}
    sim = Simulation(topo, seed=7)
    out_or = sim.run(parse_query("SELECT or flag ON DP1,DP2,DP3", bitwise_mode=mode))
    assert out_or.result.values[0] == 1.0
    out_and = sim.run(parse_query("SELECT and flag ON DP1,DP2,DP3", bitwise_mode=mode))
    assert out_and.result.values[0] == 0.0
    for qid in (out_or.query_id, out_and.query_id):
        assert sim.audit(qid).ok


def test_minmax_pipeline():
    sim = Simulation(_topo(8), seed=8)
    out = sim.run(parse_query("SELECT min heart_rate ON DP1,DP2,DP3,DP4 RANGE 60,95"))
    assert out.result.values[0] == 65.0
    out = sim.run(parse_query("SELECT max heart_rate ON DP1,DP2,DP3,DP4 RANGE 60,95"))
    assert out.result.values[0] == 90.0


def test_cdp_noise_lazy_and_eager():
    topo = Topology.build(n_cns=3, n_dps=3, n_vns=3, seed=9)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 16}
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 20}], "DP3": [{"x": 30}]}
    for eager in (False, True):
        sim = Simulation(topo, seed=9 if eager else 10, eager_noise=eager)
        out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3", scale=100,
                                  dp_privacy=True))
        noise = out.result.values[0] - 60.0
        assert abs(noise * 2 - round(noise * 2)) < 1e-9  # quantized at theta = 0.5
        assert sim.audit(out.query_id).ok, eager


def test_cdp_shuffle_chain_order_with_ten_cns():
    """CN ids sort as strings (CN1, CN10, CN2, ...); the VNs must follow the
    same shuffle-chain order as the CNs, or an honest run audits false."""
    topo = Topology.build(n_cns=10, n_dps=4, n_vns=3, seed=23)
    topo.cdp_params = {"epsilon": 1.0, "delta_f": 1.0, "theta": 0.5, "list_size": 4}
    topo.dp_data = {f"DP{i + 1}": [{"x": 10 * (i + 1)}] for i in range(4)}
    sim = Simulation(topo, seed=23)
    out = sim.run(parse_query("SELECT sum x ON DP1,DP2,DP3,DP4", scale=100,
                              dp_privacy=True))
    report = sim.audit(out.query_id)
    assert report.ok, [(p, t) for _, p, t, _, _ in report.false_entries]


def test_metrics_count_one_query():
    sim = Simulation(_topo(24), seed=24)
    first = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    second = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP3", scale=100))
    third = sim.run(parse_query("SELECT sum heart_rate ON DP1,DP2,DP4", scale=100))
    assert second.metrics["messages"] == third.metrics["messages"]
    assert second.metrics["proof_bundles"] == third.metrics["proof_bundles"]
    assert first.metrics["messages"] > second.metrics["messages"]
    # 3 CNs send an aggregation and a key-switch bundle to each of 3 VNs
    assert second.metrics["proof_bundles"] == 2 * 3 * 3


def test_regressions_through_pipeline():
    topo = Topology.build(n_cns=3, n_dps=5, n_vns=3, seed=17)
    topo.dp_data = {dp: [{"x": float(i * 2 + k), "y": 2.0 * (i * 2 + k) + 1.0}
                         for k in range(2)]
                    for i, dp in enumerate(topo.dp_ids)}
    sim = Simulation(topo, seed=17)
    out = sim.run(parse_query("SELECT linear_regression x,y ON " + ",".join(topo.dp_ids),
                              scale=100))
    assert out.result.values[0] == pytest.approx(1.0, abs=1e-6)
    assert out.result.values[1] == pytest.approx(2.0, abs=1e-6)

    rng = Drbg("pipeline-logreg")
    logit_data = {}
    for dp in topo.dp_ids:
        rows = []
        for _ in range(8):
            x = (rng.randbelow(400) - 200) / 100.0
            rows.append({"x": x, "label": 1 if x > 0 else 0})
        logit_data[dp] = rows
    topo2 = Topology.build(n_cns=3, n_dps=5, n_vns=3, seed=18, max_records=8)
    topo2.dp_data = logit_data
    sim2 = Simulation(topo2, seed=18)
    out2 = sim2.run(parse_query("SELECT logistic_regression x,label ON "
                                + ",".join(topo2.dp_ids), scale=100))
    model = out2.result.flags["model"]
    from privq.encodings import predict_logreg

    hits = [predict_logreg(model, (row["x"],)) == row["label"]
            for rows in logit_data.values() for row in rows]
    assert statistics.fmean(hits) >= 0.9


def test_iterative_extreme_through_pipeline():
    topo = Topology.build(n_cns=2, n_dps=3, n_vns=3, seed=11)
    topo.dp_data = {"DP1": [{"v": 3}], "DP2": [{"v": 42}], "DP3": [{"v": 77}]}
    sim = Simulation(topo, seed=11)
    value, stats = run_iterative_extreme("max", "v", (0, 100), 25, topo, simulation=sim)
    assert value == 77
    assert stats["rounds"] == 2
    value, _ = run_iterative_extreme("min", "v", (0, 100), 25, topo, simulation=sim)
    assert value == 3
    # every sub-query committed a block
    assert len(sim.chain()) == 6


def test_determinism_byte_identical_blocks():
    a = Simulation(_topo(12), seed=12).run(
        parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    b = Simulation(_topo(12), seed=12).run(
        parse_query("SELECT sum heart_rate ON DP1,DP2,DP3,DP4", scale=100))
    assert a.result.values == b.result.values
    assert a.block.encode() == b.block.encode()


def test_concurrent_scheduler_equivalence():
    """Randomized queries give identical plaintext results under the serial
    and the randomly interleaving scheduler."""
    rng = Drbg("sched-equiv")
    ops = ["sum", "mean", "variance", "min", "max", "or"]
    for trial in range(20):
        op = ops[trial % len(ops)]
        n_dps = 2 + rng.randbelow(3)
        topo_args = dict(n_cns=2, n_dps=n_dps, n_vns=3, seed=100 + trial)
        data = {f"DP{i+1}": [{"x": rng.randbelow(8)}] for i in range(n_dps)}
        dps = ",".join(data)
        clause = " RANGE 0,8" if op in ("min", "max") else ""
        text = f"SELECT {op} x ON {dps}{clause}"
        results = []
        for scheduler in ("serial", "concurrent"):
            topo = Topology.build(**topo_args)
            topo.dp_data = data
            sim = Simulation(topo, seed=100 + trial, scheduler=scheduler)
            results.append(sim.run(parse_query(text, scale=100)).result.values)
        assert results[0] == results[1], (trial, op, data)


def test_role_composition_cn_vn_colocated():
    data = {"DP1": [{"x": 4}], "DP2": [{"x": 9}]}
    separated = Topology.build(n_cns=2, n_dps=2, n_vns=2, seed=13)
    separated.dp_data = data
    colocated = Topology(querier_id="Q", cn_ids=("N1", "N2"), dp_ids=("DP1", "DP2"),
                         vn_ids=("N1", "N2"),
                         dp_assignment={"DP1": "N1", "DP2": "N2"}, seed=13)
    colocated.dp_data = data
    colocated.generate_keys()
    r_sep = Simulation(separated, seed=13).run(parse_query("SELECT sum x ON DP1,DP2",
                                                           scale=100))
    r_colo = Simulation(colocated, seed=13).run(parse_query("SELECT sum x ON DP1,DP2",
                                                            scale=100))
    assert r_sep.result.values == r_colo.result.values
    assert len(r_colo.block.signatures) == 2


def test_confidentiality_no_plaintext_encodings_on_wire():
    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, seed=14)
    topo.dp_data = {"DP1": [{"x": 1234}], "DP2": [{"x": 777}]}
    sim = Simulation(topo, seed=14, record_trace=True)
    sim.run(parse_query("SELECT sum x ON DP1,DP2", scale=100))
    group = topo.group
    for raw in (123400, 77700, 201100):  # per-DP encodings and the aggregate
        marker = group.mul(raw, group.base()).encode()
        for message in sim.bus.trace:
            assert marker not in message.payload


def test_topology_config_roundtrip(tmp_path):
    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, seed=15)
    topo.thresholds = {"t": 1.0, "t_sub": 0.5, "f_h": 2}
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as fh:
        json.dump(topo.to_config(), fh)
    csv_path = tmp_path / "dp1.csv"
    csv_path.write_text("x,state\n5,ok\n7,bad\n")
    cfg = json.load(open(cfg_path))
    cfg["dps"]["DP1"]["data"] = str(csv_path)
    loaded = Topology.from_config(cfg)
    assert loaded.cn_ids == topo.cn_ids
    assert loaded.keys["Q"].private == topo.keys["Q"].private
    assert loaded.dp_data["DP1"] == [{"x": 5, "state": "ok"}, {"x": 7, "state": "bad"}]
    assert loaded.policy().t_sub == 0.5


def test_load_records_semicolon_delimiter(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a;b\n1;2.5\n3;x\n")
    rows = load_records(str(path))
    assert rows == [{"a": 1, "b": 2.5}, {"a": 3, "b": "x"}]


def test_unique_identities_enforced():
    with pytest.raises(ConfigError):
        Topology(querier_id="Q", cn_ids=("A",), dp_ids=("A",), vn_ids=("V",),
                 dp_assignment={"A": "A"})


def test_socket_transport_matches_in_process():
    from privq.harness.sockets import NodeServer, remote_query

    topo = Topology.build(n_cns=2, n_dps=2, n_vns=3, seed=16)
    topo.dp_data = {"DP1": [{"x": 10}], "DP2": [{"x": 32}]}
    server = NodeServer(topo, port=0).start_background()
    try:
        doc = remote_query("127.0.0.1", server.port, "SELECT sum x ON DP1,DP2", seed=16)
    finally:
        server.stop()
    local = Simulation(topo, seed=16).run(parse_query("SELECT sum x ON DP1,DP2",
                                                      scale=topo.scale))
    assert doc["values"] == local.result.values
    assert doc["count"] == local.result.count


def test_cli_query_and_audit(tmp_path):
    from click.testing import CliRunner

    from privq.harness.cli import main

    runner = CliRunner()
    cfg_path = tmp_path / "cfg.json"
    result = runner.invoke(main, ["keygen", "--config", str(cfg_path),
                                  "--cns", "2", "--dps", "2", "--vns", "3",
                                  "--seed", "21"])
    assert result.exit_code == 0, result.output
    cfg = json.load(open(cfg_path))
    cfg["chain_path"] = str(tmp_path / "chain.bin")
    for i, dp in enumerate(cfg["dps"]):
        data = tmp_path / f"{dp}.csv"
        data.write_text(f"x\n{10 + i}\n")
        cfg["dps"][dp]["data"] = str(data)
    json.dump(cfg, open(cfg_path, "w"))

    result = runner.invoke(main, ["query", "SELECT sum x ON DP1,DP2",
                                  "--config", str(cfg_path), "--seed", "3"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["values"] == [21.0]

    result = runner.invoke(main, ["audit", doc["query_id"],
                                  "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["ok"] is True


def test_experiment_rows(tmp_path):
    from privq.harness.experiment import run_experiment, write_report, read_report

    rows = run_experiment({"operation": "mean", "n_dps": [2, 4],
                           "records": [2], "seeds": [1]})
    assert len(rows) == 2
    assert all(row["abs_error"] < 1e-6 for row in rows)
    assert rows[0]["messages"] < rows[1]["messages"]
    path = tmp_path / "rows.jsonl"
    write_report(rows, str(path))
    assert read_report(str(path)) == rows
    with pytest.raises(ConfigError):
        run_experiment({"n_dps": []})


def test_experiment_threshold_sweep_reports_p_fh():
    from privq.harness.experiment import run_experiment

    rows = run_experiment({"operation": "sum", "n_dps": [3], "n_vns": [7],
                           "records": [1], "seeds": [2],
                           "t_sub": [0.2, 0.3, 1.0]})
    p_fhs = [row["p_fh"] for row in rows]
    assert p_fhs[0] == pytest.approx(0.8348, abs=1e-3)
    assert p_fhs[1] == pytest.approx(0.9848, abs=1e-3)
    assert p_fhs[2] == 1.0
