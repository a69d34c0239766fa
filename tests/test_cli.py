"""CLI surface: subcommands, exit codes, manifests, reproducibility."""
import csv
import json
from dataclasses import asdict

import pytest

from xfermon.cli import EXIT_DATA, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from xfermon.collector import Record, SegmentStore
from xfermon.diagnose import RuleConfig
from xfermon.sim import load_ndjson


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("ds")
    out = d / "data.ndjson"
    rc = run_cli(
        "gen", "--testbed", "tb1,tb2", "--runs-per-class", "2",
        "--seed", "9", "--duration", "20", "--out", str(out),
    )
    assert rc == EXIT_OK
    return out


def test_gen_counts_and_manifest(small_dataset):
    rows = load_ndjson(small_dataset)
    assert len({r.transfer_id for r in rows}) == 2 * 9 * 2  # testbeds x classes x runs
    manifest = json.loads((small_dataset.parent / "data.ndjson.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["params"]["seed"] == 9
    assert manifest["dataset"]["row_count"] == len(rows)


def test_gen_same_seed_byte_identical(tmp_path, small_dataset):
    out = tmp_path / "again.ndjson"
    rc = run_cli(
        "gen", "--testbed", "tb1,tb2", "--runs-per-class", "2",
        "--seed", "9", "--duration", "20", "--out", str(out),
    )
    assert rc == EXIT_OK
    assert out.read_bytes() == small_dataset.read_bytes()


def test_gen_sweep_monotone_loss_curve(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run_cli(
        "gen", "--testbed", "tb3", "--sweep", "network_loss",
        "--seed", "3", "--duration", "15", "--out", str(out),
    )
    assert rc == EXIT_OK
    with out.open() as fh:
        rows = [r for r in csv.DictReader(fh) if r["curve"] == "tb3/network_loss"]
    xs = [float(r["x"]) for r in rows]
    ys = [float(r["y"]) for r in rows]
    assert xs == [0.0005, 0.001, 0.005, 0.01]
    for lo, hi in zip(ys[1:], ys[:-1]):
        assert lo <= hi * 1.01


def test_diagnose_then_score_perfect(tmp_path, small_dataset):
    diag = tmp_path / "diag.ndjson"
    assert run_cli("diagnose", "--dataset", str(small_dataset), "--out", str(diag)) == EXIT_OK
    report = tmp_path / "report.json"
    assert run_cli(
        "score", "--pred", str(diag), "--truth", str(small_dataset), "--out", str(report)
    ) == EXIT_OK
    obj = json.loads(report.read_text())
    assert obj["macro_f1"] == 1.0
    # aligned text table variant exists alongside the JSON
    assert (report.parent / "report.json.manifest.json").exists()


def test_diagnose_transfer_matrix(tmp_path, small_dataset):
    out_dir = tmp_path / "tm"
    rc = run_cli(
        "diagnose", "--dataset", str(small_dataset), "--transfer-matrix", "--out", str(out_dir)
    )
    assert rc == EXIT_OK
    for name in ("transfer-matrix-raw.csv", "transfer-matrix-normalized.csv"):
        with (out_dir / name).open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2  # 2 testbeds -> 2 ordered pairs
        assert {r["train"] for r in rows} == {"tb1", "tb2"}


def test_pipeline_then_export_roundtrip(tmp_path):
    out_dir = tmp_path / "pout"
    rc = run_cli(
        "pipeline", "--testbed", "tb2", "--transfers", "10", "--duration", "6",
        "--seed", "2", "--out-dir", str(out_dir), "--anomaly", "network_loss",
    )
    assert rc == EXIT_OK
    manifest_path = out_dir / "pipeline.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert len(manifest["labels"]) == 10
    assert set(manifest["labels"].values()) == {"network_loss"}

    exported = tmp_path / "exported.ndjson"
    rc = run_cli(
        "export", "--data-dir", str(out_dir / "collector-data"),
        "--manifest", str(manifest_path), "--out", str(exported),
    )
    assert rc == EXIT_OK
    rows = load_ndjson(exported)
    assert len(rows) == 10 * 6
    assert all(r.label == "network_loss" for r in rows)


def test_pipeline_persists_every_record_of_400_transfers(tmp_path, capsys):
    out_dir = tmp_path / "p400"
    rc = run_cli(
        "pipeline", "--testbed", "tb2", "--transfers", "400", "--duration", "30",
        "--out-dir", str(out_dir),
    )
    assert rc == EXIT_OK
    assert "envelopes_dropped 0" in capsys.readouterr().out.splitlines()
    store = SegmentStore(out_dir / "collector-data")
    assert store.record_count == 400 * 30
    store.close()


def test_pipeline_export_equals_simulator_direct(tmp_path):
    # the live path (agents, sockets, collector, export) reproduces the
    # simulator-direct rows bit for bit, gaps aside
    out_dir = tmp_path / "p2"
    assert run_cli(
        "pipeline", "--testbed", "tb1", "--transfers", "3", "--duration", "5",
        "--seed", "14", "--out-dir", str(out_dir),
    ) == EXIT_OK
    exported = tmp_path / "p2.ndjson"
    assert run_cli(
        "export", "--data-dir", str(out_dir / "collector-data"), "--out", str(exported)
    ) == EXIT_OK

    from xfermon.sim import Engine, SimRun, TransferJob, get_testbed, minimal_row

    tb = get_testbed("tb1")
    jobs = tuple(
        TransferJob(f"tb1-xfer-{i:04d}", file_count=64, file_size_bytes=1 << 34,
                    source_ost_index=i % 3, dest_ost_index=i % 3)
        for i in range(3)
    )
    run = SimRun(testbed=tb, jobs=jobs, seed=14, duration_s=5)
    direct = {}
    for snap in Engine(run).run_all():
        for j in jobs:
            direct[(j.transfer_id, snap.t)] = minimal_row(snap, j.transfer_id, tb)
    for row in load_ndjson(exported):
        assert row.metrics == direct[(row.transfer_id, row.t)]


def test_usage_errors_exit_1():
    assert run_cli("gen", "--testbed", "nope", "--out", "x.ndjson") == EXIT_USAGE
    assert run_cli("gen", "--classes", "bogus", "--out", "x.ndjson") == EXIT_USAGE
    assert run_cli("nonsense-command") == EXIT_USAGE
    assert run_cli("diagnose", "--dataset", "x", "--rules", "r.json", "--out", "d") == EXIT_USAGE


def test_data_errors_exit_2(tmp_path):
    missing = tmp_path / "missing.ndjson"
    assert run_cli("diagnose", "--dataset", str(missing), "--out", "d.ndjson") == EXIT_DATA
    assert run_cli("score", "--pred", str(missing), "--truth", str(missing)) == EXIT_DATA
    assert run_cli("export", "--data-dir", str(tmp_path / "nope"), "--out", "x") == EXIT_DATA

    bad = tmp_path / "bad.ndjson"
    bad.write_text("not json\n")
    assert run_cli("diagnose", "--dataset", str(bad), "--out", "d.ndjson") == EXIT_DATA


@pytest.mark.parametrize("command, content", [
    ("export", "[1, 2]"),
    ("export", '{"labels": ["x"]}'),
    ("score", "[1]\n"),
    ("diagnose", "[1]"),
])
def test_malformed_json_inputs_are_data_errors(tmp_path, small_dataset, monkeypatch, capsys,
                                               command, content):
    data_dir = tmp_path / "store"
    store = SegmentStore(data_dir)
    store.append(Record("x", "tb1", 0, "minimal14", {"m": 1.0}))
    store.close()
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    argv = {
        "export": ["export", "--data-dir", str(data_dir), "--manifest", str(bad)],
        "score": ["score", "--pred", str(bad), "--truth", str(small_dataset)],
        "diagnose": ["diagnose", "--dataset", str(small_dataset), "--baseline", str(bad)],
    }[command]
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--out", "o") == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1


def test_unreachable_collector_exits_3(tmp_path, monkeypatch):
    # single fast retry against a refusing port
    import xfermon.cli as cli

    original = cli._preflight_collector
    monkeypatch.setattr(
        cli, "_preflight_collector",
        lambda addr: original(addr, attempts=2, delay_s=0.01),
    )
    rc = run_cli(
        "pipeline", "--testbed", "tb1", "--transfers", "1", "--duration", "1",
        "--collector-addr", "127.0.0.1:1", "--out-dir", str(tmp_path / "o"),
    )
    assert rc == EXIT_RUNTIME


def test_config_file_and_env_override(tmp_path, monkeypatch):
    conf = tmp_path / "conf.json"
    conf.write_text('{"runs-per-class": 1, "duration": 8}')
    out1 = tmp_path / "a.ndjson"
    assert run_cli(
        "gen", "--config", str(conf), "--testbed", "tb1", "--seed", "4", "--out", str(out1)
    ) == EXIT_OK
    rows = load_ndjson(out1)
    assert max(r.t for r in rows) == 7  # config file duration applied
    assert len({r.transfer_id for r in rows}) == 9

    monkeypatch.setenv("XFERMON_DURATION", "4")
    out2 = tmp_path / "b.ndjson"
    assert run_cli(
        "gen", "--config", str(conf), "--testbed", "tb1", "--seed", "4", "--out", str(out2)
    ) == EXIT_OK
    assert max(r.t for r in load_ndjson(out2)) == 3  # env beats config file

    assert run_cli("gen", "--config", str(tmp_path / "nope.json"), "--out", "x") == EXIT_DATA


def test_diagnose_rule_constants_from_config_file_or_env(tmp_path, small_dataset, monkeypatch):
    def diagnose(name, *config):
        out = tmp_path / name
        assert run_cli(
            "diagnose", *config, "--dataset", str(small_dataset), "--out", str(out)
        ) == EXIT_OK
        return out.read_bytes()

    default = diagnose("default.ndjson")
    conf = tmp_path / "rules.json"
    conf.write_text('{"kappa_buf": 0.01}')
    from_file = diagnose("file.ndjson", "--config", str(conf))
    assert from_file != default  # the buffer rules no longer fire
    monkeypatch.setenv("XFERMON_KAPPA_BUF", "0.01")
    assert diagnose("env.ndjson") == from_file


def test_diagnose_manifest_records_resolved_rule_config(tmp_path, small_dataset, monkeypatch):
    conf = tmp_path / "rules.json"
    conf.write_text('{"kappa_buf": 0.8, "window_s": 5}')
    monkeypatch.setenv("XFERMON_KAPPA_BUF", "0.5")  # env beats the file
    monkeypatch.setenv("XFERMON_RTT_FACTOR", "2.0")
    monkeypatch.setenv("XFERMON_RUNS_PER_CLASS", "x")  # a gen key: diagnose ignores it
    out = tmp_path / "diag.ndjson"
    assert run_cli(
        "diagnose", "--config", str(conf), "--dataset", str(small_dataset), "--out", str(out)
    ) == EXIT_OK
    assert json.loads(out.read_text().splitlines()[0])["window"] == [0, 5]
    params = json.loads((tmp_path / "diag.ndjson.manifest.json").read_text())["params"]
    expected = asdict(RuleConfig(kappa_buf=0.5, rtt_factor=2.0, window_s=5))
    assert {k: params[k] for k in expected} == expected
    assert "rules" not in params


@pytest.mark.parametrize("command, config, env", [
    ("gen", '{"duration": 5.5}', {}),
    ("gen", '["a"]', {}),
    ("gen", '{"testbed": ["tb1"]}', {}),
    ("gen", None, {"XFERMON_DURATION": "4.5"}),
    ("pipeline", None, {"XFERMON_REALTIME": "maybe"}),
    ("pipeline", '{"profile": "bogus"}', {}),
    ("diagnose", '{"windw_s": 3}', {}),
    ("diagnose", '{"kappa_buf": "low"}', {}),
    ("diagnose", None, {"XFERMON_WINDOW_S": "0"}),
])
def test_bad_config_values_are_usage_errors(tmp_path, small_dataset, monkeypatch, capsys,
                                            command, config, env):
    argv = {
        "gen": ["gen", "--testbed", "tb1", "--runs-per-class", "1"],
        "pipeline": ["pipeline", "--transfers", "1", "--duration", "1"],
        "diagnose": ["diagnose", "--dataset", str(small_dataset)],
    }[command]
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "conf.json").write_text(config)
        argv += ["--config", "conf.json"]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert run_cli(*argv, "--out-dir" if command == "pipeline" else "--out", "o") == EXIT_USAGE
    assert "usage error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_pipeline_ramp_staircase(tmp_path, capsys):
    rc = run_cli(
        "pipeline", "--testbed", "tb2", "--transfers", "15", "--duration", "6",
        "--ramp-every", "2", "--ramp-batch", "5", "--seed", "1",
        "--out-dir", str(tmp_path / "ramp"),
    )
    assert rc == EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines() if "published=" in line]
    for column in ("active=", "published="):
        counts = [int(line.split(column)[1].split()[0]) for line in lines]
        assert counts == [5, 5, 10, 10, 15, 15], column
