"""Operator entry point.

Subcommands:
    gen       generate labeled datasets or severity-sweep curves
    pipeline  run live agents against a collector on a simulated testbed
    diagnose  rule-engine classification or centroid transfer matrices
    score     compare predictions against ground truth
    export    turn a collector data directory into a dataset file

Every command writes a run manifest next to its outputs; exit codes are
0 success, 1 usage, 2 data error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .agent import (
    AgentConfig,
    CacheRefresher,
    CacheService,
    MonitoringAgent,
    Publisher,
    SocketTransport,
    SimulationRuntime,
)
from .collector import CollectorConfig, CollectorService, SegmentStore, dataset_rows
from .diagnose import (
    DEFAULT_RULE_CONFIG,
    RuleConfig,
    centroid_fit,
    centroid_predict_many,
    classify_run_windows,
    fit_baseline_from_dataset,
    normalize_rows,
    score,
)
from .diagnose.baseline import BaselineProfile
from .metrics import Profile
from .sim import (
    LABEL_CLASSES,
    SWEEP_MENUS,
    AnomalyClass,
    SimRun,
    TransferJob,
    builtin_testbeds,
    generate_dataset,
    get_testbed,
    load_ndjson,
    run_rows,
    spec_for_target_drop,
    sweep_spec,
    write_ndjson,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class CliParser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------

def write_manifest(out_path: Path, command: str, params: dict, outputs: list[str],
                   started_at: float, extra: dict | None = None) -> Path:
    manifest = {
        "command": command,
        "version": __version__,
        "params": params,
        "outputs": outputs,
        "started_at": started_at,
        "finished_at": time.time(),
    }
    if extra:
        manifest.update(extra)
    path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _parse_testbeds(arg: str):
    if arg == "all":
        return list(builtin_testbeds().values())
    try:
        return [get_testbed(token) for token in arg.split(",") if token]
    except KeyError as exc:
        raise UsageError(str(exc)) from exc


def _parse_classes(arg: str):
    if arg == "all":
        return LABEL_CLASSES
    out = []
    for token in arg.split(","):
        try:
            out.append(AnomalyClass(token))
        except ValueError:
            raise UsageError(f"unknown anomaly class {token!r}") from None
    return tuple(out)


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------

def cmd_gen(args) -> int:
    started = time.time()
    out = Path(args.out)
    testbeds = _parse_testbeds(args.testbed)
    if args.sweep:
        return _gen_sweep(args, testbeds, out, started)
    classes = _parse_classes(args.classes)
    rows, manifest = generate_dataset(
        testbeds, args.runs_per_class, args.seed, classes=classes, duration_s=args.duration
    )
    n = write_ndjson(rows, out)
    write_manifest(
        out,
        "gen",
        {
            "testbeds": [tb.id for tb in testbeds],
            "classes": [c.value for c in classes],
            "runs_per_class": args.runs_per_class,
            "seed": args.seed,
            "duration_s": args.duration,
        },
        [str(out)],
        started,
        extra={"dataset": manifest},
    )
    print(f"wrote {n} rows to {out}")
    return EXIT_OK


def _gen_sweep(args, testbeds, out: Path, started: float) -> int:
    """Severity-sweep curves: mean throughput per (class, menu level)."""
    sweep_classes = [AnomalyClass(args.sweep)] if args.sweep != "all" else list(SWEEP_MENUS)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve", "x", "y"])
        for tb in testbeds:
            normal = _sweep_mean(tb, None, args.seed, args.duration)
            writer.writerow([f"{tb.id}/normal", 0.0, normal])
            for cls in sweep_classes:
                for level in SWEEP_MENUS[cls]:
                    thr = _sweep_mean(tb, (cls, level), args.seed, args.duration)
                    writer.writerow([f"{tb.id}/{cls.value}", level, thr])
    write_manifest(
        out,
        "gen-sweep",
        {
            "testbeds": [tb.id for tb in testbeds],
            "sweep": args.sweep,
            "seed": args.seed,
            "duration_s": args.duration,
        },
        [str(out)],
        started,
    )
    print(f"wrote sweep curves to {out}")
    return EXIT_OK


def _sweep_mean(tb, cls_level, seed: int, duration: int) -> float:
    job = TransferJob(f"{tb.id}-sweep", file_count=64, file_size_bytes=1 << 34)
    anomalies = ()
    if cls_level is not None:
        cls, level = cls_level
        anomalies = (sweep_spec(tb, cls, level, 0, duration),)
    run = SimRun(testbed=tb, jobs=(job,), anomalies=anomalies, seed=seed, duration_s=duration)
    rows = run_rows(run, cls_level[0] if cls_level else AnomalyClass.NORMAL)
    return statistics.fmean(r.metrics["transfer_throughput_bytes_per_s"] for r in rows)


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------

def _parse_addr(arg: str) -> tuple[str, int]:
    host, _, port = arg.rpartition(":")
    if not host or not port.isdigit():
        raise UsageError(f"bad address {arg!r}, want host:port")
    return host, int(port)


def _preflight_collector(addr: tuple[str, int], attempts: int = 5, delay_s: float = 0.5) -> None:
    """Connection refusal at startup retries, then fails the command.

    A collector dying mid-run is handled by the publisher queue instead.
    """
    import socket as _socket

    last: Exception | None = None
    for attempt in range(attempts):
        try:
            with _socket.create_connection(addr, timeout=1.0):
                return
        except OSError as exc:
            last = exc
            if attempt < attempts - 1:
                time.sleep(delay_s)
    raise RuntimeError(f"collector at {addr[0]}:{addr[1]} unreachable after {attempts} attempts: {last}")


def cmd_pipeline(args) -> int:
    started = time.time()
    tb = _parse_testbeds(args.testbed)[0]
    profile = Profile(args.profile)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ramp_every = args.ramp_every if args.ramp_every > 0 else None
    ramp_batch = args.ramp_batch
    jobs = []
    for i in range(args.transfers):
        start_s = (i // ramp_batch) * ramp_every if ramp_every else 0
        jobs.append(
            TransferJob(
                f"{tb.id}-xfer-{i:04d}",
                file_count=64,
                file_size_bytes=1 << 34,
                source_ost_index=i % tb.oss_count_per_side,
                dest_ost_index=i % tb.oss_count_per_side,
                start_s=start_s,
            )
        )
    run = SimRun(testbed=tb, jobs=tuple(jobs), seed=args.seed, duration_s=args.duration)
    label = "normal"
    if args.anomaly:
        cls = AnomalyClass(args.anomaly)
        spec = spec_for_target_drop(tb, cls, args.anomaly_drop, 0, args.duration)
        run = SimRun(testbed=tb, jobs=tuple(jobs), anomalies=(spec,), seed=args.seed,
                     duration_s=args.duration)
        label = cls.value

    collector = None
    if args.collector_addr == "auto":
        collector = CollectorService(CollectorConfig(data_dir=out_dir / "collector-data"))
        collector.start()
        addr = collector.ingest_address
    else:
        addr = _parse_addr(args.collector_addr)
        _preflight_collector(addr)

    runtime = SimulationRuntime(run)
    cache = CacheService()
    refresher = CacheRefresher(
        cache,
        lambda h: runtime.fetch_host(h),
        lambda o: runtime.fetch_oss(o),
        host_ids=(tb.host_id("sender"), tb.host_id("receiver")),
        oss_ids=(tb.oss_id("sender"), tb.oss_id("receiver")),
    )
    publisher = Publisher(SocketTransport(addr))
    agent = MonitoringAgent(
        runtime, cache, publisher,
        AgentConfig(profile=profile, interval_s=args.interval),
    )

    try:
        for _ in range(args.duration):
            tick_started = time.monotonic()
            runtime.advance()
            refresher.refresh(runtime.tick)
            published = agent.tick(runtime.tick)
            stats = agent.stats
            line = (
                f"t={runtime.tick:4d} active={agent.open_streams:4d} "
                f"published={published:4d} queue={publisher.queue_depth:5d} "
                f"dropped={stats.envelopes_dropped} gaps={stats.gaps}"
            )
            if collector is not None:
                line += f" persisted={collector.stats().persisted_total}"
            print(line)
            if args.realtime:
                elapsed = time.monotonic() - tick_started
                time.sleep(max(0.0, args.interval - elapsed))
        publisher.flush(timeout_s=10.0)
    finally:
        publisher.close()
        if collector is not None:
            collector.stop()

    manifest_path = write_manifest(
        out_dir / "pipeline",
        "pipeline",
        {
            "testbed": tb.id,
            "transfers": args.transfers,
            "duration_s": args.duration,
            "profile": profile.value,
            "seed": args.seed,
            "interval_s": args.interval,
            "ramp_every": args.ramp_every,
            "ramp_batch": args.ramp_batch,
            "anomaly": args.anomaly,
            "collector_addr": args.collector_addr,
        },
        [str(out_dir)],
        started,
        extra={"labels": {j.transfer_id: label for j in jobs}},
    )
    print(agent.stats_text(runtime.tick))
    print(f"manifest: {manifest_path}")
    return EXIT_OK


# ----------------------------------------------------------------------
# diagnose
# ----------------------------------------------------------------------

def _load_dataset(path: str):
    p = Path(path)
    if not p.exists():
        raise DataError(f"dataset not found: {p}")
    try:
        return load_ndjson(p)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _group_runs(rows):
    by_run: dict[tuple[str, str], list] = defaultdict(list)
    for r in rows:
        by_run[(r.testbed_id, r.transfer_id)].append(r)
    for rs in by_run.values():
        rs.sort(key=lambda r: r.t)
    return by_run


def cmd_diagnose(args) -> int:
    started = time.time()
    rows = _load_dataset(args.dataset)
    if args.transfer_matrix:
        return _diagnose_transfer_matrix(args, rows, started)

    try:
        config = RuleConfig(**{f.name: getattr(args, f.name) for f in fields(RuleConfig)})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out = Path(args.out)
    by_run = _group_runs(rows)
    testbed_ids = sorted({tb for tb, _ in by_run})

    baselines: dict[str, BaselineProfile] = {}
    if args.baseline:
        base = BaselineProfile.load(args.baseline)
        baselines[base.testbed_id] = base
    for tb_id in testbed_ids:
        if tb_id not in baselines:
            try:
                baselines[tb_id] = fit_baseline_from_dataset(rows, tb_id)
            except ValueError as exc:
                raise DataError(
                    f"no baseline for {tb_id} and no normal rows to fit one: {exc}"
                ) from exc

    n = 0
    with out.open("w", encoding="utf-8") as fh:
        for (tb_id, tid), rs in sorted(by_run.items()):
            diags = classify_run_windows(
                [r.metrics for r in rs], baselines[tb_id], config, transfer_id=tid
            )
            for d in diags:
                fh.write(d.to_json())
                fh.write("\n")
                n += 1
    write_manifest(
        out,
        "diagnose",
        {"dataset": args.dataset, "baseline": args.baseline, **asdict(config)},
        [str(out)],
        started,
    )
    print(f"wrote {n} window diagnoses to {out}")
    return EXIT_OK


def _diagnose_transfer_matrix(args, rows, started: float) -> int:
    """Cross-testbed centroid F1 heatmaps, with and without normalization."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_tb: dict[str, list] = defaultdict(list)
    for r in rows:
        by_tb[r.testbed_id].append(r)
    tb_ids = sorted(by_tb)
    if len(tb_ids) < 2:
        raise DataError("transfer matrix needs at least two testbeds in the dataset")

    baselines = {tb: fit_baseline_from_dataset(rows, tb) for tb in tb_ids}
    raw = {tb: ([r.metrics for r in rs], [r.label for r in rs]) for tb, rs in by_tb.items()}
    norm = {
        tb: (normalize_rows(raw[tb][0], baselines[tb]), raw[tb][1]) for tb in tb_ids
    }

    paths = []
    for name, table, normalized in (("raw", raw, False), ("normalized", norm, True)):
        path = out_dir / f"transfer-matrix-{name}.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["train", "test", "macro_f1"])
            for train in tb_ids:
                model = centroid_fit(*table[train], normalized=normalized)
                for test in tb_ids:
                    if train == test:
                        continue
                    preds = centroid_predict_many(model, table[test][0])
                    writer.writerow([train, test, f"{score(preds, table[test][1]).macro_f1:.4f}"])
        paths.append(str(path))
    write_manifest(
        out_dir / "transfer-matrix",
        "diagnose-transfer-matrix",
        {"dataset": args.dataset},
        paths,
        started,
    )
    print(f"wrote {paths[0]} and {paths[1]}")
    return EXIT_OK


# ----------------------------------------------------------------------
# score
# ----------------------------------------------------------------------

def cmd_score(args) -> int:
    started = time.time()
    pred_path = Path(args.pred)
    if not pred_path.exists():
        raise DataError(f"predictions not found: {pred_path}")
    truth_rows = _load_dataset(args.truth)
    truth_by_tid = {r.transfer_id: r.label for r in truth_rows}
    testbed_by_tid = {r.transfer_id: r.testbed_id for r in truth_rows}

    preds: list[str] = []
    truths: list[str] = []
    testbeds: list[str] = []
    with pred_path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                tid = obj["transfer_id"]
                label = obj["label"]
            except (KeyError, json.JSONDecodeError) as exc:
                raise DataError(f"{pred_path}:{line_no}: bad prediction record: {exc}") from exc
            if tid not in truth_by_tid:
                raise DataError(f"{pred_path}:{line_no}: transfer {tid!r} absent from truth")
            preds.append(label)
            truths.append(truth_by_tid[tid])
            testbeds.append(testbed_by_tid[tid])
    report = score(preds, truths)
    print(report.to_table())

    per_testbed = {}
    for tb_id in sorted(set(testbeds)):
        picked = [(p, t) for p, t, b in zip(preds, truths, testbeds) if b == tb_id]
        per_testbed[tb_id] = score([p for p, _ in picked], [t for _, t in picked]).macro_f1
    if len(per_testbed) > 1:
        print("\nper-testbed macro-F1:")
        for tb_id, macro in per_testbed.items():
            print(f"  {tb_id:<8} {macro:.4f}")

    if args.out:
        out = Path(args.out)
        payload = json.loads(report.to_json())
        payload["per_testbed_macro_f1"] = per_testbed
        out.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
        write_manifest(out, "score", {"pred": args.pred, "truth": args.truth}, [str(out)], started)
        print(f"report: {out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def cmd_export(args) -> int:
    started = time.time()
    data_dir = Path(args.data_dir)
    if not data_dir.exists():
        raise DataError(f"collector data dir not found: {data_dir}")
    labels: dict[str, str] = {}
    if args.manifest:
        mpath = Path(args.manifest)
        if not mpath.exists():
            raise DataError(f"manifest not found: {mpath}")
        manifest = json.loads(mpath.read_text(encoding="utf-8"))
        labels = manifest.get("labels", {})

    store = SegmentStore(data_dir)
    out = Path(args.out)
    try:
        n = write_ndjson(dataset_rows(store, labels=labels), out)
    finally:
        store.close()
    write_manifest(
        out,
        "export",
        {"data_dir": str(data_dir), "manifest": args.manifest},
        [str(out)],
        started,
        {"rows": n, "discarded_bytes": store.discarded_bytes},
    )
    print(f"exported {n} rows to {out}")
    return EXIT_OK


# ----------------------------------------------------------------------

def _bool(text: str) -> bool:
    flags = {"true": True, "1": True, "false": False, "0": False}
    if text.lower() not in flags:
        raise ValueError(f"not a boolean: {text!r}")
    return flags[text.lower()]


def read_config(command: argparse.ArgumentParser, path: str | None) -> dict:
    """Option defaults for the active subcommand from its --config JSON file
    and the XFERMON_* environment: the one reader of both.

    The known keys are the subcommand's option dests plus the other defaults
    it sets; for diagnose these are the RuleConfig fields. Environment beats
    file; main passes the result to set_defaults, so an explicit flag beats
    both. A file key the subcommand does not know is a usage error. An
    unknown XFERMON_* key is ignored, because every command in a shell sees
    the same environment. Each value goes through its option's own argparse
    type and choices, so a bad one is a usage error too.
    """
    kinds = {k: (type(v), None) for k, v in command._defaults.items() if k != "func"}
    for a in command._actions:
        if a.dest not in ("help", "config"):
            kinds[a.dest] = (_bool if a.nargs == 0 else a.type or str, a.choices)
    values: dict = {}
    if path:
        cfg = Path(path)
        if not cfg.exists():
            raise DataError(f"config file not found: {cfg}")
        try:
            obj = json.loads(cfg.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataError(f"bad config file {cfg}: {exc}") from exc
        if not isinstance(obj, dict):
            raise UsageError(f"config file {cfg} must hold a JSON object")
        values = {k.replace("-", "_"): v for k, v in obj.items()}
        unknown = sorted(set(values) - set(kinds))
        if unknown:
            raise UsageError(f"config file {cfg}: unknown keys for {command.prog}: {unknown}")
    for key, raw in os.environ.items():
        name = key[len("XFERMON_"):].lower()
        if key.startswith("XFERMON_") and name in kinds:
            values[name] = raw
    resolved = {}
    for name, raw in values.items():
        convert, choices = kinds[name]
        try:
            if not isinstance(raw, (str, int, float)):
                raise TypeError(f"{type(raw).__name__} is not a scalar")
            resolved[name] = convert(str(raw))
            if choices is not None and resolved[name] not in choices:
                raise ValueError(f"not one of {list(choices)}")
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad config value {name}={raw!r}: {exc}") from None
    return resolved


def build_parser() -> tuple[CliParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", default=argparse.SUPPRESS,
        help="JSON file of option defaults; XFERMON_* env vars override it",
    )

    parser = CliParser(prog="xfermon", description=__doc__, parents=[common],
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"xfermon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, parents=[common])

    p = add_parser("gen", help="generate a labeled dataset or severity sweep")
    p.add_argument("--testbed", default="all", help="testbed id, comma list, or 'all'")
    p.add_argument("--classes", default="all", help="class names or 'all' (nine-class space)")
    p.add_argument("--runs-per-class", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=int, default=60, help="seconds per run")
    p.add_argument("--sweep", default=None,
                   help="emit severity-sweep CSV for one disturbance class or 'all'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = add_parser("pipeline", help="run live agents against a collector")
    p.add_argument("--testbed", default="tb1")
    p.add_argument("--transfers", type=int, default=100)
    p.add_argument("--duration", type=int, default=30)
    p.add_argument("--collector-addr", default="auto",
                   help="host:port of a collector, or 'auto' for in-process")
    p.add_argument("--profile", default=Profile.MINIMAL14.value,
                   choices=[pr.value for pr in Profile])
    p.add_argument("--interval", type=float, default=1.0)
    p.add_argument("--ramp-every", type=int, default=0,
                   help="start a batch of transfers every N seconds")
    p.add_argument("--ramp-batch", type=int, default=100)
    p.add_argument("--anomaly", default=None, help="anomaly class to inject for the whole run")
    p.add_argument("--anomaly-drop", type=float, default=0.5)
    p.add_argument("--realtime", action="store_true",
                   help="pace ticks to wall-clock intervals")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="pipeline-out")
    p.set_defaults(func=cmd_pipeline)

    p = add_parser("diagnose", help="classify dataset windows or build transfer matrices")
    p.add_argument("--dataset", required=True)
    p.add_argument("--baseline", default=None, help="baseline profile JSON (else fitted)")
    p.add_argument("--transfer-matrix", action="store_true",
                   help="emit cross-testbed centroid F1 heatmap CSVs into --out")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose, **asdict(DEFAULT_RULE_CONFIG))

    p = add_parser("score", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_score)

    p = add_parser("export", help="export collector data to a dataset file")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--manifest", default=None, help="pipeline manifest with transfer labels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser, commands = build_parser()
        args = parser.parse_args(argv)
        command = commands[args.command]
        command.set_defaults(**read_config(command, getattr(args, "config", None)))
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except (OSError, ConnectionError, RuntimeError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
