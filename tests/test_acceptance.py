"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The labeled dataset (8 testbeds x 9 classes x 10
seeded runs) is built once and shared.
"""
import itertools
import random
import socket
import statistics
import threading
import time
from collections import defaultdict

import pytest

from xfermon.agent import (
    AgentConfig,
    CacheRefresher,
    CacheService,
    MonitoringAgent,
    Publisher,
    SimulationRuntime,
    SocketTransport,
)
from xfermon.collector import CollectorConfig, CollectorService, SegmentStore, encode_frame
from xfermon.diagnose import (
    RuleConfig,
    centroid_fit,
    centroid_predict_many,
    classify,
    classify_run_windows,
    fit_baseline,
    fit_baseline_from_dataset,
    normalize_rows,
    score,
)
from xfermon.metrics import (
    PAYLOAD_LIMIT_BYTES,
    Profile,
    catalog_names,
    decode_envelope,
    encode_envelope,
)
from xfermon.sim import (
    DROP_BAND,
    SWEEP_MENUS,
    AnomalyClass,
    Engine,
    SimRun,
    TransferJob,
    assemble_values,
    builtin_testbeds,
    generate_dataset,
    get_testbed,
    run_rows,
    sweep_spec,
)

from tests.test_metrics import make_envelope
from tests.test_sim import assert_conservation_and_capacity, mean_throughput, random_run

ACCEPTANCE_SEED = 20240811
RUNS_PER_CLASS = 10


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} [{name}]: {status} ({detail})")


@pytest.fixture(scope="module")
def dataset():
    testbeds = list(builtin_testbeds().values())
    started = time.perf_counter()
    rows, manifest = generate_dataset(testbeds, RUNS_PER_CLASS, ACCEPTANCE_SEED)
    return {
        "testbeds": testbeds,
        "rows": rows,
        "manifest": manifest,
        "gen_seconds": time.perf_counter() - started,
    }


@pytest.fixture(scope="module")
def grouped(dataset):
    by_tb_run = defaultdict(lambda: defaultdict(list))
    label_of = {}
    for r in dataset["rows"]:
        by_tb_run[r.testbed_id][r.transfer_id].append(r)
        label_of[r.transfer_id] = r.label
    for runs in by_tb_run.values():
        for rs in runs.values():
            rs.sort(key=lambda r: r.t)
    return by_tb_run, label_of


# ----------------------------------------------------------------------
# 1. heuristic rule-engine accuracy, macro-F1 >= 0.95 per testbed, < 2 min
# ----------------------------------------------------------------------

def test_criterion_1_heuristic_accuracy(dataset, grouped):
    started = time.perf_counter()
    by_tb_run, label_of = grouped
    config = RuleConfig()
    worst = 1.0
    per_tb = {}
    for tb in dataset["testbeds"]:
        baseline = fit_baseline_from_dataset(dataset["rows"], tb.id)
        preds, truths = [], []
        for tid, rs in by_tb_run[tb.id].items():
            for diag in classify_run_windows(
                [r.metrics for r in rs], baseline, config, transfer_id=tid
            ):
                preds.append(diag.label.value)
                truths.append(label_of[tid])
        macro = score(preds, truths).macro_f1
        per_tb[tb.id] = macro
        worst = min(worst, macro)
    total_seconds = dataset["gen_seconds"] + (time.perf_counter() - started)
    ok = worst >= 0.95 and total_seconds < 120
    report(
        1,
        "heuristic accuracy",
        ok,
        f"per-testbed macro-F1 min={worst:.4f} all={ {k: round(v, 4) for k, v in per_tb.items()} } "
        f"runtime={total_seconds:.1f}s",
    )
    assert worst >= 0.95
    assert total_seconds < 120


# ----------------------------------------------------------------------
# 2. cross-testbed transferability gap and recovery
# ----------------------------------------------------------------------

def test_criterion_2_transferability(dataset):
    by_tb = defaultdict(list)
    for r in dataset["rows"]:
        by_tb[r.testbed_id].append(r)
    tb_ids = sorted(by_tb)
    baselines = {t: fit_baseline_from_dataset(dataset["rows"], t) for t in tb_ids}
    raw = {t: ([r.metrics for r in rs], [r.label for r in rs]) for t, rs in by_tb.items()}
    norm = {
        t: (normalize_rows(raw[t][0], baselines[t]), raw[t][1]) for t in tb_ids
    }
    raw_scores, norm_scores = [], []
    for train, test in itertools.permutations(tb_ids, 2):
        m = centroid_fit(*raw[train], normalized=False)
        raw_scores.append(score(centroid_predict_many(m, raw[test][0]), raw[test][1]).macro_f1)
        m = centroid_fit(*norm[train], normalized=True)
        norm_scores.append(score(centroid_predict_many(m, norm[test][0]), norm[test][1]).macro_f1)
    assert len(raw_scores) == 56
    raw_avg = statistics.fmean(raw_scores)
    norm_avg = statistics.fmean(norm_scores)
    gain = norm_avg - raw_avg
    ok = gain >= 0.15 and norm_avg >= 0.75
    report(
        2,
        "transferability recovery",
        ok,
        f"raw avg={raw_avg:.4f}, normalized avg={norm_avg:.4f}, gain={gain * 100:.1f} points "
        f"over 56 ordered pairs",
    )
    assert gain >= 0.15
    assert norm_avg >= 0.75


# ----------------------------------------------------------------------
# 3. agent message-count linearity to 400 transfers
# ----------------------------------------------------------------------

def test_criterion_3_agent_linear_scaling(tmp_path):
    points = []
    drops = 0
    collector = CollectorService(CollectorConfig(data_dir=tmp_path / "scale-data"))
    collector.start()
    try:
        for n in (100, 200, 300, 400):
            tb = get_testbed("tb2")
            jobs = tuple(
                TransferJob(f"s{n}-{i:04d}", file_count=64, file_size_bytes=1 << 34,
                            source_ost_index=i % 3, dest_ost_index=i % 3)
                for i in range(n)
            )
            run = SimRun(testbed=tb, jobs=jobs, seed=n, duration_s=5)
            runtime = SimulationRuntime(run)
            cache = CacheService()
            refresher = CacheRefresher(
                cache, lambda h: runtime.fetch_host(h), lambda o: runtime.fetch_oss(o),
                host_ids=(tb.host_id("sender"), tb.host_id("receiver")),
                oss_ids=(tb.oss_id("sender"), tb.oss_id("receiver")),
            )
            publisher = Publisher(SocketTransport(collector.ingest_address))
            agent = MonitoringAgent(
                runtime, cache, publisher, AgentConfig(profile=Profile.MINIMAL14, interval_s=1.0)
            )
            per_tick = []
            for _ in range(5):
                runtime.advance()
                refresher.refresh(runtime.tick)
                per_tick.append(agent.tick(runtime.tick))
            publisher.flush(timeout_s=20)
            drops += publisher.stats.dropped_total + agent.stats.envelopes_dropped
            points.append((n, statistics.fmean(per_tick)))
            publisher.close()
    finally:
        collector.stop()
    xs, ys = zip(*points)
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in points) / sum((x - mx) ** 2 for x in xs)
    ok = abs(slope - 1.0) <= 0.05 and drops == 0
    report(
        3,
        "agent linear scaling",
        ok,
        f"published-per-interval points={points}, slope={slope:.4f}, drops={drops}",
    )
    assert abs(slope - 1.0) <= 0.05
    assert drops == 0


# ----------------------------------------------------------------------
# 4. collection latency budgets and the cache speedup
# ----------------------------------------------------------------------

def test_criterion_4_collection_latency():
    def median_collect_latency(profile, use_caches, samples):
        tb = get_testbed("tb3")
        run = SimRun(
            testbed=tb,
            jobs=(TransferJob("lat", file_count=64, file_size_bytes=1 << 34),),
            seed=1,
            duration_s=3,
        )
        runtime = SimulationRuntime(run, upstream_exec_s=0.003)
        cache = CacheService()
        refresher = CacheRefresher(
            cache, lambda h: runtime.fetch_host(h), lambda o: runtime.fetch_oss(o),
            host_ids=(tb.host_id("sender"), tb.host_id("receiver")),
            oss_ids=(tb.oss_id("sender"), tb.oss_id("receiver")),
        )
        agent = MonitoringAgent(
            runtime, cache, Publisher(),
            AgentConfig(profile=profile, use_caches=use_caches),
        )
        runtime.advance()
        refresher.refresh(runtime.tick)
        for _ in range(samples):
            agent.collect("lat", runtime.tick)
        return statistics.median(agent.stats.last_collect_latencies_s)

    full_cached = median_collect_latency(Profile.FULL142, True, 200)
    minimal_cached = median_collect_latency(Profile.MINIMAL14, True, 200)
    full_uncached = median_collect_latency(Profile.FULL142, False, 10)
    multiplier = full_uncached / full_cached
    ok = full_cached <= 0.100 and minimal_cached <= 0.020 and multiplier >= 5.0
    report(
        4,
        "collection latency budget",
        ok,
        f"full={full_cached * 1000:.3f}ms (<=100), minimal={minimal_cached * 1000:.3f}ms (<=20), "
        f"no-cache multiplier={multiplier:.0f}x (>=5)",
    )
    assert full_cached <= 0.100
    assert minimal_cached <= 0.020
    assert multiplier >= 5.0


# ----------------------------------------------------------------------
# 5. payload budgets over 10,000 random valid envelopes per profile
# ----------------------------------------------------------------------

def test_criterion_5_payload_budget():
    rng = random.Random(ACCEPTANCE_SEED)
    maxima = {}
    for profile in (Profile.MINIMAL14, Profile.FULL142):
        limit = PAYLOAD_LIMIT_BYTES[profile]
        biggest = 0
        for i in range(10_000):
            env = make_envelope(
                profile, rng, transfer_id=f"tb{i % 8 + 1}-transfer-{i:06d}", t=i % 86_400
            )
            size = len(encode_envelope(env))
            biggest = max(biggest, size)
            assert size <= limit
        maxima[profile.value] = (biggest, limit)
    ok = all(big <= lim for big, lim in maxima.values())
    report(
        5,
        "payload budget",
        ok,
        ", ".join(f"{p}: max {big}B <= {lim}B" for p, (big, lim) in maxima.items()),
    )


# ----------------------------------------------------------------------
# 6. collector ingest throughput and graceful overload
# ----------------------------------------------------------------------

def _blast(collector, profile, n_agents, msgs_per_agent):
    tb = get_testbed("tb2")
    run = SimRun(
        testbed=tb,
        jobs=(TransferJob("blast", file_count=64, file_size_bytes=1 << 34),),
        seed=1,
        duration_s=2,
    )
    snap = Engine(run).step(0)
    values = assemble_values(
        catalog_names(profile), "blast",
        snap.hosts[tb.host_id("sender")], snap.hosts[tb.host_id("receiver")],
        snap.osses[tb.oss_id("sender")], snap.osses[tb.oss_id("receiver")],
    )
    blobs = []
    for a in range(n_agents):
        frames = []
        for t in range(msgs_per_agent):
            env = make_envelope(profile, transfer_id=f"blast-{a}-{t % 900}", t=t)
            env = env.__class__(env.transfer_id, env.testbed_id, t // 900 * 1000 + t % 900,
                                profile, values)
            frames.append(encode_frame(encode_envelope(env)))
        blobs.append(b"".join(frames))
    total = n_agents * msgs_per_agent

    def send(blob):
        with socket.create_connection(collector.ingest_address) as sock:
            sock.sendall(blob)

    started = time.perf_counter()
    threads = [threading.Thread(target=send, args=(b,)) for b in blobs]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    deadline = time.perf_counter() + 60
    while collector.stats().persisted_total < total and time.perf_counter() < deadline:
        time.sleep(0.01)
    elapsed = time.perf_counter() - started
    return total, elapsed


def test_criterion_6_collector_throughput(tmp_path):
    results = {}
    for profile, floor in ((Profile.MINIMAL14, 10_000), (Profile.FULL142, 5_000)):
        collector = CollectorService(CollectorConfig(data_dir=tmp_path / profile.value))
        collector.start()
        try:
            total, elapsed = _blast(collector, profile, n_agents=9, msgs_per_agent=5000)
            stats = collector.stats()
            rate = total / elapsed
            results[profile.value] = (rate, floor, stats)
            assert stats.persisted_total == total, "messages lost under load"
            assert rate >= floor
        finally:
            collector.stop()

    # overload: a crippled writer queues gracefully and loses nothing
    collector = CollectorService(CollectorConfig(data_dir=tmp_path / "overload"))
    collector.start()
    try:
        collector.writer_delay_s = 0.05
        total, _ = _blast(collector, Profile.MINIMAL14, n_agents=2, msgs_per_agent=1500)
        collector.writer_delay_s = 0.0
        deadline = time.perf_counter() + 30
        while collector.stats().persisted_total < total and time.perf_counter() < deadline:
            time.sleep(0.02)
        persisted = collector.stats().persisted_total
        store_count = collector.store.record_count
    finally:
        collector.stop()
    catching_up_ok = persisted == total == store_count

    min_rate = results["minimal14"][0]
    full_rate = results["full142"][0]
    ok = min_rate >= 10_000 and full_rate >= 5_000 and min_rate >= 2 * full_rate and catching_up_ok
    report(
        6,
        "collector throughput",
        ok,
        f"minimal={min_rate:,.0f}/s (>=10k), full={full_rate:,.0f}/s (>=5k), "
        f"ratio={min_rate / full_rate:.1f}x (>=2), overload drained cleanly={catching_up_ok}",
    )
    assert min_rate >= 10_000
    assert full_rate >= 5_000
    assert min_rate >= 2 * full_rate
    assert catching_up_ok


# ----------------------------------------------------------------------
# 7. severity-throughput reproduction over the published menus
# ----------------------------------------------------------------------

def test_criterion_7_severity_throughput():
    tb = get_testbed("tb3")
    duration = 20

    def mean_for(spec):
        run = SimRun(
            testbed=tb,
            jobs=(TransferJob("sev", file_count=64, file_size_bytes=1 << 34),),
            anomalies=(spec,) if spec else (),
            seed=len(str(spec)) if spec else 7,
            duration_s=duration,
        )
        return mean_throughput(run_rows(run, AnomalyClass.NORMAL))

    normal = mean_for(None)
    details = []
    monotone_ok = True
    for cls in (AnomalyClass.NETWORK_LOSS, AnomalyClass.CORRUPT, AnomalyClass.JITTER,
                AnomalyClass.NETWORK_CONGESTION):
        means = [
            mean_for(sweep_spec(tb, cls, level, 0, duration)) for level in SWEEP_MENUS[cls]
        ]
        for lo, hi in zip(means[1:], means[:-1]):
            if lo > hi * 1.01:
                monotone_ok = False
        details.append(f"{cls.value}: {[round(m / normal, 3) for m in means]}")

    dup = mean_for(sweep_spec(tb, AnomalyClass.DUPLICATE, 0.45, 0, duration))
    dup_ok = abs(dup - normal) / normal <= 0.10
    ok = monotone_ok and dup_ok
    report(
        7,
        "severity-throughput reproduction",
        ok,
        f"normal-relative means {details}; duplicate@45% = {dup / normal:.3f} of normal",
    )
    assert monotone_ok
    assert dup_ok


# ----------------------------------------------------------------------
# 8. every generated non-normal run lands 20-80% below the normal mean
# ----------------------------------------------------------------------

def test_criterion_8_anomaly_severity_envelope(dataset, grouped):
    by_tb_run, label_of = grouped
    lo, hi = DROP_BAND
    violations = []
    checked = 0
    for tb in dataset["testbeds"]:
        normal_means = [
            mean_throughput(rs)
            for tid, rs in by_tb_run[tb.id].items()
            if label_of[tid] == "normal"
        ]
        normal_mean = statistics.fmean(normal_means)
        for tid, rs in by_tb_run[tb.id].items():
            if label_of[tid] == "normal":
                continue
            checked += 1
            drop = 1.0 - mean_throughput(rs) / normal_mean
            if not (lo <= drop <= hi):
                violations.append((tb.id, tid, round(drop, 3)))
    ok = not violations
    report(
        8,
        "anomaly severity envelope",
        ok,
        f"{checked} non-normal runs checked, violations={violations or 'none'}",
    )
    assert not violations


# ----------------------------------------------------------------------
# 9. property suites
# ----------------------------------------------------------------------

def test_criterion_9_property_suites(tmp_path):
    checks = []

    # envelope round-trip identity
    rng = random.Random(5)
    roundtrip_ok = all(
        decode_envelope(encode_envelope(e)) == e
        for e in (make_envelope(p, rng) for p in list(Profile) * 50)
    )
    checks.append(("envelope-roundtrip", roundtrip_ok))

    # conservation and capacity over 1,000 random runs
    rng = random.Random(ACCEPTANCE_SEED)
    conservation_ok = True
    for _ in range(1000):
        try:
            assert_conservation_and_capacity(random_run(rng))
        except AssertionError:
            conservation_ok = False
            break
    checks.append(("conservation-capacity-1000-runs", conservation_ok))

    # classifier scale invariance and determinism
    from tests.test_properties import scale_baseline, scale_row

    tb = get_testbed("tb5")
    from xfermon.sim import build_run

    run, _ = build_run(tb, AnomalyClass.NETWORK_CONGESTION, 0, seed=2, duration_s=10)
    rows = [r.metrics for r in run_rows(run, AnomalyClass.NETWORK_CONGESTION)]
    norm_run, _ = build_run(tb, AnomalyClass.NORMAL, 0, seed=2, duration_s=10)
    baseline = fit_baseline(
        [r.metrics for r in run_rows(norm_run, AnomalyClass.NORMAL)], tb.id
    )
    d0 = classify(rows, baseline)
    scale_ok = all(
        classify([scale_row(r, c) for r in rows], scale_baseline(baseline, c)).label is d0.label
        for c in (1e-3, 0.5, 42.0, 1e3)
    )
    determinism_ok = classify(rows, baseline) == classify(rows, baseline)
    checks.append(("classifier-scale-invariance", scale_ok))
    checks.append(("classifier-determinism", determinism_ok))

    # scorer equals a brute-force counting oracle on 100 random matrices
    from xfermon.diagnose import LABEL_SPACE

    rng = random.Random(1)
    scorer_ok = True
    for _ in range(100):
        classes = rng.sample(LABEL_SPACE, rng.randint(2, 9))
        preds, truths = [], []
        for t in classes:
            for p in classes:
                n = rng.randint(0, 5)
                preds += [p] * n
                truths += [t] * n
        if not truths:
            continue
        rep = score(preds, truths)
        for c in classes:
            tp = sum(1 for p, t in zip(preds, truths) if p == c and t == c)
            fp = sum(1 for p, t in zip(preds, truths) if p == c and t != c)
            fn = sum(1 for p, t in zip(preds, truths) if p != c and t == c)
            if tp + fn == 0:
                continue
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn)
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            if abs(rep.per_class[c].f1 - f1) > 1e-12:
                scorer_ok = False
    checks.append(("scorer-brute-force-oracle", scorer_ok))

    # crash-restart prefix validity
    from xfermon.collector import Record

    d = tmp_path / "crash"
    store = SegmentStore(d)
    for t in range(25):
        store.append(Record("c-1", "tb1", t, "minimal14", {"m": float(t)}))
    store.close()
    seg = next(d.glob("segment-*.ndjson"))
    seg.write_bytes(seg.read_bytes() + b'{"transfer_id": "c-1", "t"')
    recovered = SegmentStore(d)
    crash_ok = recovered.record_count == 25
    recovered.close()
    checks.append(("crash-restart-prefix", crash_ok))

    ok = all(passed for _, passed in checks)
    report(9, "property suites", ok, ", ".join(f"{n}={'ok' if p else 'FAIL'}" for n, p in checks))
    assert ok
