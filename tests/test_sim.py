"""Simulator contracts: rate models, injection semantics, dataset generation."""
import random
import re
import statistics

import pytest

from xfermon.metrics import FULL_NAMES
from xfermon.sim import (
    DROP_BAND,
    LABEL_CLASSES,
    SWEEP_MENUS,
    AnomalyClass,
    AnomalySpec,
    Engine,
    SimRun,
    TransferJob,
    assemble_values,
    buffer_limited_rate,
    build_run,
    builtin_testbeds,
    generate_dataset,
    get_testbed,
    inject,
    load_ndjson,
    mathis_rate,
    run_rows,
    sweep_spec,
    write_ndjson,
)

GBPS = 1.25e8


def mean_throughput(rows):
    return statistics.fmean(r.metrics["transfer_throughput_bytes_per_s"] for r in rows)


def simple_run(tb, anomalies=(), seed=11, duration=20, jobs=None):
    jobs = jobs or (TransferJob("t0", file_count=64, file_size_bytes=1 << 34),)
    return SimRun(testbed=tb, jobs=jobs, anomalies=tuple(anomalies), seed=seed, duration_s=duration)


# ----------------------------------------------------------------------
# loss-limited rate model
# ----------------------------------------------------------------------

def test_mathis_hand_evaluated_example():
    # 1.22 * 1460 / 0.030 / sqrt(0.01) = 1781.2 / 0.030 / 0.1 = 593733.33 B/s
    rate = mathis_rate(mss_bytes=1460, rtt_us=30_000, loss_p=0.01)
    assert rate == pytest.approx(593_733.333, rel=1e-6)
    assert rate == pytest.approx(594e3, rel=1e-2)


def test_mathis_capped_at_capacity_as_loss_vanishes():
    cap = 1e9
    assert mathis_rate(1460, 30_000, 1e-9, capacity_bytes_per_s=cap) == cap


def test_mathis_quadrupling_loss_halves_rate():
    r1 = mathis_rate(1460, 30_000, 0.002)
    r4 = mathis_rate(1460, 30_000, 0.008)
    assert r4 == pytest.approx(r1 / 2, rel=1e-9)


def test_mathis_domain_errors():
    with pytest.raises(ValueError):
        mathis_rate(1460, 30_000, 0.0)
    with pytest.raises(ValueError):
        mathis_rate(1460, 30_000, 1.0)
    with pytest.raises(ValueError):
        mathis_rate(1460, 30_000, -0.1)


def test_mathis_streams_scale_linearly():
    assert mathis_rate(1460, 30_000, 0.01, streams=8) == pytest.approx(
        8 * mathis_rate(1460, 30_000, 0.01)
    )


# ----------------------------------------------------------------------
# window-limited rate model
# ----------------------------------------------------------------------

def test_buffer_at_bdp_reaches_capacity():
    cap = 10 * GBPS
    rtt_us = 12_000
    bdp = cap * rtt_us / 1e6
    assert buffer_limited_rate(bdp, rtt_us, cap) == pytest.approx(cap)


def test_buffer_at_half_bdp_gives_half_capacity():
    cap = 10 * GBPS
    rtt_us = 12_000
    bdp = cap * rtt_us / 1e6
    assert buffer_limited_rate(bdp / 2, rtt_us, cap) == pytest.approx(cap / 2)


def test_tiny_receiver_buffer_collapses_throughput():
    # a 2 KiB buffer on a network with a 120 KiB BDP leaves 1/60 of capacity
    rtt_us = 10_000
    cap = 120 * 1024 / (rtt_us / 1e6)  # capacity such that BDP = 120 KiB
    rate = buffer_limited_rate(2 * 1024, rtt_us, cap)
    assert rate / cap == pytest.approx(1 / 60, rel=1e-9)


# ----------------------------------------------------------------------
# per-second composition
# ----------------------------------------------------------------------

def test_unimpaired_throughput_is_min_of_path_capacities():
    tb = get_testbed("tb1")  # disk 1 Gbps is the slowest stage, WAN 10 Gbps
    rows = run_rows(simple_run(tb), AnomalyClass.NORMAL)
    thr = mean_throughput(rows)
    assert thr == pytest.approx(tb.unimpaired_rate, rel=0.02)
    assert thr <= tb.unimpaired_rate


def test_receiver_ost_write_congestion_signature():
    # competitor writes push the OST to its ceiling while the transfer's own
    # write rate falls below it
    tb = get_testbed("tb3")
    run, _ = build_run(tb, AnomalyClass.RECEIVER_OST_WRITE_CONGESTION, 0, seed=3, duration_s=20)
    rows = run_rows(run, AnomalyClass.RECEIVER_OST_WRITE_CONGESTION)
    for r in rows:
        ost = r.metrics["receiver_ost_write_bytes_per_s"]
        client = r.metrics["receiver_client_write_bytes_per_s"]
        assert ost >= 0.9 * tb.per_ost_disk_write_bytes_per_s
        assert client < ost


def test_loss_rate_matches_packet_level_oracle():
    """Bernoulli toy oracle: drop each packet with probability p and
    retransmit until delivered; the achieved retransmit ratio is p."""
    p = 0.011
    rng = random.Random(99)
    delivered = 1_000_000
    sent = 0
    retx = 0
    for _ in range(delivered):
        while True:
            sent += 1
            if rng.random() >= p:
                break
            retx += 1
    oracle_ratio = retx / sent

    tb = get_testbed("tb3")
    spec = AnomalySpec(AnomalyClass.NETWORK_LOSS, p, 0, 40)
    rows = run_rows(simple_run(tb, [spec], duration=40), AnomalyClass.NETWORK_LOSS)
    sim_retx = sum(r.metrics["sender_retransmitted_packets"] for r in rows)
    sim_sent = sum(r.metrics["sender_total_sent_packets"] for r in rows)
    sim_ratio = sim_retx / sim_sent
    assert oracle_ratio == pytest.approx(p, rel=0.05)
    assert sim_ratio == pytest.approx(oracle_ratio, rel=0.08)

    # and the loss-limited throughput follows the closed-form rate
    expected = mathis_rate(tb.mss_bytes, tb.rtt_us, p, streams=tb.parallel_streams)
    assert mean_throughput(rows) == pytest.approx(expected, rel=0.05)


# ----------------------------------------------------------------------
# injection
# ----------------------------------------------------------------------

def test_inject_rejects_same_class_overlap():
    tb = get_testbed("tb1")
    run = simple_run(tb, [AnomalySpec(AnomalyClass.NETWORK_LOSS, 0.01, 0, 10)])
    with pytest.raises(ValueError, match="single-fault"):
        inject(run, AnomalySpec(AnomalyClass.NETWORK_LOSS, 0.005, 5, 15))
    # disjoint windows of the same class are fine
    out = inject(run, AnomalySpec(AnomalyClass.NETWORK_LOSS, 0.005, 10, 15))
    assert len(out.anomalies) == 2


def test_network_congestion_with_one_equal_competitor():
    # on the WAN-limited testbed one backlogged competitor halves the rate
    # and the queueing model inflates RTT to at least 1.5x
    tb = get_testbed("tb6")
    spec = AnomalySpec(AnomalyClass.NETWORK_CONGESTION, 1.0, 0, 20)
    rows = run_rows(simple_run(tb, [spec]), AnomalyClass.NETWORK_CONGESTION)
    thr = mean_throughput(rows)
    assert thr == pytest.approx(tb.wan_bandwidth_bytes_per_s / 2, rel=0.03)
    rtts = [r.metrics["sender_rtt_us"] for r in rows]
    assert statistics.fmean(rtts) >= 1.5 * tb.rtt_us


def test_duplicate_at_45_percent_leaves_throughput_within_10pct():
    tb = get_testbed("tb1")
    normal = mean_throughput(run_rows(simple_run(tb), AnomalyClass.NORMAL))
    spec = sweep_spec(tb, AnomalyClass.DUPLICATE, 0.45, 0, 20)
    dup = mean_throughput(run_rows(simple_run(tb, [spec]), AnomalyClass.DUPLICATE))
    assert abs(dup - normal) / normal <= 0.10


def test_anomaly_windows_apply_only_inside_their_interval():
    tb = get_testbed("tb1")
    spec = AnomalySpec(AnomalyClass.SENDER_TCP_BUFFER_MISCONFIG, 100_000.0, 5, 10)
    run = simple_run(tb, [spec], duration=15)
    rows = run_rows(run, AnomalyClass.SENDER_TCP_BUFFER_MISCONFIG)
    during = [r for r in rows if 5 <= r.t < 10]
    outside = [r for r in rows if r.t < 5 or r.t >= 10]
    assert all(r.metrics["sender_tcp_send_buf_max_bytes"] == 100_000.0 for r in during)
    assert all(
        r.metrics["sender_tcp_send_buf_max_bytes"] == tb.default_tcp_buf_max_bytes
        for r in outside
    )


# ----------------------------------------------------------------------
# severity monotonicity over the sweep menus
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "cls",
    [
        AnomalyClass.NETWORK_LOSS,
        AnomalyClass.CORRUPT,
        AnomalyClass.JITTER,
        AnomalyClass.NETWORK_CONGESTION,
        AnomalyClass.REORDER,
    ],
)
def test_monotone_severity_never_raises_throughput(cls):
    tb = get_testbed("tb3")
    means = []
    for level in SWEEP_MENUS[cls]:
        spec = sweep_spec(tb, cls, level, 0, 20)
        means.append(mean_throughput(run_rows(simple_run(tb, [spec]), cls)))
    for lo, hi in zip(means[1:], means[:-1]):
        assert lo <= hi * 1.01  # 1% slack for per-second efficiency jitter


# ----------------------------------------------------------------------
# conservation / capacity invariants
# ----------------------------------------------------------------------

def random_run(rng: random.Random) -> SimRun:
    tbs = list(builtin_testbeds().values())
    tb = rng.choice(tbs)
    n_jobs = rng.randint(1, 4)
    jobs = tuple(
        TransferJob(
            f"j{i}",
            file_count=4,
            file_size_bytes=rng.choice([1 << 28, 1 << 32, 1 << 34]),
            source_ost_index=rng.randrange(tb.oss_count_per_side),
            dest_ost_index=rng.randrange(tb.oss_count_per_side),
            start_s=rng.randint(0, 3),
        )
        for i in range(n_jobs)
    )
    anomalies = ()
    if rng.random() < 0.7:
        cls = rng.choice([c for c in LABEL_CLASSES if c is not AnomalyClass.NORMAL])
        try:
            from xfermon.sim import feasible_drop_range, spec_for_target_drop

            lo, hi = feasible_drop_range(tb, cls)
            anomalies = (spec_for_target_drop(tb, cls, rng.uniform(lo, hi), 0, 12),)
        except ValueError:
            anomalies = ()
    return SimRun(testbed=tb, jobs=jobs, anomalies=anomalies, seed=rng.randrange(2**31), duration_s=8)


def assert_conservation_and_capacity(run: SimRun):
    tb = run.testbed
    sender = tb.host_id("sender")
    receiver = tb.host_id("receiver")
    for snap in Engine(run).run_all():
        shost = snap.hosts[sender]
        rhost = snap.hosts[receiver]
        # conservation along the chain, one BDP of in-flight slack
        slack = tb.bdp_bytes + 1e-6
        total_rate = sum(snap.transfer_rates.values())
        assert shost["nic"]["lnet_rx"] + 1e-6 >= shost["nic"]["wan_tx"] - slack
        assert shost["nic"]["wan_tx"] + 1e-6 >= rhost["nic"]["wan_rx"] - slack
        assert rhost["nic"]["wan_rx"] + 1e-6 >= total_rate - slack
        # capacity: no layer counter above its configured ceiling
        assert shost["nic"]["lnet_rx"] <= tb.lnet_nic_bytes_per_s * (1 + 1e-9)
        assert rhost["nic"]["lnet_tx"] <= tb.lnet_nic_bytes_per_s * (1 + 1e-9)
        assert shost["nic"]["wan_tx"] <= tb.wan_bandwidth_bytes_per_s * (1 + 1e-9)
        for oss_id, side, cap in (
            (tb.oss_id("sender"), "read_bps", tb.per_ost_disk_read_bytes_per_s),
            (tb.oss_id("receiver"), "write_bps", tb.per_ost_disk_write_bytes_per_s),
        ):
            for ost in snap.osses[oss_id]["ost"].values():
                assert ost[side] <= cap * (1 + 1e-9)
        for rate in snap.transfer_rates.values():
            assert rate >= 0.0


def test_conservation_and_capacity_sampled_runs():
    rng = random.Random(2024)
    for _ in range(60):
        assert_conservation_and_capacity(random_run(rng))


def test_freed_bandwidth_goes_to_the_lone_transfer():
    # Five transfers share OST 2 on both sides, so each gets a fifth of it and
    # they leave half of each Lustre NIC free; the lone OST 1 -> 0 transfer is
    # held only by its own OSTs and the NIC remainder, both 425 MB/s.
    tb = get_testbed("tb3")
    def job(tid, src, dst):
        return TransferJob(
            tid, file_count=64, file_size_bytes=1 << 34, source_ost_index=src, dest_ost_index=dst
        )

    jobs = tuple(job(f"crowd{i}", 2, 2) for i in range(5)) + (job("lone", 1, 0),)
    fair = tb.per_ost_disk_read_bytes_per_s
    for snap in Engine(simple_run(tb, jobs=jobs, duration=5)).run_all():
        assert snap.transfer_rates["lone"] >= 0.96 * fair * (1 - 1e-9)
        for i in range(5):
            assert snap.transfer_rates[f"crowd{i}"] <= fair / 5 * (1 + 1e-9)


def test_full_profile_counters_keep_their_relations():
    # The full-profile TCP and per-process values are derived from the rate
    # and the per-side samples; these identities held when they were built
    # eagerly per transfer and must keep holding.
    rng = random.Random(4242)
    checked = 0
    for _ in range(25):
        run = random_run(rng)
        tb = run.testbed
        for snap in Engine(run).run_all():
            layers = (
                snap.hosts[tb.host_id("sender")],
                snap.hosts[tb.host_id("receiver")],
                snap.osses[tb.oss_id("sender")],
                snap.osses[tb.oss_id("receiver")],
            )
            for tid in layers[0]["active_transfers"]:
                v = assemble_values(FULL_NAMES, tid, *layers)
                assert v["sender_tcp_lost_packets"] == v["sender_retransmitted_packets"]
                assert v["sender_tcp_rto_us"] == max(200_000.0, 2.0 * v["sender_rtt_us"])
                for side in ("sender", "receiver"):
                    assert v[f"{side}_tcp_ssthresh_bytes"] == 0.75 * v[f"{side}_tcp_cwnd_bytes"]
                    assert v[f"{side}_tcp_sacked_packets"] == min(
                        3.0 * v[f"{side}_tcp_lost_packets"], v[f"{side}_tcp_delivered_packets"]
                    )
                    assert v[f"{side}_proc_open_sockets"] == tb.parallel_streams
                checked += 1
    assert checked > 100


# ----------------------------------------------------------------------
# dataset generation
# ----------------------------------------------------------------------

def test_dataset_run_counting():
    tbs = [get_testbed("tb1"), get_testbed("tb2")]
    rows, manifest = generate_dataset(tbs, runs_per_class=2, seed=1, duration_s=10)
    assert len(manifest["runs"]) == 2 * 9 * 2
    assert len({r.transfer_id for r in rows}) == 2 * 9 * 2
    assert len(rows) == 2 * 9 * 2 * 10


def test_dataset_determinism_byte_identical(tmp_path):
    tbs = [get_testbed("tb4")]
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    rows1, _ = generate_dataset(tbs, runs_per_class=2, seed=77, duration_s=10)
    rows2, _ = generate_dataset(tbs, runs_per_class=2, seed=77, duration_s=10)
    write_ndjson(rows1, a)
    write_ndjson(rows2, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_ndjson_null_metric_is_a_numbered_data_error(tmp_path):
    rows, _ = generate_dataset([get_testbed("tb1")], runs_per_class=1, seed=3, duration_s=2)
    path = tmp_path / "null.ndjson"
    write_ndjson(rows[:2], path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = re.sub(rb'"sender_rtt_us":[^,}]+', b'"sender_rtt_us":null', lines[1])
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match=r"null\.ndjson:2: bad dataset record"):
        load_ndjson(path)


def test_dataset_different_seeds_differ():
    tbs = [get_testbed("tb4")]
    rows1, _ = generate_dataset(tbs, runs_per_class=1, seed=1, duration_s=10)
    rows2, _ = generate_dataset(tbs, runs_per_class=1, seed=2, duration_s=10)
    assert [r.metrics for r in rows1] != [r.metrics for r in rows2]


def test_dataset_drop_band_holds_everywhere():
    tbs = list(builtin_testbeds().values())
    rows, _ = generate_dataset(tbs, runs_per_class=3, seed=5, duration_s=30)
    by_tb_label: dict[tuple[str, str], dict[str, list]] = {}
    for r in rows:
        by_tb_label.setdefault((r.testbed_id, r.label), {}).setdefault(r.transfer_id, []).append(r)
    lo, hi = DROP_BAND
    for tb in tbs:
        normal_runs = by_tb_label[(tb.id, "normal")]
        normal_mean = statistics.fmean(
            mean_throughput(rs) for rs in normal_runs.values()
        )
        for label in (c.value for c in LABEL_CLASSES if c is not AnomalyClass.NORMAL):
            for tid, rs in by_tb_label[(tb.id, label)].items():
                drop = 1.0 - mean_throughput(rs) / normal_mean
                assert lo <= drop <= hi, f"{tb.id}/{label}/{tid}: drop {drop:.3f} outside band"


def test_engine_requires_sequential_stepping():
    tb = get_testbed("tb1")
    eng = Engine(simple_run(tb, duration=5))
    eng.step(0)
    with pytest.raises(ValueError, match="sequential"):
        eng.step(2)


def test_transfer_completion_frees_the_stream():
    tb = get_testbed("tb1")
    # ~2 seconds of data at the unimpaired rate
    small = TransferJob("small", file_count=1, file_size_bytes=int(tb.unimpaired_rate * 2))
    run = simple_run(tb, jobs=(small,), duration=10)
    active_per_t = []
    eng = Engine(run)
    for snap in eng.run_all():
        active_per_t.append(len(snap.hosts[tb.host_id("sender")]["active_transfers"]))
    assert active_per_t[0] == 1
    assert active_per_t[-1] == 0
    assert sum(active_per_t) <= 4
