"""Monitoring agent: discovery, cache discipline, publishing, scaling."""
import dataclasses
import statistics
import threading
import time

import pytest

from xfermon.agent import (
    AgentConfig,
    CacheRefresher,
    CacheService,
    MonitoringAgent,
    Publisher,
    PublishResult,
    SinkTransport,
    SocketTransport,
    SimulationRuntime,
)
from xfermon.metrics import Profile, decode_envelope, validate_envelope
from xfermon.collector.framing import FrameDecoder
from xfermon.sim import Engine, SimRun, TransferJob, get_testbed, minimal_row


def make_stack(tb_id="tb2", n_transfers=3, duration=10, seed=21, jobs=None,
               profile=Profile.MINIMAL14, use_caches=True, upstream_exec_s=0.003):
    tb = get_testbed(tb_id)
    jobs = jobs if jobs is not None else tuple(
        TransferJob(f"x{i:03d}", file_count=64, file_size_bytes=1 << 34)
        for i in range(n_transfers)
    )
    run = SimRun(testbed=tb, jobs=jobs, seed=seed, duration_s=duration)
    runtime = SimulationRuntime(run, upstream_exec_s=upstream_exec_s)
    cache = CacheService()
    refresher = CacheRefresher(
        cache,
        lambda h: runtime.fetch_host(h),
        lambda o: runtime.fetch_oss(o),
        host_ids=(tb.host_id("sender"), tb.host_id("receiver")),
        oss_ids=(tb.oss_id("sender"), tb.oss_id("receiver")),
    )
    publisher = Publisher(SinkTransport())
    agent = MonitoringAgent(
        runtime, cache, publisher,
        AgentConfig(profile=profile, use_caches=use_caches),
    )
    return tb, runtime, refresher, publisher, agent


def advance(runtime, refresher, agent):
    runtime.advance()
    refresher.refresh(runtime.tick)
    return agent.tick(runtime.tick)


# ----------------------------------------------------------------------
# discovery
# ----------------------------------------------------------------------

def test_discovery_empty_when_idle():
    tb, runtime, refresher, _, agent = make_stack(jobs=())
    runtime.advance()
    refresher.refresh(runtime.tick)
    assert agent.discover_transfers(runtime.tick) == []


def test_discovery_within_one_tick_of_start():
    jobs = (
        TransferJob("early", file_count=64, file_size_bytes=1 << 34, start_s=0),
        TransferJob("late", file_count=64, file_size_bytes=1 << 34, start_s=4),
    )
    tb, runtime, refresher, _, agent = make_stack(jobs=jobs)
    seen_at = {}
    for t in range(8):
        advance(runtime, refresher, agent)
        for tid in agent.discover_transfers(runtime.tick):
            seen_at.setdefault(tid, runtime.tick)
    assert seen_at["early"] in (0, 1)
    assert seen_at["late"] in (4, 5)


def test_discovery_closes_vanished_streams():
    tb = get_testbed("tb2")
    short = TransferJob("short", file_count=1, file_size_bytes=int(tb.unimpaired_rate * 2))
    _, runtime, refresher, _, agent = make_stack(jobs=(short,), duration=8)
    for _ in range(8):
        advance(runtime, refresher, agent)
    assert agent.stats.discovered_new == 1
    assert agent.stats.closed_streams == 1


def test_discovery_400_concurrent():
    _, runtime, refresher, _, agent = make_stack(n_transfers=400, duration=2)
    advance(runtime, refresher, agent)
    assert len(agent.discover_transfers(runtime.tick)) == 400


# ----------------------------------------------------------------------
# collection
# ----------------------------------------------------------------------

def test_collect_envelope_is_valid_both_profiles():
    for profile in Profile:
        _, runtime, refresher, _, agent = make_stack(profile=profile)
        advance(runtime, refresher, agent)
        env = agent.collect("x000", runtime.tick)
        assert env.profile is profile
        assert validate_envelope(env) == []


def test_collect_equals_direct_simulator_read():
    tb, runtime, refresher, publisher, agent = make_stack(duration=6)
    run = runtime.run
    collected = {}
    for _ in range(6):
        advance(runtime, refresher, agent)
        collected[runtime.tick] = agent.collect("x001", runtime.tick)
    # independent engine replay (identical run config)
    replay = Engine(run)
    for t, snap in enumerate(replay.run_all()):
        want = minimal_row(snap, "x001", tb)
        got = collected[t].values
        assert got == want


def test_collect_latency_within_budget_and_cache_speedup():
    # cached collection stays comfortably inside the per-envelope budgets;
    # removing the caches multiplies the cost at least fivefold
    _, runtime, refresher, _, agent = make_stack(profile=Profile.FULL142)
    advance(runtime, refresher, agent)
    for _ in range(20):
        agent.collect("x000", runtime.tick)
    cached = statistics.median(agent.stats.last_collect_latencies_s[-20:])
    assert cached <= 0.100

    _, runtime2, refresher2, _, agent2 = make_stack(
        profile=Profile.FULL142, use_caches=False, upstream_exec_s=0.003
    )
    advance(runtime2, refresher2, agent2)
    for _ in range(5):
        agent2.collect("x000", runtime2.tick)
    uncached = statistics.median(agent2.stats.last_collect_latencies_s[-5:])
    assert uncached >= 5 * cached


def test_stale_cache_produces_gap_markers():
    _, runtime, refresher, _, agent = make_stack(n_transfers=2, duration=8)
    for _ in range(2):
        advance(runtime, refresher, agent)
    assert agent.stats.gaps == 0
    refresher.pause()
    gap_seen = 0
    for _ in range(4):
        runtime.advance()
        refresher.refresh(runtime.tick)  # paused: no effect
        agent.tick(runtime.tick)
    # ages 1 and 2 are tolerated; ages 3 and 4 must gap out for both transfers
    assert agent.stats.gaps == 2 * 2
    assert {g.t for g in agent.gaps} == {4, 5}
    refresher.resume()
    advance(runtime, refresher, agent)
    assert agent.stats.gaps == 4  # recovery: no new gaps


def test_one_upstream_fetch_per_interval_regardless_of_readers():
    tb, runtime, refresher, publisher, agent = make_stack(n_transfers=50)
    agents = [
        MonitoringAgent(runtime, agent.cache, Publisher(SinkTransport()), AgentConfig())
        for _ in range(5)
    ]
    runtime.advance()
    refresher.refresh(runtime.tick)
    before = refresher.upstream_fetches
    for a in [agent] + agents:
        a.tick(runtime.tick)
    # 6 agents x 50 transfers read the caches; the upstream saw 4 fetches
    # (2 hosts + 2 OSSes) for the whole interval
    assert refresher.upstream_fetches == before
    assert before == 4


def test_no_envelope_published_twice():
    _, runtime, refresher, publisher, agent = make_stack(n_transfers=5, duration=6)
    for _ in range(6):
        advance(runtime, refresher, agent)
    assert publisher.flush()
    decoder = FrameDecoder()
    seen = set()
    for frame in publisher.transport.frames:
        for payload in decoder.feed(frame):
            env = decode_envelope(payload)
            key = (env.transfer_id, env.timestamp)
            assert key not in seen
            seen.add(key)
    assert len(seen) == 5 * 6


# ----------------------------------------------------------------------
# publishing
# ----------------------------------------------------------------------

def test_publish_rate_tracks_active_transfers():
    _, runtime, refresher, publisher, agent = make_stack(n_transfers=100, duration=3)
    counts = [advance(runtime, refresher, agent) for _ in range(3)]
    assert counts == [100, 100, 100]
    assert agent.stats.envelopes_dropped == 0


def test_message_count_linearity_up_to_400():
    points = []
    for n in (100, 200, 300, 400):
        _, runtime, refresher, publisher, agent = make_stack(n_transfers=n, duration=3)
        counts = [advance(runtime, refresher, agent) for _ in range(3)]
        points.append((n, statistics.fmean(counts)))
        assert agent.stats.envelopes_dropped == 0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    assert abs(slope - 1.0) <= 0.05


class GateTransport:
    """Blocks the first send until released; records every frame delivered."""

    def __init__(self):
        self.frames: list[bytes] = []
        self.sending = threading.Event()
        self.release = threading.Event()

    def send(self, frame: bytes) -> None:
        if not self.frames:
            self.sending.set()
            self.release.wait(timeout=5.0)
        self.frames.append(frame)

    def close(self) -> None:
        pass


def test_queue_overflow_drops_oldest_and_counts():
    _, runtime, refresher, _, agent = make_stack(n_transfers=1)
    advance(runtime, refresher, agent)
    env = agent.collect("x000", runtime.tick)
    gate = GateTransport()
    pub = Publisher(gate, queue_capacity=5)
    pub.publish(env)
    assert gate.sending.wait(timeout=5.0)  # frame 0 is in flight
    results = [pub.publish(env) for _ in range(7)]
    assert results == [PublishResult.QUEUED] * 4 + [PublishResult.DROPPED] * 3
    assert pub.stats.dropped_total == 3
    assert pub.queue_depth == 5
    gate.release.set()
    pub.close()


def test_frame_in_flight_is_never_counted_as_dropped():
    _, runtime, refresher, _, agent = make_stack(n_transfers=1)
    advance(runtime, refresher, agent)
    base = agent.collect("x000", runtime.tick)
    envs = [dataclasses.replace(base, timestamp=t) for t in range(6)]
    gate = GateTransport()
    pub = Publisher(gate, queue_capacity=5)
    pub.publish(envs[0])
    assert gate.sending.wait(timeout=5.0)  # frame 0 is on the wire
    results = [pub.publish(env) for env in envs[1:]]
    gate.release.set()
    assert pub.flush(timeout_s=5.0)
    pub.close()
    stats = pub.stats
    assert stats.sent_total == len(gate.frames)
    assert stats.sent_total + stats.dropped_total == stats.published_total == 6
    # The in-flight frame counts toward the bound, so the oldest queued
    # frame (t=1) is the one evicted, and frame 0 is delivered, not dropped.
    assert results.count(PublishResult.DROPPED) == stats.dropped_total == 1
    delivered = [decode_envelope(f[4:]).timestamp for f in gate.frames]
    assert delivered == [0, 2, 3, 4, 5]


def test_unreachable_collector_never_stalls_collection():
    # port 1 on localhost refuses connections; the queue absorbs everything
    transport = SocketTransport(("127.0.0.1", 1), connect_timeout_s=0.05,
                                retry_interval_s=10.0)
    publisher = Publisher(transport, queue_capacity=50)
    tb = get_testbed("tb2")
    run = SimRun(
        testbed=tb,
        jobs=tuple(TransferJob(f"x{i}", file_count=64, file_size_bytes=1 << 34) for i in range(30)),
        seed=3,
        duration_s=4,
    )
    runtime = SimulationRuntime(run)
    cache = CacheService()
    refresher = CacheRefresher(
        cache, lambda h: runtime.fetch_host(h), lambda o: runtime.fetch_oss(o),
        host_ids=(tb.host_id("sender"), tb.host_id("receiver")),
        oss_ids=(tb.oss_id("sender"), tb.oss_id("receiver")),
    )
    agent = MonitoringAgent(runtime, cache, publisher, AgentConfig())
    started = time.perf_counter()
    for _ in range(4):
        runtime.advance()
        refresher.refresh(runtime.tick)
        agent.tick(runtime.tick)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0  # collection pace independent of the dead collector
    assert agent.stats.envelopes_published == 120
    assert publisher.stats.dropped_total == 120 - 50
    publisher.close()


def test_interval_floor_enforced():
    with pytest.raises(ValueError):
        AgentConfig(interval_s=0.01)


def test_stats_text_contains_counters():
    _, runtime, refresher, _, agent = make_stack(n_transfers=2, duration=3)
    for _ in range(3):
        advance(runtime, refresher, agent)
    text = agent.stats_text(runtime.tick)
    assert "envelopes_published 6" in text
    assert "cache_age" in text
    assert "collect_latency_avg_ms" in text
