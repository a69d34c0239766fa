"""The monitoring agent running on a (simulated) data transfer node.

Per collection interval the agent discovers the transfers active on its
host, assembles one metric envelope per transfer from the cache entries of
both endpoints, and hands the envelopes to the publisher. It never reads
simulator state directly: every layer value flows through a cache entry, and
a stale entry turns the tick into a gap rather than into old data.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..metrics.catalog import Profile, catalog_names
from ..metrics.envelope import MetricEnvelope
from ..sim.engine import assemble_values
from .caches import CacheService, StaleCacheError
from .publisher import Publisher, PublishResult
from .runtime import SimulationRuntime

DEFAULT_INTERVAL_S = 1.0
MIN_INTERVAL_S = 0.1
MAX_CACHE_AGE_INTERVALS = 2


@dataclass
class AgentConfig:
    interval_s: float = DEFAULT_INTERVAL_S
    profile: Profile = Profile.MINIMAL14
    use_caches: bool = True

    def __post_init__(self) -> None:
        if self.interval_s < MIN_INTERVAL_S:
            raise ValueError(f"interval_s below the {MIN_INTERVAL_S}s floor")


@dataclass
class AgentStats:
    envelopes_published: int = 0
    envelopes_dropped: int = 0
    gaps: int = 0
    discovered_new: int = 0
    closed_streams: int = 0
    last_collect_latencies_s: list[float] = field(default_factory=list)

    def record_latency(self, seconds: float) -> None:
        self.last_collect_latencies_s.append(seconds)
        if len(self.last_collect_latencies_s) > 4096:
            del self.last_collect_latencies_s[:2048]


@dataclass(frozen=True)
class GapMarker:
    transfer_id: str
    t: int
    reason: str


class MonitoringAgent:
    """Collects envelopes for transfers sourced on one host."""

    def __init__(
        self,
        runtime: SimulationRuntime,
        cache: CacheService,
        publisher: Publisher,
        config: AgentConfig | None = None,
    ):
        self.runtime = runtime
        self.cache = cache
        self.publisher = publisher
        self.config = config or AgentConfig()
        self.stats = AgentStats()
        self.gaps: list[GapMarker] = []
        tb = runtime.testbed
        self._sender_host = tb.host_id("sender")
        self._receiver_host = tb.host_id("receiver")
        self._sender_oss = tb.oss_id("sender")
        self._receiver_oss = tb.oss_id("receiver")
        self._known: set[str] = set()

    # ------------------------------------------------------------------
    def discover_transfers(self, tick: int) -> list[str]:
        """Transfer ids with activity on this host in the current interval.

        Newly seen ids open envelope streams; ids gone quiet close them.
        Discovery reads the host cache, not the simulator.
        """
        entry = self.cache.get(self._sender_host)
        if entry is None or entry.age(tick) > MAX_CACHE_AGE_INTERVALS:
            return sorted(self._known)  # stale view; collection will gap out
        active = set(entry.data["active_transfers"])
        appeared = active - self._known
        vanished = self._known - active
        self.stats.discovered_new += len(appeared)
        self.stats.closed_streams += len(vanished)
        self._known = active
        return sorted(active)

    @property
    def open_streams(self) -> int:
        """Transfers the last discovery found, each with an open stream."""
        return len(self._known)

    # ------------------------------------------------------------------
    def _fresh_data(self, key: str, tick: int) -> dict:
        entry = self.cache.get(key)
        if entry is None or entry.age(tick) > MAX_CACHE_AGE_INTERVALS:
            age = "missing" if entry is None else f"age {entry.age(tick)}"
            raise StaleCacheError(f"{key}: {age}")
        return entry.data

    def _layer_snapshots(self, tick: int) -> tuple[dict, dict, dict, dict]:
        if self.config.use_caches:
            return (
                self._fresh_data(self._sender_host, tick),
                self._fresh_data(self._receiver_host, tick),
                self._fresh_data(self._sender_oss, tick),
                self._fresh_data(self._receiver_oss, tick),
            )
        # Cache-bypassing path: four remote fetches, each paying the emulated
        # command-execution cost.
        return (
            self.runtime.fetch_host(self._sender_host, emulate_exec=True),
            self.runtime.fetch_host(self._receiver_host, emulate_exec=True),
            self.runtime.fetch_oss(self._sender_oss, emulate_exec=True),
            self.runtime.fetch_oss(self._receiver_oss, emulate_exec=True),
        )

    def collect(self, transfer_id: str, tick: int) -> MetricEnvelope:
        """Assemble one envelope for a transfer from the four layer snapshots.

        Raises StaleCacheError when any needed cache entry is older than two
        intervals; the caller records a gap marker for the tick.
        """
        profile = self.config.profile
        started = time.perf_counter()
        sender_host, receiver_host, sender_oss, receiver_oss = self._layer_snapshots(tick)
        values = assemble_values(
            catalog_names(profile),
            transfer_id,
            sender_host,
            receiver_host,
            sender_oss,
            receiver_oss,
        )
        env = MetricEnvelope(
            transfer_id=transfer_id,
            testbed_id=self.runtime.testbed.id,
            timestamp=tick,
            profile=profile,
            values=values,
        )
        self.stats.record_latency(time.perf_counter() - started)
        return env

    # ------------------------------------------------------------------
    def tick(self, tick: int) -> int:
        """One collection interval: discover, collect, publish. Returns
        the number of envelopes published this tick."""
        published = 0
        for transfer_id in self.discover_transfers(tick):
            try:
                env = self.collect(transfer_id, tick)
            except StaleCacheError as exc:
                self.gaps.append(GapMarker(transfer_id, tick, str(exc)))
                self.stats.gaps += 1
                continue
            result = self.publisher.publish(env)
            if result is PublishResult.DROPPED:
                self.stats.envelopes_dropped += 1
            self.stats.envelopes_published += 1
            published += 1
        return published

    # ------------------------------------------------------------------
    def stats_text(self, tick: int | None = None) -> str:
        """Plain-text runtime stats endpoint."""
        lines = [
            f"agent host={self._sender_host} profile={self.config.profile.value}",
            f"envelopes_published {self.stats.envelopes_published}",
            f"envelopes_dropped {self.stats.envelopes_dropped}",
            f"gaps {self.stats.gaps}",
            f"publisher_queue_depth {self.publisher.queue_depth}",
        ]
        if self.stats.last_collect_latencies_s:
            recent = self.stats.last_collect_latencies_s[-256:]
            lines.append(f"collect_latency_avg_ms {1000 * sum(recent) / len(recent):.3f}")
        if tick is not None:
            for name, age in sorted(self.cache.ages(tick).items()):
                lines.append(f"cache_age {name} {age}")
        return "\n".join(lines)
