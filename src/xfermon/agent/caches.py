"""Prefetching caches between the monitoring agents and the layer counters.

A single background refresher pulls each host and OSS snapshot once per
collection interval; agents only ever read cache entries. That keeps
per-envelope collection time flat no matter how many agents consume the same
entry, and it means a dead refresher surfaces as staleness rather than as
silently old data.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class HostCacheEntry:
    host_id: str
    snapshot: dict
    fetched_at: int  # tick the data describes

    def age(self, now_tick: int) -> int:
        return now_tick - self.fetched_at


@dataclass(frozen=True)
class OssCacheEntry:
    oss_id: str
    ost_counters: dict
    fetched_at: int

    def age(self, now_tick: int) -> int:
        return now_tick - self.fetched_at


class StaleCacheError(RuntimeError):
    """Raised by readers that find an entry older than the freshness bound."""


class CacheService:
    """Thread-safe store of the latest host and OSS snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._hosts: dict[str, HostCacheEntry] = {}
        self._osses: dict[str, OssCacheEntry] = {}

    def put_host(self, entry: HostCacheEntry) -> None:
        with self._lock:
            self._hosts[entry.host_id] = entry

    def put_oss(self, entry: OssCacheEntry) -> None:
        with self._lock:
            self._osses[entry.oss_id] = entry

    def host(self, host_id: str) -> HostCacheEntry | None:
        with self._lock:
            return self._hosts.get(host_id)

    def oss(self, oss_id: str) -> OssCacheEntry | None:
        with self._lock:
            return self._osses.get(oss_id)

    def ages(self, now_tick: int) -> dict[str, int]:
        with self._lock:
            out = {hid: e.age(now_tick) for hid, e in self._hosts.items()}
            out.update({oid: e.age(now_tick) for oid, e in self._osses.items()})
        return out


@dataclass
class CacheRefresher:
    """Refreshes every registered entry once per interval.

    ``fetch_host`` and ``fetch_oss`` are the upstream taps (the simulated
    equivalent of running collection commands on the remote node). The
    refresher counts upstream fetches so tests can assert one fetch per
    interval regardless of the number of readers.
    """

    cache: CacheService
    fetch_host: Callable[[str], dict]
    fetch_oss: Callable[[str], dict]
    host_ids: tuple[str, ...] = ()
    oss_ids: tuple[str, ...] = ()
    upstream_fetches: int = 0
    failures: int = 0
    paused: bool = False

    def refresh(self, tick: int) -> None:
        if self.paused:
            return
        for host_id in self.host_ids:
            try:
                snapshot = self.fetch_host(host_id)
            except Exception:
                self.failures += 1
                continue
            self.upstream_fetches += 1
            self.cache.put_host(HostCacheEntry(host_id, snapshot, tick))
        for oss_id in self.oss_ids:
            try:
                counters = self.fetch_oss(oss_id)
            except Exception:
                self.failures += 1
                continue
            self.upstream_fetches += 1
            self.cache.put_oss(OssCacheEntry(oss_id, counters, tick))

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False
