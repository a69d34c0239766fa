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
class CacheEntry:
    key: str         # host or OSS id
    data: dict       # host snapshot or OST counters
    fetched_at: int  # tick the data describes

    def age(self, now_tick: int) -> int:
        return now_tick - self.fetched_at


class StaleCacheError(RuntimeError):
    """Raised by readers that find an entry older than the freshness bound."""


class CacheService:
    """Thread-safe store of the latest snapshot per host or OSS id."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: dict[str, CacheEntry] = {}

    def put(self, entry: CacheEntry) -> None:
        with self._lock:
            self._entries[entry.key] = entry

    def get(self, key: str) -> CacheEntry | None:
        with self._lock:
            return self._entries.get(key)

    def ages(self, now_tick: int) -> dict[str, int]:
        with self._lock:
            return {key: e.age(now_tick) for key, e in self._entries.items()}


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

    def refresh(self, tick: int) -> None:
        sources = [(h, self.fetch_host) for h in self.host_ids]
        sources += [(o, self.fetch_oss) for o in self.oss_ids]
        for key, fetch in sources:
            try:
                data = fetch(key)
            except Exception:
                self.failures += 1
                continue
            self.upstream_fetches += 1
            self.cache.put(CacheEntry(key, data, tick))
