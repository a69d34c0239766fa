"""Monitoring plane: caches, agents, and publishers."""
from .caches import (
    CacheEntry,
    CacheRefresher,
    CacheService,
    StaleCacheError,
)
from .monitor import (
    MAX_CACHE_AGE_INTERVALS,
    AgentConfig,
    AgentStats,
    MonitoringAgent,
)
from .publisher import (
    DEFAULT_QUEUE_CAPACITY,
    Publisher,
    PublisherStats,
    SinkTransport,
    SocketTransport,
)
from .runtime import SimulationRuntime

__all__ = [
    "CacheEntry",
    "CacheRefresher",
    "CacheService",
    "StaleCacheError",
    "MAX_CACHE_AGE_INTERVALS",
    "AgentConfig",
    "AgentStats",
    "MonitoringAgent",
    "DEFAULT_QUEUE_CAPACITY",
    "Publisher",
    "PublisherStats",
    "SinkTransport",
    "SocketTransport",
    "SimulationRuntime",
]
