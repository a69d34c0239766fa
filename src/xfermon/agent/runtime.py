"""Live bridge between a running simulation and the monitoring plane.

The runtime advances the engine one second at a time and exposes the layer
snapshots the way a real deployment would: as per-host and per-OSS fetch
endpoints with a configurable emulated command-execution delay. The cache
refresher eats that delay once per interval; agents that bypass the caches
pay it on every collect, which is exactly the contrast the cache design
exists to remove.
"""
from __future__ import annotations

import time

from ..sim.engine import Engine, SimRun, Snapshot

# Emulated wall-clock cost of one remote counter fetch (command execution on
# the node plus the hop), paid only on cache-bypassing reads.
DEFAULT_UPSTREAM_EXEC_S = 0.003


class SimulationRuntime:
    """Owns one Engine and serves its current snapshot to the monitoring plane."""

    def __init__(self, run: SimRun, upstream_exec_s: float = DEFAULT_UPSTREAM_EXEC_S):
        self.run = run
        self.engine = Engine(run)
        self.upstream_exec_s = upstream_exec_s
        self.tick = -1
        self.snapshot: Snapshot | None = None

    @property
    def testbed(self):
        return self.run.testbed

    def advance(self) -> Snapshot:
        """Step the simulation one second and publish the new snapshot."""
        self.snapshot = self.engine.step(self.tick + 1)
        self.tick += 1
        return self.snapshot

    # -- upstream taps -------------------------------------------------
    def fetch_host(self, host_id: str, emulate_exec: bool = False) -> dict:
        if self.snapshot is None:
            raise RuntimeError("runtime has not been advanced yet")
        if emulate_exec and self.upstream_exec_s > 0:
            time.sleep(self.upstream_exec_s)
        return self.snapshot.hosts[host_id]

    def fetch_oss(self, oss_id: str, emulate_exec: bool = False) -> dict:
        if self.snapshot is None:
            raise RuntimeError("runtime has not been advanced yet")
        if emulate_exec and self.upstream_exec_s > 0:
            time.sleep(self.upstream_exec_s)
        return self.snapshot.osses[oss_id]
