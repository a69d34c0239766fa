"""Envelope publishing: bounded queueing and framed transmission.

The publisher must never back-pressure into the collection loop, so the
queue is bounded with a drop-oldest policy and transmission runs on its own
thread. Collection latency is therefore independent of transmission latency
by construction.
"""
from __future__ import annotations

import enum
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass

from ..collector.framing import encode_frame
from ..metrics.envelope import MetricEnvelope, encode_envelope

DEFAULT_QUEUE_CAPACITY = 10_000


class PublishResult(enum.Enum):
    QUEUED = "queued"  # enqueued for asynchronous transmission
    DROPPED = "dropped"  # queue was full; the oldest envelope was evicted


@dataclass
class PublisherStats:
    published_total: int = 0
    dropped_total: int = 0
    sent_total: int = 0
    send_errors: int = 0


class SinkTransport:
    """In-process transport that keeps every frame it is sent; for tests."""

    def __init__(self) -> None:
        self.frames: list[bytes] = []

    def send(self, frame: bytes) -> None:
        self.frames.append(frame)

    def close(self) -> None:
        pass


class SocketTransport:
    """Framed TCP transport with lazy connect and bounded retry."""

    def __init__(self, address: tuple[str, int], connect_timeout_s: float = 1.0,
                 retry_interval_s: float = 0.2):
        self.address = address
        self.connect_timeout_s = connect_timeout_s
        self.retry_interval_s = retry_interval_s
        self._sock: socket.socket | None = None
        self._last_attempt = 0.0

    def _connect(self) -> socket.socket:
        if self._sock is not None:
            return self._sock
        now = time.monotonic()
        if now - self._last_attempt < self.retry_interval_s:
            raise ConnectionError("collector unreachable (retry backoff)")
        self._last_attempt = now
        sock = socket.create_connection(self.address, timeout=self.connect_timeout_s)
        sock.settimeout(2.0)
        self._sock = sock
        return sock

    def send(self, frame: bytes) -> None:
        try:
            self._connect().sendall(frame)
        except OSError as exc:
            self.close()
            raise ConnectionError(str(exc)) from exc

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None


class Publisher:
    """One publisher per host: serializes, queues, and transmits envelopes."""

    def __init__(
        self,
        transport=None,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
    ):
        self.transport = transport if transport is not None else SinkTransport()
        self.queue_capacity = queue_capacity
        self.stats = PublisherStats()
        self._queue: deque[bytes] = deque()
        # 1 while the drain thread sends a frame it took off the queue, so
        # drop-oldest cannot evict (and count) a frame being delivered.
        self._sending = 0
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._drain_loop, daemon=True)
        self._thread.start()

    @property
    def queue_depth(self) -> int:
        """Frames published but not yet delivered or dropped."""
        with self._lock:
            return len(self._queue) + self._sending

    def publish(self, envelope: MetricEnvelope) -> PublishResult:
        """Enqueue one envelope; never blocks on the network."""
        frame = encode_frame(encode_envelope(envelope))
        dropped = False
        with self._lock:
            if len(self._queue) + self._sending >= self.queue_capacity and self._queue:
                self._queue.popleft()
                self.stats.dropped_total += 1
                dropped = True
            self._queue.append(frame)
            self.stats.published_total += 1
        self._wake.set()
        return PublishResult.DROPPED if dropped else PublishResult.QUEUED

    def _drain_loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(timeout=0.05)
            self._wake.clear()
            while True:
                with self._lock:
                    if not self._queue:
                        break
                    frame = self._queue.popleft()
                    self._sending = 1
                try:
                    self.transport.send(frame)
                except ConnectionError:
                    with self._lock:
                        # Still the oldest frame: retry it first.
                        self._queue.appendleft(frame)
                        self._sending = 0
                        self.stats.send_errors += 1
                    time.sleep(0.05)
                    break
                with self._lock:
                    self._sending = 0
                    self.stats.sent_total += 1

    def flush(self, timeout_s: float = 5.0) -> bool:
        """Wait until every queued frame is delivered or dropped; False if
        that did not happen in time."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.queue_depth == 0:
                return True
            self._wake.set()
            time.sleep(0.01)
        return self.queue_depth == 0

    def close(self) -> None:
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=2.0)
        self.transport.close()
