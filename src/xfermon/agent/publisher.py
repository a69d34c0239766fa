"""Envelope publishing: bounded queueing and framed transmission.

The publisher must never back-pressure into the collection loop, so the
queue is bounded with a drop-oldest policy and transmission runs on its own
thread. Collection latency is therefore independent of transmission latency
by construction.
"""
from __future__ import annotations

import socket
import threading
import time
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from ..collector.framing import encode_frame
from ..metrics.envelope import MetricEnvelope, encode_envelope

DEFAULT_QUEUE_CAPACITY = 10_000
# Bytes of queued frames sent in one write: the collector's receive chunk, and
# above the largest frame. Each write hands the GIL away, and a CPU-bound tick
# loop starves a drain thread that writes per frame.
SEND_BATCH_BYTES = 256 * 1024


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
        # getaddrinfo imports the idna codec on first use; on the drain thread,
        # under a CPU-bound tick loop, that costs a GIL hand-off per file read.
        import encodings.idna  # noqa: F401

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
        # Frames the drain thread took off the queue and is sending, so
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

    def publish(self, envelopes: Iterable[MetricEnvelope]) -> int:
        """Enqueue envelopes; never blocks on the network. Returns how many
        queued frames drop-oldest evicted to make room."""
        frames = [encode_frame(encode_envelope(env)) for env in envelopes]
        with self._lock:
            self._queue.extend(frames)
            evicted = 0
            # The newest frame stays even when frames in flight fill the bound.
            while len(self._queue) > 1 and len(self._queue) + self._sending > self.queue_capacity:
                self._queue.popleft()
                evicted += 1
            self.stats.published_total += len(frames)
            self.stats.dropped_total += evicted
        self._wake.set()
        return evicted

    def _drain_loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait()
            self._wake.clear()
            while True:
                with self._lock:
                    batch, size = [], 0
                    while self._queue and size + len(self._queue[0]) <= SEND_BATCH_BYTES:
                        batch.append(self._queue.popleft())
                        size += len(batch[-1])
                    self._sending = len(batch)
                if not batch:
                    break
                try:
                    self.transport.send(b"".join(batch))
                except ConnectionError:
                    with self._lock:
                        # Still the oldest frames: retry them first, in order.
                        # Frames a partial write delivered arrive twice, and
                        # the collector rejects the copies as duplicates.
                        self._queue.extendleft(reversed(batch))
                        self._sending = 0
                        self.stats.send_errors += 1
                    if self._stop.wait(0.05):  # pause before the retry
                        return
                    continue
                with self._lock:
                    self._sending = 0
                    self.stats.sent_total += len(batch)

    def flush(self, timeout_s: float = 5.0) -> bool:
        """Wait until every queued frame is delivered or dropped; False if
        that did not happen in time."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.queue_depth == 0:
                return True
            time.sleep(0.01)
        return self.queue_depth == 0

    def close(self) -> None:
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=2.0)
        self.transport.close()
