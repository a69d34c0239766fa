"""Ingest service: receives framed envelopes, persists them, serves queries.

Many agent connections feed one serialized persistence writer through a
queue; queries run against the store's in-memory index plus flushed
segments. Above ingest capacity the writer queue grows gracefully instead of
corrupting data or stalling the accept loop.

A second listener speaks a line-oriented query protocol:

    QUERY <transfer_id> <t0> <t1> [key ...]   -> NDJSON rows, then "END <n>"
    STATS                                     -> one JSON line

Every envelope is decoded and then checked with validate_envelope(); one
that breaks any invariant is rejected, never stored.
"""
from __future__ import annotations

import dataclasses
import json
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import orjson

from ..metrics.envelope import EnvelopeDecodeError, decode_envelope, validate_envelope
from ..sim.dataset import DatasetRow, write_ndjson
from .framing import FrameDecoder, FrameError
from .storage import Record, SegmentStore

RECV_CHUNK = 256 * 1024
WRITE_BATCH = 1024
# On stop, open ingest connections read on until EOF or until this long after
# stop() began; frames still unread then are counted in stop_drop_total.
STOP_DRAIN_S = 1.0


@dataclass
class CollectorConfig:
    data_dir: str | Path = "collector-data"
    host: str = "127.0.0.1"
    ingest_port: int = 0  # 0 picks a free port
    query_port: int = 0


@dataclass
class IngestStats:
    msgs_per_s: float = 0.0
    queue_depth: int = 0
    persisted_total: int = 0
    reject_total: int = 0
    stop_drop_total: int = 0
    connections: int = 0

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))


class CollectorService:
    """TCP ingest + query front over a SegmentStore."""

    def __init__(self, config: CollectorConfig | None = None):
        self.config = config or CollectorConfig()
        self.store = SegmentStore(self.config.data_dir)
        self._write_queue: deque[Record] = deque()
        self._queue_lock = threading.Lock()
        # Exactly-once: a key is a duplicate while it is queued here or once
        # the store holds it. The writer indexes a batch before it discards
        # the batch's keys from this set, so no key is ever in neither.
        self._queued: set[tuple[str, int]] = set()
        self._wake = threading.Event()  # set when the write queue gains records
        self._stop = threading.Event()
        self._drain_until = 0.0  # set by stop(): when open connections are cut
        # Counters and the open ingest connections' threads; all guarded by
        # _queue_lock.
        self._persisted_total = 0
        self._reject_total = 0
        self._stop_drop_total = 0
        self._rate_window: deque[tuple[float, int]] = deque(maxlen=64)
        self._conn_threads: set[threading.Thread] = set()
        self._threads: list[threading.Thread] = []
        self._ingest_sock: socket.socket | None = None
        self._query_sock: socket.socket | None = None
        self.ingest_address: tuple[str, int] | None = None
        self.query_address: tuple[str, int] | None = None
        # Test hook: per-batch writer delay to emulate a slow backing store.
        self.writer_delay_s = 0.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        cfg = self.config
        self._ingest_sock = self._listen(cfg.host, cfg.ingest_port)
        self.ingest_address = self._ingest_sock.getsockname()
        self._query_sock = self._listen(cfg.host, cfg.query_port)
        self.query_address = self._query_sock.getsockname()
        for target, name in (
            (self._writer_loop, "collector-writer"),
            (self._accept_loop_ingest, "collector-ingest"),
            (self._accept_loop_query, "collector-query"),
        ):
            th = threading.Thread(target=target, name=name, daemon=True)
            th.start()
            self._threads.append(th)

    @staticmethod
    def _listen(host: str, port: int) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(64)
        sock.settimeout(0.2)
        return sock

    def stop(self) -> None:
        self._drain_until = time.monotonic() + STOP_DRAIN_S
        self._stop.set()
        self._wake.set()
        for th in self._threads:
            th.join(timeout=3.0)
        for sock in (self._ingest_sock, self._query_sock):
            if sock is not None:
                sock.close()
        # No connection is accepted any more; the open ones end by EOF or by
        # STOP_DRAIN_S, and whatever they queued is persisted below.
        with self._queue_lock:
            conn_threads = list(self._conn_threads)
        for th in conn_threads:
            th.join()
        while self._drain_queue_to_store():
            pass
        self.store.flush(sync=True)
        self.store.close()

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------
    def _accept_loop_ingest(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._ingest_sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            th = threading.Thread(target=self._ingest_conn, args=(conn,), daemon=True)
            with self._queue_lock:
                self._conn_threads.add(th)
            th.start()

    def _ingest_conn(self, conn: socket.socket) -> None:
        decoder = FrameDecoder()
        conn.settimeout(0.5)
        try:
            while True:
                if self._stop.is_set():
                    left = self._drain_until - time.monotonic()
                    if left <= 0:
                        self._drop_unread(conn, decoder)
                        return
                    conn.settimeout(left)
                try:
                    chunk = conn.recv(RECV_CHUNK)
                except socket.timeout:
                    continue
                except OSError:
                    return
                if not chunk:
                    # A frame cut short by the close is lost: count it.
                    if decoder.pending_bytes:
                        self._count_reject()
                    return
                try:
                    payloads = decoder.feed(chunk)
                except FrameError as err:
                    # Oversized frame: keep the frames before it, count the
                    # bad one and reset the connection.
                    self._ingest_payloads(err.frames)
                    self._count_reject()
                    return
                if payloads:
                    self._ingest_payloads(payloads)
        finally:
            conn.close()
            with self._queue_lock:
                self._conn_threads.discard(threading.current_thread())

    def _drop_unread(self, conn: socket.socket, decoder: FrameDecoder) -> None:
        """Count what a connection cut at the stop deadline leaves behind:
        the frames already received but not read, and a partial frame."""
        budget = conn.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
        conn.setblocking(False)
        dropped = 0
        try:
            while budget > 0:
                chunk = conn.recv(min(RECV_CHUNK, budget))
                if not chunk:
                    break
                budget -= len(chunk)
                dropped += len(decoder.feed(chunk))
        except (OSError, FrameError):
            pass  # nothing more is buffered, or the rest is not framed
        dropped += decoder.pending_bytes > 0
        with self._queue_lock:
            self._stop_drop_total += dropped

    def _count_reject(self) -> None:
        with self._queue_lock:
            self._reject_total += 1

    def _ingest_payloads(self, payloads: list[bytes]) -> None:
        candidates: list[tuple[tuple[str, int], Record]] = []
        rejects = 0
        for payload in payloads:
            try:
                env = decode_envelope(payload)
            except EnvelopeDecodeError:
                rejects += 1
                continue
            if validate_envelope(env):
                rejects += 1
                continue
            candidates.append(
                (
                    (env.transfer_id, env.timestamp),
                    Record(
                        transfer_id=env.transfer_id,
                        testbed_id=env.testbed_id,
                        t=env.timestamp,
                        profile=env.profile.value,
                        metrics=env.values,
                    ),
                )
            )
        accepted: list[Record] = []
        # Lock order: _queue_lock, then the store's lock (inside has()).
        with self._queue_lock:
            for key, record in candidates:
                if key in self._queued or self.store.has(*key):
                    rejects += 1
                    continue
                self._queued.add(key)
                accepted.append(record)
            self._write_queue.extend(accepted)
            self._reject_total += rejects
        if accepted:
            self._wake.set()

    def _writer_loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait()
            # Clear before draining: records queued after this point set the
            # event again, so no wakeup is lost.
            self._wake.clear()
            # After stop, ingest connections may still be queueing; stop()
            # persists the rest once they have ended.
            while not self._stop.is_set() and self._drain_queue_to_store():
                pass

    def _drain_queue_to_store(self) -> bool:
        with self._queue_lock:
            if not self._write_queue:
                return False
            n = min(WRITE_BATCH, len(self._write_queue))
            batch = [self._write_queue.popleft() for _ in range(n)]
        if self.writer_delay_s > 0:
            time.sleep(self.writer_delay_s)
        self.store.append_many(batch)
        self.store.flush()
        with self._queue_lock:
            self._queued.difference_update((r.transfer_id, r.t) for r in batch)
            self._persisted_total += len(batch)
            self._rate_window.append((time.monotonic(), len(batch)))
        return True

    # ------------------------------------------------------------------
    def stats(self) -> IngestStats:
        now = time.monotonic()
        with self._queue_lock:
            return IngestStats(
                msgs_per_s=float(sum(n for ts, n in self._rate_window if now - ts <= 1.0)),
                queue_depth=len(self._write_queue),
                persisted_total=self._persisted_total,
                reject_total=self._reject_total,
                stop_drop_total=self._stop_drop_total,
                connections=len(self._conn_threads),
            )

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def _accept_loop_query(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._query_sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            th = threading.Thread(target=self._query_conn, args=(conn,), daemon=True)
            th.start()

    def _query_conn(self, conn: socket.socket) -> None:
        conn.settimeout(5.0)
        try:
            buf = b""
            while not self._stop.is_set():
                try:
                    chunk = conn.recv(4096)
                except socket.timeout:
                    return
                except OSError:
                    return
                if not chunk:
                    return
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    reply = self._handle_query_line(line.decode("utf-8", "replace").strip())
                    if reply is None:
                        return
                    conn.sendall(reply)
        finally:
            conn.close()

    def _handle_query_line(self, line: str) -> bytes | None:
        if not line:
            return None
        parts = line.split()
        cmd = parts[0].upper()
        if cmd == "STATS":
            return (self.stats().to_json() + "\n").encode()
        if cmd == "QUERY":
            if len(parts) < 4:
                return b"ERR usage QUERY <transfer_id> <t0> <t1> [key ...]\n"
            tid = parts[1]
            try:
                t0, t1 = int(parts[2]), int(parts[3])
            except ValueError:
                return b"ERR t0/t1 must be integers\n"
            keys = parts[4:] or None
            try:
                rows = self.query(tid, t0, t1, keys)
            except KeyError:
                return f"ERR not-found {tid}\n".encode()
            except ValueError as exc:
                return f"ERR {exc}\n".encode()
            option = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
            lines = [orjson.dumps({"t": t, "values": values}, option=option) for t, values in rows]
            lines.append(f"END {len(rows)}\n".encode())
            return b"".join(lines)
        return f"ERR unknown command {cmd}\n".encode()

    def query(
        self, transfer_id: str, t0: int, t1: int, keys: list[str] | None = None
    ) -> list[tuple[int, dict[str, float | None]]]:
        return self.store.query(transfer_id, t0, t1, keys)

    # ------------------------------------------------------------------
    def export_ndjson(
        self,
        path: str | Path,
        transfer_ids: list[str] | None = None,
        labels: dict[str, str] | None = None,
    ) -> int:
        return write_ndjson(dataset_rows(self.store, transfer_ids, labels), path)


def dataset_rows(
    store: SegmentStore,
    transfer_ids: list[str] | None = None,
    labels: dict[str, str] | None = None,
) -> Iterator[DatasetRow]:
    """Persisted records as dataset-schema rows, streamed in (transfer_id, t)
    order.

    Labels come from the run manifest of the pipeline that produced the
    data; transfers without one are exported as normal.
    """
    labels = labels or {}
    for rec in store.iter_records(transfer_ids):
        yield DatasetRow(
            testbed_id=rec.testbed_id,
            transfer_id=rec.transfer_id,
            t=rec.t,
            label=labels.get(rec.transfer_id, "normal"),
            metrics=rec.metrics,
        )
