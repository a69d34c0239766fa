"""Ingest service: receives framed envelopes, persists them, serves queries.

Each agent connection persists what it decodes on its own thread, one
batch at a time under the collector's lock; queries run against the store's
in-memory index plus flushed segments. A slow store holds up the reads of
the connections that feed it, and TCP carries that pressure back to each
agent's bounded drop-oldest publisher, so the collector's memory stays
bounded and every loss is counted where it happens.

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
from ..sim.dataset import DatasetRow
from .framing import FrameDecoder, FrameError
from .storage import Record, SegmentStore

RECV_CHUNK = 256 * 1024
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
    persisted_total: int = 0
    reject_total: int = 0
    stop_drop_total: int = 0
    connections: int = 0

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))


class CollectorService:
    """TCP ingest + query front over a SegmentStore.

    A connection reads its next chunk only once the store holds the last
    one, so the collector pushes back on its agents instead of queueing.
    """

    def __init__(self, config: CollectorConfig | None = None):
        self.config = config or CollectorConfig()
        self.store = SegmentStore(self.config.data_dir)
        # Exactly-once: the dedup check and the append happen under this one
        # lock. Lock order: _lock, then the store's lock.
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._drain_until = 0.0  # set by stop(): when open connections are cut
        # Counters and the open ingest connections' threads; all guarded by
        # _lock.
        self._persisted_total = 0
        self._reject_total = 0
        self._stop_drop_total = 0
        # (monotonic time, records persisted) per ingest batch of the last
        # second; older entries are popped on each append.
        self._rate_window: deque[tuple[float, int]] = deque()
        self._conn_threads: set[threading.Thread] = set()
        self._threads: list[threading.Thread] = []
        self._ingest_sock: socket.socket | None = None
        self._query_sock: socket.socket | None = None
        self.ingest_address: tuple[str, int] | None = None
        self.query_address: tuple[str, int] | None = None
        # Test hook: per-batch delay before the append, to emulate a slow
        # backing store.
        self.writer_delay_s = 0.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        cfg = self.config
        self._ingest_sock = self._listen(cfg.host, cfg.ingest_port)
        self.ingest_address = self._ingest_sock.getsockname()
        self._query_sock = self._listen(cfg.host, cfg.query_port)
        self.query_address = self._query_sock.getsockname()
        for target, name in (
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
        for th in self._threads:
            th.join(timeout=3.0)
        for sock in (self._ingest_sock, self._query_sock):
            if sock is not None:
                sock.close()
        # No connection is accepted any more; the open ones persist what they
        # read until EOF or STOP_DRAIN_S.
        with self._lock:
            conn_threads = list(self._conn_threads)
        for th in conn_threads:
            th.join()
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
            with self._lock:
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
            with self._lock:
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
        with self._lock:
            self._stop_drop_total += dropped

    def _count_reject(self) -> None:
        with self._lock:
            self._reject_total += 1

    def _ingest_payloads(self, payloads: list[bytes]) -> None:
        """Decode, validate and persist one batch on the calling thread."""
        records: list[Record] = []
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
            records.append(
                Record(
                    transfer_id=env.transfer_id,
                    testbed_id=env.testbed_id,
                    t=env.timestamp,
                    profile=env.profile.value,
                    metrics=env.values,
                )
            )
        if records and self.writer_delay_s > 0:
            time.sleep(self.writer_delay_s)
        with self._lock:
            seen: set[tuple[str, int]] = set()
            fresh: list[Record] = []
            for record in records:
                key = (record.transfer_id, record.t)
                if key in seen or self.store.has(*key):
                    rejects += 1
                    continue
                seen.add(key)
                fresh.append(record)
            if fresh:
                self.store.append_many(fresh)
                self.store.flush()
                self._persisted_total += len(fresh)
                now = time.monotonic()
                self._rate_window.append((now, len(fresh)))
                while now - self._rate_window[0][0] > 1.0:
                    self._rate_window.popleft()
            self._reject_total += rejects

    # ------------------------------------------------------------------
    def stats(self) -> IngestStats:
        now = time.monotonic()
        with self._lock:
            return IngestStats(
                msgs_per_s=float(sum(n for ts, n in self._rate_window if now - ts <= 1.0)),
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


def dataset_rows(
    store: SegmentStore, labels: dict[str, str] | None = None
) -> Iterator[DatasetRow]:
    """Persisted records as dataset-schema rows, streamed in (transfer_id, t)
    order.

    Labels come from the run manifest of the pipeline that produced the
    data; transfers without one are exported as normal.
    """
    labels = labels or {}
    for line in store.iter_lines():
        transfer_id = line["transfer_id"]
        yield DatasetRow(
            testbed_id=line["testbed_id"],
            transfer_id=transfer_id,
            t=int(line["t"]),
            label=labels.get(transfer_id, "normal"),
            metrics=line["metrics"],
        )
