"""Ingest service: receives framed envelopes, persists them, serves queries.

One thread selects over both listeners and every agent connection. It
persists what a connection's chunk decodes, under the collector's lock,
before it reads on, so a slow store holds up the reads and TCP carries that
pressure back to each agent's bounded drop-oldest publisher: the collector's
memory stays bounded and every loss is counted where it happens. A store
write that fails is cut back off the segment, stores none of its batch and
ends only its own connection, so a resend of that batch is stored.

A second listener speaks a line-oriented query protocol, one thread per
connection, against the store's in-memory index and its segment files:

    QUERY <transfer_id> <t0> <t1> [key ...]   -> NDJSON rows, then "END <n>"
    STATS                                     -> one JSON line

Every envelope is decoded and then checked with validate_envelope(); one
that breaks any invariant is rejected, never stored.
"""
from __future__ import annotations

import dataclasses
import json
import selectors
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
# How often the loop looks at the stop flag while no socket is ready.
SELECT_WAKE_S = 0.2
# The longest QUERY or STATS line a query connection buffers; a longer one
# is answered with one ERR line and the connection is closed.
QUERY_LINE_MAX = 64 * 1024
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

    One loop thread reads every ingest connection, one chunk at a time and
    only once the store holds the last, so the collector pushes back on its
    agents instead of queueing. Each query connection has its own thread.
    """

    def __init__(self, config: CollectorConfig | None = None):
        self.config = config or CollectorConfig()
        self.store = SegmentStore(self.config.data_dir)
        # Exactly-once: the dedup check and the append happen under this one
        # lock. Lock order: _lock, then the store's lock.
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._drain_until = 0.0  # set by stop(): when open connections are cut
        # Counters, all guarded by _lock.
        self._persisted_total = 0
        self._reject_total = 0
        self._stop_drop_total = 0
        self._connections = 0  # open ingest connections
        # (monotonic time, records persisted) per ingest batch of the last
        # second; older entries are popped on each append.
        self._rate_window: deque[tuple[float, int]] = deque()
        self._loop_thread = threading.Thread(target=self._loop, name="collector", daemon=True)
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
        self._loop_thread.start()

    @staticmethod
    def _listen(host: str, port: int) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(64)
        sock.setblocking(False)
        return sock

    def stop(self) -> None:
        self._drain_until = time.monotonic() + STOP_DRAIN_S
        self._stop.set()
        if self._loop_thread.is_alive():
            self._loop_thread.join()
        self.store.flush()
        self.store.close()

    # ------------------------------------------------------------------
    # ingest path
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        listeners = (self._ingest_sock, self._query_sock)
        with selectors.DefaultSelector() as sel:
            for sock in listeners:
                sel.register(sock, selectors.EVENT_READ)
            while not self._stop.is_set():
                self._serve(sel, SELECT_WAKE_S)
            # Accept no more; read the open connections until EOF or the
            # deadline stop() set, and count what is left unread then.
            for sock in listeners:
                sel.unregister(sock)
                sock.close()
            while sel.get_map() and (left := self._drain_until - time.monotonic()) > 0:
                self._serve(sel, min(left, SELECT_WAKE_S))
            for key in list(sel.get_map().values()):
                self._drop_unread(key.fileobj, key.data)
                self._close(sel, key.fileobj)

    def _serve(self, sel: selectors.BaseSelector, timeout: float) -> None:
        """Accept or read whatever is ready within ``timeout``."""
        for key, _ in sel.select(timeout):
            sock = key.fileobj
            if sock is self._ingest_sock or sock is self._query_sock:
                try:
                    conn, _ = sock.accept()
                except OSError:
                    continue  # the peer gave up before it was accepted
                if sock is self._query_sock:
                    threading.Thread(target=self._query_conn, args=(conn,), daemon=True).start()
                    continue
                sel.register(conn, selectors.EVENT_READ, FrameDecoder())
                with self._lock:
                    self._connections += 1
            elif not self._ingest_conn(sock, key.data):
                self._close(sel, sock)

    def _ingest_conn(self, conn: socket.socket, decoder: FrameDecoder) -> bool:
        """Read and persist one chunk; False once the connection is done. An
        OSError, from the socket or the store, ends this connection only."""
        try:
            chunk = conn.recv(RECV_CHUNK)
            if not chunk:
                # A frame cut short by the close is lost: count it.
                if decoder.pending_bytes:
                    self._count_reject()
                return False
            try:
                payloads = decoder.feed(chunk)
            except FrameError as err:
                # Oversized frame: keep the frames before it, count the bad
                # one and reset the connection.
                self._ingest_payloads(err.frames)
                self._count_reject()
                return False
            if payloads:
                self._ingest_payloads(payloads)
            return True
        except OSError:
            return False

    def _close(self, sel: selectors.BaseSelector, conn: socket.socket) -> None:
        sel.unregister(conn)
        conn.close()
        with self._lock:
            self._connections -= 1

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
            # Counted before the append, which may raise and end the connection.
            self._reject_total += rejects
            if fresh:
                self.store.append_many(fresh)
                self._persisted_total += len(fresh)
                now = time.monotonic()
                self._rate_window.append((now, len(fresh)))
                while now - self._rate_window[0][0] > 1.0:
                    self._rate_window.popleft()

    # ------------------------------------------------------------------
    def stats(self) -> IngestStats:
        now = time.monotonic()
        with self._lock:
            return IngestStats(
                msgs_per_s=float(sum(n for ts, n in self._rate_window if now - ts <= 1.0)),
                persisted_total=self._persisted_total,
                reject_total=self._reject_total,
                stop_drop_total=self._stop_drop_total,
                connections=self._connections,
            )

    # ------------------------------------------------------------------
    # query path
    # ------------------------------------------------------------------
    def _query_conn(self, conn: socket.socket) -> None:
        conn.settimeout(5.0)
        try:
            buf = b""
            while not self._stop.is_set():
                chunk = conn.recv(4096)
                if not chunk:
                    return
                *lines, buf = (buf + chunk).split(b"\n")
                if len(buf) > QUERY_LINE_MAX:
                    lines.append(buf)  # answered below as too long
                for line in lines:
                    if len(line) > QUERY_LINE_MAX:
                        conn.sendall(f"ERR line over {QUERY_LINE_MAX} bytes\n".encode())
                        return
                    reply = self._handle_query_line(line.decode("utf-8", "replace").strip())
                    if reply is None:
                        return
                    conn.sendall(reply)
        except OSError:
            pass  # the client went away or stayed silent for 5 s
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
