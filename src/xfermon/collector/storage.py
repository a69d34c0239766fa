"""Append-only NDJSON persistence with an in-memory index.

Records are one JSON object per line in numbered segment files. A crash can
leave at most one torn final line; opening a store parses each line once to
index it, and truncates a segment at its first torn or corrupt line so the
on-disk bytes are always a valid NDJSON prefix of what was ingested.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import orjson

SEGMENT_PREFIX = "segment-"
SEGMENT_SUFFIX = ".ndjson"
DEFAULT_SEGMENT_MAX_BYTES = 256 << 20
# A query builds one row per second of its range, so the range is capped.
MAX_QUERY_SPAN_S = 86_400


@dataclass(frozen=True)
class Record:
    transfer_id: str
    testbed_id: str
    t: int
    profile: str
    metrics: dict[str, float]

    def to_json(self) -> bytes:
        """One compact NDJSON line, newline included.

        Key order follows dict insertion order (catalog order), which is
        already deterministic; skipping key sorting keeps the writer fast.
        """
        return orjson.dumps(
            {
                "transfer_id": self.transfer_id,
                "testbed_id": self.testbed_id,
                "t": self.t,
                "profile": self.profile,
                "metrics": self.metrics,
            },
            option=orjson.OPT_APPEND_NEWLINE,
        )


class SegmentStore:
    """Single-writer segmented NDJSON store with per-transfer indexing."""

    def __init__(self, directory: str | Path, segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        self._lock = threading.Lock()
        # transfer_id -> t -> (segment index, byte offset, line length)
        self._index: dict[str, dict[int, tuple[int, int, int]]] = {}
        self._count = 0  # distinct (transfer_id, t) keys in the index
        self._segments: list[Path] = []
        self._read_fds: dict[int, int] = {}  # segment index -> read-only fd
        self._open_fh = None
        self._open_size = 0
        self.discarded_bytes = 0  # bytes that opening truncated away
        self._recover()
        self._open_segment()

    # ------------------------------------------------------------------
    def _segment_path(self, idx: int) -> Path:
        return self.directory / f"{SEGMENT_PREFIX}{idx:05d}{SEGMENT_SUFFIX}"

    def _recover(self) -> None:
        self._segments = sorted(self.directory.glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}"))
        for seg_idx, path in enumerate(self._segments):
            offset = 0
            with path.open("rb") as fh:
                # Trust lines up to the first that is torn or is not a record: an
                # object of the five fields, str transfer_id, int() t, dict metrics.
                for raw in fh:
                    if not raw.endswith(b"\n"):
                        break
                    try:
                        obj = orjson.loads(raw)
                        transfer_id, t = obj["transfer_id"], int(obj["t"])
                        is_record = isinstance(transfer_id, str) and isinstance(obj["metrics"], dict)
                    except (ValueError, KeyError, TypeError):
                        break
                    if not (is_record and "testbed_id" in obj and "profile" in obj):
                        break
                    self._put(transfer_id, t, seg_idx, offset, len(raw))
                    offset += len(raw)
                size = os.fstat(fh.fileno()).st_size
            if offset < size:
                self.discarded_bytes += size - offset
                with path.open("rb+") as fh:
                    fh.truncate(offset)

    def _open_segment(self) -> None:
        if not self._segments:
            self._segments.append(self._segment_path(0))
        path = self._segments[-1]
        self._open_fh = path.open("ab")
        self._open_size = path.stat().st_size if path.exists() else 0

    def _rotate_if_needed(self) -> None:
        if self._open_size < self.segment_max_bytes:
            return
        self._open_fh.close()
        # One past the highest number, so a missing segment is never reused.
        last = int(self._segments[-1].name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)])
        self._segments.append(self._segment_path(last + 1))
        self._open_fh = self._segments[-1].open("ab")
        self._open_size = 0

    def _put(self, transfer_id: str, t: int, seg_idx: int, offset: int, length: int) -> None:
        """Index one stored line; the caller holds the lock or owns the store."""
        ts = self._index.setdefault(transfer_id, {})
        if t not in ts:
            self._count += 1
        ts[t] = (seg_idx, offset, length)

    # ------------------------------------------------------------------
    def append(self, record: Record) -> None:
        self.append_many([record])

    def append_many(self, records: list[Record]) -> None:
        # Format outside the lock so readers and dedup lookups are not held
        # up by serialization.
        lines = [record.to_json() for record in records]
        with self._lock:
            self._rotate_if_needed()
            seg_idx = len(self._segments) - 1
            offset = self._open_size
            for record, line in zip(records, lines):
                self._put(record.transfer_id, record.t, seg_idx, offset, len(line))
                offset += len(line)
            self._open_fh.write(b"".join(lines))
            self._open_size = offset

    def flush(self, sync: bool = False) -> None:
        """Flush buffered lines to the OS; ``sync`` additionally fsyncs."""
        with self._lock:
            if self._open_fh:
                self._open_fh.flush()
                if sync:
                    os.fsync(self._open_fh.fileno())

    def close(self) -> None:
        with self._lock:
            if self._open_fh:
                self._open_fh.flush()
                self._open_fh.close()
                self._open_fh = None
            for fd in self._read_fds.values():
                os.close(fd)
            self._read_fds.clear()

    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        return self._count

    def transfer_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._index)

    def has(self, transfer_id: str, t: int) -> bool:
        with self._lock:
            return t in self._index.get(transfer_id, {})

    def _read_at(self, seg_idx: int, offset: int, length: int) -> dict:
        """One stored line, parsed."""
        fd = self._read_fds.get(seg_idx)
        if fd is None:
            with self._lock:
                fd = self._read_fds.get(seg_idx)
                if fd is None:
                    fd = self._read_fds[seg_idx] = os.open(self._segments[seg_idx], os.O_RDONLY)
        return orjson.loads(os.pread(fd, length, offset))

    def query(
        self,
        transfer_id: str,
        t0: int,
        t1: int,
        keys: list[str] | None = None,
    ) -> list[tuple[int, dict[str, float | None]]]:
        """Ordered (t, values) rows over [t0, t1]; missing seconds are rows
        of explicit None values so gaps stay visible.

        Raises ValueError if t0 > t1 or the range spans more than
        MAX_QUERY_SPAN_S seconds, KeyError for an unknown transfer.
        """
        if t0 > t1:
            raise ValueError(f"t0 {t0} is after t1 {t1}")
        if t1 - t0 + 1 > MAX_QUERY_SPAN_S:
            raise ValueError(f"range of {t1 - t0 + 1} s exceeds {MAX_QUERY_SPAN_S} s")
        with self._lock:
            if transfer_id not in self._index:
                raise KeyError(f"unknown transfer {transfer_id!r}")
            locations = dict(self._index[transfer_id])
        self.flush()
        gap_names = keys
        if gap_names is None:
            # Unfiltered queries shape gap rows after the transfer's catalog.
            gap_names = list(self._read_at(*locations[min(locations)])["metrics"])
        out: list[tuple[int, dict[str, float | None]]] = []
        for t in range(t0, t1 + 1):
            loc = locations.get(t)
            if loc is None:
                out.append((t, {k: None for k in gap_names}))
                continue
            metrics = self._read_at(*loc)["metrics"]
            if keys:
                out.append((t, {k: metrics.get(k) for k in keys}))
            else:
                out.append((t, metrics))
        return out

    def iter_lines(self) -> Iterator[dict]:
        """Every indexed line, parsed one at a time, in (transfer_id, t) order."""
        self.flush()
        for tid in self.transfer_ids():
            with self._lock:
                locations = sorted(self._index.get(tid, {}).items())
            for _, loc in locations:
                yield self._read_at(*loc)

    def iter_records(self) -> Iterator[Record]:
        """All records in (transfer_id, t) order."""
        for line in self.iter_lines():
            yield Record(line["transfer_id"], line["testbed_id"], int(line["t"]),
                         line["profile"], line["metrics"])
