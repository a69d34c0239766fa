"""Paced live monitoring of 400 transfers on one host, with read-back.

A run is a series of monitoring sessions. Each session has its own
simulated run, collector and data directory, wired the way
``xfermon pipeline --collector-addr auto`` wires them: simulator runtime,
cache refresher, agent, publisher over TCP, and an in-process collector
writing to disk, with the minimal14 profile. A session has three measured
phases:

1. Paced ticks. Tick k is due at start + k * interval, open loop: a slow
   tick delays the ones after it but never moves their due times. A tick's
   latency runs from its due time until the store holds all of its
   envelopes. The interval is well above a tick's work, so the queues drain
   between ticks and the latency shows the pipeline's own delay rather than
   a backlog. The first tick of a session pays for connecting the
   publisher and is not a sample.
2. Read-back: one ``QUERY`` per transfer over the whole session, on one
   connection to the query port, parsed as a client would.
3. Export: ``xfermon export`` of the data directory, after the collector
   has stopped.

Machine speed drifts over seconds, so a run samples every phase in each
session rather than each phase once.
"""
from __future__ import annotations

import io
import json
import math
import socket
import statistics
import time
from collections import defaultdict, deque
from contextlib import redirect_stdout

from xfermon import cli
from xfermon.agent import (
    AgentConfig,
    CacheRefresher,
    CacheService,
    MonitoringAgent,
    Publisher,
    SimulationRuntime,
    SocketTransport,
)
from xfermon.agent import publisher as publisher_module
from xfermon.collector import CollectorConfig, CollectorService, FrameDecoder, SegmentStore
from xfermon.collector import service as service_module
from xfermon.metrics import MINIMAL_NAMES, Profile
from xfermon.sim import Engine, SimRun, TransferJob, assemble_values, get_testbed

from checks import check_capacity, check_counts, check_exact, check_unique, row_digest
from result import Result, nearest_rank, peak_rss_mb
from tracer import per_call

TESTBED = "tb2"
TRANSFERS = 400
PROFILE = Profile.MINIMAL14
INTERVAL_S = 0.2
# A measured tick is one sample of tick-to-persist latency; p90 needs ten
# samples beyond it.
MIN_TICKS = 100
SESSION_TICKS = 25
WARMUP_TICKS = 1
POLL_S = 0.001
PERSIST_TIMEOUT_S = 10.0


class Session:
    """One simulated run monitored into its own collector."""

    def __init__(self, run_spec: SimRun, data_dir):
        tb = run_spec.testbed
        self.run_spec = run_spec
        self.data_dir = data_dir
        self.collector = CollectorService(CollectorConfig(data_dir=data_dir))
        self.collector.start()
        runtime = self.runtime = SimulationRuntime(run_spec)
        cache = CacheService()
        self.refresher = CacheRefresher(
            cache,
            lambda h: runtime.fetch_host(h),
            lambda o: runtime.fetch_oss(o),
            host_ids=(tb.host_id("sender"), tb.host_id("receiver")),
            oss_ids=(tb.oss_id("sender"), tb.oss_id("receiver")),
        )
        self.transport = SocketTransport(self.collector.ingest_address)
        self.publisher = Publisher(self.transport)
        self.agent = MonitoringAgent(
            runtime, cache, self.publisher, AgentConfig(profile=PROFILE, interval_s=INTERVAL_S)
        )

    def close(self) -> None:
        self.publisher.close()
        self.collector.stop()


class MonitorWorkload:
    def __init__(self, seed: int, seconds: float, workdir, tracer, trace: bool):
        self.sessions = math.ceil(max(MIN_TICKS, seconds / INTERVAL_S) / SESSION_TICKS)
        # Measured ticks in the run.
        self.ticks = self.sessions * SESSION_TICKS
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.trace = trace
        tb = self.tb = get_testbed(TESTBED)
        # The same transfer set as `xfermon pipeline --transfers 400`.
        self.jobs = tuple(
            TransferJob(
                f"{tb.id}-xfer-{i:04d}",
                file_count=64,
                file_size_bytes=1 << 34,
                source_ost_index=i % tb.oss_count_per_side,
                dest_ost_index=i % tb.oss_count_per_side,
            )
            for i in range(TRANSFERS)
        )
        # Queue bookkeeping for the traced run, reset at each traced tick.
        self._framed_at: dict[bytes, float] = {}
        self._decoded_at: dict[tuple[str, int], float] = {}
        self._send_lags: list[float] = []
        self._persist_lags: list[float] = []
        self._queue_max = 0
        self._write_queue_max = 0
        if trace:
            tr = tracer
            tr.patch(publisher_module, "encode_envelope", "metrics.encode")
            tr.patch(publisher_module, "encode_frame", "collector.frame", hook=self._framed)
            tr.patch(FrameDecoder, "feed", "collector.deframe", count=lambda a, r: len(r))
            tr.patch(service_module, "decode_envelope", "metrics.decode", hook=self._decoded)
            tr.patch(SegmentStore, "__init__", "collector.recover")
        self.first_session = self._session(0)

    def _session(self, cycle: int) -> Session:
        run_spec = SimRun(
            testbed=self.tb, jobs=self.jobs, seed=self.seed * self.sessions + cycle,
            duration_s=WARMUP_TICKS + SESSION_TICKS,
        )
        session = Session(run_spec, self.workdir / f"data-{cycle}")
        if self.trace:
            self._instrument(session)
        return session

    # ------------------------------------------------------------------
    def _framed(self, args, frame) -> None:
        self._framed_at[frame] = time.perf_counter()

    def _decoded(self, args, env) -> None:
        self._decoded_at[(env.transfer_id, env.timestamp)] = time.perf_counter()

    def _instrument(self, session: Session) -> None:
        def sent(args, _):
            t = self._framed_at.pop(args[0], None)
            if t is not None:
                self._send_lags.append(time.perf_counter() - t)

        def published(args, _):
            self._queue_max = max(self._queue_max, session.publisher.queue_depth)

        def appended(args, _):
            self._write_queue_max = max(self._write_queue_max, len(self._decoded_at))
            now = time.perf_counter()
            for rec in args[0]:
                t = self._decoded_at.pop((rec.transfer_id, rec.t), None)
                if t is not None:
                    self._persist_lags.append(now - t)

        tr = self.tracer
        tr.patch(session.runtime.engine, "step", "sim.engine_step")
        tr.patch(session.agent, "collect", "agent.collect")
        tr.patch(session.publisher, "publish", "agent.publish", hook=published)
        tr.patch(session.transport, "send", "agent.send", hook=sent)
        tr.patch(session.collector.store, "append_many", "collector.append",
                 count=lambda a, r: len(a[0]), hook=appended)
        tr.patch(session.collector.store, "flush", "collector.flush")
        tr.patch(session.collector, "query", "collector.query", count=lambda a, r: len(r))

    # ------------------------------------------------------------------
    def run(self) -> Result:
        latencies: dict[int, float] = {}
        tick_cpu: list[float] = []
        late: list[float] = []
        query_rates: list[float] = []
        export_rates: list[float] = []
        persisted = export_rows = 0
        problems: list[str] = []
        for cycle in range(self.sessions):
            session = self.first_session if cycle == 0 else self._session(cycle)
            offset = cycle * SESSION_TICKS
            try:
                paced = self._paced(session, offset)
                self.tracer.enabled = self.trace
                store_count = session.collector.store.record_count
                query = self._read_back(session)
                self.tracer.enabled = False
            finally:
                session.close()
            self.tracer.enabled = self.trace
            export = self._export(session, cycle)
            self.tracer.enabled = False
            if cycle == self.sessions - 1:
                rss = peak_rss_mb()

            latencies.update(paced["latencies"])
            tick_cpu += paced["tick_cpu"]
            late += paced["late"]
            query_rates += query["rates"]
            export_rates.append(export["rows"] / export["seconds"])
            persisted += store_count
            export_rows += export["rows"]
            problems += [f"session {cycle}: {p}" for p in self._check(session, store_count, query, export)]

        lat = list(latencies.values())
        attempted = TRANSFERS * (WARMUP_TICKS + SESSION_TICKS) * self.sessions
        result = Result(
            attempted=attempted,
            failed=attempted - persisted,
            problems=problems,
            e2e={
                "latency_p50_ms": 1e3 * nearest_rank(lat, 0.50),
                "latency_p90_ms": 1e3 * nearest_rank(lat, 0.90),
                "cpu_ms_per_1k_rows": 1e6 * statistics.median(tick_cpu) / TRANSFERS,
                "read_rows_per_s": statistics.median(query_rates),
                "write_rows_per_s": statistics.median(export_rates),
                "peak_rss_mb": rss,
            },
        )
        result.report = [
            ("tick_to_persist_p50_ms", result.e2e["latency_p50_ms"], "ms"),
            ("tick_to_persist_p90_ms", result.e2e["latency_p90_ms"], "ms"),
            ("cpu_ms_per_1k_envelopes", result.e2e["cpu_ms_per_1k_rows"], "ms"),
            ("query_rows_per_s", result.e2e["read_rows_per_s"], "rows/s"),
            ("export_rows_per_s", result.e2e["write_rows_per_s"], "rows/s"),
            ("peak_rss_mb", rss, "MB"),
            ("generator_late_p50_ms", 1e3 * nearest_rank(late, 0.5), "ms"),
            ("generator_late_max_ms", 1e3 * max(late), "ms"),
        ]
        result.shape = (
            f"testbed {TESTBED}, {TRANSFERS} transfers, profile {PROFILE.value}, "
            f"{self.sessions} sessions x ({WARMUP_TICKS} + {SESSION_TICKS}) ticks "
            f"every {INTERVAL_S} s, "
            f"{len(lat)} latency samples"
        )
        if self.trace:
            result.layers = self._layer_metrics(latencies, tick_cpu, late, export_rows)
        return result

    # ------------------------------------------------------------------
    def _paced(self, session: Session, offset: int) -> dict:
        """The session's ticks; measured tick i is sample offset + i of the run."""
        store = session.collector.store
        pending: deque[tuple[int, float]] = deque()
        latencies: dict[int, float] = {}
        late: list[float] = []
        cpu_marks: list[float] = []

        def poll() -> None:
            persisted = store.record_count
            while pending and persisted >= TRANSFERS * (pending[0][0] + 1):
                i, due = pending.popleft()
                if i >= WARMUP_TICKS:
                    latencies[offset + i - WARMUP_TICKS] = time.perf_counter() - due

        start = time.perf_counter() + INTERVAL_S
        for i in range(WARMUP_TICKS + SESSION_TICKS):
            due = start + i * INTERVAL_S
            while True:
                now = time.perf_counter()
                if now >= due:
                    break
                if pending:
                    poll()
                    time.sleep(min(POLL_S, due - now))
                else:
                    time.sleep(due - now)
            cpu_marks.append(time.process_time())
            late.append(now - due)
            traced = self.trace and i >= WARMUP_TICKS and (offset + i - WARMUP_TICKS) % 2 == 1
            if traced:
                self._framed_at.clear()
                self._decoded_at.clear()
            self.tracer.enabled = traced
            session.runtime.advance()
            with self.tracer.span("agent.refresh"):
                session.refresher.refresh(session.runtime.tick)
            with self.tracer.span("agent.tick"):
                session.agent.tick(session.runtime.tick)
            pending.append((i, due))
            poll()
        deadline = time.perf_counter() + PERSIST_TIMEOUT_S
        while pending and time.perf_counter() < deadline:
            poll()
            time.sleep(POLL_S)
        cpu_marks.append(time.process_time())
        self.tracer.enabled = False
        return {
            "latencies": latencies,
            "late": late[WARMUP_TICKS:],
            "tick_cpu": [b - a for a, b in zip(cpu_marks, cpu_marks[1:])][WARMUP_TICKS:],
        }

    def _read_back(self, session: Session) -> dict:
        out = {"rows": 0, "rates": [], "null_rows": 0, "errors": [], "keys": [],
               "digests": {}, "tick_sums": defaultdict(float), "ost_sums": defaultdict(float)}
        last = WARMUP_TICKS + SESSION_TICKS - 1
        with socket.create_connection(session.collector.query_address, timeout=10.0) as sock, \
                sock.makefile("rb") as reader:
            for job in self.jobs:
                started = time.perf_counter()
                sock.sendall(f"QUERY {job.transfer_id} 0 {last}\n".encode())
                rows = []
                line = reader.readline()
                while line and not line.startswith((b"END", b"ERR")):
                    rows.append(json.loads(line))
                    line = reader.readline()
                out["rates"].append(len(rows) / (time.perf_counter() - started))
                if line != f"END {len(rows)}\n".encode():
                    out["errors"].append(f"QUERY {job.transfer_id}: reply ended with {line!r}")
                for row in rows:
                    t, values = row["t"], row["values"]
                    if any(v is None for v in values.values()):
                        out["null_rows"] += 1
                        continue
                    key = (job.transfer_id, t)
                    out["rows"] += 1
                    out["keys"].append(key)
                    out["digests"][key] = row_digest(values, MINIMAL_NAMES)
                    rate = values["transfer_throughput_bytes_per_s"]
                    out["tick_sums"][t] += rate
                    out["ost_sums"][(t, "sender", job.source_ost_index)] += rate
                    out["ost_sums"][(t, "receiver", job.dest_ost_index)] += rate
        return out

    def _export(self, session: Session, cycle: int) -> dict:
        path = self.workdir / f"export-{cycle}.ndjson"
        argv = ["export", "--data-dir", str(session.data_dir), "--out", str(path)]
        with self.tracer.span("collector.export"), redirect_stdout(io.StringIO()):
            started = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - started
        if code != 0:
            raise RuntimeError(f"xfermon export exited with {code}")
        keys, digests = [], {}
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                key = (row["transfer_id"], row["t"])
                keys.append(key)
                digests[key] = row_digest(row["metrics"], MINIMAL_NAMES)
        path.unlink()
        return {"seconds": seconds, "rows": len(keys), "keys": keys, "digests": digests}

    # ------------------------------------------------------------------
    def _check(self, session: Session, store_count: int, query: dict, export: dict) -> list[str]:
        expected = self._reference(session.run_spec)
        stats = session.agent.stats
        problems = check_counts(
            expected,
            stats.envelopes_published,
            store_count,
            session.publisher.stats.dropped_total + stats.envelopes_dropped,
            stats.gaps,
            TRANSFERS,
            WARMUP_TICKS + SESSION_TICKS,
        )
        problems += check_exact(expected, query["digests"], "QUERY")
        problems += check_exact(expected, export["digests"], "export")
        problems += check_unique(query["keys"], "QUERY") + check_unique(export["keys"], "export")
        problems += query["errors"]
        if not query["rows"] == export["rows"] == store_count:
            problems.append(
                f"read paths disagree: QUERY {query['rows']} rows, export {export['rows']}, "
                f"stored {store_count}"
            )
        if query["null_rows"]:
            problems.append(f"QUERY returned {query['null_rows']} null rows inside the run")
        problems += check_capacity(query["tick_sums"], query["ost_sums"], self.tb)
        return problems

    def _reference(self, run_spec: SimRun) -> dict:
        """Digest of every (transfer, tick) from a fresh Engine on the same
        run, assembled directly: no caches, wire, framing or store."""
        tb = self.tb
        hosts = (tb.host_id("sender"), tb.host_id("receiver"))
        osses = (tb.oss_id("sender"), tb.oss_id("receiver"))
        expected = {}
        for snap in Engine(run_spec).run_all():
            sender, receiver = (snap.hosts[h] for h in hosts)
            s_oss, r_oss = (snap.osses[o] for o in osses)
            for tid in sender["active_transfers"]:
                values = assemble_values(MINIMAL_NAMES, tid, sender, receiver, s_oss, r_oss)
                expected[(tid, snap.t)] = row_digest(values, MINIMAL_NAMES)
        return expected

    # ------------------------------------------------------------------
    def _layer_metrics(self, latencies: dict, tick_cpu: list, late: list, export_rows: int) -> dict:
        s = self.tracer.summary()
        traced = [k for k in range(self.ticks) if k % 2 == 1]
        plain = [k for k in range(self.ticks) if k % 2 == 0]

        def median_latency(ticks):
            return statistics.median(latencies[k] for k in ticks if k in latencies)

        def cpu_per_1k(ticks):
            return 1e6 * sum(tick_cpu[k] for k in ticks) / (TRANSFERS * len(ticks))

        def total(name, key="total_s"):
            return s.get(name, {}).get(key, 0.0)

        return {
            "sim.engine_step_us": per_call(s, "sim.engine_step", 1e6),
            "agent.refresh_us": per_call(s, "agent.refresh", 1e6),
            "agent.tick_ms": per_call(s, "agent.tick", 1e3),
            "agent.collect_us": per_call(s, "agent.collect", 1e6),
            "agent.publish_us": per_call(s, "agent.publish", 1e6),
            "agent.send_us": per_call(s, "agent.send", 1e6),
            "agent.sends_per_tick": total("agent.send", "calls") / len(traced),
            "agent.send_lag_ms": 1e3 * statistics.median(self._send_lags or [0.0]),
            "agent.publisher_queue_max": self._queue_max,
            "metrics.encode_us": per_call(s, "metrics.encode", 1e6),
            "metrics.decode_us": per_call(s, "metrics.decode", 1e6),
            "collector.deframe_us": per_call(s, "collector.deframe", 1e6, per_item=True),
            "collector.append_us_per_record": per_call(s, "collector.append", 1e6, per_item=True),
            "collector.flush_us": per_call(s, "collector.flush", 1e6),
            "collector.write_queue_max": self._write_queue_max,
            "collector.persist_lag_ms": 1e3 * statistics.median(self._persist_lags or [0.0]),
            "collector.query_us_per_row": per_call(s, "collector.query", 1e6, per_item=True),
            "collector.recover_us_per_record": 1e6 * total("collector.recover") / export_rows,
            "collector.export_us_per_row": 1e6 * total("collector.export", "self_s") / export_rows,
            **self.tracer.layer_metrics(),
            "trace.overhead_latency_p50_ms": 1e3 * (median_latency(traced) - median_latency(plain)),
            "trace.overhead_cpu_ms_per_1k_rows": cpu_per_1k(traced) - cpu_per_1k(plain),
            "bench.generator_late_max_ms": 1e3 * max(late),
        }
