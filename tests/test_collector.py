"""Collector: framing, ingest semantics, queries, persistence safety."""
import dataclasses
import errno
import hashlib
import json
import os
import socket
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from xfermon.collector import (
    MAX_FRAME_BYTES,
    CollectorConfig,
    CollectorService,
    FrameDecoder,
    FrameError,
    Record,
    SegmentStore,
    encode_frame,
)
from xfermon.agent import Publisher, SocketTransport
from xfermon.cli import main
from xfermon.collector import service as service_module
from xfermon.metrics import Profile, encode_envelope
from tests.test_metrics import make_envelope


@pytest.fixture
def collector(tmp_path):
    service = CollectorService(CollectorConfig(data_dir=tmp_path / "data"))
    service.start()
    yield service
    service.stop()


def send_frames(address, blob: bytes):
    with socket.create_connection(address) as sock:
        sock.sendall(blob)


def wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def fail_next_segment_write(monkeypatch, short: bool = False) -> None:
    """The next os.pwrite lands three quarters of its bytes, then raises
    ENOSPC, or with ``short`` returns that short count; later ones succeed."""
    pwrite = os.pwrite
    failed = []

    def faulty(fd, data, offset):
        if failed:
            return pwrite(fd, data, offset)
        failed.append(offset)
        landed = pwrite(fd, data[: len(data) * 3 // 4], offset)
        if short:
            return landed
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "pwrite", faulty)


def query_lines(address, command: str) -> list[str]:
    with socket.create_connection(address) as sock:
        sock.sendall(command.encode() + b"\n")
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    return [l for l in data.decode().splitlines() if l]


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------

def test_frame_roundtrip_and_partial_feed():
    payloads = [b"alpha", b"", b"x" * 1000]
    blob = b"".join(encode_frame(p) for p in payloads)
    decoder = FrameDecoder()
    out = []
    for i in range(0, len(blob), 7):  # drip-feed in 7-byte chunks
        out.extend(decoder.feed(blob[i : i + 7]))
    assert out == payloads
    assert decoder.pending_bytes == 0


def test_frame_oversize_rejected_on_encode_and_decode():
    with pytest.raises(FrameError):
        encode_frame(b"x" * (MAX_FRAME_BYTES + 1))
    decoder = FrameDecoder()
    with pytest.raises(FrameError):
        decoder.feed((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"xx")
    # The frames split off before the bad header travel with the error.
    good = encode_frame(b"alpha") + encode_frame(b"beta")
    with pytest.raises(FrameError) as err:
        FrameDecoder().feed(good + (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + good)
    assert err.value.frames == [b"alpha", b"beta"]


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------

def test_ingest_persists_each_valid_envelope_once(collector):
    envs = [make_envelope(transfer_id="in-a", t=t) for t in range(20)]
    blob = b"".join(encode_frame(encode_envelope(e)) for e in envs)
    send_frames(collector.ingest_address, blob)
    assert wait_for(lambda: collector.stats().persisted_total == 20)
    assert collector.stats().reject_total == 0


def test_ingest_keeps_frames_before_an_oversize_header(collector):
    frames = [
        encode_frame(encode_envelope(make_envelope(transfer_id="big-1", t=t))) for t in range(20)
    ]
    oversize = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    send_frames(collector.ingest_address, b"".join(frames[:5]) + oversize + b"".join(frames[5:]))
    assert wait_for(lambda: collector.stats().reject_total == 1)
    assert wait_for(lambda: collector.stats().persisted_total == 5)
    assert collector.stats().reject_total == 1


def test_ingest_counts_a_frame_cut_short_by_close(collector):
    frame = encode_frame(encode_envelope(make_envelope(transfer_id="cut-1", t=0)))
    send_frames(collector.ingest_address, frame[:50])
    assert wait_for(lambda: collector.stats().reject_total == 1)
    assert wait_for(lambda: collector.stats().connections == 0)
    stats = collector.stats()
    assert (stats.persisted_total, stats.reject_total) == (0, 1)


def test_ingest_rejects_duplicate_transfer_second(collector):
    env = make_envelope(transfer_id="dup-1", t=5)
    frame = encode_frame(encode_envelope(env))
    send_frames(collector.ingest_address, frame + frame)
    assert wait_for(lambda: collector.stats().reject_total == 1)
    assert wait_for(lambda: collector.stats().persisted_total == 1)


def test_ingest_rejects_malformed_envelope(collector):
    bad = encode_frame(b"\x07not an envelope")
    good = encode_frame(encode_envelope(make_envelope(transfer_id="ok-1", t=0)))
    send_frames(collector.ingest_address, bad + good)
    assert wait_for(lambda: collector.stats().persisted_total == 1)
    assert collector.stats().reject_total == 1


def test_ingest_rejects_non_finite_values(collector):
    good = make_envelope(transfer_id="finite", t=0)
    bad = [
        dataclasses.replace(good, timestamp=t, values={**good.values, name: value})
        for t, name, value in (
            (1, "sender_rtt_us", float("nan")),
            (2, "transfer_throughput_bytes_per_s", float("inf")),
        )
    ]
    blob = b"".join(encode_frame(encode_envelope(e)) for e in bad + [good])
    send_frames(collector.ingest_address, blob)
    assert wait_for(lambda: collector.stats().persisted_total == 1)
    assert collector.stats().reject_total == 2
    assert collector.store.has("finite", 0)
    assert not collector.store.has("finite", 1) and not collector.store.has("finite", 2)


def test_ingest_rejects_frames_outside_the_profile_layout(collector):
    # A minimal14 frame whose second entry carries a full-only index, one
    # whose second entry repeats index 0, and one with an unknown profile id.
    env = make_envelope(transfer_id="layout", t=0)
    wire = encode_envelope(env)
    second_index = len(wire) - 13 * 9
    hostile = []
    for t, index in ((1, 100), (2, 0)):
        frame = bytearray(encode_envelope(dataclasses.replace(env, timestamp=t)))
        frame[second_index] = index
        hostile.append(bytes(frame))
    hostile.append(wire[:1] + b"\x05" + wire[2:])
    good = encode_envelope(dataclasses.replace(env, timestamp=9))
    send_frames(collector.ingest_address, b"".join(encode_frame(p) for p in hostile + [good]))
    assert wait_for(lambda: collector.stats().persisted_total == 1)
    assert collector.stats().reject_total == 3
    assert collector.store.record_count == 1 and collector.store.has("layout", 9)


def _with(env, **values):
    return dataclasses.replace(env, values={**env.values, **values})


@pytest.mark.parametrize(
    "breaks",
    [
        lambda env: _with(env, sender_wan_nic_tx_bytes_per_s=-1.0),
        lambda env: _with(env, sender_retransmitted_packets=10.0, sender_total_sent_packets=5.0),
        lambda env: _with(
            env,
            transfer_throughput_bytes_per_s=2e9,
            sender_client_read_bytes_per_s=1e9,
            receiver_client_write_bytes_per_s=1e9,
        ),
        lambda env: dataclasses.replace(env, transfer_id="x" * 65),
    ],
    ids=["negative-value", "retransmit-exceeds-sent", "throughput-exceeds-path", "bad-id"],
)
def test_ingest_rejects_each_invariant_violation(collector, breaks):
    good = make_envelope(transfer_id="inv", t=0)
    bad = breaks(dataclasses.replace(good, timestamp=1))
    blob = b"".join(encode_frame(encode_envelope(e)) for e in (bad, good))
    send_frames(collector.ingest_address, blob)
    assert wait_for(lambda: collector.stats().persisted_total == 1)
    assert collector.stats().reject_total == 1
    assert collector.store.record_count == 1 and collector.store.has("inv", 0)


def test_reject_total_is_exact_under_contention(collector):
    # More feeders than cores, each on its own connection, and the
    # interpreter switching threads as often as it can.
    feeders = len(os.sched_getaffinity(0)) + 2
    bad_frames = 300
    frame = encode_frame(b"\x07not an envelope")

    def feed():
        with socket.create_connection(collector.ingest_address) as sock:
            for _ in range(bad_frames // 10):
                sock.sendall(frame * 10)

    threads = [threading.Thread(target=feed) for _ in range(feeders)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert wait_for(lambda: collector.stats().reject_total == feeders * bad_frames)
    assert wait_for(lambda: collector.stats().connections == 0)
    assert collector.stats().reject_total == feeders * bad_frames


def test_oversize_frame_resets_connection(collector):
    with socket.create_connection(collector.ingest_address) as sock:
        sock.sendall((MAX_FRAME_BYTES + 5).to_bytes(4, "big"))
        sock.sendall(b"y" * 100)
        sock.settimeout(3.0)
        assert sock.recv(1) == b""  # server closed on us
    # service still alive for new connections
    send_frames(
        collector.ingest_address,
        encode_frame(encode_envelope(make_envelope(transfer_id="alive", t=0))),
    )
    assert wait_for(lambda: collector.stats().persisted_total == 1)


def test_one_thread_reads_every_ingest_connection(collector):
    threads_before = threading.active_count()
    socks = [socket.create_connection(collector.ingest_address) for _ in range(20)]
    try:
        for i, sock in enumerate(socks):
            sock.sendall(encode_frame(encode_envelope(make_envelope(transfer_id=f"c{i}", t=0))))
        assert wait_for(lambda: collector.stats().persisted_total == 20)
        assert collector.stats().connections == 20
        assert threading.active_count() <= threads_before
    finally:
        for sock in socks:
            sock.close()
    assert wait_for(lambda: collector.stats().connections == 0)


def test_a_store_error_ends_only_its_own_connection(collector, monkeypatch):
    append_many = collector.store.append_many
    failed = []

    def fail_once(records):
        if not failed:
            failed.append(records)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        append_many(records)

    monkeypatch.setattr(collector.store, "append_many", fail_once)
    with socket.create_connection(collector.ingest_address) as sock:
        sock.sendall(encode_frame(encode_envelope(make_envelope(transfer_id="full", t=0))))
        sock.settimeout(3.0)
        assert sock.recv(1) == b""  # the collector closed this connection
    send_frames(
        collector.ingest_address,
        encode_frame(encode_envelope(make_envelope(transfer_id="after", t=0))),
    )
    assert wait_for(lambda: collector.stats().persisted_total == 1)
    assert wait_for(lambda: collector.stats().connections == 0)
    assert len(failed) == 1
    assert collector.store.has("after", 0) and not collector.store.has("full", 0)


def test_a_resend_after_a_failed_store_write_is_stored(collector, monkeypatch):
    env = make_envelope(transfer_id="resent", t=3)
    frame = encode_frame(encode_envelope(env))
    fail_next_segment_write(monkeypatch)
    with socket.create_connection(collector.ingest_address) as sock:
        sock.sendall(frame)
        sock.settimeout(3.0)
        assert sock.recv(1) == b""  # the failed write ended this connection
    assert not collector.store.has("resent", 3)
    send_frames(collector.ingest_address, frame)  # the agent's resend
    assert wait_for(lambda: collector.stats().persisted_total == 1)
    assert collector.stats().reject_total == 0
    assert collector.query("resent", 3, 3) == [(3, env.values)]


def test_a_batch_whose_store_write_fails_still_counts_its_rejects(tmp_path, monkeypatch):
    service = CollectorService(CollectorConfig(data_dir=tmp_path / "data"))

    def full(records):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(service.store, "append_many", full)
    try:
        with pytest.raises(OSError):
            service._ingest_payloads([b"not an envelope", encode_envelope(make_envelope())])
        stats = service.stats()
        assert (stats.reject_total, stats.persisted_total) == (1, 0)
    finally:
        service.stop()


def test_crippled_store_loses_nothing(collector):
    collector.writer_delay_s = 0.05  # cripple the store: every batch waits
    envs = [make_envelope(transfer_id="burst", t=t) for t in range(3000)]
    blob = b"".join(encode_frame(encode_envelope(e)) for e in envs)
    send_frames(collector.ingest_address, blob)
    assert wait_for(lambda: collector.stats().persisted_total == 3000, timeout_s=20)
    stats = collector.stats()
    assert (stats.reject_total, stats.stop_drop_total) == (0, 0)
    assert collector.store.record_count == 3000


def test_stalled_store_pushes_back_and_every_envelope_is_accounted(collector):
    # The first batch stalls past SocketTransport's 2 s send timeout, so the
    # publisher's sends block, time out and reconnect while its bounded queue
    # drops the oldest frames; the collector itself queues nothing.
    collector.writer_delay_s = 3.0
    pub = Publisher(SocketTransport(collector.ingest_address))
    env = make_envelope(transfer_id="stall")
    n = 60_000
    for t in range(n):
        pub.publish([dataclasses.replace(env, timestamp=t)])
    wait_for(lambda: pub.stats.send_errors > 0, timeout_s=5.0)
    collector.writer_delay_s = 0.0
    assert pub.flush(timeout_s=20.0)
    sent = pub.stats.sent_total
    assert wait_for(lambda: collector.stats().persisted_total == sent, timeout_s=20.0)
    pub.close()
    assert sent + pub.stats.dropped_total == pub.stats.published_total == n
    assert collector.stats().persisted_total == sent
    assert collector.store.record_count == sent  # each key stored once
    lines = next(collector.store.directory.glob("segment-*")).read_bytes().splitlines()
    assert len(lines) == sent


def test_stats_is_safe_while_the_writer_persists(tmp_path):
    # Ingest runs on a feeder thread, one record per batch, so the rate
    # window changes thousands of times while stats() reads it.
    service = CollectorService(CollectorConfig(data_dir=tmp_path / "race-data"))
    payloads = [encode_envelope(make_envelope(transfer_id="race", t=t)) for t in range(3000)]

    def persist_one_by_one():
        for payload in payloads:
            service._ingest_payloads([payload])

    writer = threading.Thread(target=persist_one_by_one)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writer.start()
        while writer.is_alive():
            service.stats()  # must not raise while the writer appends
    finally:
        sys.setswitchinterval(switch)
        writer.join(timeout=30)
        service.stop()
    assert not writer.is_alive()
    assert service.stats().persisted_total == 3000


def test_msgs_per_s_counts_every_batch_of_the_last_second(tmp_path, monkeypatch):
    # 200 one-envelope batches within one second all count; a batch more
    # than a second old leaves the window.
    clock = [100.0]
    fake_time = SimpleNamespace(monotonic=lambda: clock[0], sleep=time.sleep)
    monkeypatch.setattr(service_module, "time", fake_time)
    service = CollectorService(CollectorConfig(data_dir=tmp_path / "rate-data"))
    try:
        for t in range(200):
            clock[0] += 0.001
            service._ingest_payloads([encode_envelope(make_envelope(transfer_id="rate", t=t))])
        assert service.stats().msgs_per_s == 200.0
        clock[0] += 1.5
        service._ingest_payloads([encode_envelope(make_envelope(transfer_id="rate", t=200))])
        assert service.stats().msgs_per_s == 1.0
        assert len(service._rate_window) == 1
    finally:
        service.stop()


def test_concurrent_duplicates_persist_each_key_once(tmp_path):
    # Four feeders race the writer with the same keys, in small chunks, so
    # keys move from queued to stored while other feeders check them.
    service = CollectorService(CollectorConfig(data_dir=tmp_path / "dup-race"))
    service.start()
    payloads = [encode_envelope(make_envelope(transfer_id="race", t=t)) for t in range(500)]

    def feed():
        for i in range(0, len(payloads), 5):
            service._ingest_payloads(payloads[i : i + 5])

    feeders = [threading.Thread(target=feed) for _ in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in feeders:
            th.start()
        for th in feeders:
            th.join(timeout=30)
        assert wait_for(lambda: service.stats().persisted_total == 500)
    finally:
        sys.setswitchinterval(switch)
        service.stop()
    assert not any(th.is_alive() for th in feeders)
    stats = service.stats()
    assert (stats.persisted_total, stats.reject_total) == (500, 1500)
    lines = next((tmp_path / "dup-race").glob("segment-*")).read_bytes().splitlines()
    assert len(lines) == 500


def test_stop_persists_the_whole_write_queue(tmp_path):
    d = tmp_path / "stop-data"
    service = CollectorService(CollectorConfig(data_dir=d))
    service._ingest_payloads(
        [encode_envelope(make_envelope(transfer_id="stop", t=t)) for t in range(3000)]
    )
    service.stop()
    store = SegmentStore(d)
    assert store.record_count == 3000
    store.close()


def test_stop_keeps_or_counts_every_frame_sent_before_it(tmp_path):
    d = tmp_path / "stop-drain"
    service = CollectorService(CollectorConfig(data_dir=d))
    service.start()
    env = make_envelope(Profile.FULL142, transfer_id="drain")
    n = 12_000
    blob = b"".join(
        encode_frame(encode_envelope(dataclasses.replace(env, timestamp=t))) for t in range(n)
    )
    send_frames(service.ingest_address, blob)
    time.sleep(0.05)
    service.stop()
    store = SegmentStore(d)
    kept = store.record_count
    store.close()
    assert kept + service.stats().stop_drop_total == n


def test_stop_counts_frames_left_at_the_deadline(tmp_path, monkeypatch):
    monkeypatch.setattr(service_module, "STOP_DRAIN_S", 0.0)
    service = CollectorService(CollectorConfig(data_dir=tmp_path / "cut"))
    service.start()
    entered = threading.Event()
    ingest = service._ingest_payloads

    def slow_ingest(payloads):
        entered.set()
        time.sleep(0.2)  # stop() begins while the first frame is in here
        ingest(payloads)

    service._ingest_payloads = slow_ingest
    frames = [encode_frame(encode_envelope(make_envelope(transfer_id="cut", t=t))) for t in range(11)]
    with socket.create_connection(service.ingest_address) as sock:
        sock.sendall(frames[0])
        assert entered.wait(5.0)
        # Ten whole frames and a partial one wait in the socket, which stays open.
        sock.sendall(b"".join(frames[1:]) + frames[0][:10])
        service.stop()
    stats = service.stats()
    assert (stats.persisted_total, stats.stop_drop_total, stats.connections) == (1, 11, 0)


# ----------------------------------------------------------------------
# query
# ----------------------------------------------------------------------

def test_query_full_run_gap_and_subset(collector):
    for t in list(range(0, 30)) + list(range(31, 60)):  # second 30 missing
        env = make_envelope(transfer_id="q-1", t=t)
        send_frames(collector.ingest_address, encode_frame(encode_envelope(env)))
    assert wait_for(lambda: collector.stats().persisted_total == 59)

    rows = collector.query("q-1", 0, 59)
    assert len(rows) == 60
    gap_t, gap_values = rows[30]
    assert gap_t == 30
    assert len(gap_values) == 14
    assert all(v is None for v in gap_values.values())

    subset = collector.query(
        "q-1", 0, 59, ["receiver_ost_write_bytes_per_s", "receiver_client_write_bytes_per_s"]
    )
    for t, values in subset:
        assert set(values) == {
            "receiver_ost_write_bytes_per_s",
            "receiver_client_write_bytes_per_s",
        }
    with pytest.raises(KeyError):
        collector.query("nobody", 0, 1)


def test_query_wire_protocol(collector):
    env = make_envelope(transfer_id="w-1", t=3)
    send_frames(collector.ingest_address, encode_frame(encode_envelope(env)))
    assert wait_for(lambda: collector.stats().persisted_total == 1)

    lines = query_lines(collector.query_address, "QUERY w-1 3 3 sender_rtt_us")
    assert lines[-1] == "END 1"
    row = json.loads(lines[0])
    assert row["t"] == 3
    assert row["values"]["sender_rtt_us"] == pytest.approx(env.values["sender_rtt_us"])

    assert query_lines(collector.query_address, "QUERY nobody 0 1")[0].startswith("ERR not-found")
    assert query_lines(collector.query_address, "QUERY w-1 4 3")[0].startswith("ERR t0 4 is after")
    stats = json.loads(query_lines(collector.query_address, "STATS")[0])
    assert stats["persisted_total"] == 1


def test_query_line_over_the_cap_is_refused(collector):
    with socket.create_connection(collector.query_address) as sock:
        sock.settimeout(10.0)
        sock.sendall(b"Q" * (70 * 1024))  # no newline
        reply = b""
        while not reply.endswith(b"\n") and (chunk := sock.recv(4096)):
            reply += chunk
    assert reply.startswith(b"ERR ") and reply.count(b"\n") == 1


def test_query_span_is_capped(collector, monkeypatch):
    monkeypatch.setattr("xfermon.collector.storage.MAX_QUERY_SPAN_S", 10)
    env = make_envelope(transfer_id="span", t=0)
    send_frames(collector.ingest_address, encode_frame(encode_envelope(env)))
    assert wait_for(lambda: collector.stats().persisted_total == 1)
    assert query_lines(collector.query_address, "QUERY span 0 9")[-1] == "END 10"
    reply = query_lines(collector.query_address, "QUERY span 0 10")
    assert reply == ["ERR range of 11 s exceeds 10 s"]


def test_query_returns_exactly_published_values(collector):
    env = make_envelope(transfer_id="exact", t=9)
    send_frames(collector.ingest_address, encode_frame(encode_envelope(env)))
    assert wait_for(lambda: collector.stats().persisted_total == 1)
    rows = collector.query("exact", 9, 9)
    assert rows[0][1] == env.values  # float-identical round trip


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def test_export_reimport_identity(collector, tmp_path):
    # Two transfers, sent in reverse order: export is in (transfer_id, t) order.
    for tid in ("e-2", "e-1"):
        blob = b"".join(
            encode_frame(encode_envelope(make_envelope(transfer_id=tid, t=t))) for t in range(5)
        )
        send_frames(collector.ingest_address, blob)
    assert wait_for(lambda: collector.stats().persisted_total == 10)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"labels": {"e-1": "network_loss"}}))
    out = tmp_path / "export.ndjson"
    data_dir = str(collector.config.data_dir)
    argv = ["export", "--data-dir", data_dir, "--manifest", str(manifest), "--out", str(out)]
    assert main(argv) == 0

    from xfermon.sim import load_ndjson

    rows = load_ndjson(out)
    assert [(r.transfer_id, r.t) for r in rows] == [
        (tid, t) for tid in ("e-1", "e-2") for t in range(5)
    ]
    assert [r.label for r in rows] == ["network_loss"] * 5 + ["normal"] * 5

    again = tmp_path / "again.ndjson"
    with again.open("wb") as fh:
        for r in rows:
            fh.write(r.to_json())
    assert load_ndjson(again) == rows


def test_export_empty_store_is_empty_file(collector, tmp_path):
    out = tmp_path / "empty.ndjson"
    data_dir = str(collector.config.data_dir)
    assert main(["export", "--data-dir", data_dir, "--out", str(out)]) == 0
    assert out.read_text() == ""


# ----------------------------------------------------------------------
# persistence safety
# ----------------------------------------------------------------------

def test_recovery_truncates_torn_tail(tmp_path):
    d = tmp_path / "store"
    store = SegmentStore(d)
    for t in range(50):
        store.append(Record("r-1", "tb1", t, "minimal14", {"m": float(t)}))
    store.close()

    seg = next(d.glob("segment-*.ndjson"))
    intact = seg.read_bytes()
    torn = intact + b'{"transfer_id": "r-1", "testbed_id": "tb1", "t": 50, "pro'
    seg.write_bytes(torn)

    recovered = SegmentStore(d)
    assert recovered.record_count == 50
    assert seg.read_bytes() == intact  # torn tail gone, valid prefix kept
    # appends continue cleanly after recovery
    recovered.append(Record("r-1", "tb1", 50, "minimal14", {"m": 50.0}))
    recovered.flush()
    recovered.close()
    reopened = SegmentStore(d)
    assert reopened.record_count == 51
    assert reopened.query("r-1", 50, 50)[0][1]["m"] == 50.0
    reopened.close()


@pytest.mark.parametrize("short", [False, True], ids=["enospc", "short-count"])
def test_a_failed_segment_write_stores_and_indexes_none_of_its_batch(tmp_path, monkeypatch, short):
    d = tmp_path / "store"
    store = SegmentStore(d)
    record = {t: Record("a", "tb1", t, "minimal14", {"m": float(t)}) for t in range(4)}
    store.append(record[0])
    fail_next_segment_write(monkeypatch, short)
    with pytest.raises(OSError):
        store.append_many([record[1], record[3]])
    seg = next(d.glob("segment-*.ndjson"))
    assert seg.stat().st_size == len(record[0].to_json())  # the landed part is cut back
    store.append(record[2])
    assert not store.has("a", 1) and not store.has("a", 3)
    assert store.query("a", 0, 2) == [(0, {"m": 0.0}), (1, {"m": None}), (2, {"m": 2.0})]
    store.append(record[1])  # the resend
    assert store.query("a", 0, 2) == [(t, {"m": float(t)}) for t in range(3)]
    assert seg.stat().st_size == sum(len(record[t].to_json()) for t in range(3))
    rows = store.query("a", 0, 3)
    store.close()
    reopened = SegmentStore(d)
    assert reopened.discarded_bytes == 0
    assert reopened.record_count == store.record_count == 3
    assert reopened.query("a", 0, 3) == rows
    reopened.close()


def test_numpy_scalars_are_refused_not_coerced():
    np = pytest.importorskip("numpy")
    with pytest.raises(TypeError):
        Record("np", "tb1", 0, "minimal14", {"m": np.float64(1.5)}).to_json()


def test_record_count_counts_distinct_keys_across_reopen(tmp_path):
    d = tmp_path / "store"
    store = SegmentStore(d)
    store.append_many([Record("k-1", "tb1", 4, "minimal14", {"m": 1.0})])
    store.append_many([Record("k-1", "tb1", 4, "minimal14", {"m": 2.0})])
    assert store.record_count == 1
    store.close()
    reopened = SegmentStore(d)
    assert reopened.record_count == 1
    assert reopened.query("k-1", 4, 4)[0][1]["m"] == 2.0  # the later line wins
    reopened.close()


def test_segments_rotate_and_every_record_reads_back(tmp_path):
    d = tmp_path / "store"
    store = SegmentStore(d, segment_max_bytes=2048)
    records = [Record("seg", "tb1", t, "minimal14", {"m": float(t)}) for t in range(100)]
    for i in range(0, 100, 10):
        store.append_many(records[i : i + 10])
    assert len(list(d.glob("segment-*.ndjson"))) >= 3
    rows = store.query("seg", 0, 99)
    assert [values["m"] for _, values in rows] == [float(t) for t in range(100)]
    lines = [dataclasses.asdict(record) for record in records]
    assert list(store.iter_lines()) == lines
    store.close()
    reopened = SegmentStore(d, segment_max_bytes=2048)
    assert reopened.record_count == 100
    assert list(reopened.iter_lines()) == lines
    reopened.close()


def test_recovery_discards_corrupt_middle_line(tmp_path):
    d = tmp_path / "store"
    store = SegmentStore(d)
    for t in range(10):
        store.append(Record("r-2", "tb1", t, "minimal14", {"m": float(t)}))
    store.close()
    seg = next(d.glob("segment-*.ndjson"))
    lines = seg.read_bytes().splitlines(keepends=True)
    lines[6] = b'{"corrupt": tru\n'
    seg.write_bytes(b"".join(lines))

    recovered = SegmentStore(d)
    # records after the corruption point are not trusted
    assert recovered.record_count == 6
    recovered.close()


def test_export_bytes_are_pinned(tmp_path):
    # Two segments, a key written again in the later one (the later line
    # wins), a missing second (t=3) and a labels manifest.
    d = tmp_path / "store"
    store = SegmentStore(d, segment_max_bytes=1024)
    for t in (0, 1, 2, 4, 5):
        store.append_many([
            Record(tid, "tb2", t, "minimal14", {"b": t * 0.1, "a": -2.5e9 + t, "c": 1e-7 * t})
            for tid in ("g-2", "g-1")
        ])
    store.append_many([Record("g-1", "tb2", 1, "minimal14", {"b": 42.125, "a": 0.0, "c": 3.0})])
    store.close()
    segments = sorted(d.glob("segment-*.ndjson"))
    assert len(segments) >= 2
    assert b'"b":42.125' in segments[-1].read_bytes()
    assert b'"b":42.125' not in segments[0].read_bytes()
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"labels": {"g-1": "network_loss"}}))
    out = tmp_path / "export.ndjson"
    argv = ["export", "--data-dir", str(d), "--manifest", str(manifest), "--out", str(out)]
    assert main(argv) == 0
    data = out.read_bytes()
    assert (data.count(b"\n"), hashlib.sha256(data).hexdigest()) == (
        10,
        "625be390d59de084c3433d472830a032cbe86794082fd7ed81fd363de37bebd5",
    )


def _good_line(t: int) -> bytes:
    return Record("g", "tb1", t, "minimal14", {"m": float(t)}).to_json()


def _without(key: str) -> bytes:
    obj = json.loads(_good_line(3))
    del obj[key]
    return json.dumps(obj).encode() + b"\n"


@pytest.mark.parametrize(
    "bad_line",
    [_without(k) for k in ("transfer_id", "testbed_id", "t", "profile", "metrics")]
    + [
        _good_line(3).replace(b'"t":3', b'"t":"soon"'),
        _good_line(3).replace(b'"t":3', b'"t":null'),
        _good_line(3).replace(b'"transfer_id":"g"', b'"transfer_id":["x"]'),
        _good_line(3).replace(b'"metrics":{"m":3.0}', b'"metrics":7'),
        b"[1, 2]\n",
        b'"g"\n',
        b"7\n",
    ],
    ids=[f"no-{k}" for k in ("transfer_id", "testbed_id", "t", "profile", "metrics")]
    + ["t-string", "t-null", "transfer_id-array", "metrics-number", "array", "string", "number"],
)
def test_reopen_trusts_only_lines_that_are_records(tmp_path, bad_line):
    d = tmp_path / "store"
    d.mkdir()
    seg = d / "segment-00000.ndjson"
    prefix = b"".join(_good_line(t) for t in range(3))
    seg.write_bytes(prefix + bad_line + _good_line(4) + _good_line(5))
    store = SegmentStore(d)
    assert store.record_count == 3
    assert [values["m"] for _, values in store.query("g", 0, 5)] == [0.0, 1.0, 2.0, None, None, None]
    store.close()
    assert seg.read_bytes() == prefix


def test_rotation_after_a_missing_segment_opens_a_new_file(tmp_path):
    d = tmp_path / "store"
    store = SegmentStore(d, segment_max_bytes=300)
    for t in range(9):
        store.append(Record("a", "tb1", t, "minimal14", {"m": float(t)}))
    store.close()
    assert len(list(d.glob("segment-*.ndjson"))) == 3
    (d / "segment-00001.ndjson").unlink()
    reopened = SegmentStore(d, segment_max_bytes=300)
    kept = [t for t in range(9) if reopened.has("a", t)]
    for t in range(20, 26):
        reopened.append(Record("a", "tb1", t, "minimal14", {"m": float(t)}))
    assert [values["m"] for _, values in reopened.query("a", 20, 25)] == [float(t) for t in range(20, 26)]
    reopened.close()
    again = SegmentStore(d)
    assert again.record_count == len(kept) + 6
    for t in kept + list(range(20, 26)):
        assert again.query("a", t, t) == [(t, {"m": float(t)})]
    again.close()


def test_export_manifest_counts_rows_and_bytes_discarded_on_reopen(tmp_path):
    d = tmp_path / "store"
    store = SegmentStore(d, segment_max_bytes=300)
    for t in range(8):
        store.append(Record("x", "tb1", t, "minimal14", {"m": float(t)}))
    store.close()
    first, second = sorted(d.glob("segment-*.ndjson"))[:2]
    lines = first.read_bytes().splitlines(keepends=True)
    lines[2] = b'{"corrupt": tru\n'
    first.write_bytes(b"".join(lines))
    torn = b'{"transfer_id": "x", "testbed_id": "tb1", "t": 9, "pro'
    second.write_bytes(second.read_bytes() + torn)
    discarded = sum(len(line) for line in lines[2:]) + len(torn)

    out = tmp_path / "export.ndjson"
    assert main(["export", "--data-dir", str(d), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "export.ndjson.manifest.json").read_text())
    assert (manifest["rows"], manifest["discarded_bytes"]) == (8 - (len(lines) - 2), discarded)
    assert manifest["rows"] == len(out.read_bytes().splitlines())
    reopened = SegmentStore(d)
    assert reopened.discarded_bytes == 0  # the first reopen truncated it all
    reopened.close()


def test_restart_dedup_survives(tmp_path):
    d = tmp_path / "cdata"
    service = CollectorService(CollectorConfig(data_dir=d))
    service.start()
    env = make_envelope(transfer_id="persist", t=1)
    send_frames(service.ingest_address, encode_frame(encode_envelope(env)))
    assert wait_for(lambda: service.stats().persisted_total == 1)
    service.stop()

    service2 = CollectorService(CollectorConfig(data_dir=d))
    service2.start()
    send_frames(service2.ingest_address, encode_frame(encode_envelope(env)))
    assert wait_for(lambda: service2.stats().reject_total == 1)
    assert service2.store.record_count == 1
    service2.stop()
