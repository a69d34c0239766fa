"""Metric envelopes: one per-second bundle of a transfer's counters.

Wire encoding (big-endian):

    u8   format version (currently 1)
    u8   profile id (0 = full142, 1 = minimal14)
    u32  timestamp, seconds since run start
    u8   transfer_id byte length, then that many UTF-8 bytes
    u8   testbed_id byte length, then that many UTF-8 bytes
    u16  entry count
    entry count times: u8 catalog index, f64 value

Each profile has exactly one layout: its keys in catalog order, entry i
carrying catalog index i. Decoding accepts that layout and nothing else.
Catalog indexes replace key names, which keeps a minimal envelope around
150 bytes and a full one around 1.3 KiB. Envelopes are immutable value
objects and safe to share across threads.
"""
from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field

from .catalog import Profile, catalog_names

ENCODING_VERSION = 1

# Serialized size ceilings per profile, enforced by validate_envelope().
PAYLOAD_LIMIT_BYTES = {
    Profile.MINIMAL14: 320,
    Profile.FULL142: 1700,
}

MAX_ID_BYTES = 64

# Pipelining slack allowed between reported throughput and the slower of the
# two client-side rates.
THROUGHPUT_SLACK_FRACTION = 0.05

_HEADER = struct.Struct(">BBI")
_COUNT = struct.Struct(">H")


class _Layout:
    """The one wire layout of a profile, built once at import.

    A profile's names are a prefix of the full catalog, so the catalog index
    of entry i is i.
    """

    def __init__(self, profile: Profile, wire_id: int):
        names = catalog_names(profile)
        self.profile = profile
        self.wire_id = wire_id
        self.names = names
        self.name_set = frozenset(names)
        self.indexes = tuple(range(len(names)))
        self.values_of = operator.itemgetter(*names)
        self.entries = struct.Struct(">" + "Bd" * len(names))
        self.count = _COUNT.pack(len(names))
        # (index, value) pairs flattened; encode fills the value slots.
        self.template = [x for i in self.indexes for x in (i, 0.0)]


_LAYOUTS = {
    Profile.FULL142: _Layout(Profile.FULL142, 0),
    Profile.MINIMAL14: _Layout(Profile.MINIMAL14, 1),
}
_LAYOUT_BY_WIRE_ID = {layout.wire_id: layout for layout in _LAYOUTS.values()}


@dataclass(frozen=True)
class MetricEnvelope:
    transfer_id: str
    testbed_id: str
    timestamp: int
    profile: Profile
    values: dict[str, float] = field(compare=True)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class EnvelopeDecodeError(ValueError):
    pass


def encode_envelope(env: MetricEnvelope) -> bytes:
    """Serialize an envelope to the compact wire form."""
    tid = env.transfer_id.encode("utf-8")
    tbid = env.testbed_id.encode("utf-8")
    if len(tid) > 255 or len(tbid) > 255:
        raise ValueError("envelope ids longer than 255 bytes cannot be encoded")
    layout = _LAYOUTS[env.profile]
    flat = layout.template.copy()
    flat[1::2] = layout.values_of(env.values)
    return b"".join(
        (
            _HEADER.pack(ENCODING_VERSION, layout.wire_id, env.timestamp),
            bytes((len(tid),)),
            tid,
            bytes((len(tbid),)),
            tbid,
            layout.count,
            layout.entries.pack(*flat),
        )
    )


def decode_envelope(data: bytes) -> MetricEnvelope:
    """Parse wire bytes back into an envelope. Raises EnvelopeDecodeError.

    Only the profile's own layout decodes: the right entry count with the
    catalog indexes in order. Decoding checks structure only;
    validate_envelope() checks the values.
    """
    try:
        version, profile_id, timestamp = _HEADER.unpack_from(data, 0)
        if version != ENCODING_VERSION:
            raise EnvelopeDecodeError(f"unsupported encoding version {version}")
        layout = _LAYOUT_BY_WIRE_ID.get(profile_id)
        if layout is None:
            raise EnvelopeDecodeError(f"unknown profile id {profile_id}")
        off = _HEADER.size
        tid_len = data[off]
        off += 1
        transfer_id = data[off : off + tid_len].decode("utf-8")
        off += tid_len
        tbid_len = data[off]
        off += 1
        testbed_id = data[off : off + tbid_len].decode("utf-8")
        off += tbid_len
        (count,) = _COUNT.unpack_from(data, off)
        off += _COUNT.size
        if count != len(layout.names):
            raise EnvelopeDecodeError(
                f"profile {layout.profile.value} expects {len(layout.names)} entries, "
                f"frame has {count}"
            )
        flat = layout.entries.unpack_from(data, off)
        off += layout.entries.size
        if off != len(data):
            raise EnvelopeDecodeError(f"{len(data) - off} trailing bytes after envelope")
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise EnvelopeDecodeError(f"truncated or corrupt envelope: {exc}") from exc
    if flat[0::2] != layout.indexes:
        raise EnvelopeDecodeError(
            f"entries are not the {layout.profile.value} catalog indexes in order"
        )
    return MetricEnvelope(
        transfer_id, testbed_id, timestamp, layout.profile, dict(zip(layout.names, flat[1::2]))
    )


def validate_envelope(env: MetricEnvelope) -> list[Violation]:
    """Check every envelope invariant; an empty list means the envelope is ok.

    Violations are data, not exceptions: a malformed envelope is a normal
    runtime event at the collector boundary.
    """
    out: list[Violation] = []
    layout = _LAYOUTS[env.profile]
    tid_bytes = len(env.transfer_id.encode("utf-8"))
    tbid_bytes = len(env.testbed_id.encode("utf-8"))

    if not tid_bytes or tid_bytes > MAX_ID_BYTES:
        out.append(Violation("bad-id", f"transfer_id empty or over {MAX_ID_BYTES} bytes"))
    if not tbid_bytes or tbid_bytes > MAX_ID_BYTES:
        out.append(Violation("bad-id", f"testbed_id empty or over {MAX_ID_BYTES} bytes"))
    if not isinstance(env.timestamp, int) or env.timestamp < 0 or env.timestamp > 0xFFFFFFFF:
        out.append(Violation("bad-timestamp", f"timestamp {env.timestamp!r} not a u32"))

    values = env.values
    if values.keys() != layout.name_set:
        for name in layout.names:
            if name not in values:
                out.append(Violation("missing-key", f"missing key {name}"))
        for name in values:
            if name not in layout.name_set:
                out.append(Violation("extra-key", f"unexpected key {name}"))
    # Two C-level scans; only when they fail are the values read key by key,
    # and a sum of finite values that overflows to inf fails them harmlessly.
    try:
        scanned_ok = min(values.values()) >= 0 and math.isfinite(sum(values.values()))
    except (TypeError, ValueError, OverflowError):
        scanned_ok = False
    if not scanned_ok:
        finite = {}
        for name, val in values.items():
            if name not in layout.name_set:
                continue
            if not isinstance(val, (int, float)) or not math.isfinite(val):
                out.append(Violation("non-finite", f"{name} = {val!r}"))
                continue
            finite[name] = val
            if val < 0:
                out.append(Violation("negative-value", f"{name} = {val}"))
        values = finite  # the coupled checks read only finite values

    get = values.get
    rtt = get("sender_rtt_us")
    if rtt is not None and rtt <= 0:
        out.append(Violation("rtt-nonpositive", f"sender_rtt_us = {rtt}"))

    retx = get("sender_retransmitted_packets")
    sent = get("sender_total_sent_packets")
    if retx is not None and sent is not None and retx > sent:
        out.append(
            Violation("retransmit-exceeds-sent", f"retransmits {retx} exceed sent {sent}")
        )

    thr = get("transfer_throughput_bytes_per_s")
    cread = get("sender_client_read_bytes_per_s")
    cwrite = get("receiver_client_write_bytes_per_s")
    if thr is not None and cread is not None and cwrite is not None:
        ceiling = min(cread, cwrite) + THROUGHPUT_SLACK_FRACTION * thr
        if thr > ceiling:
            out.append(
                Violation(
                    "throughput-exceeds-path",
                    f"throughput {thr:.0f} exceeds client path {min(cread, cwrite):.0f} + slack",
                )
            )

    # Size check only makes sense once the structural checks pass.
    if not out:
        size = _HEADER.size + 1 + tid_bytes + 1 + tbid_bytes + _COUNT.size + layout.entries.size
        limit = PAYLOAD_LIMIT_BYTES[env.profile]
        if size > limit:
            out.append(Violation("oversize", f"serialized size {size} > {limit}"))
    return out
