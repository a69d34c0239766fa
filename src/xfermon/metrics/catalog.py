"""Canonical catalog of per-transfer performance counters.

Two collection profiles exist. The full profile carries 142 counters spanning
every layer a transfer touches on both endpoints (storage server, storage
client, metadata client, transfer host, Lustre-facing NIC, WAN-facing NIC,
TCP connection, transfer process). The minimal profile is the 14-counter
subset that the bottleneck rules actually consume, plus throughput.

The catalog is static: key order is fixed at import time and the position of
a key doubles as its index in the compact wire encoding. The minimal keys
occupy indexes 0..13 of the full catalog so both profiles share one index
space.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass


class Side(enum.Enum):
    SENDER = "sender"
    RECEIVER = "receiver"


class Layer(enum.Enum):
    OST_SERVER = "ost_server"
    LUSTRE_CLIENT = "lustre_client"
    METADATA_CLIENT = "metadata_client"
    DTN_HOST = "dtn_host"
    LUSTRE_NIC = "lustre_nic"
    WAN_NIC = "wan_nic"
    TCP_CONNECTION = "tcp_connection"
    TRANSFER_PROCESS = "transfer_process"


class Profile(enum.Enum):
    FULL142 = "full142"
    MINIMAL14 = "minimal14"


@dataclass(frozen=True)
class MetricKey:
    """One catalog entry: a named counter bound to a side, layer, and unit."""

    name: str
    side: Side
    layer: Layer
    unit: str  # bytes_per_s | bytes | packets | packets_per_s | us | percent | count | ops_per_s


OST_COUNT = 3  # per-OST counters exposed for the first three targets per side


def _minimal_keys() -> list[MetricKey]:
    s, r = Side.SENDER, Side.RECEIVER
    return [
        MetricKey("sender_ost_read_bytes_per_s", s, Layer.OST_SERVER, "bytes_per_s"),
        MetricKey("sender_client_read_bytes_per_s", s, Layer.LUSTRE_CLIENT, "bytes_per_s"),
        MetricKey("sender_lnet_nic_rx_bytes_per_s", s, Layer.LUSTRE_NIC, "bytes_per_s"),
        MetricKey("sender_wan_nic_tx_bytes_per_s", s, Layer.WAN_NIC, "bytes_per_s"),
        MetricKey("sender_tcp_send_buf_max_bytes", s, Layer.TCP_CONNECTION, "bytes"),
        MetricKey("sender_retransmitted_packets", s, Layer.TCP_CONNECTION, "packets"),
        MetricKey("sender_total_sent_packets", s, Layer.TCP_CONNECTION, "packets"),
        MetricKey("sender_rtt_us", s, Layer.TCP_CONNECTION, "us"),
        MetricKey("receiver_ost_write_bytes_per_s", r, Layer.OST_SERVER, "bytes_per_s"),
        MetricKey("receiver_client_write_bytes_per_s", r, Layer.LUSTRE_CLIENT, "bytes_per_s"),
        MetricKey("receiver_lnet_nic_tx_bytes_per_s", r, Layer.LUSTRE_NIC, "bytes_per_s"),
        MetricKey("receiver_wan_nic_rx_bytes_per_s", r, Layer.WAN_NIC, "bytes_per_s"),
        MetricKey("receiver_tcp_recv_buf_max_bytes", r, Layer.TCP_CONNECTION, "bytes"),
        MetricKey("transfer_throughput_bytes_per_s", s, Layer.TRANSFER_PROCESS, "bytes_per_s"),
    ]


def _side_extra_keys(side: Side) -> list[MetricKey]:
    """The 64 per-side counters that only the full profile carries."""
    p = side.value
    keys: list[MetricKey] = []

    for i in range(OST_COUNT):
        keys.extend(
            [
                MetricKey(f"{p}_ost{i}_read_bytes_per_s", side, Layer.OST_SERVER, "bytes_per_s"),
                MetricKey(f"{p}_ost{i}_write_bytes_per_s", side, Layer.OST_SERVER, "bytes_per_s"),
                MetricKey(f"{p}_ost{i}_read_iops", side, Layer.OST_SERVER, "ops_per_s"),
                MetricKey(f"{p}_ost{i}_write_iops", side, Layer.OST_SERVER, "ops_per_s"),
                MetricKey(f"{p}_ost{i}_pending_requests", side, Layer.OST_SERVER, "count"),
            ]
        )

    keys.extend(
        [
            MetricKey(f"{p}_osc_read_bytes_per_s", side, Layer.LUSTRE_CLIENT, "bytes_per_s"),
            MetricKey(f"{p}_osc_write_bytes_per_s", side, Layer.LUSTRE_CLIENT, "bytes_per_s"),
            MetricKey(f"{p}_osc_read_requests_per_s", side, Layer.LUSTRE_CLIENT, "ops_per_s"),
            MetricKey(f"{p}_osc_write_requests_per_s", side, Layer.LUSTRE_CLIENT, "ops_per_s"),
            MetricKey(f"{p}_osc_pending_requests", side, Layer.LUSTRE_CLIENT, "count"),
            MetricKey(f"{p}_osc_dirty_bytes", side, Layer.LUSTRE_CLIENT, "bytes"),
            MetricKey(f"{p}_osc_cached_bytes", side, Layer.LUSTRE_CLIENT, "bytes"),
        ]
    )

    keys.extend(
        [
            MetricKey(f"{p}_mdc_open_per_s", side, Layer.METADATA_CLIENT, "ops_per_s"),
            MetricKey(f"{p}_mdc_close_per_s", side, Layer.METADATA_CLIENT, "ops_per_s"),
            MetricKey(f"{p}_mdc_getattr_per_s", side, Layer.METADATA_CLIENT, "ops_per_s"),
            MetricKey(f"{p}_mdc_setattr_per_s", side, Layer.METADATA_CLIENT, "ops_per_s"),
            MetricKey(f"{p}_mdc_statfs_per_s", side, Layer.METADATA_CLIENT, "ops_per_s"),
            MetricKey(f"{p}_mdc_pending_requests", side, Layer.METADATA_CLIENT, "count"),
        ]
    )

    keys.extend(
        [
            MetricKey(f"{p}_cpu_user_pct", side, Layer.DTN_HOST, "percent"),
            MetricKey(f"{p}_cpu_system_pct", side, Layer.DTN_HOST, "percent"),
            MetricKey(f"{p}_cpu_iowait_pct", side, Layer.DTN_HOST, "percent"),
            MetricKey(f"{p}_cpu_idle_pct", side, Layer.DTN_HOST, "percent"),
            MetricKey(f"{p}_mem_used_bytes", side, Layer.DTN_HOST, "bytes"),
            MetricKey(f"{p}_mem_cached_bytes", side, Layer.DTN_HOST, "bytes"),
            MetricKey(f"{p}_mem_free_bytes", side, Layer.DTN_HOST, "bytes"),
            MetricKey(f"{p}_load_avg_1m", side, Layer.DTN_HOST, "count"),
        ]
    )

    # The data-heavy direction of each NIC is already in the minimal set;
    # the full set adds the opposite direction plus packet-level counters.
    lnet_other = "tx" if side is Side.SENDER else "rx"
    wan_other = "rx" if side is Side.SENDER else "tx"
    keys.append(MetricKey(f"{p}_lnet_nic_{lnet_other}_bytes_per_s", side, Layer.LUSTRE_NIC, "bytes_per_s"))
    for d in ("rx", "tx"):
        keys.extend(
            [
                MetricKey(f"{p}_lnet_nic_{d}_packets_per_s", side, Layer.LUSTRE_NIC, "packets_per_s"),
                MetricKey(f"{p}_lnet_nic_{d}_dropped_per_s", side, Layer.LUSTRE_NIC, "packets_per_s"),
                MetricKey(f"{p}_lnet_nic_{d}_errors_per_s", side, Layer.LUSTRE_NIC, "packets_per_s"),
            ]
        )
    keys.append(MetricKey(f"{p}_wan_nic_{wan_other}_bytes_per_s", side, Layer.WAN_NIC, "bytes_per_s"))
    for d in ("rx", "tx"):
        keys.extend(
            [
                MetricKey(f"{p}_wan_nic_{d}_packets_per_s", side, Layer.WAN_NIC, "packets_per_s"),
                MetricKey(f"{p}_wan_nic_{d}_dropped_per_s", side, Layer.WAN_NIC, "packets_per_s"),
                MetricKey(f"{p}_wan_nic_{d}_errors_per_s", side, Layer.WAN_NIC, "packets_per_s"),
            ]
        )

    keys.extend(
        [
            MetricKey(f"{p}_tcp_cwnd_bytes", side, Layer.TCP_CONNECTION, "bytes"),
            MetricKey(f"{p}_tcp_ssthresh_bytes", side, Layer.TCP_CONNECTION, "bytes"),
            MetricKey(f"{p}_tcp_rto_us", side, Layer.TCP_CONNECTION, "us"),
            MetricKey(f"{p}_tcp_rtt_var_us", side, Layer.TCP_CONNECTION, "us"),
            MetricKey(f"{p}_tcp_send_queue_bytes", side, Layer.TCP_CONNECTION, "bytes"),
            MetricKey(f"{p}_tcp_recv_queue_bytes", side, Layer.TCP_CONNECTION, "bytes"),
            MetricKey(f"{p}_tcp_delivered_packets", side, Layer.TCP_CONNECTION, "packets"),
            MetricKey(f"{p}_tcp_lost_packets", side, Layer.TCP_CONNECTION, "packets"),
            MetricKey(f"{p}_tcp_sacked_packets", side, Layer.TCP_CONNECTION, "packets"),
        ]
    )

    keys.extend(
        [
            MetricKey(f"{p}_proc_cpu_pct", side, Layer.TRANSFER_PROCESS, "percent"),
            MetricKey(f"{p}_proc_mem_rss_bytes", side, Layer.TRANSFER_PROCESS, "bytes"),
            MetricKey(f"{p}_proc_read_bytes_per_s", side, Layer.TRANSFER_PROCESS, "bytes_per_s"),
            MetricKey(f"{p}_proc_write_bytes_per_s", side, Layer.TRANSFER_PROCESS, "bytes_per_s"),
            MetricKey(f"{p}_proc_open_sockets", side, Layer.TRANSFER_PROCESS, "count"),
        ]
    )
    return keys


MINIMAL_KEYS: tuple[MetricKey, ...] = tuple(_minimal_keys())
FULL_KEYS: tuple[MetricKey, ...] = MINIMAL_KEYS + tuple(
    _side_extra_keys(Side.SENDER) + _side_extra_keys(Side.RECEIVER)
)

MINIMAL_NAMES: tuple[str, ...] = tuple(k.name for k in MINIMAL_KEYS)
FULL_NAMES: tuple[str, ...] = tuple(k.name for k in FULL_KEYS)

assert len(FULL_KEYS) == 142, f"full catalog has {len(FULL_KEYS)} keys, want 142"
assert len(MINIMAL_KEYS) == 14
assert len(set(FULL_NAMES)) == 142, "catalog names must be unique"


def catalog(profile: Profile) -> tuple[MetricKey, ...]:
    """Return the ordered key list for a profile."""
    if profile is Profile.FULL142:
        return FULL_KEYS
    if profile is Profile.MINIMAL14:
        return MINIMAL_KEYS
    raise ValueError(f"unknown profile {profile!r}")


def catalog_names(profile: Profile) -> tuple[str, ...]:
    return FULL_NAMES if profile is Profile.FULL142 else MINIMAL_NAMES

