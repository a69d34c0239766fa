"""Static descriptions of the simulated dual-cluster testbeds.

Each testbed is two Lustre-style clusters joined by a WAN: per-OST disks
behind OSS nodes, a DTN per side with a Lustre-facing NIC and a WAN-facing
NIC, and a TCP path between the DTNs. Eight built-ins span HDD-to-SSD disk
rates, 10-100 Gbps WAN links, and 1-60 ms round-trip times; their
parallel-stream counts are sized so that a packet-loss episode detectable
from the retransmission ratio still lands in a moderate throughput-drop
range rather than collapsing the transfer.
"""
from __future__ import annotations

from dataclasses import dataclass

GBPS = 1.25e8  # bytes per second in one gigabit per second

# Jumbo-frame MSS: 9000-byte MTU minus IP/TCP headers and options.
DEFAULT_MSS_BYTES = 8948


@dataclass(frozen=True)
class TestbedSpec:
    id: str
    wan_bandwidth_bytes_per_s: float
    rtt_us: float
    per_ost_disk_read_bytes_per_s: float
    per_ost_disk_write_bytes_per_s: float
    lnet_nic_bytes_per_s: float
    oss_count_per_side: int = 3
    default_tcp_buf_max_bytes: float = 0.0  # 0 means "2x BDP", filled by __post_init__
    parallel_streams: int = 1
    mss_bytes: float = DEFAULT_MSS_BYTES

    def __post_init__(self) -> None:
        if self.default_tcp_buf_max_bytes <= 0:
            object.__setattr__(self, "default_tcp_buf_max_bytes", 2.0 * self.bdp_bytes)
        self.validate()

    @property
    def rtt_s(self) -> float:
        return self.rtt_us / 1e6

    @property
    def bdp_bytes(self) -> float:
        return self.wan_bandwidth_bytes_per_s * self.rtt_s

    @property
    def unimpaired_rate(self) -> float:
        """Single-transfer steady rate with no anomaly: the slowest path stage."""
        return min(
            self.per_ost_disk_read_bytes_per_s,
            self.per_ost_disk_write_bytes_per_s,
            self.lnet_nic_bytes_per_s,
            self.wan_bandwidth_bytes_per_s,
        )

    def validate(self) -> None:
        rates = {
            "wan_bandwidth_bytes_per_s": self.wan_bandwidth_bytes_per_s,
            "rtt_us": self.rtt_us,
            "per_ost_disk_read_bytes_per_s": self.per_ost_disk_read_bytes_per_s,
            "per_ost_disk_write_bytes_per_s": self.per_ost_disk_write_bytes_per_s,
            "lnet_nic_bytes_per_s": self.lnet_nic_bytes_per_s,
            "mss_bytes": self.mss_bytes,
        }
        for name, val in rates.items():
            if val <= 0:
                raise ValueError(f"{self.id}: {name} must be strictly positive, got {val}")
        if self.oss_count_per_side < 2:
            raise ValueError(f"{self.id}: need at least 2 OSSes per side")
        if self.parallel_streams < 1:
            raise ValueError(f"{self.id}: parallel_streams must be >= 1")
        if self.default_tcp_buf_max_bytes < self.bdp_bytes:
            raise ValueError(
                f"{self.id}: default TCP buffer {self.default_tcp_buf_max_bytes:.0f} "
                f"below BDP {self.bdp_bytes:.0f}; a correctly configured testbed "
                "needs at least one BDP"
            )

    def host_id(self, side: str) -> str:
        return f"{self.id}-{side}-dtn"

    def oss_id(self, side: str) -> str:
        return f"{self.id}-{side}-oss"


def _tb(
    tb_id: str,
    disk_gbps: float,
    wan_gbps: float,
    rtt_ms: float,
    streams: int,
) -> TestbedSpec:
    disk = disk_gbps * GBPS
    return TestbedSpec(
        id=tb_id,
        wan_bandwidth_bytes_per_s=wan_gbps * GBPS,
        rtt_us=rtt_ms * 1000.0,
        per_ost_disk_read_bytes_per_s=disk,
        per_ost_disk_write_bytes_per_s=disk,
        lnet_nic_bytes_per_s=2.0 * disk,
        parallel_streams=streams,
    )


# Disk rate (HDD 1 Gbps to SSD 12 Gbps), WAN bandwidth (10-100 Gbps) and RTT
# (1-60 ms) span the axes the built-ins are meant to cover. tb6 is the one
# WAN-limited testbed (disk faster than the link).
BUILTIN_TESTBEDS: dict[str, TestbedSpec] = {
    tb.id: tb
    for tb in (
        _tb("tb1", disk_gbps=1.0, wan_gbps=10.0, rtt_ms=5.0, streams=2),
        _tb("tb2", disk_gbps=1.6, wan_gbps=10.0, rtt_ms=1.0, streams=1),
        _tb("tb3", disk_gbps=3.4, wan_gbps=10.0, rtt_ms=10.0, streams=12),
        _tb("tb4", disk_gbps=3.4, wan_gbps=40.0, rtt_ms=30.0, streams=32),
        _tb("tb5", disk_gbps=6.0, wan_gbps=40.0, rtt_ms=10.0, streams=20),
        _tb("tb6", disk_gbps=12.0, wan_gbps=10.0, rtt_ms=5.0, streams=16),
        _tb("tb7", disk_gbps=8.0, wan_gbps=100.0, rtt_ms=1.0, streams=3),
        _tb("tb8", disk_gbps=2.0, wan_gbps=40.0, rtt_ms=60.0, streams=32),
    )
}


def builtin_testbeds() -> dict[str, TestbedSpec]:
    return dict(BUILTIN_TESTBEDS)


def get_testbed(tb_id: str) -> TestbedSpec:
    try:
        return BUILTIN_TESTBEDS[tb_id]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_TESTBEDS))
        raise KeyError(f"unknown testbed {tb_id!r} (built-ins: {known})") from None
