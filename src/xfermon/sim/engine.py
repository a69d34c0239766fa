"""Deterministic fluid-flow simulator of two clusters joined by a WAN.

Each simulated second, every active transfer demands the minimum of its
read path, network path, and write path after anomaly effects. Contended
resources (per-OST disks, the Lustre NIC on each side, the WAN) are shared
between transfers, competitor loads and congestion flows by exact max-min
fair allocation (progressive filling), which is work-conserving: a flow is
held below its demand only by a saturated resource. All layer counters (OST,
client, NICs, TCP) are derived from the same per-second rates, so
conservation and capacity invariants hold by construction.

Runs are value objects; an Engine holds the mutable per-run state (bytes
remaining per transfer) and must be stepped sequentially from t = 0.
"""
from __future__ import annotations

import math
import random
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field, replace

from ..metrics.catalog import MINIMAL_NAMES
from .anomaly import (
    AnomalyClass,
    AnomalySpec,
    buffer_limited_rate,
    jitter_rate_factor,
    mathis_rate,
    reorder_rate_factor,
)
from .testbed import TestbedSpec

DEFAULT_CONGESTION_RTT_FACTOR = 1.8

# Per-second multiplicative efficiency jitter on achieved rates. Kept small
# and one-sided (<= 1.0) so no counter can exceed its layer capacity and the
# envelope's throughput-vs-client-path slack is never violated.
RATE_NOISE_SIGMA = 0.01
RATE_NOISE_FLOOR = 0.96

AVG_IO_BYTES = 1 << 20  # per-op size used to derive IOPS from byte rates


@dataclass(frozen=True)
class TransferJob:
    transfer_id: str
    file_count: int = 20
    file_size_bytes: int = 3 << 30
    source_ost_index: int = 0
    dest_ost_index: int = 0
    start_s: int = 0

    def __post_init__(self) -> None:
        if self.file_count < 1:
            raise ValueError("file_count must be >= 1")
        if self.file_size_bytes < 1:
            raise ValueError("file_size_bytes must be >= 1")
        if self.start_s < 0:
            raise ValueError("start_s must be >= 0")

    @property
    def total_bytes(self) -> int:
        return self.file_count * self.file_size_bytes


@dataclass(frozen=True)
class CompetitorLoad:
    """A standalone background load pinned to one resource."""

    resource: str  # sender_ost | receiver_ost | sender_lnet | receiver_lnet | wan
    index: int
    demand_bytes_per_s: float
    start_s: int
    end_s: int

    def active_at(self, t: int) -> bool:
        return self.start_s <= t < self.end_s


@dataclass(frozen=True)
class SimRun:
    testbed: TestbedSpec
    jobs: tuple[TransferJob, ...]
    anomalies: tuple[AnomalySpec, ...] = ()
    competitors: tuple[CompetitorLoad, ...] = ()
    seed: int = 0
    duration_s: int = 60
    congestion_rtt_factor: float = DEFAULT_CONGESTION_RTT_FACTOR

    def __post_init__(self) -> None:
        if self.duration_s < 1:
            raise ValueError("duration_s must be >= 1")
        ids = [j.transfer_id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("transfer ids must be unique within a run")
        for spec in self.anomalies:
            _check_overlap(self.anomalies, spec)


def _anomaly_resource(spec: AnomalySpec) -> str:
    """The contended resource an anomaly occupies, for overlap rejection."""
    return {
        AnomalyClass.SENDER_OST_READ_CONGESTION: "sender_ost",
        AnomalyClass.RECEIVER_OST_WRITE_CONGESTION: "receiver_ost",
        AnomalyClass.SENDER_CLIENT_READ_CONGESTION: "sender_lnet",
        AnomalyClass.RECEIVER_CLIENT_WRITE_CONGESTION: "receiver_lnet",
        AnomalyClass.NETWORK_CONGESTION: "wan",
        AnomalyClass.NETWORK_LOSS: "wan_quality",
        AnomalyClass.CORRUPT: "wan_quality",
        AnomalyClass.REORDER: "wan_quality",
        AnomalyClass.DUPLICATE: "wan_quality",
        AnomalyClass.JITTER: "wan_delay",
        AnomalyClass.SENDER_TCP_BUFFER_MISCONFIG: "sender_tcp",
        AnomalyClass.RECEIVER_TCP_BUFFER_MISCONFIG: "receiver_tcp",
    }[spec.cls]


def _check_overlap(existing: tuple[AnomalySpec, ...], new: AnomalySpec) -> None:
    for other in existing:
        if other is new:
            continue
        if other.cls is new.cls and _anomaly_resource(other) == _anomaly_resource(new):
            if other.start_s < new.end_s and new.start_s < other.end_s:
                raise ValueError(
                    f"overlapping {new.cls.value} anomalies on {_anomaly_resource(new)}; "
                    "runs are single-fault"
                )


def inject(run: SimRun, spec: AnomalySpec) -> SimRun:
    """Return a new run with the anomaly attached; rejects same-class overlap."""
    _check_overlap(run.anomalies, spec)
    return replace(run, anomalies=run.anomalies + (spec,))


@dataclass
class Snapshot:
    """All observable counters for one simulated second."""

    t: int
    testbed_id: str
    hosts: dict[str, dict]
    osses: dict[str, dict]
    transfer_rates: dict[str, float] = field(default_factory=dict)


def _tick_rng(seed: int, t: int) -> random.Random:
    # Stable across processes; avoids Python's salted hash()
    return random.Random(((seed & 0xFFFFFFFF) * 1_000_003 + t) & 0xFFFFFFFFFFFF)


def max_min_rates(
    capacity: Mapping[Hashable, float],
    flows: list[tuple[Hashable, float, tuple[Hashable, ...]]],
) -> dict[Hashable, float]:
    """Exact max-min fair rates by progressive filling.

    ``capacity`` maps each resource key to its capacity; each flow is
    ``(flow_id, demand, resource_keys)``. All unfrozen flows rise together,
    and each step freezes flows at the lower of two levels: the smallest
    ``residual / unfrozen users`` over all resources, which freezes every
    flow on the resources it saturates, or the smallest unfrozen demand,
    which freezes every flow whose demand it reaches. The allocation is
    work-conserving: every flow is at its demand or crosses a saturated
    resource on which no flow gets more (Bertsekas & Gallager, *Data
    Networks*, section 6.5.2).
    """
    # Flows with the same demand and resources get the same rate, so each
    # such group is filled as one unit.
    groups: dict[tuple[float, tuple[Hashable, ...]], list[Hashable]] = {}
    for fid, demand, keys in flows:
        groups.setdefault((demand, keys), []).append(fid)
    members = list(groups.values())
    demands = [demand for demand, _ in groups]
    resources = [keys for _, keys in groups]
    users: dict[Hashable, list[int]] = {}
    unfrozen: dict[Hashable, int] = {}
    for g, keys in enumerate(resources):
        for key in keys:
            users.setdefault(key, []).append(g)
            unfrozen[key] = unfrozen.get(key, 0) + len(members[g])
    residual = {key: capacity[key] for key in users}
    rates: list[float | None] = [None] * len(groups)
    by_demand = sorted(range(len(groups)), key=demands.__getitem__)
    low = 0  # position in by_demand of the smallest unfrozen demand
    while True:
        while low < len(by_demand) and rates[by_demand[low]] is not None:
            low += 1
        if low == len(by_demand):
            break
        shares = {key: residual[key] / n for key, n in unfrozen.items()}
        level = max(0.0, min(shares.values(), default=math.inf))
        if demands[by_demand[low]] <= level:
            frozen = []
            for g in by_demand[low:]:
                if demands[g] > level:
                    break
                if rates[g] is None:
                    frozen.append((g, demands[g]))
        else:
            saturated = [key for key, share in shares.items() if share <= level]
            frozen = [
                (g, level)
                for g in dict.fromkeys(g for key in saturated for g in users[key])
                if rates[g] is None
            ]
        for g, rate in frozen:
            rates[g] = rate
            for key in resources[g]:
                # One flow at a time, so residuals round as in a per-flow fill.
                for _ in members[g]:
                    residual[key] -= rate
                unfrozen[key] -= len(members[g])
        unfrozen = {key: n for key, n in unfrozen.items() if n}
    return {fid: rate for fids, rate in zip(members, rates) for fid in fids}


class Engine:
    """Sequential stepper for one SimRun."""

    def __init__(self, run: SimRun):
        self.run = run
        self.tb = tb = run.testbed
        self._next_t = 0
        self._remaining = {j.transfer_id: float(j.total_bytes) for j in run.jobs}
        # Shared resources: per-OST disk channels, per-side Lustre NICs, WAN.
        self._capacity_of = {
            "sender_ost": tb.per_ost_disk_read_bytes_per_s,
            "receiver_ost": tb.per_ost_disk_write_bytes_per_s,
            "sender_lnet": tb.lnet_nic_bytes_per_s,
            "receiver_lnet": tb.lnet_nic_bytes_per_s,
            "wan": tb.wan_bandwidth_bytes_per_s,
        }
        self._host_ids = {side: tb.host_id(side) for side in ("sender", "receiver")}
        self._oss_ids = {side: tb.oss_id(side) for side in ("sender", "receiver")}
        # The last allocation and the state it was made for. Time reaches the
        # allocation only through which anomalies, competitor loads and jobs
        # are active (the anomaly anchor, jobs[0], is fixed per run), so
        # while those stay the same the allocation does too.
        self._alloc_key = self._alloc = None

    # ------------------------------------------------------------------
    # anomaly state for one tick
    # ------------------------------------------------------------------
    def _active_effects(self, t: int) -> dict:
        eff = {
            "loss_p": 0.0,
            "reorder_p": 0.0,
            "duplicate_p": 0.0,
            "jitter_std_us": 0.0,
            "congestion_flows": 0,
            "send_buf_override": None,
            "recv_buf_override": None,
            "competitors": [],  # (resource, index, demand)
        }
        tb = self.tb
        anchor = self.run.jobs[0] if self.run.jobs else None
        for spec in self.run.anomalies:
            if not spec.active_at(t):
                continue
            c = spec.cls
            if c in (AnomalyClass.NETWORK_LOSS, AnomalyClass.CORRUPT):
                eff["loss_p"] = 1.0 - (1.0 - eff["loss_p"]) * (1.0 - spec.severity)
            elif c is AnomalyClass.REORDER:
                eff["reorder_p"] = max(eff["reorder_p"], spec.severity)
            elif c is AnomalyClass.DUPLICATE:
                eff["duplicate_p"] = max(eff["duplicate_p"], spec.severity)
            elif c is AnomalyClass.JITTER:
                eff["jitter_std_us"] = max(eff["jitter_std_us"], spec.severity)
            elif c is AnomalyClass.NETWORK_CONGESTION:
                eff["congestion_flows"] += int(spec.severity)
            elif c is AnomalyClass.SENDER_TCP_BUFFER_MISCONFIG:
                eff["send_buf_override"] = spec.severity
            elif c is AnomalyClass.RECEIVER_TCP_BUFFER_MISCONFIG:
                eff["recv_buf_override"] = spec.severity
            else:
                resource, capacity, index = {
                    AnomalyClass.SENDER_OST_READ_CONGESTION: (
                        "sender_ost",
                        tb.per_ost_disk_read_bytes_per_s,
                        anchor.source_ost_index if anchor else 0,
                    ),
                    AnomalyClass.RECEIVER_OST_WRITE_CONGESTION: (
                        "receiver_ost",
                        tb.per_ost_disk_write_bytes_per_s,
                        anchor.dest_ost_index if anchor else 0,
                    ),
                    AnomalyClass.SENDER_CLIENT_READ_CONGESTION: (
                        "sender_lnet",
                        tb.lnet_nic_bytes_per_s,
                        0,
                    ),
                    AnomalyClass.RECEIVER_CLIENT_WRITE_CONGESTION: (
                        "receiver_lnet",
                        tb.lnet_nic_bytes_per_s,
                        0,
                    ),
                }[c]
                per_proc = spec.intensity * capacity
                for i in range(int(spec.severity)):
                    eff["competitors"].append((resource, index, per_proc))
        for load in self.run.competitors:
            if load.active_at(t):
                eff["competitors"].append((load.resource, load.index, load.demand_bytes_per_s))
        return eff

    # ------------------------------------------------------------------
    # one simulated second
    # ------------------------------------------------------------------
    def step(self, t: int) -> Snapshot:
        if t != self._next_t:
            raise ValueError(f"engine must be stepped sequentially; expected t={self._next_t}, got {t}")
        if not (0 <= t < self.run.duration_s):
            raise ValueError(f"t={t} outside run duration {self.run.duration_s}")
        self._next_t += 1

        rng = _tick_rng(self.run.seed, t)
        active = [
            j
            for j in self.run.jobs
            if j.start_s <= t and self._remaining[j.transfer_id] > 0.0
        ]
        key = (
            tuple(spec.active_at(t) for spec in self.run.anomalies),
            tuple(load.active_at(t) for load in self.run.competitors),
            tuple(j.transfer_id for j in active),
        )
        if key != self._alloc_key:
            self._alloc_key, self._alloc = key, self._allocate(t, active)
        loss_p, competitors, rates, conn = self._alloc

        # Per-second efficiency jitter, one-sided so capacity holds; a
        # transfer's final second drains exactly the bytes it has left.
        final_rates: dict[str, float] = {}
        for j in active:
            eta = max(RATE_NOISE_FLOOR, 1.0 - abs(rng.gauss(0.0, RATE_NOISE_SIGMA)))
            final_rates[j.transfer_id] = min(
                rates[j.transfer_id] * eta, self._remaining[j.transfer_id]
            )
        comp_fill = []
        for i, (kind, index, _) in enumerate(competitors):
            eta = max(RATE_NOISE_FLOOR, 1.0 - abs(rng.gauss(0.0, RATE_NOISE_SIGMA)))
            comp_fill.append((kind, index, rates[("competitor", i)] * eta))

        snapshot = self._build_snapshot(t, rng, loss_p, active, final_rates, comp_fill, dict(conn))

        for tid, rate in final_rates.items():
            self._remaining[tid] = max(0.0, self._remaining[tid] - rate)
        return snapshot

    def _allocate(
        self, t: int, active: list[TransferJob]
    ) -> tuple[float, list[tuple[str, int, float]], dict[Hashable, float], dict]:
        """Max-min rates before noise for the anomaly state at ``t`` and the
        ``active`` jobs: ``(loss_p, competitors, rates, conn)``, where
        ``rates`` is keyed by transfer id and by ``("competitor", i)`` for
        ``competitors[i]``, and ``conn`` holds the connection constants."""
        tb = self.tb
        eff = self._active_effects(t)

        # Effective RTT: congestion inflates it by a queueing factor, jitter
        # widens it by two standard deviations.
        rtt_base = tb.rtt_us
        rtt_eff = rtt_base * (self.run.congestion_rtt_factor if eff["congestion_flows"] else 1.0)
        rtt_for_rate = rtt_eff + 2.0 * eff["jitter_std_us"]

        send_buf = eff["send_buf_override"] or tb.default_tcp_buf_max_bytes
        recv_buf = eff["recv_buf_override"] or tb.default_tcp_buf_max_bytes
        conn_buf = min(send_buf, recv_buf)

        stall_factor = 1.0
        if eff["jitter_std_us"] > 0.0:
            stall_factor *= jitter_rate_factor(rtt_base, eff["jitter_std_us"])
        if eff["reorder_p"] > 0.0:
            stall_factor *= reorder_rate_factor(eff["reorder_p"])

        # Per-transfer ceiling independent of shared-resource contention;
        # every transfer sees the same path, so it is the same for all.
        demand = min(
            tb.per_ost_disk_read_bytes_per_s,
            tb.per_ost_disk_write_bytes_per_s,
            tb.lnet_nic_bytes_per_s,
            tb.wan_bandwidth_bytes_per_s,
            buffer_limited_rate(conn_buf, rtt_for_rate),
        )
        if eff["loss_p"] > 0.0:
            demand = min(
                demand,
                mathis_rate(tb.mss_bytes, rtt_for_rate, eff["loss_p"], streams=tb.parallel_streams),
            )
        demand *= stall_factor

        # A transfer crosses five shared resources; a competitor or
        # congestion flow one.
        congestion = [("wan", 0, tb.wan_bandwidth_bytes_per_s)] * eff["congestion_flows"]
        competitors = eff["competitors"] + congestion
        flows = [
            (
                j.transfer_id,
                demand,
                (
                    ("sender_ost", j.source_ost_index),
                    ("sender_lnet", 0),
                    ("wan", 0),
                    ("receiver_lnet", 0),
                    ("receiver_ost", j.dest_ost_index),
                ),
            )
            for j in active
        ]
        # Competitor ids are tuples, so they cannot collide with transfer ids.
        flows += [
            (("competitor", i), load, ((kind, index),))
            for i, (kind, index, load) in enumerate(competitors)
        ]
        used = {key for _, _, keys in flows for key in keys}
        capacity = {key: self._capacity_of[key[0]] for key in used}
        conn = {
            "rtt_eff_us": rtt_eff,
            "jitter_std_us": eff["jitter_std_us"],
            "duplicate_p": eff["duplicate_p"],
            "send_buf": send_buf,
            "recv_buf": recv_buf,
            "parallel_streams": tb.parallel_streams,
            "unimpaired_rate": tb.unimpaired_rate,
        }
        return eff["loss_p"], competitors, max_min_rates(capacity, flows), conn

    # ------------------------------------------------------------------
    # counter derivation
    # ------------------------------------------------------------------
    def _build_snapshot(
        self,
        t: int,
        rng: random.Random,
        loss_p: float,
        active: list[TransferJob],
        rates: dict[str, float],
        comp_fill: list[tuple[str, int, float]],
        conn: dict,
    ) -> Snapshot:
        """Counters for one second. Full-profile-only TCP and per-process
        values are not built here: ``assemble_values`` derives them from the
        rate, the per-side samples in ``tcp`` and the constants in ``conn``."""
        tb = self.tb

        ost_read = dict.fromkeys(range(tb.oss_count_per_side), 0.0)
        ost_write = dict.fromkeys(range(tb.oss_count_per_side), 0.0)
        lnet_comp = {"sender_lnet": 0.0, "receiver_lnet": 0.0}
        ost_by_kind = {"sender_ost": ost_read, "receiver_ost": ost_write}
        for kind, index, fill in comp_fill:
            if kind in lnet_comp:
                lnet_comp[kind] += fill
            elif kind in ost_by_kind and index in ost_by_kind[kind]:
                ost_by_kind[kind][index] += fill

        total_rate = sum(rates.values())
        transfers = {}
        for j in active:
            rate = rates[j.transfer_id]
            if j.source_ost_index < tb.oss_count_per_side:
                ost_read[j.source_ost_index] += rate
            if j.dest_ost_index < tb.oss_count_per_side:
                ost_write[j.dest_ost_index] += rate
            transfers[j.transfer_id] = {
                "rate": rate,
                "source_ost_index": j.source_ost_index,
                "dest_ost_index": j.dest_ost_index,
            }
        active_ids = sorted(transfers)
        files_per_s = sum(rates[j.transfer_id] / j.file_size_bytes for j in active)

        lnet_rx_total = total_rate + lnet_comp["sender_lnet"]  # sender DTN pulls from Lustre
        lnet_tx_total = total_rate + lnet_comp["receiver_lnet"]  # receiver DTN pushes to Lustre

        rtt_eff = conn["rtt_eff_us"]
        jitter_std = conn["jitter_std_us"]
        # Host counters that do not depend on the side.
        n_active = len(active)
        mem_used = 4.0 * (1 << 30) + 20.0 * (1 << 20) * n_active
        load_avg = 0.5 + 0.05 * n_active
        getattr_per_s = 2.0 * files_per_s + n_active
        mdc_pending = 1.0 + 0.1 * n_active

        def tcp_samples() -> dict[str, tuple[float, float]]:
            """(rtt_us, retransmitted) per transfer, drawn in transfer order."""
            samples = {}
            for j in active:
                rtt_sample = rtt_eff * (1.0 + max(-0.015, min(0.015, rng.gauss(0.0, 0.005))))
                if jitter_std > 0.0:
                    rtt_sample = max(1.0, rtt_sample + rng.gauss(0.0, jitter_std))
                data_pkts = rates[j.transfer_id] / tb.mss_bytes
                if loss_p > 0.0 and data_pkts > 0:
                    retx_mean = data_pkts * loss_p / (1.0 - loss_p)
                    retx = max(0.0, retx_mean + rng.gauss(0.0, math.sqrt(max(retx_mean, 1.0))))
                else:
                    retx = 0.0
                samples[j.transfer_id] = (rtt_sample, retx)
            return samples

        def host_counters(side: str) -> dict:
            nic_in = lnet_rx_total if side == "sender" else total_rate
            nic_out = total_rate if side == "sender" else lnet_tx_total
            if side == "sender":
                nic = {
                    "lnet_rx": lnet_rx_total,
                    "lnet_tx": 0.01 * lnet_rx_total,  # RPC/ack chatter back to Lustre
                    "wan_tx": total_rate,
                    "wan_rx": 0.01 * total_rate,
                }
            else:
                nic = {
                    "lnet_rx": 0.01 * lnet_tx_total,
                    "lnet_tx": lnet_tx_total,
                    "wan_rx": total_rate,
                    "wan_tx": 0.01 * total_rate,
                }
            lnet_util = max(nic["lnet_rx"], nic["lnet_tx"]) / tb.lnet_nic_bytes_per_s
            disk_cap = (
                tb.per_ost_disk_read_bytes_per_s
                if side == "sender"
                else tb.per_ost_disk_write_bytes_per_s
            )
            busiest_ost = max(
                (ost_read if side == "sender" else ost_write).values(), default=0.0
            )
            iowait = 40.0 * busiest_ost / disk_cap if disk_cap else 0.0
            user = 3.0 + 25.0 * lnet_util
            system = 2.0 + 15.0 * lnet_util
            dtn = {
                "cpu_user_pct": min(95.0, user),
                "cpu_system_pct": min(90.0, system),
                "cpu_iowait_pct": min(90.0, iowait),
                "cpu_idle_pct": max(0.0, 100.0 - user - system - iowait),
                "mem_used_bytes": mem_used,
                "mem_cached_bytes": 2.0 * (1 << 30),
                "mem_free_bytes": 122.0 * (1 << 30),
                "load_avg_1m": load_avg,
            }
            mdc = {
                "open_per_s": files_per_s,
                "close_per_s": files_per_s,
                "getattr_per_s": getattr_per_s,
                "setattr_per_s": files_per_s if side == "receiver" else 0.0,
                "statfs_per_s": 0.2,
                "pending_requests": mdc_pending,
            }
            osc_read = nic_in if side == "sender" else 0.01 * lnet_tx_total
            osc_write = 0.01 * lnet_rx_total if side == "sender" else nic_out
            osc = {
                "read_bps": osc_read,
                "write_bps": osc_write,
                "read_requests_per_s": osc_read / AVG_IO_BYTES,
                "write_requests_per_s": osc_write / AVG_IO_BYTES,
                "pending_requests": 2.0 + 10.0 * lnet_util,
                "dirty_bytes": 0.1 * osc_write,
                "cached_bytes": 0.2 * (osc_read + osc_write),
            }
            return {
                "host_id": self._host_ids[side],
                "side": side,
                "t": t,
                "mss_bytes": tb.mss_bytes,
                "active_transfers": active_ids,
                "transfers": transfers,
                "conn": conn,
                "nic": nic,
                "dtn": dtn,
                "tcp": tcp_samples(),
                "mdc": mdc,
                "osc": osc,
            }

        def oss_counters(side: str) -> dict:
            per_ost = {}
            table = ost_read if side == "sender" else ost_write
            read_cap = tb.per_ost_disk_read_bytes_per_s
            write_cap = tb.per_ost_disk_write_bytes_per_s
            for i in range(tb.oss_count_per_side):
                read_bps = table[i] if side == "sender" else 0.0
                write_bps = table[i] if side == "receiver" else 0.0
                util = max(read_bps / read_cap, write_bps / write_cap)
                per_ost[i] = {
                    "read_bps": read_bps,
                    "write_bps": write_bps,
                    "read_iops": read_bps / AVG_IO_BYTES,
                    "write_iops": write_bps / AVG_IO_BYTES,
                    "pending": 32.0 * util,
                }
            return {"oss_id": self._oss_ids[side], "side": side, "t": t, "ost": per_ost}

        # The sender's TCP samples are drawn before the receiver's.
        hosts = {self._host_ids[side]: host_counters(side) for side in ("sender", "receiver")}
        osses = {self._oss_ids[side]: oss_counters(side) for side in ("sender", "receiver")}
        return Snapshot(
            t=t,
            testbed_id=tb.id,
            hosts=hosts,
            osses=osses,
            transfer_rates=dict(rates),
        )

    def run_all(self):
        """Yield snapshots for every second of the run."""
        for t in range(self.run.duration_s):
            yield self.step(t)


# ----------------------------------------------------------------------
# envelope value assembly, shared by the agent and the dataset writer
# ----------------------------------------------------------------------

def assemble_values(
    profile_names: tuple[str, ...],
    transfer_id: str,
    sender_host: dict,
    receiver_host: dict,
    sender_oss: dict,
    receiver_oss: dict,
) -> dict[str, float]:
    """Map layer snapshots to catalog values for one transfer.

    Both the live agent (reading cache entries) and the direct dataset path
    call this, so a pipeline-collected envelope is bit-identical to the
    simulator-direct row.
    """
    sj = sender_host["transfers"][transfer_id]
    s_rtt, s_retx = sender_host["tcp"][transfer_id]
    src_ost = sender_oss["ost"][sj["source_ost_index"]]
    dst_ost = receiver_oss["ost"][sj["dest_ost_index"]]
    rate = sj["rate"]
    conn = sender_host["conn"]
    mss = sender_host["mss_bytes"]

    values: dict[str, float] = {
        "sender_ost_read_bytes_per_s": src_ost["read_bps"],
        "sender_client_read_bytes_per_s": rate,
        "sender_lnet_nic_rx_bytes_per_s": sender_host["nic"]["lnet_rx"],
        "sender_wan_nic_tx_bytes_per_s": sender_host["nic"]["wan_tx"],
        "sender_tcp_send_buf_max_bytes": conn["send_buf"],
        "sender_retransmitted_packets": s_retx,
        "sender_total_sent_packets": (rate / mss + s_retx) * (1.0 + conn["duplicate_p"]),
        "sender_rtt_us": s_rtt,
        "receiver_ost_write_bytes_per_s": dst_ost["write_bps"],
        "receiver_client_write_bytes_per_s": rate,
        "receiver_lnet_nic_tx_bytes_per_s": receiver_host["nic"]["lnet_tx"],
        "receiver_wan_nic_rx_bytes_per_s": receiver_host["nic"]["wan_rx"],
        "receiver_tcp_recv_buf_max_bytes": conn["recv_buf"],
        "transfer_throughput_bytes_per_s": rate,
    }
    if len(profile_names) == len(values):
        return values

    data_pkts = rate / mss
    cwnd = min(conn["send_buf"], rate * conn["rtt_eff_us"] / 1e6) if rate > 0 else 0.0
    for side, host, oss in (
        ("sender", sender_host, sender_oss),
        ("receiver", receiver_host, receiver_oss),
    ):
        for i, ost in oss["ost"].items():
            values[f"{side}_ost{i}_read_bytes_per_s"] = ost["read_bps"]
            values[f"{side}_ost{i}_write_bytes_per_s"] = ost["write_bps"]
            values[f"{side}_ost{i}_read_iops"] = ost["read_iops"]
            values[f"{side}_ost{i}_write_iops"] = ost["write_iops"]
            values[f"{side}_ost{i}_pending_requests"] = ost["pending"]
        osc = host["osc"]
        values[f"{side}_osc_read_bytes_per_s"] = osc["read_bps"]
        values[f"{side}_osc_write_bytes_per_s"] = osc["write_bps"]
        values[f"{side}_osc_read_requests_per_s"] = osc["read_requests_per_s"]
        values[f"{side}_osc_write_requests_per_s"] = osc["write_requests_per_s"]
        values[f"{side}_osc_pending_requests"] = osc["pending_requests"]
        values[f"{side}_osc_dirty_bytes"] = osc["dirty_bytes"]
        values[f"{side}_osc_cached_bytes"] = osc["cached_bytes"]
        mdc = host["mdc"]
        values[f"{side}_mdc_open_per_s"] = mdc["open_per_s"]
        values[f"{side}_mdc_close_per_s"] = mdc["close_per_s"]
        values[f"{side}_mdc_getattr_per_s"] = mdc["getattr_per_s"]
        values[f"{side}_mdc_setattr_per_s"] = mdc["setattr_per_s"]
        values[f"{side}_mdc_statfs_per_s"] = mdc["statfs_per_s"]
        values[f"{side}_mdc_pending_requests"] = mdc["pending_requests"]
        dtn = host["dtn"]
        values[f"{side}_cpu_user_pct"] = dtn["cpu_user_pct"]
        values[f"{side}_cpu_system_pct"] = dtn["cpu_system_pct"]
        values[f"{side}_cpu_iowait_pct"] = dtn["cpu_iowait_pct"]
        values[f"{side}_cpu_idle_pct"] = dtn["cpu_idle_pct"]
        values[f"{side}_mem_used_bytes"] = dtn["mem_used_bytes"]
        values[f"{side}_mem_cached_bytes"] = dtn["mem_cached_bytes"]
        values[f"{side}_mem_free_bytes"] = dtn["mem_free_bytes"]
        values[f"{side}_load_avg_1m"] = dtn["load_avg_1m"]
        nic = host["nic"]
        other_lnet = "tx" if side == "sender" else "rx"
        other_wan = "rx" if side == "sender" else "tx"
        values[f"{side}_lnet_nic_{other_lnet}_bytes_per_s"] = nic[f"lnet_{other_lnet}"]
        values[f"{side}_wan_nic_{other_wan}_bytes_per_s"] = nic[f"wan_{other_wan}"]
        for d in ("rx", "tx"):
            values[f"{side}_lnet_nic_{d}_packets_per_s"] = nic[f"lnet_{d}"] / mss
            values[f"{side}_lnet_nic_{d}_dropped_per_s"] = 0.0
            values[f"{side}_lnet_nic_{d}_errors_per_s"] = 0.0
            values[f"{side}_wan_nic_{d}_packets_per_s"] = nic[f"wan_{d}"] / mss
            values[f"{side}_wan_nic_{d}_dropped_per_s"] = 0.0
            values[f"{side}_wan_nic_{d}_errors_per_s"] = 0.0
        rtt, retx = host["tcp"][transfer_id]
        values[f"{side}_tcp_cwnd_bytes"] = cwnd
        values[f"{side}_tcp_ssthresh_bytes"] = cwnd * 0.75
        values[f"{side}_tcp_rto_us"] = max(200_000.0, 2.0 * rtt)
        values[f"{side}_tcp_rtt_var_us"] = 0.05 * conn["rtt_eff_us"] + conn["jitter_std_us"]
        values[f"{side}_tcp_send_queue_bytes"] = 0.02 * conn["send_buf"]
        values[f"{side}_tcp_recv_queue_bytes"] = 0.01 * conn["recv_buf"]
        values[f"{side}_tcp_delivered_packets"] = data_pkts
        values[f"{side}_tcp_lost_packets"] = retx
        values[f"{side}_tcp_sacked_packets"] = min(3.0 * retx, data_pkts)
        values[f"{side}_proc_cpu_pct"] = min(
            100.0, 0.5 + 8.0 * rate / max(conn["unimpaired_rate"], 1.0)
        )
        values[f"{side}_proc_mem_rss_bytes"] = 20.0 * (1 << 20)
        values[f"{side}_proc_read_bytes_per_s"] = rate if side == "sender" else 0.0
        values[f"{side}_proc_write_bytes_per_s"] = 0.0 if side == "sender" else rate
        values[f"{side}_proc_open_sockets"] = float(conn["parallel_streams"])
    return values


def minimal_row(snapshot: Snapshot, transfer_id: str, tb: TestbedSpec) -> dict[str, float]:
    """The 14 classification metrics for one transfer at one second."""
    return assemble_values(
        MINIMAL_NAMES,
        transfer_id,
        snapshot.hosts[tb.host_id("sender")],
        snapshot.hosts[tb.host_id("receiver")],
        snapshot.osses[tb.oss_id("sender")],
        snapshot.osses[tb.oss_id("receiver")],
    )
