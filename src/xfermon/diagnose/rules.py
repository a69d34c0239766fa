"""Rule engine for bottleneck root-cause classification.

Rules run in a fixed precedence order over window-aggregated metric means:
configuration faults (TCP buffer below BDP) first, then loss, network
congestion, and the four I/O contention patterns; if nothing fires the
window is normal. Every threshold is a ratio against the baseline, so
classifying raw rows against a raw baseline and normalized rows against a
unit baseline gives the same label.

Threshold constants operationalize the qualitative comparisons the
conditions are built from: "much smaller than BDP" becomes < kappa_buf x
BDP, "close to the disk ceiling" becomes >= kappa_near x observed maximum,
and so on. All of them are configurable.
"""
from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import Sequence

from ..sim.anomaly import AnomalyClass
from .baseline import BaselineProfile

ENV_PREFIX = "XFERMON_"


@dataclass(frozen=True)
class RuleConfig:
    kappa_buf: float = 0.9     # buffer "much smaller than BDP" ratio
    kappa_near: float = 0.85   # "close to observed maximum" ratio
    kappa_gap: float = 0.8     # client-under-OST gap ratio
    kappa_low: float = 0.7     # "below normal" ratio
    kappa_high: float = 1.2    # "above normal" ratio
    loss_ratio_threshold: float = 0.0005  # retransmitted / total sent
    rtt_factor: float = 1.5    # congestion RTT inflation trigger
    window_s: int = 10

    @classmethod
    def load(cls, path: str | Path | None = None, env: dict[str, str] | None = None) -> "RuleConfig":
        """Config file plus XFERMON_<FIELD> environment overrides."""
        data: dict[str, float] = {}
        if path is not None:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
            unknown = set(obj) - set(cls.__dataclass_fields__)
            if unknown:
                raise ValueError(f"unknown rule config keys: {sorted(unknown)}")
            data.update(obj)
        env = os.environ if env is None else env
        for name in cls.__dataclass_fields__:
            raw = env.get(ENV_PREFIX + name.upper())
            if raw is not None:
                data[name] = float(raw)
        cfg = cls(**{k: (int(v) if k == "window_s" else float(v)) for k, v in data.items()})
        if cfg.window_s < 1:
            raise ValueError("window_s must be >= 1")
        return cfg


DEFAULT_RULE_CONFIG = RuleConfig()


class RuleId(enum.Enum):
    SENDER_TCP_BUFFER = "sender-tcp-buffer"
    RECEIVER_TCP_BUFFER = "receiver-tcp-buffer"
    NETWORK_LOSS = "network-loss"
    NETWORK_CONGESTION = "network-congestion"
    SENDER_OST_READ = "sender-ost-read"
    RECEIVER_OST_WRITE = "receiver-ost-write"
    SENDER_CLIENT_READ = "sender-client-read"
    RECEIVER_CLIENT_WRITE = "receiver-client-write"
    NORMAL_FALLBACK = "normal-fallback"


RULE_LABELS: dict[RuleId, AnomalyClass] = {
    RuleId.SENDER_TCP_BUFFER: AnomalyClass.SENDER_TCP_BUFFER_MISCONFIG,
    RuleId.RECEIVER_TCP_BUFFER: AnomalyClass.RECEIVER_TCP_BUFFER_MISCONFIG,
    RuleId.NETWORK_LOSS: AnomalyClass.NETWORK_LOSS,
    RuleId.NETWORK_CONGESTION: AnomalyClass.NETWORK_CONGESTION,
    RuleId.SENDER_OST_READ: AnomalyClass.SENDER_OST_READ_CONGESTION,
    RuleId.RECEIVER_OST_WRITE: AnomalyClass.RECEIVER_OST_WRITE_CONGESTION,
    RuleId.SENDER_CLIENT_READ: AnomalyClass.SENDER_CLIENT_READ_CONGESTION,
    RuleId.RECEIVER_CLIENT_WRITE: AnomalyClass.RECEIVER_CLIENT_WRITE_CONGESTION,
    RuleId.NORMAL_FALLBACK: AnomalyClass.NORMAL,
}

# Metrics every rule may touch; all live in the minimal profile.
RULE_OPERANDS: tuple[str, ...] = (
    "sender_tcp_send_buf_max_bytes",
    "receiver_tcp_recv_buf_max_bytes",
    "sender_retransmitted_packets",
    "sender_total_sent_packets",
    "sender_rtt_us",
    "sender_ost_read_bytes_per_s",
    "sender_client_read_bytes_per_s",
    "sender_lnet_nic_rx_bytes_per_s",
    "receiver_ost_write_bytes_per_s",
    "receiver_client_write_bytes_per_s",
    "receiver_lnet_nic_tx_bytes_per_s",
)


@dataclass(frozen=True)
class Diagnosis:
    transfer_id: str
    window_start: int
    window_end: int
    label: AnomalyClass
    fired_rule: RuleId
    evidence: dict[str, tuple[float, float]]  # operand -> (observed, threshold)

    def to_json(self) -> str:
        return json.dumps(
            {
                "transfer_id": self.transfer_id,
                "window": [self.window_start, self.window_end],
                "label": self.label.value,
                "fired_rule": self.fired_rule.value,
                "evidence": {k: list(v) for k, v in self.evidence.items()},
            },
            sort_keys=True,
        )


class MissingMetricError(KeyError):
    """A rule operand is absent from the window rows."""


def aggregate_window(rows: Sequence[dict[str, float]]) -> dict[str, float]:
    """Mean of every metric over the window rows."""
    if not rows:
        raise ValueError("cannot aggregate an empty window")
    names = rows[0].keys()
    return {name: fmean(row[name] for row in rows) for name in names}


def classify(
    rows: Sequence[dict[str, float]],
    baseline: BaselineProfile,
    config: RuleConfig = DEFAULT_RULE_CONFIG,
    transfer_id: str = "",
    window_start: int = 0,
) -> Diagnosis:
    """Label one window of per-second minimal metric rows.

    Evaluates the rules in precedence order on window means and returns the
    first that fires, with the observed-vs-threshold pair for every operand
    the rule inspected.
    """
    if len(rows) < config.window_s:
        raise ValueError(
            f"window has {len(rows)} rows, config requires at least {config.window_s}"
        )
    for name in RULE_OPERANDS:
        if name not in rows[0]:
            raise MissingMetricError(name)

    m = aggregate_window(rows)
    window_end = window_start + len(rows)

    def diag(rule: RuleId, evidence: dict[str, tuple[float, float]]) -> Diagnosis:
        return Diagnosis(
            transfer_id=transfer_id,
            window_start=window_start,
            window_end=window_end,
            label=RULE_LABELS[rule],
            fired_rule=rule,
            evidence=evidence,
        )

    bdp = baseline.bdp_bytes
    buf_threshold = config.kappa_buf * bdp

    # Sender TCP buffer far below the path's bandwidth-delay product.
    send_buf = m["sender_tcp_send_buf_max_bytes"]
    if send_buf < buf_threshold:
        return diag(
            RuleId.SENDER_TCP_BUFFER,
            {"sender_tcp_send_buf_max_bytes": (send_buf, buf_threshold)},
        )

    # Receiver TCP buffer far below BDP.
    recv_buf = m["receiver_tcp_recv_buf_max_bytes"]
    if recv_buf < buf_threshold:
        return diag(
            RuleId.RECEIVER_TCP_BUFFER,
            {"receiver_tcp_recv_buf_max_bytes": (recv_buf, buf_threshold)},
        )

    # Retransmission ratio above the loss floor.
    total_sent = m["sender_total_sent_packets"]
    retx_ratio = m["sender_retransmitted_packets"] / total_sent if total_sent > 0 else 0.0
    if retx_ratio > config.loss_ratio_threshold:
        return diag(
            RuleId.NETWORK_LOSS,
            {"retransmit_ratio": (retx_ratio, config.loss_ratio_threshold)},
        )

    # Inflated RTT plus a clearly reduced write rate.
    rtt = m["sender_rtt_us"]
    rtt_threshold = config.rtt_factor * baseline.normal_rtt_us
    client_write = m["receiver_client_write_bytes_per_s"]
    write_low = config.kappa_low * baseline.mean("receiver_client_write_bytes_per_s")
    if rtt > rtt_threshold and client_write < write_low:
        return diag(
            RuleId.NETWORK_CONGESTION,
            {
                "sender_rtt_us": (rtt, rtt_threshold),
                "receiver_client_write_bytes_per_s": (client_write, write_low),
            },
        )

    # Source OST saturated while the transfer's client reads only part of it.
    ost_read = m["sender_ost_read_bytes_per_s"]
    client_read = m["sender_client_read_bytes_per_s"]
    read_near = config.kappa_near * baseline.disk_read_max
    if ost_read >= read_near and client_read < config.kappa_gap * ost_read:
        return diag(
            RuleId.SENDER_OST_READ,
            {
                "sender_ost_read_bytes_per_s": (ost_read, read_near),
                "sender_client_read_bytes_per_s": (client_read, config.kappa_gap * ost_read),
            },
        )

    # Destination OST saturated while the transfer writes only part of it.
    ost_write = m["receiver_ost_write_bytes_per_s"]
    write_near = config.kappa_near * baseline.disk_write_max
    if ost_write >= write_near and client_write < config.kappa_gap * ost_write:
        return diag(
            RuleId.RECEIVER_OST_WRITE,
            {
                "receiver_ost_write_bytes_per_s": (ost_write, write_near),
                "receiver_client_write_bytes_per_s": (client_write, config.kappa_gap * ost_write),
            },
        )

    # Sender client starved while its Lustre NIC moves more than normal.
    nic_rx = m["sender_lnet_nic_rx_bytes_per_s"]
    read_low = config.kappa_low * baseline.mean("sender_client_read_bytes_per_s")
    nic_rx_high = config.kappa_high * baseline.mean("sender_lnet_nic_rx_bytes_per_s")
    if client_read < read_low and nic_rx > nic_rx_high:
        return diag(
            RuleId.SENDER_CLIENT_READ,
            {
                "sender_client_read_bytes_per_s": (client_read, read_low),
                "sender_lnet_nic_rx_bytes_per_s": (nic_rx, nic_rx_high),
            },
        )

    # Receiver client starved while its Lustre NIC moves more than normal.
    nic_tx = m["receiver_lnet_nic_tx_bytes_per_s"]
    nic_tx_high = config.kappa_high * baseline.mean("receiver_lnet_nic_tx_bytes_per_s")
    if client_write < write_low and nic_tx > nic_tx_high:
        return diag(
            RuleId.RECEIVER_CLIENT_WRITE,
            {
                "receiver_client_write_bytes_per_s": (client_write, write_low),
                "receiver_lnet_nic_tx_bytes_per_s": (nic_tx, nic_tx_high),
            },
        )

    return diag(RuleId.NORMAL_FALLBACK, {})


def classify_run_windows(
    rows: Sequence[dict[str, float]],
    baseline: BaselineProfile,
    config: RuleConfig = DEFAULT_RULE_CONFIG,
    transfer_id: str = "",
) -> list[Diagnosis]:
    """Slide a non-overlapping window over one run's ordered rows."""
    out = []
    w = config.window_s
    for start in range(0, len(rows) - w + 1, w):
        out.append(
            classify(
                rows[start : start + w],
                baseline,
                config,
                transfer_id=transfer_id,
                window_start=start,
            )
        )
    return out
