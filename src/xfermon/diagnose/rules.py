"""Rule engine for bottleneck root-cause classification.

Rules are rows of one ordered table, ``RULES``, evaluated over window means of
the rule operands: configuration faults (TCP buffer below BDP) first, then
loss, network congestion, and the four I/O contention patterns; if nothing
fires the window is normal. Every threshold is a ratio against the baseline, so
classifying raw rows against a raw baseline and normalized rows against a
unit baseline gives the same label.

Threshold constants operationalize the qualitative comparisons the
conditions are built from: "much smaller than BDP" becomes < kappa_buf x
BDP, "close to the disk ceiling" becomes >= kappa_near x observed maximum,
and so on. They are the fields of ``RuleConfig``; ``xfermon diagnose`` takes
them from its ``--config`` file and ``XFERMON_<FIELD>`` environment keys.
"""
from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from math import fsum
from operator import ge, gt, lt
from typing import Callable, Sequence

from ..sim.anomaly import AnomalyClass
from .baseline import BaselineProfile


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

    def __post_init__(self) -> None:
        if self.window_s < 1:
            raise ValueError("window_s must be >= 1")


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
    evidence: dict[str, tuple[float, float]]  # clause quantity -> (observed, threshold)

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


# A clause holds when comparison(m[quantity], threshold(m, baseline, config)).
Threshold = Callable[[dict[str, float], BaselineProfile, RuleConfig], float]
Clause = tuple[str, Callable[[float, float], bool], Threshold]

# (rule, label, clauses) in precedence order; a rule fires when all of its
# clauses hold. ``retransmit_ratio`` is the only quantity that is not a mean
# of one operand.
RULES: tuple[tuple[RuleId, AnomalyClass, tuple[Clause, ...]], ...] = (
    # Sender TCP buffer far below the path's bandwidth-delay product.
    (RuleId.SENDER_TCP_BUFFER, AnomalyClass.SENDER_TCP_BUFFER_MISCONFIG, (
        ("sender_tcp_send_buf_max_bytes", lt, lambda m, b, c: c.kappa_buf * b.bdp_bytes),
    )),
    # Receiver TCP buffer far below BDP.
    (RuleId.RECEIVER_TCP_BUFFER, AnomalyClass.RECEIVER_TCP_BUFFER_MISCONFIG, (
        ("receiver_tcp_recv_buf_max_bytes", lt, lambda m, b, c: c.kappa_buf * b.bdp_bytes),
    )),
    # Retransmission ratio above the loss floor.
    (RuleId.NETWORK_LOSS, AnomalyClass.NETWORK_LOSS, (
        ("retransmit_ratio", gt, lambda m, b, c: c.loss_ratio_threshold),
    )),
    # Inflated RTT plus a clearly reduced write rate.
    (RuleId.NETWORK_CONGESTION, AnomalyClass.NETWORK_CONGESTION, (
        ("sender_rtt_us", gt, lambda m, b, c: c.rtt_factor * b.normal_rtt_us),
        ("receiver_client_write_bytes_per_s", lt,
         lambda m, b, c: c.kappa_low * b.mean("receiver_client_write_bytes_per_s")),
    )),
    # Source OST saturated while the transfer's client reads only part of it.
    (RuleId.SENDER_OST_READ, AnomalyClass.SENDER_OST_READ_CONGESTION, (
        ("sender_ost_read_bytes_per_s", ge, lambda m, b, c: c.kappa_near * b.disk_read_max),
        ("sender_client_read_bytes_per_s", lt,
         lambda m, b, c: c.kappa_gap * m["sender_ost_read_bytes_per_s"]),
    )),
    # Destination OST saturated while the transfer writes only part of it.
    (RuleId.RECEIVER_OST_WRITE, AnomalyClass.RECEIVER_OST_WRITE_CONGESTION, (
        ("receiver_ost_write_bytes_per_s", ge, lambda m, b, c: c.kappa_near * b.disk_write_max),
        ("receiver_client_write_bytes_per_s", lt,
         lambda m, b, c: c.kappa_gap * m["receiver_ost_write_bytes_per_s"]),
    )),
    # Sender client starved while its Lustre NIC moves more than normal.
    (RuleId.SENDER_CLIENT_READ, AnomalyClass.SENDER_CLIENT_READ_CONGESTION, (
        ("sender_client_read_bytes_per_s", lt,
         lambda m, b, c: c.kappa_low * b.mean("sender_client_read_bytes_per_s")),
        ("sender_lnet_nic_rx_bytes_per_s", gt,
         lambda m, b, c: c.kappa_high * b.mean("sender_lnet_nic_rx_bytes_per_s")),
    )),
    # Receiver client starved while its Lustre NIC moves more than normal.
    (RuleId.RECEIVER_CLIENT_WRITE, AnomalyClass.RECEIVER_CLIENT_WRITE_CONGESTION, (
        ("receiver_client_write_bytes_per_s", lt,
         lambda m, b, c: c.kappa_low * b.mean("receiver_client_write_bytes_per_s")),
        ("receiver_lnet_nic_tx_bytes_per_s", gt,
         lambda m, b, c: c.kappa_high * b.mean("receiver_lnet_nic_tx_bytes_per_s")),
    )),
)


def classify(
    rows: Sequence[dict[str, float]],
    baseline: BaselineProfile,
    config: RuleConfig = DEFAULT_RULE_CONFIG,
    transfer_id: str = "",
    window_start: int = 0,
) -> Diagnosis:
    """Label one window of per-second minimal metric rows.

    Evaluates ``RULES`` in precedence order on window means and returns the
    first that fires, with the observed-vs-threshold pair for every clause
    of that rule.
    """
    if len(rows) < config.window_s:
        raise ValueError(
            f"window has {len(rows)} rows, config requires at least {config.window_s}"
        )
    for name in RULE_OPERANDS:
        if name not in rows[0]:
            raise MissingMetricError(name)

    window_end = window_start + len(rows)
    # Exact summation: rules compare means against thresholds and the evidence
    # carries them bit for bit, so a faster sum that rounds differently could
    # flip a label that sits on a threshold.
    m = {name: fsum([row[name] for row in rows]) / len(rows) for name in RULE_OPERANDS}
    total_sent = m["sender_total_sent_packets"]
    m["retransmit_ratio"] = m["sender_retransmitted_packets"] / total_sent if total_sent > 0 else 0.0

    for rule, label, clauses in RULES:
        evidence: dict[str, tuple[float, float]] = {}
        for quantity, holds, threshold in clauses:
            observed, bound = m[quantity], threshold(m, baseline, config)
            if not holds(observed, bound):
                break
            evidence[quantity] = (observed, bound)
        else:
            return Diagnosis(transfer_id, window_start, window_end, label, rule, evidence)
    return Diagnosis(
        transfer_id, window_start, window_end, AnomalyClass.NORMAL, RuleId.NORMAL_FALLBACK, {}
    )


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
