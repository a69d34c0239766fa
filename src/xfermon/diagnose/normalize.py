"""Normal-class feature normalization.

Dividing each metric by its value in the normal class strips hardware scale
from the features, which is what lets a model fitted on one network carry
over to another. Rates divide by their baseline mean, buffer sizes divide by
the bandwidth-delay product, and the retransmission and RTT figures become
ratios outright.
"""
from __future__ import annotations

from typing import Iterable

from ..metrics.catalog import MINIMAL_NAMES
from .baseline import RATE_METRICS, BaselineProfile

BUFFER_METRICS = ("sender_tcp_send_buf_max_bytes", "receiver_tcp_recv_buf_max_bytes")


def normalize_row(row: dict[str, float], baseline: BaselineProfile) -> dict[str, float]:
    """One row of minimal metrics -> dimensionless ratios against normal.

    Both packet counters divide by the baseline mean of total-sent (the
    retransmit counter's own normal mean is zero), so the retransmission
    ratio passes through normalization untouched. The RTT becomes a ratio
    against the normal RTT. The map is exactly idempotent under a baseline
    refitted on normalized normal rows.
    """
    out: dict[str, float] = {}
    for name in RATE_METRICS:
        mean = baseline.mean(name)
        if mean <= 0:
            raise ValueError(f"baseline mean for {name} is zero; cannot normalize")
        out[name] = row[name] / mean
    for name in BUFFER_METRICS:
        if baseline.bdp_bytes <= 0:
            raise ValueError("baseline BDP is zero; cannot normalize buffer sizes")
        out[name] = row[name] / baseline.bdp_bytes
    mean_total = baseline.mean("sender_total_sent_packets")
    if mean_total <= 0:
        raise ValueError("baseline mean for sender_total_sent_packets is zero; cannot normalize")
    out["sender_retransmitted_packets"] = row["sender_retransmitted_packets"] / mean_total
    out["sender_total_sent_packets"] = row["sender_total_sent_packets"] / mean_total
    if baseline.normal_rtt_us <= 0:
        raise ValueError("baseline RTT is zero; cannot normalize")
    out["sender_rtt_us"] = row["sender_rtt_us"] / baseline.normal_rtt_us
    assert set(out) == set(MINIMAL_NAMES)
    return out


def normalize_rows(
    rows: Iterable[dict[str, float]], baseline: BaselineProfile
) -> list[dict[str, float]]:
    return [normalize_row(r, baseline) for r in rows]


def unit_baseline(raw: BaselineProfile) -> BaselineProfile:
    """The baseline that matches rows normalized against ``raw``.

    Rate means become 1.0, the RTT reference and BDP become 1.0, and the
    disk ceilings keep their ratio to the corresponding mean, so the rule
    engine reaches identical verdicts on normalized rows.
    """
    return BaselineProfile(
        testbed_id=raw.testbed_id,
        means={name: 1.0 for name in MINIMAL_NAMES},
        stds={name: 0.0 for name in MINIMAL_NAMES},
        normal_rtt_us=1.0,
        normal_throughput=1.0,
        disk_read_max=raw.disk_read_max / raw.mean("sender_ost_read_bytes_per_s"),
        disk_write_max=raw.disk_write_max / raw.mean("receiver_ost_write_bytes_per_s"),
        bdp_bytes=1.0,
        run_count=raw.run_count,
        row_count=raw.row_count,
    )
