"""Per-testbed baseline statistics fitted from anomaly-free transfers.

A baseline is the only piece of network-specific knowledge the rule engine
and the feature normalizer need: per-metric means and standard deviations,
the normal round-trip time, observed disk ceilings, and a bandwidth-delay
product estimated from what normal transfers actually achieve. Nothing here
reads hardware specifications, so a baseline can be fitted on any network
from one batch of normal samples.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..metrics.catalog import MINIMAL_NAMES

RATE_METRICS: tuple[str, ...] = tuple(
    n for n in MINIMAL_NAMES if n.endswith("_bytes_per_s")
)


@dataclass(frozen=True)
class BaselineProfile:
    testbed_id: str
    means: dict[str, float]
    stds: dict[str, float]
    normal_rtt_us: float
    normal_throughput: float
    disk_read_max: float
    disk_write_max: float
    bdp_bytes: float
    run_count: int = 0
    row_count: int = 0

    def mean(self, name: str) -> float:
        return self.means[name]

    def to_json(self) -> str:
        return json.dumps(
            {
                "testbed_id": self.testbed_id,
                "means": self.means,
                "stds": self.stds,
                "normal_rtt_us": self.normal_rtt_us,
                "normal_throughput": self.normal_throughput,
                "disk_read_max": self.disk_read_max,
                "disk_write_max": self.disk_write_max,
                "bdp_bytes": self.bdp_bytes,
                "run_count": self.run_count,
                "row_count": self.row_count,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "BaselineProfile":
        obj = json.loads(text)
        return cls(
            testbed_id=obj["testbed_id"],
            means={k: float(v) for k, v in obj["means"].items()},
            stds={k: float(v) for k, v in obj["stds"].items()},
            normal_rtt_us=float(obj["normal_rtt_us"]),
            normal_throughput=float(obj["normal_throughput"]),
            disk_read_max=float(obj["disk_read_max"]),
            disk_write_max=float(obj["disk_write_max"]),
            bdp_bytes=float(obj["bdp_bytes"]),
            run_count=int(obj.get("run_count", 0)),
            row_count=int(obj.get("row_count", 0)),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "BaselineProfile":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))


@dataclass
class _Welford:
    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    @property
    def std(self) -> float:
        return math.sqrt(self.m2 / self.n) if self.n else 0.0


def fit_baseline(
    rows: Iterable[dict[str, float]],
    testbed_id: str,
    transfer_ids: Iterable[str] | None = None,
    rtt_to_seconds: float = 1e-6,
) -> BaselineProfile:
    """Fit a baseline from normal-class per-second metric rows.

    ``rows`` are minimal metric dicts; callers filter to the normal label
    before handing them in. Raises ValueError on an empty input.

    ``rtt_to_seconds`` converts the RTT field for the BDP estimate; it is
    1e-6 for raw microsecond rows and 1.0 when refitting on normalized rows
    whose RTT field is already a dimensionless ratio.
    """
    stats: dict[str, _Welford] = {name: _Welford() for name in MINIMAL_NAMES}
    disk_read_max = 0.0
    disk_write_max = 0.0
    count = 0
    for row in rows:
        count += 1
        for name in MINIMAL_NAMES:
            stats[name].add(row[name])
        disk_read_max = max(disk_read_max, row["sender_ost_read_bytes_per_s"])
        disk_write_max = max(disk_write_max, row["receiver_ost_write_bytes_per_s"])
    if count == 0:
        raise ValueError(f"no normal rows to fit a baseline for {testbed_id}")

    means = {name: stats[name].mean for name in MINIMAL_NAMES}
    stds = {name: stats[name].std for name in MINIMAL_NAMES}
    normal_rtt = means["sender_rtt_us"]
    throughput = means["transfer_throughput_bytes_per_s"]
    run_count = len(set(transfer_ids)) if transfer_ids is not None else 0
    return BaselineProfile(
        testbed_id=testbed_id,
        means=means,
        stds=stds,
        normal_rtt_us=normal_rtt,
        normal_throughput=throughput,
        disk_read_max=disk_read_max,
        disk_write_max=disk_write_max,
        bdp_bytes=throughput * normal_rtt * rtt_to_seconds,
        run_count=run_count,
        row_count=count,
    )


def fit_baseline_from_dataset(rows, testbed_id: str, normal_label: str = "normal") -> BaselineProfile:
    """Convenience wrapper over DatasetRow lists."""
    picked = [r for r in rows if r.testbed_id == testbed_id and r.label == normal_label]
    return fit_baseline(
        (r.metrics for r in picked),
        testbed_id,
        transfer_ids=(r.transfer_id for r in picked),
    )
