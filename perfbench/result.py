"""What one workload run hands back to the entry point."""
from __future__ import annotations

import math
import resource
from dataclasses import dataclass, field


@dataclass
class Result:
    attempted: int
    failed: int
    problems: list[str]
    # End-to-end metrics under the names BENCHMARK.json gives them.
    e2e: dict[str, float]
    # The same figures under the workload's own names, with units.
    report: list[tuple[str, float, str]] = field(default_factory=list)
    shape: str = ""
    layers: dict[str, float] = field(default_factory=dict)


def nearest_rank(values, q: float) -> float:
    """The smallest sample with at least a share ``q`` of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
