"""Nearest-centroid baseline classifier.

Stands in for heavier learned models in the cross-network transferability
experiment: fit per-class mean vectors, predict by Euclidean distance, and
break ties by class declaration order. With raw features the hardware scale
of each network dominates the distances; with normal-class normalization the
same centroids transfer across networks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

from ..sim.anomaly import LABEL_CLASSES
from .baseline import RATE_METRICS

# Feature layout shared by raw and normalized modes. In normalized mode the
# retransmission ratio is expressed in percent so it lives on the same order
# of magnitude as the rate ratios, and buffer ratios are clipped: anything at
# or above two BDPs is equally "big enough".
FEATURE_ORDER: tuple[str, ...] = RATE_METRICS + (
    "sender_tcp_send_buf_max_bytes",
    "receiver_tcp_recv_buf_max_bytes",
    "sender_retransmitted_packets",
    "sender_total_sent_packets",
    "sender_rtt_us",
)
BUFFER_RATIO_CLIP = 2.0
RETX_RATIO_SCALE = 100.0

_CLASS_ORDER = {cls.value: i for i, cls in enumerate(LABEL_CLASSES)}


_SEND_BUF_I = FEATURE_ORDER.index("sender_tcp_send_buf_max_bytes")
_RECV_BUF_I = FEATURE_ORDER.index("receiver_tcp_recv_buf_max_bytes")
_RETX_I = FEATURE_ORDER.index("sender_retransmitted_packets")


def feature_vector(row: dict[str, float], normalized: bool) -> list[float]:
    vec = [float(row[name]) for name in FEATURE_ORDER]
    if normalized:
        vec[_SEND_BUF_I] = min(vec[_SEND_BUF_I], BUFFER_RATIO_CLIP)
        vec[_RECV_BUF_I] = min(vec[_RECV_BUF_I], BUFFER_RATIO_CLIP)
        vec[_RETX_I] *= RETX_RATIO_SCALE
    return vec


@dataclass(frozen=True)
class CentroidModel:
    classes: tuple[str, ...]
    centroids: tuple[tuple[float, ...], ...]  # one per class, in FEATURE_ORDER
    normalized: bool


def centroid_fit(
    rows: list[dict[str, float]], labels: list[str], normalized: bool = True
) -> CentroidModel:
    """Per-class mean vectors over the classes present in ``labels``."""
    if len(rows) != len(labels):
        raise ValueError("rows and labels must have equal length")
    if not rows:
        raise ValueError("cannot fit centroids on an empty dataset")
    by_class: dict[str, list[list[float]]] = {}
    for row, label in zip(rows, labels):
        by_class.setdefault(label, []).append(feature_vector(row, normalized))
    classes = tuple(sorted(by_class, key=lambda c: _CLASS_ORDER.get(c, len(_CLASS_ORDER))))
    # Each mean adds its column in row order, then divides by the count: the
    # rounding of an axis-0 array mean. (Python 3.12's sum() compensates,
    # so the addition is spelled out.)
    centroids = tuple(
        tuple(reduce(add, col) / len(col) for col in zip(*by_class[c])) for c in classes
    )
    return CentroidModel(classes=classes, centroids=centroids, normalized=normalized)


def centroid_predict_many(model: CentroidModel, rows: list[dict[str, float]]) -> list[str]:
    """The nearest centroid's class per row. ``index`` finds the first of
    equal distances, so ties go to the earlier class."""
    out = []
    for row in rows:
        vec = feature_vector(row, model.normalized)
        dists = [math.dist(vec, c) for c in model.centroids]
        out.append(model.classes[dists.index(min(dists))])
    return out
