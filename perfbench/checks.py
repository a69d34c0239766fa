"""Output checks, computed apart from the code path they check.

Each check returns a list of problems; an empty list means it passed.
Persisted values are compared bit for bit through ``row_digest``, which
packs a row's floats in catalog order and hashes the bytes.
"""
from __future__ import annotations

import hashlib
import struct
from collections import Counter

F1_FLOOR = 0.87  # the paper's lower bound on per-testbed macro-F1


def row_digest(values: dict, names: tuple[str, ...]) -> bytes:
    packed = struct.pack(f">{len(names)}d", *(values[name] for name in names))
    return hashlib.blake2b(packed, digest_size=16).digest()


def _first(keys) -> str:
    return ", ".join(map(str, sorted(keys)[:3]))


# ----------------------------------------------------------------------
# monitor
# ----------------------------------------------------------------------

def check_counts(expected: dict, attempted: int, store_count: int,
                 dropped: int, gaps: int, transfers: int, ticks: int) -> list[str]:
    """Every (transfer, tick) the simulator made active persisted once."""
    problems = []
    if not (len(expected) == attempted == store_count == transfers * ticks):
        problems.append(
            f"counts disagree: simulator-active {len(expected)}, attempted {attempted}, "
            f"stored {store_count}, transfers x ticks {transfers * ticks}"
        )
    if dropped or gaps:
        problems.append(f"publisher dropped {dropped} envelopes, agent recorded {gaps} gaps")
    return problems


def check_exact(expected: dict, got: dict, path: str) -> list[str]:
    """``got`` (key -> digest) holds exactly the expected rows, bit for bit."""
    problems = []
    missing = expected.keys() - got.keys()
    extra = got.keys() - expected.keys()
    wrong = [k for k in expected.keys() & got.keys() if expected[k] != got[k]]
    if missing:
        problems.append(f"{path}: {len(missing)} rows missing, e.g. {_first(missing)}")
    if extra:
        problems.append(f"{path}: {len(extra)} rows not made by the simulator, e.g. {_first(extra)}")
    if wrong:
        problems.append(f"{path}: {len(wrong)} rows differ from the simulator, e.g. {_first(wrong)}")
    return problems


def check_unique(keys: list, path: str) -> list[str]:
    dupes = [k for k, n in Counter(keys).items() if n > 1]
    return [f"{path}: {len(dupes)} rows repeated, e.g. {_first(dupes)}"] if dupes else []


def check_capacity(tick_sums: dict, ost_sums: dict, tb) -> list[str]:
    """Summed throughput per tick within the WAN and Lustre NIC capacity,
    and per (tick, side, OST) within that OST's disk capacity."""
    problems = []
    path_cap = min(tb.wan_bandwidth_bytes_per_s, tb.lnet_nic_bytes_per_s)
    over = [t for t, total in tick_sums.items() if total > path_cap]
    if over:
        problems.append(f"throughput above WAN/NIC capacity {path_cap:.4g} at ticks {_first(over)}")
    disk = {"sender": tb.per_ost_disk_read_bytes_per_s, "receiver": tb.per_ost_disk_write_bytes_per_s}
    over = [k for k, total in ost_sums.items() if total > disk[k[1]]]
    if over:
        problems.append(f"OST throughput above disk capacity at {_first(over)}")
    return problems


# ----------------------------------------------------------------------
# diagnose
# ----------------------------------------------------------------------

def check_window_totals(run_lengths: list[int], window_s: int, report) -> list[str]:
    derived = sum(n // window_s for n in run_lengths)
    confusion = sum(sum(row.values()) for row in report.confusion.values())
    if derived == report.total == confusion:
        return []
    return [f"window totals disagree: rows give {derived}, report.total {report.total}, "
            f"confusion sum {confusion}"]


def check_same_labels(raw: list[str], normalized: list[str]) -> list[str]:
    diff = [i for i, (a, b) in enumerate(zip(raw, normalized)) if a != b]
    if len(raw) != len(normalized) or diff:
        return [f"normalized labels differ from raw at {len(diff)} windows "
                f"({len(raw)} raw, {len(normalized)} normalized)"]
    return []


def check_drop_band(run_means: dict, labels: dict, band: tuple[float, float]) -> list[str]:
    """Each anomalous run's mean throughput lies ``band`` below normal."""
    normal = [m for tid, m in run_means.items() if labels[tid] == "normal"]
    if not normal:
        return ["no normal run to compare drops against"]
    normal_mean = sum(normal) / len(normal)
    lo, hi = band
    out = [tid for tid, m in run_means.items()
           if labels[tid] != "normal" and not lo <= 1.0 - m / normal_mean <= hi]
    return [f"{len(out)} runs outside the drop band {band}: {_first(out)}"] if out else []


def macro_f1(preds: list[str], truths: list[str]) -> float:
    """Macro-F1 over the classes present in the truths."""
    classes = sorted(set(truths))
    f1s = []
    for c in classes:
        tp = sum(1 for p, t in zip(preds, truths) if p == c and t == c)
        fp = sum(1 for p, t in zip(preds, truths) if p == c and t != c)
        fn = sum(1 for p, t in zip(preds, truths) if p != c and t == c)
        f1s.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return sum(f1s) / len(f1s)


def check_macro_f1(preds: list[str], truths: list[str], report, testbed: str) -> list[str]:
    ours = macro_f1(preds, truths)
    problems = []
    if abs(ours - report.macro_f1) > 1e-12:
        problems.append(f"{testbed}: macro-F1 {ours:.6f} recomputed, score() says {report.macro_f1:.6f}")
    if ours < F1_FLOOR:
        problems.append(f"{testbed}: macro-F1 {ours:.4f} below {F1_FLOOR}")
    return problems
