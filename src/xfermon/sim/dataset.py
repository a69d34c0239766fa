"""Labeled dataset generation for classifier development and evaluation.

One dataset row is the minimal metric set of one transfer at one second,
tagged with the run's ground-truth class. Non-normal runs are calibrated so
their mean throughput lands 20-80% below the testbed's normal mean; a
manifest alongside the NDJSON file records the seeds and anomaly specs
needed to reproduce the runs exactly.
"""
from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable

import orjson

from .anomaly import (
    LABEL_CLASSES,
    AnomalyClass,
    AnomalySpec,
    feasible_drop_range,
    spec_for_target_drop,
)
from .engine import Engine, SimRun, TransferJob, minimal_row
from .testbed import TestbedSpec

DEFAULT_RUN_DURATION_S = 60


@dataclass(frozen=True)
class DatasetRow:
    testbed_id: str
    transfer_id: str
    t: int
    label: str
    metrics: dict[str, float]

    def to_json(self) -> bytes:
        """One compact NDJSON line with sorted keys, newline included."""
        return orjson.dumps(
            {
                "testbed_id": self.testbed_id,
                "transfer_id": self.transfer_id,
                "t": self.t,
                "label": self.label,
                "metrics": self.metrics,
            },
            option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE,
        )


def _run_seed(seed: int, tb_id: str, cls: AnomalyClass, run_idx: int) -> int:
    # Stable arithmetic mix; avoids Python's per-process string hashing.
    h = seed & 0xFFFFFFFF
    for token in (tb_id, cls.value, str(run_idx)):
        for ch in token:
            h = (h * 1_000_003 + ord(ch)) & 0xFFFFFFFFFFFF
    return h


def build_run(
    tb: TestbedSpec,
    cls: AnomalyClass,
    run_idx: int,
    seed: int,
    duration_s: int = DEFAULT_RUN_DURATION_S,
) -> tuple[SimRun, AnomalySpec | None]:
    """One labeled single-fault run; severity drawn from the feasible band."""
    run_seed = _run_seed(seed, tb.id, cls, run_idx)
    rng = random.Random(run_seed)
    transfer_id = f"{tb.id}-{cls.value}-r{run_idx:03d}"
    # Oversized job so the transfer never completes inside the run window.
    job = TransferJob(
        transfer_id=transfer_id,
        file_count=64,
        file_size_bytes=1 << 34,
        source_ost_index=rng.randrange(tb.oss_count_per_side),
        dest_ost_index=rng.randrange(tb.oss_count_per_side),
    )
    anomaly = None
    if cls is not AnomalyClass.NORMAL:
        lo, hi = feasible_drop_range(tb, cls)
        target = rng.uniform(lo, hi)
        anomaly = spec_for_target_drop(tb, cls, target, start_s=0, end_s=duration_s)
    run = SimRun(
        testbed=tb,
        jobs=(job,),
        anomalies=(anomaly,) if anomaly else (),
        seed=run_seed,
        duration_s=duration_s,
    )
    return run, anomaly


def run_rows(run: SimRun, label: AnomalyClass) -> list[DatasetRow]:
    """Simulate a run and emit one labeled row per (transfer, second)."""
    engine = Engine(run)
    sender = run.testbed.host_id("sender")
    rows: list[DatasetRow] = []
    for snapshot in engine.run_all():
        transfers = snapshot.hosts[sender]["transfers"]
        for job in run.jobs:
            if job.transfer_id in transfers:
                rows.append(
                    DatasetRow(
                        testbed_id=run.testbed.id,
                        transfer_id=job.transfer_id,
                        t=snapshot.t,
                        label=label.value,
                        metrics=minimal_row(snapshot, job.transfer_id, run.testbed),
                    )
                )
    return rows


def generate_dataset(
    testbeds: Iterable[TestbedSpec],
    runs_per_class: int,
    seed: int,
    classes: tuple[AnomalyClass, ...] = LABEL_CLASSES,
    duration_s: int = DEFAULT_RUN_DURATION_S,
) -> tuple[list[DatasetRow], dict]:
    """Rows plus a manifest for (testbeds x classes x runs_per_class) runs."""
    if runs_per_class < 1:
        raise ValueError("runs_per_class must be >= 1")
    rows: list[DatasetRow] = []
    manifest_runs = []
    for tb in testbeds:
        for cls in classes:
            for run_idx in range(runs_per_class):
                run, anomaly = build_run(tb, cls, run_idx, seed, duration_s)
                rows.extend(run_rows(run, cls))
                manifest_runs.append(
                    {
                        "testbed_id": tb.id,
                        "transfer_id": run.jobs[0].transfer_id,
                        "label": cls.value,
                        "seed": run.seed,
                        "duration_s": duration_s,
                        "anomaly": _anomaly_manifest(anomaly),
                    }
                )
    manifest = {
        "kind": "labeled-dataset",
        "seed": seed,
        "runs_per_class": runs_per_class,
        "classes": [c.value for c in classes],
        "testbeds": [tb.id for tb in testbeds],
        "duration_s": duration_s,
        "row_count": len(rows),
        "runs": manifest_runs,
    }
    return rows, manifest


def _anomaly_manifest(anomaly: AnomalySpec | None) -> dict | None:
    if anomaly is None:
        return None
    d = asdict(anomaly)
    d["cls"] = anomaly.cls.value
    return d


def write_ndjson(rows: Iterable[DatasetRow], path: str | Path) -> int:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with path.open("wb") as fh:
        for row in rows:
            fh.write(row.to_json())
            n += 1
    return n


def load_ndjson(path: str | Path) -> list[DatasetRow]:
    rows = []
    with Path(path).open("rb") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = orjson.loads(line)
                rows.append(
                    DatasetRow(
                        testbed_id=obj["testbed_id"],
                        transfer_id=obj["transfer_id"],
                        t=int(obj["t"]),
                        label=obj["label"],
                        metrics={k: float(v) for k, v in obj["metrics"].items()},
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: bad dataset record: {exc}") from exc
    return rows
