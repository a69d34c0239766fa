"""Batch diagnosis: gen -> write -> load -> diagnose -> score, per testbed.

One batch is one testbed's labeled dataset, one run per class for all nine
classes, made the way ``xfermon gen`` makes it, written to NDJSON and read
back, then diagnosed and scored the way ``xfermon diagnose`` and ``xfermon
score`` do. A pass is one batch on each of the eight testbeds, each pass with
its own dataset seed. The run makes whole passes until ``seconds`` have gone
by and at least MIN_BATCHES batches are done.
"""
from __future__ import annotations

import statistics
import time
from collections import defaultdict

from xfermon.diagnose import (
    RuleConfig,
    classify_run_windows,
    fit_baseline_from_dataset,
    normalize_rows,
    score,
    unit_baseline,
)
from xfermon.sim import DROP_BAND, Engine, builtin_testbeds, generate_dataset, load_ndjson, write_ndjson

from checks import check_drop_band, check_macro_f1, check_same_labels, check_window_totals
from result import Result, nearest_rank, peak_rss_mb
from tracer import per_call

RUNS_PER_CLASS = 1
# A batch is one sample of diagnosis latency; p90 needs ten beyond it.
MIN_BATCHES = 100


def pass_seed(seed: int, index: int) -> int:
    return (seed & 0xFFFFFFFF) * 1_000_003 + index


class DiagnoseWorkload:
    def __init__(self, seed: int, seconds: float, workdir, tracer, trace: bool):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.tracer = tracer
        self.trace = trace
        self.testbeds = list(builtin_testbeds().values())
        self.config = RuleConfig()
        if trace:
            tracer.patch(Engine, "step", "sim.engine_step")

    def run(self) -> Result:
        span = self.tracer.span
        path = self.workdir / "dataset.ndjson"
        latencies, traced_flags, batch_cpu, batch_rows = [], [], [], []
        gen_rates, load_rates, windows = [], [], []
        problems: list[str] = []
        started = time.perf_counter()
        passes = 0
        while len(latencies) < MIN_BATCHES or time.perf_counter() - started < self.seconds:
            for tb in self.testbeds:
                traced = self.trace and len(latencies) % 2 == 1
                self.tracer.enabled = traced
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                with span("sim.generate"):
                    rows, _ = generate_dataset([tb], RUNS_PER_CLASS, pass_seed(self.seed, passes))
                with span("sim.write_ndjson", len(rows)):
                    write_ndjson(rows, path)
                t1 = time.perf_counter()
                with span("diagnose.load") as slot:
                    rows = load_ndjson(path)
                    slot[0] = len(rows)
                t2 = time.perf_counter()
                with span("diagnose.fit_baseline"):
                    baseline = fit_baseline_from_dataset(rows, tb.id)
                by_run = defaultdict(list)
                for r in rows:
                    by_run[r.transfer_id].append(r)
                preds, truths = [], []
                for tid, rs in sorted(by_run.items()):
                    rs.sort(key=lambda r: r.t)
                    with span("diagnose.classify") as slot:
                        diags = classify_run_windows(
                            [r.metrics for r in rs], baseline, self.config, transfer_id=tid
                        )
                        slot[0] = len(diags)
                    preds += [d.label.value for d in diags]
                    truths += [rs[0].label] * len(diags)
                with span("diagnose.score"):
                    report = score(preds, truths)
                t3 = time.perf_counter()
                cpu = time.process_time() - cpu0
                self.tracer.enabled = False

                latencies.append(t3 - t2)
                traced_flags.append(traced)
                batch_cpu.append(cpu)
                batch_rows.append(len(rows))
                gen_rates.append(len(rows) / (t1 - t0))
                load_rates.append(len(rows) / (t2 - t1))
                windows.append(len(preds))
                problems += self._check(tb, by_run, baseline, preds, truths, report)
            passes += 1
        rss = peak_rss_mb()

        result = Result(
            attempted=len(latencies),
            failed=0,
            problems=problems,
            e2e={
                "latency_p50_ms": 1e3 * nearest_rank(latencies, 0.50),
                "latency_p90_ms": 1e3 * nearest_rank(latencies, 0.90),
                "cpu_ms_per_1k_rows": 1e6 * statistics.median(
                    c / n for c, n in zip(batch_cpu, batch_rows)
                ),
                "read_rows_per_s": statistics.median(load_rates),
                "write_rows_per_s": statistics.median(gen_rates),
                "peak_rss_mb": rss,
            },
        )
        result.report = [
            ("diagnose_windows_per_s", statistics.median(
                n / t for n, t in zip(windows, latencies)), "windows/s"),
            ("gen_rows_per_s", result.e2e["write_rows_per_s"], "rows/s"),
            ("load_rows_per_s", result.e2e["read_rows_per_s"], "rows/s"),
            ("batch_diagnose_p50_ms", result.e2e["latency_p50_ms"], "ms"),
            ("batch_diagnose_p90_ms", result.e2e["latency_p90_ms"], "ms"),
            ("cpu_ms_per_1k_rows", result.e2e["cpu_ms_per_1k_rows"], "ms"),
            ("peak_rss_mb", rss, "MB"),
        ]
        result.shape = (
            f"{len(self.testbeds)} testbeds x 9 classes x {RUNS_PER_CLASS} run per pass, "
            f"{passes} passes, {len(latencies)} batches, {sum(batch_rows)} rows, "
            f"{sum(windows)} windows"
        )
        if self.trace:
            result.layers = self._layer_metrics(latencies, traced_flags, batch_cpu, batch_rows)
        return result

    def _check(self, tb, by_run, baseline, preds, truths, report) -> list[str]:
        runs = sorted(by_run.items())
        problems = check_window_totals([len(rs) for _, rs in runs], self.config.window_s, report)
        unit = unit_baseline(baseline)
        normalized = []
        for tid, rs in runs:
            normalized += [
                d.label.value
                for d in classify_run_windows(
                    normalize_rows([r.metrics for r in rs], baseline), unit, self.config,
                    transfer_id=tid,
                )
            ]
        problems += check_same_labels(preds, normalized)
        means = {
            tid: statistics.fmean(r.metrics["transfer_throughput_bytes_per_s"] for r in rs)
            for tid, rs in runs
        }
        problems += check_drop_band(means, {tid: rs[0].label for tid, rs in runs}, DROP_BAND)
        problems += check_macro_f1(preds, truths, report, tb.id)
        return problems

    def _layer_metrics(self, latencies, traced_flags, batch_cpu, batch_rows) -> dict:
        s = self.tracer.summary()

        def pick(values, flag):
            return [v for v, f in zip(values, traced_flags) if f == flag]

        def cpu_per_1k(flag):
            return 1e6 * sum(pick(batch_cpu, flag)) / sum(pick(batch_rows, flag))

        return {
            "sim.engine_step_us": per_call(s, "sim.engine_step", 1e6),
            "sim.write_ndjson_us_per_row": per_call(s, "sim.write_ndjson", 1e6, per_item=True),
            "diagnose.load_us_per_row": per_call(s, "diagnose.load", 1e6, per_item=True),
            "diagnose.fit_baseline_ms": per_call(s, "diagnose.fit_baseline", 1e3),
            "diagnose.classify_us_per_window": per_call(s, "diagnose.classify", 1e6, per_item=True),
            "diagnose.score_ms": per_call(s, "diagnose.score", 1e3),
            **self.tracer.layer_metrics(),
            "trace.overhead_latency_p50_ms": 1e3 * (
                statistics.median(pick(latencies, True)) - statistics.median(pick(latencies, False))
            ),
            "trace.overhead_cpu_ms_per_1k_rows": cpu_per_1k(True) - cpu_per_1k(False),
        }
