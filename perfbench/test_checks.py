"""The benchmark's output checks trip on tampered outputs.

    python3 -m pytest perfbench/test_checks.py -q
"""
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import diagnose_workload  # noqa: E402
import monitor_workload  # noqa: E402
from tracer import Tracer  # noqa: E402
from xfermon.diagnose import classify_run_windows, fit_baseline_from_dataset, score  # noqa: E402
from xfermon.sim import generate_dataset, get_testbed  # noqa: E402


class TamperingMonitor(monitor_workload.MonitorWorkload):
    """Changes one digit of one persisted value before the read-back."""

    def _read_back(self, session):
        if self.tamper:
            segment = next(session.data_dir.glob("segment-*"))
            text = segment.read_text(encoding="utf-8")
            m = re.search(r'"transfer_throughput_bytes_per_s":(\d)', text)
            digit = str((int(m.group(1)) + 1) % 10)
            segment.write_text(text[: m.start(1)] + digit + text[m.end(1):], encoding="utf-8")
        return super()._read_back(session)


def small_monitor(monkeypatch, tmp_path, tamper: bool):
    monkeypatch.setattr(monitor_workload, "TRANSFERS", 6)
    monkeypatch.setattr(monitor_workload, "MIN_TICKS", 2)
    monkeypatch.setattr(monitor_workload, "SESSION_TICKS", 2)
    workload = TamperingMonitor(7, 0, tmp_path, Tracer(), trace=False)
    workload.tamper = tamper
    return workload.run()


def test_monitor_checks_pass_on_untouched_run(monkeypatch, tmp_path):
    result = small_monitor(monkeypatch, tmp_path, tamper=False)
    assert result.problems == []
    assert result.attempted == 6 * 3 and result.failed == 0


def test_tampered_persisted_value_trips_exact_value_check(monkeypatch, tmp_path):
    result = small_monitor(monkeypatch, tmp_path, tamper=True)
    assert any(p.startswith("session 0: QUERY: 1 rows differ") for p in result.problems), result.problems
    assert any(p.startswith("session 0: export: 1 rows differ") for p in result.problems), result.problems


def diagnosed_batch():
    tb = get_testbed("tb3")
    rows, _ = generate_dataset([tb], 1, 5)
    baseline = fit_baseline_from_dataset(rows, tb.id)
    by_run = {}
    for r in rows:
        by_run.setdefault(r.transfer_id, []).append(r)
    workload = diagnose_workload.DiagnoseWorkload(5, 0, None, Tracer(), trace=False)
    preds, truths = [], []
    for tid, rs in sorted(by_run.items()):
        diags = classify_run_windows([r.metrics for r in rs], baseline, workload.config, transfer_id=tid)
        preds += [d.label.value for d in diags]
        truths += [rs[0].label] * len(diags)
    return workload, tb, by_run, baseline, preds, truths, score(preds, truths)


def test_diagnose_checks_pass_on_untouched_batch():
    workload, tb, by_run, baseline, preds, truths, report = diagnosed_batch()
    assert workload._check(tb, by_run, baseline, preds, truths, report) == []


def test_tampered_predicted_label_trips_label_checks():
    workload, tb, by_run, baseline, preds, truths, report = diagnosed_batch()
    tampered = list(preds)
    tampered[0] = "network_loss" if preds[0] != "network_loss" else "normal"
    problems = workload._check(tb, by_run, baseline, tampered, truths, report)
    assert any("recomputed, score() says" in p for p in problems), problems
    assert any(p.startswith("normalized labels differ from raw at 1 windows") for p in problems), problems
