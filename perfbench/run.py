"""xfermon benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload monitor-minimal --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; xfermon is imported from ``src``.
Workloads: monitor-minimal and diagnose (see README.md). With
``--trace 0`` the last line of standard output carries the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics from
spans recorded around xfermon calls, and the spans go to
``perfbench/.work/trace-<workload>.jsonl``. Exit status is 0 when the run
finished, whether or not its output checks passed ("correct").
"""
import time

_STARTED = time.perf_counter()
_CPU_BEFORE_MAIN = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
WORKLOADS = ("monitor-minimal", "diagnose")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_xfermon():
    """xfermon from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import xfermon

    if not Path(xfermon.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"xfermon imported from {xfermon.__file__}, not from {src}")


def build(args, workdir, tracer):
    trace = bool(args.trace)
    if args.workload == "diagnose":
        from diagnose_workload import DiagnoseWorkload

        return DiagnoseWorkload(args.seed, args.seconds, workdir, tracer, trace)
    from monitor_workload import MonitorWorkload

    return MonitorWorkload(args.seed, args.seconds, workdir, tracer, trace)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import_xfermon()
    from tracer import Tracer

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer()
    # One CPU: xfermon's threads share the GIL, so a second CPU adds little,
    # while handing work to a thread on another virtual CPU waits on the
    # host's scheduler and made tick latency tails erratic.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        workload = build(args, workdir, tracer)
        # Cold set-up, from process start: the interpreter's start-up shows
        # as CPU time spent before this module's first line.
        setup_s = _CPU_BEFORE_MAIN + time.perf_counter() - _STARTED
        result = workload.run()
    finally:
        tracer.enabled = False
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    measured = dict(result.e2e, setup_s=setup_s)
    if args.trace:
        tracer.write(WORK_DIR / f"trace-{args.workload}.jsonl")
        # A layer the workload never calls reports 0.
        chosen = {m["name"]: (result.layers.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
        unknown = set(result.layers) - set(chosen)
        if unknown:
            raise SystemExit(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    else:
        chosen = {m["name"]: (measured[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  {result.shape}")
    for name, value, unit in [("setup_s", setup_s, "s")] + result.report:
        print(f"  {name:<34} {value:14.4f} {unit}")
    for problem in result.problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  attempted {result.attempted}  failed {result.failed}  "
          f"correct {str(not result.problems).lower()}")
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
