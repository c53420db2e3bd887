"""One run of one workload: set up, measure (or trace), report.

This is what ``perfbench/run.py`` (the ``BENCHMARK.json`` command)
executes.  The last line of standard output is the result object; every
other line is for people.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import time
from pathlib import Path

from perfbench.harness import (
    BenchmarkError,
    Calibrator,
    Measurement,
    fingerprint,
    median,
    peak_rss_mb,
    percentile,
    prepare_process,
)

OUT_DIR = Path(__file__).resolve().parent / "out"

#: How many times a run sets up; ``setup_s`` is the median.  With three,
#: two runs of ``serve_mixed`` (whose set-up boots a process) differed by
#: 27% once; five costs 2 s more per run on the dearest workload.
SETUP_REPEATS = 5


def parse_arguments(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one perfbench workload and print its metrics; "
                    "the last line of stdout is one JSON object.",
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 runs the traced per-layer pass instead of "
                             "the end-to-end measurement")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every row count (smoke tests only)")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="falsify one expected answer, to show that a "
                             "wrong answer is counted as a failed op")
    return parser.parse_args(argv)


def end_to_end_metrics(measured: Measurement, setup_s: float,
                       setup_speed: float, run_speed: float) -> dict:
    """The bounded metrics, every time scaled to the reference machine
    speed (see :class:`~perfbench.harness.Calibrator`)."""
    correct = measured.attempted - measured.failed
    latencies = measured.latencies_ms
    return {
        "setup_s": (setup_s * setup_speed, "s"),
        "ops_per_s": (correct / (measured.wall_s * run_speed), "op/s"),
        "op_ms_p50": (percentile(latencies, 0.50) * run_speed, "ms"),
        "op_ms_p90": (percentile(latencies, 0.90) * run_speed, "ms"),
        "cpu_ms_per_op": (
            1000.0 * measured.cpu_s * run_speed / max(1, measured.attempted),
            "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def run(args: argparse.Namespace) -> dict:
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchmarkError(
            f"unknown workload {args.workload!r}; "
            f"choose one of {sorted(WORKLOADS)}"
        )
    workdir = OUT_DIR / f"work_{args.workload}_{args.seed}_{args.trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    setup_times = []
    setup_calibrator, run_calibrator = Calibrator(), Calibrator()
    workload = None
    scaling = "layer times are raw; see harness.calibration_ms"
    try:
        # The traced pass does not report set-up time: once is enough.
        for _ in range(1 if args.trace else SETUP_REPEATS):
            if workload is not None:
                workload.teardown()
                workload = None
                gc.collect()
            with setup_calibrator.in_background():
                started = time.perf_counter()
                workload = WORKLOADS[args.workload](
                    args.seed, args.scale, workdir)
                workload.setup()
                setup_times.append(time.perf_counter() - started)
        if args.corrupt_oracle:
            workload.corrupt_one_answer()
        if args.trace:
            from perfbench.layers import traced_pass

            measured, metrics = traced_pass(workload, args.seconds, OUT_DIR)
        else:
            measured = workload.measure(args.seconds, run_calibrator)
            workload.teardown()  # reap children before reading their usage
            metrics = end_to_end_metrics(
                measured, median(setup_times),
                setup_calibrator.factor(), run_calibrator.factor())
            scaling = (
                f"calibration unit {run_calibrator.unit_ms():.4f} ms over "
                f"{len(run_calibrator.samples_ms)} samples: times above are "
                f"measured x {run_calibrator.factor():.4f} (set-up x "
                f"{setup_calibrator.factor():.4f})")
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    failed_pct = 100.0 * measured.failed / max(1, measured.attempted)
    print(f"== {args.workload} seed={args.seed} "
          f"{'traced' if args.trace else 'end-to-end'} "
          f"ops={measured.attempted} failed={measured.failed} "
          f"(failed_ops_pct={failed_pct:.3f} %)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40s} {value:>16.6f} {unit}")
    for message in measured.failures:
        print(f"  FAILED {message}")
    print(f"  scaling {scaling}")
    print(f"  environment {json.dumps(fingerprint(args.seed))}")
    print(f"  options {json.dumps(workload.resolved_options)}")
    return {
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_arguments(argv)
    try:
        prepare_process()
        result = run(args)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1
