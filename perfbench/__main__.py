"""``python -m perfbench run | repeat`` — the suite, for people.

``run`` executes workloads one after another, each in a fresh
``perfbench/run.py`` subprocess, and prints every metric by name with
its unit.  ``repeat`` runs the suite twice and holds the two runs
against the benchmark's own bounds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = tuple(WORKLOADS)
RUN_SECONDS = json.loads(
    (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_one(workload: str, seed: int, seconds: float, trace: int,
            scale: float, echo: bool) -> dict:
    """One ``run.py`` subprocess; returns its result object."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--scale", str(scale)]
    finished = subprocess.run(command, capture_output=True, text=True,
                              cwd=HERE.parent)
    lines = finished.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]))
    if finished.returncode not in (0, 1) or not lines:
        raise SystemExit(
            f"perfbench: {workload} exited {finished.returncode}\n"
            f"{finished.stdout}{finished.stderr}"
        )
    return json.loads(lines[-1])


def run_suite(args: argparse.Namespace, echo: bool = True) -> dict:
    suite = {"seed": args.seed, "seconds": args.seconds, "claim": None,
             "workloads": {}}
    for workload in args.workload or WORKLOAD_NAMES:
        entry = run_one(workload, args.seed, args.seconds, 0, args.scale,
                        echo)
        if args.trace:
            traced = run_one(workload, args.seed, args.seconds, 1,
                             args.scale, echo)
            entry["layers"] = traced["metrics"]
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["correct"] = entry["correct"] and traced["correct"]
        suite["workloads"][workload] = entry
    return suite


def command_run(args: argparse.Namespace) -> int:
    suite = run_suite(args)
    if args.out:
        Path(args.out).write_text(json.dumps(suite, indent=1) + "\n")
    failed = sum(w["failed"] for w in suite["workloads"].values())
    print(f"perfbench: {len(suite['workloads'])} workload(s), "
          f"{failed} failed op(s)")
    return 1 if failed else 0


def command_repeat(args: argparse.Namespace) -> int:
    """Two runs of the same code, compared under the benchmark's bounds."""
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    first, second = run_suite(args, echo=False), run_suite(args, echo=False)
    for label, suite in (("a", first), ("b", second)):
        path = results / f"baseline_seed{args.seed}_{label}.json"
        path.write_text(json.dumps(suite, indent=1) + "\n")
    breaches = 0
    print(f"{'workload':<16s}{'metric':<34s}{'first':>14s}{'second':>14s}"
          f"{'diff':>9s}{'bound':>8s}")
    for workload, entry in first["workloads"].items():
        other = second["workloads"][workload]
        breaches += entry["failed"] + other["failed"]
        for metric in END_TO_END:
            a = entry["metrics"][metric.name]["value"]
            b = other["metrics"][metric.name]["value"]
            worse = (b - a) / a if metric.better == "lower" else (a - b) / a
            flag = ""
            if worse > metric.bound:
                breaches += 1
                flag = "  BREACH"
            print(f"{workload:<16s}{metric.name:<34s}{a:>14.4f}{b:>14.4f}"
                  f"{100 * worse:>+8.1f}%{100 * metric.bound:>7.0f}%{flag}")
        for layer in PER_LAYER if args.trace else ():
            # A live server's shed count is a count, but not an exact one.
            if layer.unit != "count" or layer.name == "serve.shed_429":
                continue
            a = entry["layers"][layer.name]["value"]
            b = other["layers"][layer.name]["value"]
            if a != b:
                breaches += 1
                print(f"{workload:<16s}{layer.name:<34s}{a:>14.4f}"
                      f"{b:>14.4f}  EXACT COUNT DIFFERS")
    print(f"perfbench repeat: {breaches} breach(es)")
    return 1 if breaches else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", command_run), ("repeat", command_repeat)):
        sub = commands.add_parser(name)
        sub.set_defaults(handler=handler)
        sub.add_argument("--workload", action="append",
                         choices=WORKLOAD_NAMES,
                         help="repeatable; default: all five")
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=float, default=RUN_SECONDS)
        sub.add_argument("--scale", type=float, default=1.0)
        sub.add_argument("--trace", action="store_true",
                         help="also run the traced per-layer pass")
    commands.choices["run"].add_argument(
        "--out", help="write the suite's results to this JSON file")
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
