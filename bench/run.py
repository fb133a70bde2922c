"""The repository benchmark: serve and sweep workloads, end to end and per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke]

Runs one workload (see ``BENCHMARK.json`` and ``bench/README.md``) in a
child process, prints every metric by name with its unit, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
tracing off the metrics are the end-to-end ones; with ``--trace`` they
are the per-layer ones, and a Chrome trace-event file is written to
``bench/out/trace-<workload>.json``.  The exit code is non-zero when any
correctness check fails, and the run is killed after
:data:`DEADLINE_S` seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from harness import OUT, ROOT, source_tree_present

WORKLOADS = ("serve-hot", "serve-cold", "sweep-figure", "sweep-measure")
DEADLINE_S = 170
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measured seconds (serve: three windows; "
                             "sweep: passes until the next would end "
                             "past this)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report per-layer metrics and write a trace")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_child(args: argparse.Namespace) -> dict:
    if args.workload.startswith("serve-"):
        import serve_workloads as module
    else:
        import sweep_workloads as module
    return module.run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.smoke)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not source_tree_present() or not BENCHMARK_JSON.is_file():
        print(f"bench: no program sources under {ROOT / 'src'} "
              f"(or no BENCHMARK.json); run from a full checkout",
              file=sys.stderr)
        return 2
    if args.child:
        result = run_child(args)
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"result-{args.workload}.json", "w",
                  encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
        print(json.dumps(result))
        return 0
    return supervise(args, sys.argv[1:] if argv is None else argv)


def supervise(args: argparse.Namespace, argv: List[str]) -> int:
    """Run the workload in its own process group, under the deadline."""
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--child"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"bench: {args.workload} exceeded {DEADLINE_S}s; killed",
              file=sys.stderr)
        return 3
    finally:
        _reap_group(child.pid)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"bench: {args.workload} crashed (exit {child.returncode})",
              file=sys.stderr)
        return 4
    result = json.loads(lines[-1])
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    produced = result["per_layer" if args.trace else "end_to_end"]
    names = [metric["name"] for metric in declared]
    unknown = sorted(set(produced) - set(names))
    missing = sorted(set(names) - set(produced))
    if unknown or (missing and not args.trace):
        print(f"bench: metrics {unknown or missing} are not those declared "
              f"in BENCHMARK.json", file=sys.stderr)
        return 5
    # a per-layer metric of the other system (serve vs sweep) measures a
    # layer this workload never enters: zero work, zero time
    values = {name: produced.get(name, 0) for name in names}
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if args.trace:
        for name, value in result["end_to_end"].items():
            print(f"  (untraced) {name} = {value:.6g}")
    for metric in declared:
        print(f"  {metric['name']} = {values[metric['name']]:.6g} "
              f"{metric['unit']}")
    for key, value in result["info"].items():
        print(f"  info {key} = {value}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in declared},
    }))
    return 0 if correct else 1


def _reap_group(pgid: int) -> None:
    """Kill anything the workload left running in its process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


if __name__ == "__main__":
    raise SystemExit(main())
