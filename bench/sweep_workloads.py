"""Sweep workloads: repeated passes of a cell grid through ``run_cells``.

Each pass runs the whole grid with ``jobs=2`` into a fresh
:class:`~repro.sim.sweep.store.DirectoryStore` (so nothing is served from
a cache), and every pass's results are hashed into a digest that must
equal the one committed in ``bench/digests.json``: a change that makes
the simulator faster must leave every simulated statistic identical.

The grid is fixed (the paper's cells, simulation seed 0); ``--seed``
shuffles the order the cells are handed to ``run_cells``, which must not
change any result.

With ``--trace`` the grid is also replayed at ``jobs=1`` through
``warm_groups_of`` -> ``prepare_warm_state`` ->
``WarmState.measured_chunks`` -> ``run_from_warm_state`` ->
``DirectoryStore.put``/``fetch``, timing each call, and (sweep-figure)
run through an in-process coordinator with two ``repro worker``
subprocesses.

Run as ``python bench/sweep_workloads.py --setup WORKLOAD [--smoke]`` it
performs only the set-up (import the engine, build the grid, fingerprint
it) in a fresh interpreter; the benchmark times that process.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from harness import (
    BENCH,
    OUT,
    ROOT,
    InstructionCounter,
    Recorder,
    chrome_events,
    child_env,
    median,
    scratch_dir,
    use_source_tree,
    write_trace,
)

use_source_tree()

from repro.common.config import MB, SchemeKind  # noqa: E402
from repro.sim.sweep import (  # noqa: E402
    CellSpec,
    DirectoryStore,
    cell_fingerprint,
    dedupe_cells,
    figure_cells,
    make_store_server,
    run_cells,
    run_distributed,
    warm_groups_of,
)
from repro.sim.system import (  # noqa: E402
    prepare_warm_state,
    run_from_warm_state,
)
from repro.workloads.generators import InstructionStream  # noqa: E402

JOBS = 2
#: times the set-up is timed per run; ``setup_s`` is their median.
SETUPS = 5
#: a pass's instruction count varies by under 0.2%, so a pass longer
#: than the run's measured seconds is run once.
MIN_PASSES = 1
#: sweep-figure runs every benchmark either workload runs; the
#: per-benchmark per-layer metrics cover this list.
FIGURE_BENCHMARKS = ("gzip", "twolf", "mcf", "swim")
MEASURE_BENCHMARKS = ("gzip", "twolf", "mcf")
DIGESTS = BENCH / "digests.json"


def grid(name: str, smoke: bool = False) -> List[CellSpec]:
    """The cells one pass of workload ``name`` runs (before dedupe)."""
    if name == "sweep-figure":
        benchmarks = ["gzip"] if smoke else list(FIGURE_BENCHMARKS)
        cells = (figure_cells("fig6", benchmarks)
                 + figure_cells("fig8", benchmarks))
        if smoke:
            cells = [dataclasses.replace(cell, instructions=1_000,
                                         warmup=4_000) for cell in cells]
        return cells
    if name == "sweep-measure":
        benchmarks = ["gzip"] if smoke else list(MEASURE_BENCHMARKS)
        instructions, warmup = (4_000, 2_000) if smoke else (400_000, 50_000)
        return [CellSpec(bench, scheme, l2_size=1 * MB, l2_block=64,
                         hash_throughput=throughput,
                         instructions=instructions, warmup=warmup)
                for bench in benchmarks
                for scheme in (SchemeKind.CHASH, SchemeKind.MHASH)
                for throughput in (6.4, 1.6)]
    raise ValueError(f"unknown sweep workload {name!r}")


def results_digest(results: Dict[CellSpec, object]) -> str:
    """SHA-256 over every cell's label, cycles and statistics."""
    rows = sorted(
        [spec.label(), spec.instructions, spec.warmup, spec.seed,
         result.instructions, result.cycles, sorted(result.stats.items())]
        for spec, result in results.items())
    blob = json.dumps(rows, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def committed_digest(name: str, smoke: bool) -> Optional[str]:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle).get(f"{name}/smoke" if smoke else name)


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


# -- set-up --------------------------------------------------------------------

def setup_only(name: str, smoke: bool) -> None:
    """What a sweep does before its first cell runs."""
    cells = dedupe_cells(grid(name, smoke))
    for spec in cells:
        cell_fingerprint(spec)
    warm_groups_of(cells)


def time_setup(name: str, smoke: bool) -> float:
    """Seconds for a fresh interpreter to import, build and fingerprint."""
    command = [sys.executable, str(BENCH / "sweep_workloads.py"),
               "--setup", name] + (["--smoke"] if smoke else [])
    start = time.perf_counter()
    subprocess.run(command, cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


# -- untraced passes ----------------------------------------------------------

def run_pass(cells: Sequence[CellSpec]) -> dict:
    root = scratch_dir("sweep-store")
    # counts this thread and every worker process and thread it starts
    counter = InstructionCounter()
    try:
        cpu_before = _cpu()
        start = time.perf_counter()
        report = run_cells(cells, jobs=JOBS, cache=DirectoryStore(root))
        wall = time.perf_counter() - start
        cpu = _cpu() - cpu_before
        instructions = counter.read()
    finally:
        counter.close()
        shutil.rmtree(root, ignore_errors=True)
    cell_seconds = sum(o.elapsed_s for o in report.ran)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "instructions": instructions,
        "cells": len(report.outcomes),
        "failed": [f"{o.spec.label()}: {o.error}" for o in report.failed],
        "digest": results_digest(report.results),
        "warm_s": sum(o.warm_s for o in report.ran),
        "measure_s": sum(o.measure_s for o in report.ran),
        "idle_s": JOBS * wall - cell_seconds,
        "steals": report.steals,
    }


def run_passes(cells: List[CellSpec], seconds: float,
               min_passes: int) -> List[dict]:
    """Passes until the next one would end past ``seconds`` (at least
    ``min_passes``)."""
    passes: List[dict] = []
    elapsed = 0.0
    while len(passes) < min_passes or elapsed + passes[-1]["wall_s"] <= seconds:
        passes.append(run_pass(cells))
        elapsed += passes[-1]["wall_s"]
    return passes


# -- traced replay (jobs=1) ----------------------------------------------------

class _GenerationTimer:
    """Times the warm-up trace generator inside ``prepare_warm_state``.

    ``InstructionStream.packed`` is a lazy generator that the warm-up
    consumes chunk by chunk; each chunk it produces becomes a
    ``gen.warm_trace.<bench>`` span nested in the warm span.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.benchmark = ""

    def __enter__(self) -> "_GenerationTimer":
        original = InstructionStream.packed
        recorder, timer = self.recorder, self

        def packed(stream, *args, **kwargs):
            chunks = original(stream, *args, **kwargs)
            name = f"gen.warm_trace.{timer.benchmark}"
            while True:
                recorder.begin(name)
                try:
                    chunk = next(chunks)
                except StopIteration:
                    recorder.end()
                    return
                recorder.end()
                yield chunk
        self._original = original
        InstructionStream.packed = packed
        return self

    def __exit__(self, *_exc) -> None:
        InstructionStream.packed = self._original


def replay(cells: List[CellSpec], recorder: Recorder) -> dict:
    """The grid at jobs=1, every layer call timed; returns its results."""
    unique = dedupe_cells(cells)
    fingerprints = {spec: cell_fingerprint(spec) for spec in unique}
    root = scratch_dir("replay-store")
    store = DirectoryStore(root)
    results: Dict[CellSpec, object] = {}
    problems: List[str] = []
    instructions: Dict[str, int] = {}
    ids = itertools.count()
    start = time.perf_counter()
    try:
        with _GenerationTimer(recorder) as timer:
            for group in warm_groups_of(unique):
                first = group[0]
                bench = timer.benchmark = first.benchmark
                recorder.begin("group", next(ids))
                recorder.begin(f"system.warm.{bench}")
                warm_state = prepare_warm_state(
                    first.build_config(), bench, warmup=first.warmup,
                    seed=first.seed, kernels=first.kernels)
                recorder.end()
                for spec in group:
                    recorder.begin(f"gen.measured_trace.{bench}")
                    warm_state.measured_chunks(spec.instructions)
                    recorder.end()
                    recorder.begin(f"system.measure.{bench}")
                    cell_start = time.perf_counter()
                    result = run_from_warm_state(
                        spec.build_config(), bench, warm_state,
                        instructions=spec.instructions, kernels=spec.kernels)
                    elapsed = time.perf_counter() - cell_start
                    recorder.end()
                    instructions[bench] = (instructions.get(bench, 0)
                                           + result.instructions)
                    results[spec] = result
                    recorder.begin("store.put")
                    store.put(fingerprints[spec], spec, result, elapsed)
                    recorder.end()
                    recorder.begin("store.fetch")
                    fetched = store.fetch(fingerprints[spec])
                    recorder.end()
                    if fetched is None \
                            or fetched.result.cycles != result.cycles \
                            or fetched.result.stats != result.stats:
                        problems.append(f"{spec.label()}: store round trip "
                                        f"changed the result")
                recorder.end()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "wall_s": time.perf_counter() - start,
        "digest": results_digest(results),
        "problems": problems,
        "instructions": instructions,
    }


# -- distributed breakdown -----------------------------------------------------

def distributed(cells: List[CellSpec], workers: int = 2) -> dict:
    """The grid through an in-process coordinator and ``repro worker``s."""
    root = scratch_dir("coordinator")
    server = make_store_server(root / "served", port=0)
    board = server.board
    claims: List[Tuple[float, float, str, str]] = []
    claim = board.claim

    def traced_claim(worker: str) -> dict:
        started = time.perf_counter()
        response = claim(worker)
        claims.append((started, time.perf_counter() - started, worker,
                       str(response.get("status"))))
        return response
    board.claim = traced_claim
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = "http://127.0.0.1:%d" % server.server_address[1]
    processes = []
    try:
        spawned = time.perf_counter()
        with open(OUT / "sweep-workers.log", "ab") as log:
            for index in range(workers):
                processes.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "worker",
                     "--coordinator", url, "--name", f"w{index}",
                     "--cache-dir", str(root / f"w{index}"),
                     "--exit-when-idle"],
                    cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                    stderr=log))
        start = time.perf_counter()
        report = run_distributed(cells, url, cache_dir=root / "l1",
                                 timeout_s=150)
        wall = time.perf_counter() - start
        for process in processes:
            process.wait(timeout=30)
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
        shutil.rmtree(root, ignore_errors=True)
    first_claim: Dict[str, float] = {}
    for started, _duration, worker, _status in claims:
        first_claim.setdefault(worker, started)
    busy = sum(o.elapsed_s for o in report.ran)
    return {
        "wall_s": wall,
        "digest": results_digest(report.results),
        "failed": [f"{o.spec.label()}: {o.error}" for o in report.failed],
        "idle_s": workers * wall - busy,
        "worker_start_s": (sum(first_claim.values()) / len(first_claim)
                           - spawned) if first_claim else 0.0,
        "claims": sum(1 for c in claims if c[3] == "lease"),
        "polls": sum(1 for c in claims if c[3] != "lease"),
        "requeues": report.requeues,
        "splits": report.steals,
        "claim_spans": claims,
    }


# -- entry point ---------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    setups = [time_setup(name, smoke) for _ in range(2 if smoke else SETUPS)]
    cells = grid(name, smoke)
    random.Random(seed).shuffle(cells)
    expected = committed_digest(name, smoke)
    passes = run_passes(cells, seconds, 2 if smoke else MIN_PASSES)
    problems = [failure for p in passes for failure in p["failed"]]
    for index, one in enumerate(passes):
        if one["digest"] != expected:
            problems.append(f"pass {index}: results digest {one['digest']} "
                            f"!= committed {expected}")
    attempted = sum(p["cells"] for p in passes)
    walls = [p["wall_s"] for p in passes]
    end_to_end = {
        "setup_s": median(setups),
        "minstr_per_op": median([p["instructions"] / p["cells"]
                                 for p in passes]) / 1e6,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    info = {"passes": len(passes), "wall_s": median(walls),
            "cpu_s_per_cell": median([p["cpu_s"] / p["cells"]
                                      for p in passes]),
            "pass_walls_s": walls,
            "pass_minstr": [p["instructions"] / 1e6 for p in passes],
            "steals": [p["steals"] for p in passes],
            "setup_s_each": setups, "digest": passes[0]["digest"]}
    layers: Dict[str, float] = {}
    if trace:
        recorder = Recorder(keep_requests=10_000)
        recorder.phase = "replay"
        replayed = replay(cells, recorder)
        problems += replayed["problems"]
        if replayed["digest"] != expected:
            problems.append(f"jobs=1 replay digest {replayed['digest']} "
                            f"!= committed {expected}")
        attempted += len(dedupe_cells(cells))
        layers = _layers(passes, recorder.totals("replay"), replayed)
        events = chrome_events(recorder.events(), 1, "sweep replay (jobs=1)")
        if name == "sweep-figure":
            spread = distributed(cells)
            problems += spread["failed"]
            if spread["digest"] != expected:
                problems.append(f"distributed digest {spread['digest']} "
                                f"!= committed {expected}")
            attempted += len(dedupe_cells(cells))
            layers.update({
                "dispatch.vs_local": replayed["wall_s"] / spread["wall_s"],
                "dispatch.idle_s": spread["idle_s"],
                "dispatch.worker_start_s": spread["worker_start_s"],
                "dispatch.claims": spread["claims"],
                "dispatch.polls": spread["polls"],
                "dispatch.requeues": spread["requeues"],
                "dispatch.splits": spread["splits"],
            })
            info["distributed_wall_s"] = spread["wall_s"]
            info["distributed_vs_jobs2"] = median(walls) / spread["wall_s"]
            events += chrome_events(
                [("dispatch.claim." + status, started, duration, None, worker)
                 for started, duration, worker, status
                 in spread["claim_spans"]], 2, "coordinator claims")
        info["replay_wall_s"] = replayed["wall_s"]
        info["trace_file"] = str(OUT / f"trace-{name}.json")
        write_trace(OUT / f"trace-{name}.json", events)
    return {
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:20],
        "end_to_end": end_to_end,
        "per_layer": layers,
        "info": info,
    }


def _layers(passes: List[dict], totals: Dict[str, Dict[str, float]],
            replayed: dict) -> Dict[str, float]:
    self_s, calls = totals["self_s"], totals["calls"]
    layers = {
        "runner.warm_s": median([p["warm_s"] for p in passes]),
        "runner.measure_s": median([p["measure_s"] for p in passes]),
        "runner.idle_s": median([p["idle_s"] for p in passes]),
        "runner.steals": median([p["steals"] for p in passes]),
        "store.put_ms": self_s["store.put"] / calls["store.put"] * 1e3,
        "store.fetch_ms": self_s["store.fetch"] / calls["store.fetch"] * 1e3,
    }
    for bench in FIGURE_BENCHMARKS:
        measure_s = self_s.get(f"system.measure.{bench}", 0.0)
        layers[f"system.warm_s.{bench}"] = self_s.get(
            f"system.warm.{bench}", 0.0)
        layers[f"gen.warm_trace_s.{bench}"] = self_s.get(
            f"gen.warm_trace.{bench}", 0.0)
        layers[f"system.measure_s.{bench}"] = measure_s
        layers[f"gen.measured_trace_s.{bench}"] = self_s.get(
            f"gen.measured_trace.{bench}", 0.0)
        layers[f"system.kips.{bench}"] = (
            replayed["instructions"].get(bench, 0) / measure_s / 1e3
            if measure_s else 0.0)
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="sweep workload set-up probe")
    parser.add_argument("--setup", required=True, metavar="WORKLOAD")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    setup_only(args.setup, args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
