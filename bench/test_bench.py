"""Tests of the benchmark itself (not of the program it measures).

    PYTHONPATH=src python -m pytest bench -q

Every workload runs once at ``--smoke`` size with tracing on, so the whole
file stays well under a minute.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import shutil
import subprocess
import sys
import threading

import pytest

from harness import OUT, ROOT, InstructionCounter, Recorder

import serve_workloads
import sweep_workloads
from serve_traced import instrument_tenant, stats_hashes

from repro.serve import TenantConfig
from repro.serve.forest import build_tenant

WORKLOADS = ("serve-hot", "serve-cold", "sweep-figure", "sweep-measure")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def traced_runs():
    """One traced smoke run per workload: (printed JSON, full result)."""
    runs = {}
    for workload in WORKLOADS:
        done = _run("--workload", workload, "--smoke", "--seconds", "1",
                    "--trace")
        assert done.returncode == 0, done.stdout + done.stderr
        printed = json.loads(done.stdout.strip().splitlines()[-1])
        full = json.loads((OUT / f"result-{workload}.json").read_text())
        runs[workload] = (printed, full)
    return runs


def test_metric_names_match_benchmark_json(traced_runs):
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    per_layer = {metric["name"] for metric in SPEC["per_layer"]}
    measured = set()
    for workload, (printed, full) in traced_runs.items():
        assert printed["correct"] is True, (workload, full["problems"])
        assert printed["failed"] == 0 and printed["attempted"] > 0
        assert set(printed["metrics"]) == per_layer
        assert set(full["end_to_end"]) == end_to_end
        assert all(value > 0 for value in full["end_to_end"].values())
        measured |= set(full["per_layer"])
    # every declared per-layer metric is measured by some workload
    assert measured == per_layer


def test_untraced_run_prints_end_to_end_metrics():
    done = _run("--workload", "serve-hot", "--smoke", "--seconds", "0.6")
    assert done.returncode == 0, done.stderr
    printed = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert [m for m in printed["metrics"]] == [
        metric["name"] for metric in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        assert printed["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "serve-hot", "--smoke", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_wrong_committed_digest_is_caught(monkeypatch):
    monkeypatch.setattr(sweep_workloads, "committed_digest",
                        lambda name, smoke: "0" * 64)
    result = sweep_workloads.run_workload("sweep-measure", seed=0,
                                          seconds=0.1, trace=False,
                                          smoke=True)
    assert result["failed"] >= 2
    assert all("digest" in problem for problem in result["problems"])


@pytest.mark.parametrize("scheme", ["naive", "chash", "mhash", "ihash"])
def test_corrupted_twin_is_caught(scheme):
    config = TenantConfig(name=f"t-{scheme}", data_bytes=4096, scheme=scheme,
                          cache_chunks=8)
    pattern = random.Random(1).randbytes(config.data_bytes)
    clean = serve_workloads.direct_twin(config, pattern, [])
    assert serve_workloads.twin_problems(clean, pattern) == []
    corrupted = serve_workloads.direct_twin(config, pattern, [])
    corrupted.memory.poke(corrupted.verifier.physical_address(1000),
                          b"\x5a\xa5")
    assert serve_workloads.twin_problems(corrupted, pattern)


def test_trace_file_has_nested_spans(traced_runs):
    trace = json.loads((OUT / "trace-serve-hot.json").read_text())
    spans = [event for event in trace["traceEvents"] if event["ph"] == "X"]
    assert spans and all(event["dur"] >= 0 for event in spans)

    def inside(child, parent):
        return (child["tid"] == parent["tid"]
                and child["args"]["rid"] == parent["args"]["rid"]
                and parent["ts"] <= child["ts"]
                and child["ts"] + child["dur"] <= parent["ts"] + parent["dur"])

    by_name = {}
    for event in spans:
        by_name.setdefault(event["name"].split(".")[0], []).append(event)
    chain = ["http", "batch", "verifier", "tree", "hash"]
    for outer, inner in zip(chain, chain[1:]):
        assert any(inside(child, parent) for child in by_name[inner]
                   for parent in by_name[outer]), (inner, outer)


def _spin(count: int) -> int:
    total = 0
    for value in range(count):
        total += value
    return total


def test_instruction_counter_covers_threads_and_forked_children():
    counter = InstructionCounter()
    try:
        readings = [counter.read()]
        for _ in range(2):
            _spin(200_000)
            readings.append(counter.read())
        thread = threading.Thread(target=_spin, args=(200_000,))
        thread.start()
        thread.join(timeout=30)
        readings.append(counter.read())
        # run_cells' worker pool forks, so a forked child is the case
        child = multiprocessing.get_context("fork").Process(
            target=_spin, args=(200_000,))
        child.start()
        child.join(timeout=30)
        readings.append(counter.read())
    finally:
        counter.close()
    assert not thread.is_alive() and child.exitcode == 0
    own, again, in_thread, in_child = [
        after - before for before, after in zip(readings, readings[1:])]
    assert own > 100_000
    assert abs(again - own) < 0.02 * own  # same work, same count
    assert 0.8 * own < in_thread < 1.5 * own
    assert 0.8 * own < in_child < 1.5 * own


@pytest.mark.parametrize("scheme", ["naive", "chash", "mhash", "ihash"])
def test_wrapper_counts_equal_program_counters(scheme):
    config = TenantConfig(name="w", data_bytes=16 * 1024, scheme=scheme,
                          cache_chunks=8)
    tenant = build_tenant(config)
    recorder = Recorder()
    tally = instrument_tenant(tenant, recorder)
    tree, memory = tenant.verifier.tree, tenant.memory
    before = (stats_hashes(tree.stats.counters), memory.reads, memory.writes)
    rng = random.Random(7)
    pattern = rng.randbytes(config.data_bytes)
    tenant.verifier.unprotect_range(0, config.data_bytes)
    tenant.verifier.write_without_checking(0, pattern)
    tenant.verifier.rebuild_range(0, config.data_bytes)
    for _ in range(300):
        length = rng.randrange(1, 65)
        address = rng.randrange(0, config.data_bytes - length)
        assert tenant.batcher.read(address, length) \
            == pattern[address:address + length]
    tenant.batcher.read_many([(0, 10), (100, 200), (5000, 64)])
    assert tally.hash_calls == stats_hashes(tree.stats.counters) - before[0]
    assert tally.ram_reads == memory.reads - before[1]
    assert tally.ram_writes == memory.writes - before[2]
    calls = recorder.totals("setup")["calls"]
    assert calls.get("hash", 0) == tally.hash_calls > 0
    assert calls["ram.read"] == tally.ram_reads
    assert [entry[0] for entry in tally.log[:3]] == [
        "unprotect_range", "write_without_checking", "rebuild_range"]
