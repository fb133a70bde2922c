"""Serve workloads: an open-loop generator against ``python -m repro serve``.

One generator process drives the server through
:class:`repro.serve.ServeClient` from :data:`THREADS` threads, each with
its own keep-alive connection.  Operations are due on a fixed schedule
(``rate`` operations per second, the threads interleaved), and every
request is timed from when it was due, so a stalled server shows up as
latency rather than as a slower send rate.  After :data:`WARM_S` untimed
seconds the run measures :data:`WINDOWS` equal windows; a metric is the
median of its per-window values.

Every response is checked against a byte model of each tenant, and at
the end every tenant's full segment as served is compared with the model
and with a direct :func:`~repro.serve.forest.build_tenant` twin that
replays the run's writes.

Tenants are filled through the Section 5.7 DMA path (unprotect, raw
store, rebuild) rather than verified writes: on this commit, verified
writes that evict dirty chunks can raise a false ``IntegrityError``
(see ``bench/README.md``), and no workload may fail for a reason the
benchmark itself provokes.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from harness import (
    BENCH,
    OUT,
    ROOT,
    InstructionCounter,
    chrome_events,
    child_env,
    cpu_between,
    cpu_pair,
    free_port,
    median,
    peak_rss_mib,
    pin_threads,
    quantile,
    thread_cpu_ns,
    use_source_tree,
    write_trace,
)

use_source_tree()

from repro.common.errors import IntegrityError, SecureModeError  # noqa: E402
from repro.serve import ServeClient, ServeError, TenantConfig  # noqa: E402
from repro.serve.forest import build_tenant  # noqa: E402

from serve_traced import stats_hashes  # noqa: E402

THREADS = 2
CHUNK_BYTES = 64
CACHE_CHUNKS = 32
#: chunks every thread reads in serve-hot (never written).
WINDOW_CHUNKS = 4
SPANS_PER_READV = 8
#: one serve-hot thread's repeating op cycle: 85% readv, 10% writes, 5%
#: DMA cycles in fixed positions, so every window has the same mix and
#: the tail the DMA cycles cause cannot grow or shrink with the seed.
HOT_CYCLE = ("readv",) * 8 + ("write",) + ("readv",) * 8 + ("write",) \
    + ("readv", "dma")
WARM_S = 2.0
WINDOWS = 8
#: times the server is booted and filled per run; set-up is their median.
SETUPS = 5
#: bytes per request when filling or reading back a whole segment.
SEGMENT_STEP = 4096
#: the server's threads run on the first CPU and the generator's on the
#: second, so where the scheduler happens to place them cannot differ
#: from run to run (``None`` on a one-CPU host).
CPUS = cpu_pair()


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    schemes: Tuple[str, ...]
    data_bytes: int
    #: scheduled operations per second, over all threads.
    rate: float
    #: ``hot``: readv/write/DMA mix; ``cold``: uniform point reads.
    mix: str


WORKLOADS = {
    "serve-hot": ServeWorkload("serve-hot", ("chash", "mhash", "ihash"),
                               16 * 1024, 2000.0, "hot"),
    "serve-cold": ServeWorkload("serve-cold",
                                ("naive", "chash", "mhash", "ihash"),
                                64 * 1024, 1500.0, "cold"),
}
SMOKE_WORKLOADS = {
    "serve-hot": ServeWorkload("serve-hot", ("chash", "mhash", "ihash"),
                               16 * 1024, 400.0, "hot"),
    "serve-cold": ServeWorkload("serve-cold",
                                ("naive", "chash", "mhash", "ihash"),
                                16 * 1024, 400.0, "cold"),
}


def tenant_configs(workload: ServeWorkload) -> List[TenantConfig]:
    return [TenantConfig(name=f"{workload.mix}-{scheme}",
                         data_bytes=workload.data_bytes, scheme=scheme,
                         chunk_bytes=CHUNK_BYTES, cache_chunks=CACHE_CHUNKS)
            for scheme in workload.schemes]


def tenant_patterns(configs: List[TenantConfig], seed: int) -> Dict[str, bytes]:
    return {config.name: random.Random(seed * 7919 + index)
            .randbytes(config.data_bytes)
            for index, config in enumerate(configs)}


def private_chunk(thread: int) -> int:
    """The chunk only ``thread`` writes (past the shared read window)."""
    return 2 * WINDOW_CHUNKS + thread


# -- server lifecycle -----------------------------------------------------------

class ServerProcess:
    """A serve front end in its own process, filled with the run's tenants."""

    def __init__(self, traced: bool, log_name: str):
        OUT.mkdir(parents=True, exist_ok=True)
        for _attempt in range(3):
            self.port = free_port()
            command = ([sys.executable, str(BENCH / "serve_traced.py")]
                       if traced else [sys.executable, "-m", "repro", "serve"])
            self.log = open(OUT / f"{log_name}.log", "ab")
            self.process = subprocess.Popen(
                command + ["--port", str(self.port)], cwd=ROOT,
                env=child_env(), stdout=subprocess.DEVNULL, stderr=self.log)
            self.url = f"http://127.0.0.1:{self.port}"
            self.client = ServeClient(self.url, timeout=30.0)
            if self._wait_ready():
                if CPUS is not None:
                    pin_threads(self.pid, CPUS[0])
                return
            self.stop()
        raise RuntimeError(f"serve front end did not start; see {self.log.name}")

    def _wait_ready(self, timeout_s: float = 30.0) -> bool:
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                return False  # lost the port race, or crashed
            try:
                self.client.status()
                return True
            except ServeError:
                time.sleep(0.01)
        return False

    @property
    def pid(self) -> int:
        return self.process.pid

    def fill(self, configs: List[TenantConfig],
             patterns: Dict[str, bytes]) -> None:
        for config in configs:
            self.client.create_tenant(config)
            pattern = patterns[config.name]
            self.client.unprotect(config.name, 0, len(pattern))
            self.client.write_unchecked(config.name, 0, pattern)
            self.client.rebuild(config.name, 0, len(pattern))

    def stop(self) -> None:
        self.client.close()
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def boot(configs, patterns, traced: bool, log_name: str) -> Tuple[ServerProcess, float]:
    """Start a server and fill its tenants; returns it and the seconds taken."""
    start = time.perf_counter()
    server = ServerProcess(traced, log_name)
    try:
        server.fill(configs, patterns)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start


# -- the generator ----------------------------------------------------------------

@dataclass
class _Slot:
    """One generator thread's results."""

    latencies: List[List[float]]
    requests: List[int]
    late: List[float] = field(default_factory=list)
    round_trips: List[float] = field(default_factory=list)
    #: seconds of each round trip spent inside the HTTP channel (traced runs)
    channel: List[float] = field(default_factory=list)
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    #: ("write" | "dma", tenant, address, data) in this thread's order
    writes: List[tuple] = field(default_factory=list)


@dataclass
class _Schedule:
    rate: float
    start: float
    measure_start: float
    window_s: float
    windows: int

    @property
    def end(self) -> float:
        return self.measure_start + self.windows * self.window_s

    def window_of(self, due: float) -> int:
        if due < self.measure_start:
            return -1
        return min(int((due - self.measure_start) / self.window_s),
                   self.windows - 1)


class _Worker:
    """One generator thread: a connection, a seeded op stream and a slot."""

    def __init__(self, index: int, url: str, workload: ServeWorkload,
                 configs: List[TenantConfig], model: Dict[str, bytearray],
                 schedule: _Schedule, seed: int, time_channel: bool):
        self.index = index
        self.client = ServeClient(url, timeout=30.0)
        self.workload = workload
        self.configs = configs
        self.model = model
        self.schedule = schedule
        self.rng = random.Random(seed * 1_000_003 + index)
        self.slot = _Slot([[] for _ in range(schedule.windows)],
                          [0] * schedule.windows)
        self.private = private_chunk(index) * CHUNK_BYTES
        self._channel_s = 0.0
        if time_channel:
            # splits a round trip into ServeClient's JSON/hex work and the
            # HTTP exchange below it
            request = self.client.channel.request

            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return request(*args, **kwargs)
                finally:
                    self._channel_s += time.perf_counter() - start
            self.client.channel.request = timed

    def run(self, sampled: threading.Event) -> None:
        schedule = self.schedule
        period = THREADS / schedule.rate
        for k in itertools.count():
            due = schedule.start + (k + self.index / THREADS) * period
            if due >= schedule.end:
                # the connection lives in this thread; closing it ends its
                # server thread, whose CPU time would then drop out of the
                # sampler's last reading
                sampled.wait()
                self.client.close()
                return
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self._window = schedule.window_of(due)
            self._due: Optional[float] = due
            # tenants in rotation and (serve-hot) ops in a fixed cycle,
            # threads half a cycle apart; the seed picks the bytes
            position = k + self.index * len(HOT_CYCLE) // THREADS
            config = self.configs[position % len(self.configs)]
            try:
                if self.workload.mix == "hot":
                    self._hot_op(config.name,
                                 HOT_CYCLE[position % len(HOT_CYCLE)])
                else:
                    self._cold_op(config)
            except (ServeError, IntegrityError, SecureModeError,
                    ValueError, KeyError) as error:
                self.slot.problems.append(
                    f"{config.name}: {type(error).__name__}: {error}")

    def _request(self, call: Callable, *args):
        """One timed HTTP request (the first of an op is timed from its due time)."""
        sent = time.perf_counter()
        self.slot.attempted += 1
        try:
            return call(*args)
        finally:
            done = time.perf_counter()
            if self._window >= 0:
                origin = sent if self._due is None else self._due
                if self._due is not None:
                    self.slot.late.append(sent - self._due)
                self.slot.round_trips.append(done - sent)
                self.slot.channel.append(self._channel_s)
                self.slot.latencies[self._window].append(done - origin)
                self.slot.requests[self._window] += 1
            self._due = None
            self._channel_s = 0.0

    def _expect(self, name: str, what: str, got: bytes, want: bytes) -> None:
        if got != want:
            self.slot.problems.append(f"{name}: {what} returned wrong bytes")

    def _hot_op(self, name: str, op: str) -> None:
        rng, model = self.rng, self.model[name]
        if op == "readv":
            spans = []
            for _ in range(SPANS_PER_READV):
                length = rng.randrange(1, 65)
                spans.append((rng.randrange(
                    0, WINDOW_CHUNKS * CHUNK_BYTES - length + 1), length))
            got = self._request(self.client.readv, name, spans)
            want = [bytes(model[a:a + n]) for a, n in spans]
            self._expect(name, f"readv{spans}", b"|".join(got), b"|".join(want))
        elif op == "write":
            length = rng.randrange(1, 17)
            address = self.private + rng.randrange(0, CHUNK_BYTES - length + 1)
            data = rng.randbytes(length)
            self._request(self.client.write, name, address, data)
            model[address:address + length] = data
            self.slot.writes.append(("write", name, address, data))
        else:
            self._dma_cycle(name, model)

    def _dma_cycle(self, name: str, model: bytearray) -> None:
        """Section 5.7: unprotect, raw store, refused read, rebuild, read back."""
        data = self.rng.randbytes(CHUNK_BYTES)
        address = self.private
        self._request(self.client.unprotect, name, address, CHUNK_BYTES)
        self._request(self.client.write_unchecked, name, address, data)
        try:
            self._request(self.client.read, name, address, 4)
            self.slot.problems.append(f"{name}: read of unprotected chunk "
                                      f"was not refused")
        except SecureModeError:
            pass
        self._request(self.client.rebuild, name, address, CHUNK_BYTES)
        model[address:address + CHUNK_BYTES] = data
        self.slot.writes.append(("dma", name, address, data))
        got = self._request(self.client.read, name, address, CHUNK_BYTES)
        self._expect(name, f"read({address}) after DMA", got, data)

    def _cold_op(self, config: TenantConfig) -> None:
        length = self.rng.randrange(1, 65)
        address = self.rng.randrange(0, config.data_bytes - length + 1)
        got = self._request(self.client.read, config.name, address, length)
        self._expect(config.name, f"read({address}, {length})", got,
                     bytes(self.model[config.name][address:address + length]))


def _clock(schedule: _Schedule, server_pid: int, cpu: List[Dict[int, int]],
           instructions: List[int], on_phase: Optional[Callable[[str], None]],
           sampled: threading.Event) -> None:
    """Sample the server's CPU time and instructions at every window edge;
    start the measure phase."""
    counter = None
    try:
        for edge in range(schedule.windows + 1):
            delay = schedule.measure_start + edge * schedule.window_s \
                - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if counter is None:
                # by now every connection's handler thread is running
                counter = InstructionCounter.of_process(server_pid)
            instructions.append(counter.read())
            cpu.append(thread_cpu_ns(server_pid))
            if edge == 0 and on_phase is not None:
                on_phase("measure")
    finally:
        sampled.set()
        if counter is not None:
            counter.close()


def drive(server: ServerProcess, workload: ServeWorkload,
          configs: List[TenantConfig], patterns: Dict[str, bytes], seed: int,
          warm_s: float, window_s: float,
          on_phase: Optional[Callable[[str], None]] = None) -> dict:
    """Run the open loop; returns per-window latencies, CPU and problems."""
    model = {name: bytearray(pattern) for name, pattern in patterns.items()}
    start = time.perf_counter() + 0.05
    schedule = _Schedule(workload.rate, start, start + warm_s, window_s,
                         WINDOWS)
    workers = [_Worker(index, server.url, workload, configs, model, schedule,
                       seed, time_channel=on_phase is not None)
               for index in range(THREADS)]
    cpu: List[Dict[int, int]] = []
    instructions: List[int] = []
    sampled = threading.Event()
    threads = [threading.Thread(target=worker.run, args=(sampled,))
               for worker in workers]
    threads.append(threading.Thread(
        target=_clock, args=(schedule, server.pid, cpu, instructions,
                             on_phase, sampled)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if len(instructions) != WINDOWS + 1:
        raise RuntimeError("sampling the server failed (see the traceback "
                           "above)")
    slots = [worker.slot for worker in workers]
    windows = []
    for index in range(WINDOWS):
        latencies = [lat for slot in slots for lat in slot.latencies[index]]
        requests = sum(slot.requests[index] for slot in slots)
        windows.append({
            "samples": len(latencies),
            "p50_s": quantile(latencies, 0.50),
            "p90_s": quantile(latencies, 0.90),
            "p99_s": quantile(latencies, 0.99),
            "p999_s": quantile(latencies, 0.999),
            "cpu_s_per_op": cpu_between(cpu[index], cpu[index + 1])
            / requests,
            "instr_per_op": (instructions[index + 1] - instructions[index])
            / requests,
        })
    return {
        "windows": windows,
        "late": [late for slot in slots for late in slot.late],
        "round_trips": [rt for slot in slots for rt in slot.round_trips],
        "channel": [ch for slot in slots for ch in slot.channel],
        "attempted": sum(slot.attempted for slot in slots),
        "problems": [p for slot in slots for p in slot.problems],
        "writes": [w for slot in slots for w in slot.writes],
        "model": model,
    }


# -- oracles ----------------------------------------------------------------------

def direct_twin(config: TenantConfig, pattern: bytes, writes: List[tuple]):
    """A local tenant filled like the server's, with ``writes`` replayed.

    Threads write disjoint chunks, so concatenating their per-thread
    write lists reproduces the server's final state in any interleaving.
    """
    twin = build_tenant(config)
    verifier = twin.verifier
    verifier.unprotect_range(0, len(pattern))
    verifier.write_without_checking(0, pattern)
    verifier.rebuild_range(0, len(pattern))
    for kind, name, address, data in writes:
        if name != config.name:
            continue
        if kind == "write":
            verifier.write(address, data)
        else:
            verifier.unprotect_range(address, len(data))
            verifier.write_without_checking(address, data)
            verifier.rebuild_range(address, len(data))
    return twin


def twin_problems(twin, expected: bytes) -> List[str]:
    """Differences between a twin's verified full segment and ``expected``."""
    name = twin.config.name
    try:
        direct = twin.verifier.read(0, twin.config.data_bytes)
    except IntegrityError as error:
        return [f"{name}: direct twin failed verification: {error}"]
    if direct != expected:
        return [f"{name}: direct twin diverges from the byte model"]
    return []


def check_segments(client: ServeClient, configs: List[TenantConfig],
                   patterns: Dict[str, bytes], model: Dict[str, bytearray],
                   writes: List[tuple]) -> Tuple[int, List[str]]:
    """Served full segments vs the model vs a direct twin; (requests, problems)."""
    problems: List[str] = []
    requests = 0
    for config in configs:
        size = config.data_bytes
        try:
            served = b"".join(
                client.read(config.name, offset, min(SEGMENT_STEP, size - offset))
                for offset in range(0, size, SEGMENT_STEP))
        except (ServeError, IntegrityError, SecureModeError) as error:
            problems.append(f"{config.name}: segment read failed: {error}")
            served = b""
        requests += -(-size // SEGMENT_STEP)
        if served != bytes(model[config.name]):
            problems.append(f"{config.name}: served segment diverges from "
                            f"the byte model")
        twin = direct_twin(config, patterns[config.name], writes)
        problems.extend(twin_problems(twin, bytes(model[config.name])))
    return requests, problems


def replay_unbatched(config: TenantConfig, log: List[list]) -> Tuple[dict, List[str]]:
    """Replay a server op log into a direct twin, one read per span.

    Returns the work the twin did inside verified reads of the
    ``measure`` phase (``hashes``, ``ram_reads``) and any op whose
    outcome differed from the server's.
    """
    twin = build_tenant(config)
    verifier, tree, memory = twin.verifier, twin.verifier.tree, twin.memory
    work = {"hashes": 0, "ram_reads": 0}
    problems: List[str] = []
    for op, args, error, phase in log:
        before = (stats_hashes(tree.stats.counters), memory.reads)
        outcome = None
        try:
            if op == "read_many":
                for address, length in args[0]:
                    verifier.read(address, length)
            elif op in ("write", "write_without_checking"):
                getattr(verifier, op)(args[0], bytes.fromhex(args[1]))
            else:
                getattr(verifier, op)(*args)
        except (IntegrityError, SecureModeError, ValueError) as exc:
            outcome = type(exc).__name__
        if outcome != error:
            problems.append(f"{config.name}: twin {op}{tuple(args)[:1]} gave "
                            f"{outcome}, server gave {error}")
        if phase == "measure" and op in ("read", "read_many"):
            work["hashes"] += stats_hashes(tree.stats.counters) - before[0]
            work["ram_reads"] += memory.reads - before[1]
    return work, problems


# -- one measured run ------------------------------------------------------------

def measure(workload: ServeWorkload, seed: int, window_s: float, warm_s: float,
            setups: int, traced: bool, probe_saturation: bool = False) -> dict:
    if CPUS is not None:
        pin_threads(os.getpid(), CPUS[1])
    configs = tenant_configs(workload)
    patterns = tenant_patterns(configs, seed)
    setup_times = []
    for attempt in range(setups):
        server, elapsed = boot(configs, patterns, traced,
                               f"{workload.name}-server")
        setup_times.append(elapsed)
        if attempt < setups - 1:
            server.stop()
    try:
        on_phase = None
        if traced:
            on_phase = lambda phase: _set_phase(server, phase)  # noqa: E731
            on_phase("warm")
        run = drive(server, workload, configs, patterns, seed, warm_s,
                    window_s, on_phase)
        if traced:
            on_phase("check")
        requests, problems = check_segments(server.client, configs, patterns,
                                            run["model"], run["writes"])
        run["attempted"] += requests
        run["problems"] += problems
        run["setup_times"] = setup_times
        run["peak_rss_mib"] = peak_rss_mib(server.pid)
        run["configs"] = configs
        if probe_saturation:
            run["saturation_rps"] = saturation(server, configs)
        if traced:
            run["report"] = _control(server, "/_bench/report")
    finally:
        server.stop()
    return run


def _set_phase(server: ServerProcess, phase: str) -> None:
    _control(server, "/_bench/phase", {"phase": phase})


def _control(server: ServerProcess, path: str,
             payload: Optional[dict] = None) -> dict:
    """A request to one of the traced launcher's bench-only routes."""
    request = urllib.request.Request(
        server.url + path,
        data=None if payload is None else json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def saturation(server: ServerProcess, configs: List[TenantConfig],
               seconds: float = 1.0) -> float:
    """Closed-loop point reads on every connection: completed requests/s."""
    counts = [0] * THREADS
    stop_at = time.perf_counter() + seconds

    def loop(index: int) -> None:
        client = ServeClient(server.url)
        rng = random.Random(index)
        try:
            while time.perf_counter() < stop_at:
                config = configs[rng.randrange(len(configs))]
                client.read(config.name, rng.randrange(
                    0, WINDOW_CHUNKS * CHUNK_BYTES - 8), 8)
                counts[index] += 1
        finally:
            client.close()
    threads = [threading.Thread(target=loop, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(counts) / seconds


# -- metrics -------------------------------------------------------------------

def end_to_end(run: dict) -> Dict[str, float]:
    return {
        "setup_s": median(run["setup_times"]),
        "minstr_per_op": _window_median(run, "instr_per_op") / 1e6,
        "peak_rss_mb": run["peak_rss_mib"],
    }


def _window_median(run: dict, key: str) -> float:
    return median([window[key] for window in run["windows"]])


def per_layer(untraced: dict, traced: dict, twin_work: dict) -> Dict[str, float]:
    report = traced["report"]
    totals = report["totals"]["measure"]
    self_s, calls, counts = totals["self_s"], totals["calls"], totals["counts"]
    ops = calls.get("http", 0)
    if not ops:
        raise RuntimeError("traced run recorded no measured requests")

    def per_op_us(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names) / ops * 1e6

    start = report["snapshots"]["measure"]
    end = report["snapshots"]["check"]
    delta: Dict[str, Dict[str, float]] = {}
    for name in end:
        before, after = start[name], end[name]
        delta[name] = {key: after.get(key, 0) - before.get(key, 0)
                       for key in set(after) | set(before)}
    tenants = report["tenants"]
    server_reads = [sum(tally["reads"].get("measure", [0, 0, 0, 0])[i]
                        for tally in tenants.values()) for i in range(4)]
    metrics = {
        "http.self_us": per_op_us("http"),
        "http.body_bytes_per_op": counts.get("http.bytes", 0) / ops,
        "batch.self_us": per_op_us("batch"),
        "batch.wait_us": per_op_us("batch.wait"),
        "batch.mean_size": (server_reads[1] / server_reads[0]
                            if server_reads[0] else 0.0),
        "batch.hashes": server_reads[2],
        "batch.twin_hashes": twin_work["hashes"],
        "batch.ram_reads": server_reads[3],
        "batch.twin_ram_reads": twin_work["ram_reads"],
        "verifier.self_us": per_op_us("verifier"),
        "tree.evictions_per_op": sum(d.get("evictions", 0)
                                     for d in delta.values()) / ops,
        "hash.calls_per_op": calls.get("hash", 0) / ops,
        "hash.us_per_op": per_op_us("hash"),
        "ram.reads_per_op": calls.get("ram.read", 0) / ops,
        "ram.writes_per_op": calls.get("ram.write", 0) / ops,
        "ram.us_per_op": per_op_us("ram.read", "ram.write"),
        "loadgen.late_p99_ms": quantile(untraced["late"], 0.99) * 1e3,
        "trace.overhead_ms": (_window_median(traced, "p50_s")
                              - _window_median(untraced, "p50_s")) * 1e3,
    }
    for scheme in ("naive", "chash", "mhash", "ihash"):
        names = [name for name, tally in tenants.items()
                 if tally["scheme"] == scheme]
        scheme_ops = counts.get(f"ops.{scheme}", 0)
        metrics[f"tree.self_us.{scheme}"] = (
            self_s.get(f"tree.{scheme}", 0.0) / scheme_ops * 1e6
            if scheme_ops else 0.0)
        hits = sum(delta[name].get("cache_hits", 0) for name in names)
        misses = sum(delta[name].get("cache_misses", 0) for name in names)
        metrics[f"tree.hit_ratio.{scheme}"] = (hits / (hits + misses)
                                               if hits + misses else 0.0)
    layer_us = sum(self_s.values()) / ops * 1e6
    client_us = sum(traced["round_trips"]) / len(traced["round_trips"]) * 1e6
    channel_us = sum(traced["channel"]) / len(traced["channel"]) * 1e6
    metrics["client.codec_us"] = client_us - channel_us
    metrics["client.transport_us"] = channel_us - layer_us
    metrics["trace.coverage"] = layer_us / client_us
    return metrics


# -- entry point ---------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    workload = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    warm_s = 0.3 if smoke else WARM_S
    setups = 2 if smoke else SETUPS
    window_s = seconds / WINDOWS
    untraced = measure(workload, seed, window_s, warm_s, setups, traced=False,
                       probe_saturation=trace)
    problems = list(untraced["problems"])
    attempted = untraced["attempted"]
    info = _info(untraced)
    layers: Dict[str, float] = {}
    if trace:
        traced = measure(workload, seed, window_s, warm_s, 1, traced=True)
        problems += traced["problems"]
        attempted += traced["attempted"]
        twin_work = {"hashes": 0, "ram_reads": 0}
        for config in traced["configs"]:
            log = traced["report"]["tenants"][config.name]["log"]
            work, mismatches = replay_unbatched(config, log)
            problems += mismatches
            for key in twin_work:
                twin_work[key] += work[key]
        layers = per_layer(untraced, traced, twin_work)
        info["traced_p50_ms"] = _window_median(traced, "p50_s") * 1e3
        info["trace_file"] = str(OUT / f"trace-{name}.json")
        report = traced["report"]
        write_trace(OUT / f"trace-{name}.json", chrome_events(
            report["spans"], report["pid"], "repro serve (traced)"))
    return {
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems[:20],
        "end_to_end": end_to_end(untraced),
        "per_layer": layers,
        "info": info,
    }


def _info(run: dict) -> dict:
    windows = run["windows"]
    info = {
        "p50_ms": _window_median(run, "p50_s") * 1e3,
        "p90_ms": _window_median(run, "p90_s") * 1e3,
        "p99_ms": _window_median(run, "p99_s") * 1e3,
        "p999_ms": _window_median(run, "p999_s") * 1e3,
        "cpu_us_per_op": _window_median(run, "cpu_s_per_op") * 1e6,
        "samples_per_window": [w["samples"] for w in windows],
        "window_p50_ms": [w["p50_s"] * 1e3 for w in windows],
        "window_minstr_per_op": [w["instr_per_op"] / 1e6 for w in windows],
        "late_p99_ms": quantile(run["late"], 0.99) * 1e3,
        "setup_s_each": run["setup_times"],
    }
    if "saturation_rps" in run:
        info["saturation_rps"] = run["saturation_rps"]
    return info
