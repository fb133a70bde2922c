"""Shared plumbing for the benchmark: paths, statistics, process probes
and the span recorder behind ``--trace``.

Everything here is stdlib-only and imports nothing from ``repro``, so the
benchmark can refuse cleanly (non-zero exit, no result line) when it is
run from a directory that does not hold the program's sources.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import socket
import struct
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: scratch output (traces, stores, logs); ignored by git.
OUT = BENCH / "out"


def source_tree_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for subprocesses that must import this checkout's ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def scratch_dir(name: str) -> Path:
    """A fresh directory under :data:`OUT` (the benchmark writes nowhere else)."""
    path = OUT / f"{name}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# -- statistics ---------------------------------------------------------------

def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (``numpy.quantile``'s default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


# -- process probes (Linux /proc) ---------------------------------------------

def thread_cpu_ns(pid: int) -> Dict[int, int]:
    """Nanoseconds on CPU (user + system) of every live thread of ``pid``.

    Read from ``/proc/<pid>/task/<tid>/schedstat``: nanosecond resolution,
    where ``/proc/<pid>/stat`` counts whole clock ticks.
    """
    times = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat",
                      encoding="ascii") as handle:
                times[int(tid)] = int(handle.read().split()[0])
        except FileNotFoundError:
            pass  # the thread ended meanwhile
    return times


def cpu_between(before: Dict[int, int], after: Dict[int, int]) -> float:
    """CPU seconds between two :func:`thread_cpu_ns` samples of one process."""
    return sum(ns - before.get(tid, 0) for tid, ns in after.items()) / 1e9


def cpu_pair() -> Optional[Tuple[int, int]]:
    """Two CPUs this process may run on, or ``None`` when it has one."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else None


def pin_threads(pid: int, cpu: int) -> None:
    """Pin every thread of ``pid`` to ``cpu``; threads it starts later inherit."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:
            pass  # the thread ended meanwhile


def peak_rss_mib(pid: int) -> float:
    """The high-water resident set size (``VmHWM``) of process ``pid``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


# -- hardware instruction counters (Linux perf_event_open) ---------------------

_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}
_PERF_TYPE_HARDWARE = 0
_PERF_COUNT_HW_INSTRUCTIONS = 1
#: perf_event_attr flag bits: inherit, exclude_kernel, exclude_hv.
_PERF_FLAGS = (1 << 1) | (1 << 5) | (1 << 6)
_PERF_FLAG_FD_CLOEXEC = 1 << 3


class _PerfEventAttr(ctypes.Structure):
    """``struct perf_event_attr`` up to the fields used here (112 bytes)."""

    _fields_ = [("type", ctypes.c_uint32), ("size", ctypes.c_uint32),
                ("config", ctypes.c_uint64), ("sample_period", ctypes.c_uint64),
                ("sample_type", ctypes.c_uint64),
                ("read_format", ctypes.c_uint64), ("flags", ctypes.c_uint64),
                ("rest", ctypes.c_uint8 * 64)]


class InstructionCounter:
    """User-space instructions retired by a set of threads.

    One hardware counter per thread of ``tids`` (``0``: the calling
    thread), each inherited by every thread and process that thread
    starts afterwards, so a read covers them too, running or ended.  On a
    shared host a thread's speed drifts with its neighbours' load, but the
    instructions it retires for the same work do not.
    """

    def __init__(self, tids: Iterable[int] = (0,)):
        number = _PERF_EVENT_OPEN.get(platform.machine())
        if number is None:
            raise OSError(f"no perf_event_open on {platform.machine()}")
        syscall = ctypes.CDLL(None, use_errno=True).syscall
        syscall.restype = ctypes.c_long
        syscall.argtypes = [ctypes.c_long, ctypes.POINTER(_PerfEventAttr),
                            ctypes.c_long, ctypes.c_long, ctypes.c_long,
                            ctypes.c_ulong]
        attr = _PerfEventAttr(type=_PERF_TYPE_HARDWARE,
                              size=ctypes.sizeof(_PerfEventAttr),
                              config=_PERF_COUNT_HW_INSTRUCTIONS,
                              flags=_PERF_FLAGS)
        self._fds: List[int] = []
        try:
            for tid in tids:
                fd = syscall(number, ctypes.byref(attr), tid, -1, -1,
                             _PERF_FLAG_FD_CLOEXEC)
                if fd < 0:
                    errno = ctypes.get_errno()
                    if errno == 3 and tid:  # ESRCH: the thread has ended
                        continue
                    raise OSError(errno, "perf_event_open (instructions): "
                                  + os.strerror(errno))
                self._fds.append(fd)
        except BaseException:
            self.close()
            raise

    @classmethod
    def of_process(cls, pid: int) -> "InstructionCounter":
        """Every live thread of ``pid``, and the threads they start later."""
        return cls(int(tid) for tid in os.listdir(f"/proc/{pid}/task"))

    def read(self) -> int:
        return sum(struct.unpack("Q", os.read(fd, 8))[0] for fd in self._fds)

    def close(self) -> None:
        for fd in self._fds:
            os.close(fd)
        self._fds = []


# -- spans --------------------------------------------------------------------

class _ThreadTally:
    """One thread's span stack and running totals (written by that thread only)."""

    __slots__ = ("tid", "stack", "self_s", "calls", "counts", "events")

    def __init__(self, tid: int):
        self.tid = tid
        #: open frames: [name, start, child_seconds, request_id, phase, keep]
        self.stack: List[list] = []
        self.self_s: Dict[Tuple[str, str], float] = {}
        self.calls: Dict[Tuple[str, str], int] = {}
        self.counts: Dict[Tuple[str, str], float] = {}
        self.events: List[tuple] = []


class Recorder:
    """Nested spans through a thread-local stack, kept in memory.

    A span's *self time* is its duration minus the time its child spans
    cover.  Totals are kept per ``(phase, name)``; a span inherits the
    phase and request id of the outermost span open on its thread, so
    work is attributed to the phase in which its request began.  Raw
    spans are kept only for the first ``keep_requests`` requests of each
    phase, to bound the trace file; totals always cover every span.
    """

    def __init__(self, keep_requests: int = 2000):
        self.phase = "setup"
        self.keep_requests = keep_requests
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: List[_ThreadTally] = []
        self._roots: Dict[str, int] = {}

    def _tally(self) -> _ThreadTally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            tally = _ThreadTally(threading.get_ident())
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    def current_phase(self) -> str:
        stack = self._tally().stack
        return stack[0][4] if stack else self.phase

    def begin(self, name: str, request_id: Optional[int] = None) -> list:
        stack = self._tally().stack
        if stack:
            request_id, phase, keep = stack[0][3], stack[0][4], stack[0][5]
        else:
            phase = self.phase
            with self._lock:
                seen = self._roots.get(phase, 0)
                self._roots[phase] = seen + 1
            keep = seen < self.keep_requests
        frame = [name, time.perf_counter(), 0.0, request_id, phase, keep]
        stack.append(frame)
        return frame

    def end(self) -> None:
        now = time.perf_counter()
        tally = self._local.tally
        name, start, child, request_id, phase, keep = tally.stack.pop()
        duration = now - start
        if tally.stack:
            tally.stack[-1][2] += duration
        key = (phase, name)
        tally.self_s[key] = tally.self_s.get(key, 0.0) + duration - child
        tally.calls[key] = tally.calls.get(key, 0) + 1
        if keep:
            tally.events.append((name, start, duration, request_id))

    def discard(self) -> None:
        """Drop the innermost open span without recording it."""
        self._local.tally.stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        tally = self._tally()
        key = (self.current_phase(), name)
        tally.counts[key] = tally.counts.get(key, 0) + amount

    def wrap(self, function, name: str):
        """``function`` timed as a span called ``name``."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                end()
        return traced

    def totals(self, phase: str) -> Dict[str, Dict[str, float]]:
        """``{"self_s": {...}, "calls": {...}, "counts": {...}}`` for a phase."""
        merged: Dict[str, Dict[str, float]] = {
            "self_s": {}, "calls": {}, "counts": {}}
        with self._lock:
            tallies = list(self._tallies)
        for tally in tallies:
            for field in merged:
                for (span_phase, name), value in list(
                        getattr(tally, field).items()):
                    if span_phase == phase:
                        merged[field][name] = merged[field].get(name, 0) + value
        return merged

    def events(self) -> List[tuple]:
        """Kept spans as ``(name, start_s, duration_s, request_id, tid)``."""
        with self._lock:
            tallies = list(self._tallies)
        return [event + (tally.tid,) for tally in tallies
                for event in list(tally.events)]


def chrome_events(spans: Iterable[Sequence], pid: int,
                  process_name: str) -> List[dict]:
    """Trace-event (``ph: X``) records for Perfetto / chrome://tracing."""
    events: List[dict] = [{"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": process_name}}]
    for name, start, duration, request_id, tid in spans:
        events.append({
            "name": name, "cat": name.split(".")[0], "ph": "X",
            "ts": start * 1e6, "dur": duration * 1e6,
            "pid": pid, "tid": tid, "args": {"rid": request_id},
        })
    return events


def write_trace(path: Path, events: List[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
