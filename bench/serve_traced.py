"""Traced serve front end: the real server with every layer wrapped in spans.

Run as ``python bench/serve_traced.py --port P`` (with this checkout's
``src`` importable).  It builds the same :class:`TreeForest` and
:func:`make_serve_server` as ``python -m repro serve``, then:

* swaps in a subclass of the server's own handler class whose
  ``parse_request`` opens a root ``http`` span (one request id per
  request) that ``handle_one_request`` closes;
* wraps each new tenant's ``batcher``, ``verifier``, ``verifier.tree``,
  hash functions and ``memory.read``/``write`` *instance* methods in
  child spans (:func:`instrument_tenant`), so nothing under ``src/``
  changes and an untraced server runs the unmodified code;
* logs every verifier operation per tenant, in execution order, so the
  benchmark can replay it into an unbatched direct twin.

Two bench-only routes steer it: ``POST /_bench/phase`` starts a new
accounting phase (snapshotting every tenant's counters) and
``GET /_bench/report`` returns the span totals, counters, kept spans and
operation logs as JSON.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import signal
import threading
from typing import Dict, List, Optional

from harness import Recorder, use_source_tree

use_source_tree()

from repro.serve import TreeForest, make_serve_server  # noqa: E402

#: verifier entry points the handler and batcher call.
VERIFIER_OPS = ("read", "read_many", "write", "read_without_checking",
                "write_without_checking", "unprotect_range", "rebuild_range")
#: tree entry points the verifier calls.
TREE_OPS = ("read", "write", "flush", "invalidate_chunk",
            "rebuild_chunk_from_memory")
#: counters of ``tree.stats`` that count one hash-unit invocation each.
HASH_STATS = ("hash_computations", "mac_computations", "mac_updates")


def stats_hashes(stats: Dict[str, float]) -> int:
    return int(sum(stats.get(key, 0) for key in HASH_STATS))


class TenantTally:
    """Per-tenant work counters kept by the wrappers, plus the op log."""

    def __init__(self, scheme: str):
        self.scheme = scheme
        self.hash_calls = 0
        self.ram_reads = 0
        self.ram_writes = 0
        #: work done inside verified reads, per phase:
        #: phase -> [read calls, spans read, hash calls, RAM reads]
        self.reads: Dict[str, List[int]] = {}
        #: (op, args, error type or None, phase) in execution order
        self.log: List[tuple] = []


def _counted(function, tally: TenantTally, field: str):
    def counted(*args, **kwargs):
        setattr(tally, field, getattr(tally, field) + 1)
        return function(*args, **kwargs)
    return counted


def instrument_tenant(tenant, recorder: Recorder) -> TenantTally:
    """Wrap one tenant's layers in ``recorder`` spans; returns its tally.

    Span names: ``batch`` (``batch.wait`` for a follower that woke with
    another caller's walk), ``verifier``, ``tree.<scheme>``, ``hash`` and
    ``ram.read``/``ram.write``.
    """
    verifier, tree, memory = tenant.verifier, tenant.verifier.tree, tenant.memory
    tally = TenantTally(tenant.config.scheme)

    for name in ("read", "read_many"):
        setattr(tenant.batcher, name,
                _batch_span(getattr(tenant.batcher, name), recorder))
    for name in VERIFIER_OPS:
        operation = _logged(name, getattr(verifier, name), verifier, tally,
                            recorder)
        setattr(verifier, name, recorder.wrap(operation, "verifier"))
    for name in TREE_OPS:
        setattr(tree, name, recorder.wrap(getattr(tree, name),
                                          f"tree.{tally.scheme}"))
    hash_units = [(tree.hash_fn, "digest")]
    if hasattr(tree, "mac"):  # ihash hashes through its XOR-MAC unit
        hash_units += [(tree.mac, "compute"), (tree.mac, "update")]
    for owner, name in hash_units:
        setattr(owner, name, _counted(
            recorder.wrap(getattr(owner, name), "hash"), tally, "hash_calls"))
    memory.read = _counted(recorder.wrap(memory.read, "ram.read"),
                           tally, "ram_reads")
    memory.write = _counted(recorder.wrap(memory.write, "ram.write"),
                            tally, "ram_writes")
    return tally


def _batch_span(function, recorder: Recorder):
    def traced(*args):
        frame = recorder.begin("batch")
        try:
            return function(*args)
        finally:
            if frame[2] == 0.0:
                # no verifier span ran under this call: a follower that
                # only waited for the leader's walk
                frame[0] = "batch.wait"
            recorder.end()
    return traced


def _logged(op: str, function, verifier, tally: TenantTally,
            recorder: Recorder):
    is_read = op in ("read", "read_many")

    def logged(*args):
        # the verifier lock is re-entrant: holding it here makes the log
        # order the execution order, and the counter deltas exact
        with verifier._lock:
            phase = recorder.current_phase()
            hashes, ram_reads = tally.hash_calls, tally.ram_reads
            error: Optional[str] = None
            try:
                return function(*args)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                tally.log.append((op, _jsonable(args), error, phase))
                if is_read:
                    row = tally.reads.setdefault(phase, [0, 0, 0, 0])
                    row[0] += 1
                    row[1] += len(args[0]) if op == "read_many" else 1
                    row[2] += tally.hash_calls - hashes
                    row[3] += tally.ram_reads - ram_reads
    return logged


def _jsonable(args: tuple) -> list:
    return [arg.hex() if isinstance(arg, (bytes, bytearray))
            else [list(span) for span in arg] if isinstance(arg, list)
            else arg for arg in args]


class TracedServer:
    """The forest + HTTP server with tracing attached (see module doc)."""

    def __init__(self, port: int):
        self.recorder = Recorder()
        self.forest = TreeForest(max_tenants=16)
        self.tallies: Dict[str, TenantTally] = {}
        self.snapshots: Dict[str, Dict[str, dict]] = {}
        self._ids = itertools.count()
        create = self.forest.create

        def create_traced(config):
            tenant = create(config)
            self.tallies[config.name] = instrument_tenant(tenant,
                                                          self.recorder)
            return tenant
        self.forest.create = create_traced
        self.server = make_serve_server(self.forest, port=port)
        self.server.RequestHandlerClass = self._handler_class(
            self.server.RequestHandlerClass)

    # -- bench control ------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        """Start ``phase``, snapshotting every tenant's tree counters."""
        taken = {}
        for name in self.forest.names():
            tenant = self.forest.get(name)
            with tenant.verifier._lock:
                taken[name] = dict(tenant.verifier.tree.stats.counters)
        self.snapshots[phase] = taken
        self.recorder.phase = phase

    def report(self) -> dict:
        return {
            "pid": os.getpid(),
            "totals": {phase: self.recorder.totals(phase)
                       for phase in self.snapshots},
            "snapshots": self.snapshots,
            "tenants": {
                name: {"scheme": tally.scheme, "log": tally.log,
                       "reads": tally.reads}
                for name, tally in self.tallies.items()
            },
            "spans": self.recorder.events(),
        }

    # -- handler ------------------------------------------------------------

    def _handler_class(self, base):
        owner = self
        recorder = self.recorder

        class TracedHandler(base):
            def handle_one_request(self):
                self._traced = False
                try:
                    super().handle_one_request()
                finally:
                    if self._traced:
                        self._traced = False
                        recorder.end()

            def parse_request(self):
                recorder.begin("http", next(owner._ids))
                self._traced = True
                parsed = super().parse_request()
                if not parsed or self.path.startswith("/_bench/"):
                    self._traced = False
                    recorder.discard()
                    return parsed
                recorder.count("http.bytes",
                               int(self.headers.get("Content-Length") or 0))
                parts = self.path.strip("/").split("/")
                tally = owner.tallies.get(parts[1]) \
                    if len(parts) > 1 and parts[0] == "t" else None
                if tally is not None:
                    recorder.count(f"ops.{tally.scheme}")
                return parsed

            def send_header(self, keyword, value):
                if self._traced and keyword == "Content-Length":
                    recorder.count("http.bytes", int(value))
                super().send_header(keyword, value)

            def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
                if self.path == "/_bench/report":
                    self._reply(owner.report())
                else:
                    super().do_GET()

            def do_POST(self):  # noqa: N802 - BaseHTTPRequestHandler API
                if self.path == "/_bench/phase":
                    length = int(self.headers.get("Content-Length") or 0)
                    payload = json.loads(self.rfile.read(length) or b"{}")
                    owner.set_phase(str(payload["phase"]))
                    self._reply({"phase": owner.recorder.phase})
                else:
                    super().do_POST()

            def _reply(self, payload: dict) -> None:
                body = json.dumps(payload, separators=(",", ":")).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        return TracedHandler


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    args = parser.parse_args(argv)
    # the op log and kept spans grow to hundreds of thousands of objects;
    # full collections over them would stall requests for tens of ms and
    # charge the pause to whichever layer happened to be running
    gc.disable()
    traced = TracedServer(args.port)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stop.set())
    signal.signal(signal.SIGINT, lambda _signum, _frame: stop.set())
    thread = threading.Thread(target=traced.server.serve_forever, daemon=True)
    thread.start()
    stop.wait()
    traced.server.shutdown()
    thread.join(timeout=5.0)
    traced.server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
