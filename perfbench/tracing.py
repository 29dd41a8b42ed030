"""In-memory span recorder installed into the server by the benchmark.

:func:`install` wraps the public functions of each layer module (the
table in ``README.md``) before the service is built, so nothing under
``src/`` changes.  Two kinds of wrapper:

* **span** — one record per call: id, parent id, request id, name, start,
  end, thread and a few attributes.  Used at layer boundaries that run a
  handful of times per request.
* **count** — per-thread call count, total and self time.  Used for hot
  leaves (kernel operators, edge-function builds, estimator bounds) that
  run thousands of times per request, where a record per call would cost
  more than the call.

Parents come from a per-thread stack of open calls.  The service hands
each query to a pool thread; the wrapper on that hop carries the query
span over, so engine spans on the pool thread have the query as parent.
A request id is assigned by the outermost span of a request in its
process (the HTTP handler in the router, the service query in a shard
worker); a forked shard worker starts with an empty recorder and writes
its own file when its loop ends.  Everything is written by :func:`dump`
as ``spans-<pid>.json`` under the trace directory.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: Names of spans that start a request when no request is open.
REQUEST_ROOTS = ("http.request", "service.query")


class Recorder:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_counters: list[dict] = []
        #: id(request) -> (span id, request id) of an open service query
        self.open_queries: dict[int, tuple[int, int]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counters(self) -> dict:
        counters = getattr(self._local, "counters", None)
        if counters is None:
            counters = self._local.counters = {}
            with self._lock:
                self._thread_counters.append(counters)
        return counters

    def context(self) -> tuple[int | None, int | None]:
        """(parent span id, request id) for a span opened now."""
        for frame in reversed(self._stack()):
            if frame[2] is not None:
                return frame[2], frame[3]
        return getattr(self._local, "hop", (None, None))

    def call(self, name: str, span: bool, fn, args, kwargs, attrs_of=None):
        stack = self._stack()
        span_id = rid = parent = None
        if span:
            parent, rid = self.context()
            span_id = next(self._ids)
            if rid is None and name in REQUEST_ROOTS:
                rid = next(self._rids)
        frame = [time.perf_counter(), 0.0, span_id, rid]
        stack.append(frame)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs = attrs_of(args, result)
            return result
        except BaseException as exc:
            attrs = {"error": type(exc).__name__}
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[0]
            if stack:
                stack[-1][1] += duration
            if span:
                self.spans.append(
                    (span_id, parent, rid, name, frame[0], end,
                     threading.get_ident(), attrs)
                )
            else:
                entry = self._counters().get(name)
                if entry is None:
                    entry = self._counters()[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]

    def count(self, name: str, n: int = 1) -> None:
        entry = self._counters().setdefault(name, [0, 0.0, 0.0])
        entry[0] += n

    def counters(self) -> dict[str, list]:
        merged: dict[str, list] = {}
        with self._lock:
            tables = list(self._thread_counters)
        for table in tables:
            for name, (calls, total, own) in list(table.items()):
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return merged


RECORDER = Recorder()


def _shortcuts(args, overlay) -> dict:
    return {"shortcuts": sum(level.shortcut_count for level in overlay.levels)}


def _worker_seconds(args, response) -> dict:
    return {"worker_s": response.elapsed_seconds}


#: (module, attribute path, recorded name, span?, attributes from result)
TARGETS = (
    ("repro.serve.http", "_Handler.do_POST", "http.request", True, None),
    ("repro.serve.service", "AllFPService.query", "service.query", True, None),
    ("repro.serve.service", "AllFPService.apply_updates", "service.apply_updates", True, None),
    ("repro.serve.updates", "ReadWriteLock.acquire_read", "service.read_lock_wait", True, None),
    ("repro.serve.updates", "ReadWriteLock.acquire_write", "service.write_lock_wait", True, None),
    ("repro.serve.updates", "apply_batch", "updates.apply", True, None),
    ("repro.shard.tier", "ShardedService.query", "shard.query", True, _worker_seconds),
    ("repro.shard.tier", "ShardedService.apply_updates", "shard.broadcast", True, None),
    ("repro.core.engine", "IntAllFastestPaths.__init__", "engine.construct", True, None),
    ("repro.core.engine", "IntAllFastestPaths.all_fastest_paths", "engine.allfp", True, None),
    ("repro.core.engine", "IntAllFastestPaths.single_fastest_path", "engine.singlefp", True, None),
    ("repro.hierarchy.engine", "OverlayEngine.__init__", "engine.construct", True, None),
    ("repro.hierarchy.engine", "OverlayEngine.all_fastest_paths", "engine.allfp", True, None),
    ("repro.hierarchy.engine", "OverlayEngine.single_fastest_path", "engine.singlefp", True, None),
    ("repro.core.profile", "profile_search", "engine.profile", True, None),
    ("repro.core.batch", "batch_fastest_times", "engine.batch", True, None),
    ("repro.hierarchy.overlay", "MultiLevelOverlay.build", "overlay.build", True, _shortcuts),
    ("repro.estimators.boundary", "BoundaryNodeEstimator.refresh_delta", "estimators.delta_refresh", True, None),
    ("repro.estimators.boundary", "BoundaryNodeEstimator.precompute", "estimators.precompute", False, None),
    ("repro.estimators.boundary", "BoundaryNodeEstimator.bound", "estimators.bound", False, None),
    ("repro.patterns.travel_time", "edge_arrival_function", "edge_cache.build", False, None),
    ("repro.func.kernel", "compose", "kernel.compose", False, None),
    ("repro.func.kernel", "merge_min", "kernel.merge_min", False, None),
    ("repro.func.kernel", "simplify", "kernel.simplify", False, None),
    ("repro.func.kernel", "lt_somewhere", "kernel.lt_somewhere", False, None),
)


def _wrap(fn, name: str, span: bool, attrs_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return RECORDER.call(name, span, fn, args, kwargs, attrs_of)

    return wrapper


def _wrap_arrival(fn):
    """Edge-function cache lookups: hits and misses by the cache's own
    counters, skipping shortcut edges that carry their own function."""

    @functools.wraps(fn)
    def arrival(self, edge, lo, hi):
        if getattr(edge, "arrival_function", None) is not None:
            return fn(self, edge, lo, hi)
        misses = self.misses
        result = fn(self, edge, lo, hi)
        RECORDER.count("edge_cache.lookups")
        if self.misses != misses:
            RECORDER.count("edge_cache.misses")
        return result

    return arrival


def _wrap_hop(fn):
    """The service's hand-off of a query to its pool thread."""

    @functools.wraps(fn)
    def run_engine(self, request, *args, **kwargs):
        local = RECORDER._local
        saved = getattr(local, "hop", (None, None))
        local.hop = RECORDER.open_queries.get(id(request), (None, None))
        try:
            return fn(self, request, *args, **kwargs)
        finally:
            local.hop = saved

    return run_engine


def _wrap_query_registry(fn):
    """Publish the open query span so the pool thread can parent to it."""

    @functools.wraps(fn)
    def query(self, request):
        def run(service, req):
            span_id = RECORDER._stack()[-1][2]
            RECORDER.open_queries[id(req)] = (span_id, RECORDER._stack()[-1][3])
            try:
                return fn(service, req)
            finally:
                RECORDER.open_queries.pop(id(req), None)

        return RECORDER.call("service.query", True, run, (self, request), {})

    return query


def _wrap_worker(fn, trace_dir: str):
    """Shard worker entry: start from an empty recorder (the fork copied
    the router's), write this process's spans when the loop ends."""

    @functools.wraps(fn)
    def run_worker(*args, **kwargs):
        RECORDER.reset()
        try:
            return fn(*args, **kwargs)
        finally:
            dump(trace_dir, "shard-worker")

    return run_worker


def _replace_everywhere(original, wrapper) -> None:
    """Point every ``repro`` module global that names ``original`` at
    ``wrapper`` (callers that imported the function by name)."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(trace_dir: str) -> None:
    """Wrap every target; call once, before the service is built."""
    from repro import cli  # noqa: F401 — loads every module the server uses

    for module_name, path, name, span, attrs_of in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        if path == "AllFPService.query":
            wrapper = _wrap_query_registry(original)
        else:
            wrapper = _wrap(original, name, span, attrs_of)
        setattr(owner, attr, wrapper)
        if not owner_name:
            _replace_everywhere(original, wrapper)
    runtime = importlib.import_module("repro.core.runtime")
    cache = runtime.EdgeFunctionCache
    cache.arrival = _wrap_arrival(cache.arrival)
    service = importlib.import_module("repro.serve.service").AllFPService
    service._run_engine = _wrap_hop(service._run_engine)
    worker = importlib.import_module("repro.shard.worker")
    original = worker.run_worker
    _replace_everywhere(original, _wrap_worker(original, trace_dir))


def dump(trace_dir: str, role: str) -> str:
    """Write this process's spans and counters; returns the file path."""
    path = os.path.join(trace_dir, f"spans-{os.getpid()}.json")
    doc = {
        "pid": os.getpid(),
        "role": role,
        "spans": RECORDER.spans,
        "counters": RECORDER.counters(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path
