"""Per-layer metrics from the traced run's span files.

Each process wrote ``spans-<pid>.json`` (see :mod:`tracing`).  A span's
self time is its duration minus the union of its children's intervals;
a layer metric below picks which spans, and which of their children,
that layer is charged with.
"""

from __future__ import annotations

import glob
import json
import os

from stats import percentile, self_times

ENGINE_RUNS = ("engine.allfp", "engine.singlefp", "engine.profile", "engine.batch")
KERNEL_OPS = ("compose", "merge_min", "simplify", "lt_somewhere")


class Process:
    """One process's spans, indexed for parent/child walks."""

    def __init__(self, doc: dict) -> None:
        self.counters = doc["counters"]
        self.spans = [tuple(s) for s in doc["spans"]]
        self.by_id = {s[0]: s for s in self.spans}
        self.children: dict[int, list] = {}
        for s in self.spans:
            if s[1] is not None:
                self.children.setdefault(s[1], []).append(s)

    def named(self, *names: str) -> list:
        return [s for s in self.spans if s[3] in names]

    def ancestors(self, span) -> list:
        found = []
        parent = self.by_id.get(span[1])
        while parent is not None:
            found.append(parent)
            parent = self.by_id.get(parent[1])
        return found

    def self_ms(self, span, charged: tuple[str, ...] | None = None) -> float:
        """``span``'s duration minus its children's (only children named
        in ``charged``, when given), in milliseconds."""
        kids = [
            c for c in self.children.get(span[0], ())
            if charged is None or c[3] in charged
        ]
        intervals = [(span[4], span[5])] + [(c[4], c[5]) for c in kids]
        own = self_times(intervals, {0: list(range(1, len(intervals)))})[0]
        return own * 1e3


def load(trace_dir: str) -> list[Process]:
    processes = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as handle:
            processes.append(Process(json.load(handle)))
    return processes


def _ms(span) -> float:
    return (span[5] - span[4]) * 1e3


def _counter(processes, name: str) -> list:
    total = [0, 0.0, 0.0]
    for proc in processes:
        calls, seconds, own = proc.counters.get(name, (0, 0.0, 0.0))
        total[0] += calls
        total[1] += seconds
        total[2] += own
    return total


def layer_metrics(processes: list[Process]) -> dict[str, float]:
    """Every per-layer metric the spans and counters give (unit-free
    numbers; units live in BENCHMARK.json)."""
    http, pipe, broadcast = [], [], []
    service_self, read_wait, write_wait = [], [], []
    runs, apply, delta = [], [], []
    rebuilds = rejected = searches = shortcuts = 0
    build_s = 0.0
    covered = handled = 0.0
    for proc in processes:
        for span in proc.named("http.request"):
            own = proc.self_ms(span)
            http.append(own)
            handled += _ms(span)
            covered += _ms(span) - own
        for span in proc.named("shard.query"):
            if span[7] and "worker_s" in span[7]:
                pipe.append(_ms(span) - span[7]["worker_s"] * 1e3)
        broadcast += [_ms(s) for s in proc.named("shard.broadcast")]
        for span in proc.named("service.query"):
            service_self.append(proc.self_ms(span, ENGINE_RUNS))
            if span[7] and span[7].get("error") == "ServiceOverloaded":
                rejected += 1
        read_wait += [_ms(s) for s in proc.named("service.read_lock_wait")]
        write_wait += [_ms(s) for s in proc.named("service.write_lock_wait")]
        for span in proc.named(*ENGINE_RUNS):
            names = [a[3] for a in proc.ancestors(span)]
            if span[2] is not None and not set(names) & set(ENGINE_RUNS):
                runs.append(_ms(span))
            if span[3] == "engine.profile" and "overlay.build" in names:
                searches += 1
        for span in proc.named("engine.construct"):
            names = {a[3] for a in proc.ancestors(span)}
            if not names & (set(ENGINE_RUNS) | {"engine.construct"}):
                rebuilds += 1
        for span in proc.named("overlay.build"):
            build_s += (span[5] - span[4])
            shortcuts += (span[7] or {}).get("shortcuts", 0)
        apply += [_ms(s) for s in proc.named("updates.apply")]
        delta += [_ms(s) for s in proc.named("estimators.delta_refresh")]

    lookups = _counter(processes, "edge_cache.lookups")[0]
    misses = _counter(processes, "edge_cache.misses")[0]
    builds = _counter(processes, "edge_cache.build")
    metrics = {
        "http.requests": len(http),
        "http.self_ms_p50": percentile(http, 50),
        "shard.pipe_ms_p50": percentile(pipe, 50),
        "shard.broadcast_ms_p50": percentile(broadcast, 50),
        "service.self_ms_p50": percentile(service_self, 50),
        "service.read_lock_wait_ms_p95": percentile(read_wait, 95),
        "service.write_lock_wait_ms_p50": percentile(write_wait, 50),
        "service.engine_rebuilds": rebuilds,
        "service.rejected": rejected,
        "engine.run_ms_p50": percentile(runs, 50),
        "engine.run_ms_p95": percentile(runs, 95),
        "edge_cache.hit_ratio": 1.0 - misses / lookups if lookups else 0.0,
        "edge_cache.builds": builds[0],
        "edge_cache.build_ms_total": builds[1] * 1e3,
        "estimators.precompute_s": _counter(processes, "estimators.precompute")[1],
        "estimators.bound_calls": _counter(processes, "estimators.bound")[0],
        "estimators.delta_refresh_ms_p50": percentile(delta, 50),
        "overlay.build_s": build_s,
        "overlay.build_searches": searches,
        "overlay.shortcuts": shortcuts,
        "updates.apply_ms_p50": percentile(apply, 50),
        "trace.coverage_share": covered / handled if handled else 0.0,
        "trace.handled_ms": handled,
    }
    for op in KERNEL_OPS:
        calls, _, own = _counter(processes, f"kernel.{op}")
        metrics[f"kernel.{op}.calls"] = calls
        metrics[f"kernel.{op}.ms"] = own * 1e3
    compose = metrics["kernel.compose.calls"]
    metrics["kernel.merge_per_compose"] = (
        metrics["kernel.merge_min.calls"] / compose if compose else 0.0
    )
    return metrics
