"""End-to-end HTTP benchmark of the allFP server, with a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload metro-overlay --seed 1 --seconds 40 --trace 0

It generates the workload's network and request streams from ``--seed``,
launches the real ``repro-allfp serve`` process on them, drives it over
HTTP (a warm-up, an open-loop Poisson phase, then a closed-loop phase),
checks a seeded sample of answers against fixed-departure A*, and prints
every metric.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ledger
from a traced server (plus an untraced pass for the tracing overhead).
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the generator's own p95 lateness beyond which a run is invalid
LATENESS_BOUND_MS = 25.0
#: unmeasured closed-loop warm-up before the open-loop phase
WARMUP_S = 1.0
HEALTH_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 15.0
#: a run that has not finished by then (a hung server) stops, unreported
RUN_TIMEOUT_S = 170

#: end-to-end metrics and units (BENCHMARK.json ``end_to_end``)
E2E_UNITS = {
    "setup_s": "s",
    "query_qps": "1/s",
    "server_pss_mb": "MB",
    "keepalive_ms": "ms",
}

#: per-layer metrics and units (BENCHMARK.json ``per_layer``).  The first
#: eight come from the traced run's untraced pass and carry no bound: the
#: open-loop percentiles moved by more than any allowed bound between runs
#: on a shared 2-core machine, batch and update latency exist on one
#: workload only, and failures are 0 at the seed.
LAYER_UNITS = {
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "failed_share": "ratio",
    "loadgen.lateness_ms_p95": "ms",
    "http.requests": "count",
    "http.self_ms_p50": "ms",
    "shard.pipe_ms_p50": "ms",
    "shard.broadcast_ms_p50": "ms",
    "shard.dispatch_failures": "count",
    "service.self_ms_p50": "ms",
    "service.read_lock_wait_ms_p95": "ms",
    "service.write_lock_wait_ms_p50": "ms",
    "service.engine_rebuilds": "count",
    "service.rejected": "count",
    "engine.run_ms_p50": "ms",
    "engine.run_ms_p95": "ms",
    "engine.labels_per_query": "count",
    "engine.expanded_per_query": "count",
    "engine.pruned_share": "ratio",
    "edge_cache.hit_ratio": "ratio",
    "edge_cache.builds": "count",
    "edge_cache.build_ms_total": "ms",
    **{
        f"kernel.{op}.{field}": unit
        for op in ("compose", "merge_min", "simplify", "lt_somewhere")
        for field, unit in (("calls", "count"), ("ms", "ms"))
    },
    "kernel.merge_per_compose": "ratio",
    "estimators.precompute_s": "s",
    "estimators.bound_calls": "count",
    "estimators.delta_refresh_ms_p50": "ms",
    "overlay.build_s": "s",
    "overlay.build_searches": "count",
    "overlay.shortcuts": "count",
    "updates.apply_ms_p50": "ms",
    "trace.coverage_share": "ratio",
    "trace.server_share": "ratio",
    "trace.overhead_share": "ratio",
}

POINT_KINDS = ("allfp", "singlefp")


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def process_tree(pid: int) -> list[int]:
    """``pid`` and every descendant still running."""
    found, pending = [], [pid]
    while pending:
        current = pending.pop()
        found.append(current)
        for task in Path(f"/proc/{current}/task").glob("*/children"):
            try:
                pending += [int(c) for c in task.read_text().split()]
            except OSError:
                continue
    return found


def pss_mb(pid: int) -> float:
    """Summed proportional set size of the server's process tree."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            text = Path(f"/proc/{member}/smaps_rollup").read_text()
        except OSError:
            continue
        match = re.search(r"^Pss:\s+(\d+) kB", text, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


class Server:
    """One ``repro-allfp serve`` process; ``setup_s`` is launch to the
    first 200 on ``/healthz``."""

    def __init__(self, workload, network_path: str, log_path: Path,
                 trace_dir: str | None = None) -> None:
        self.port = free_port()
        command = [sys.executable, str(HERE / "launch_server.py")]
        if trace_dir is not None:
            command += ["--trace-dir", trace_dir]
        command += [
            "--network", network_path, "--port", str(self.port), "--quiet",
            *workload.serve_flags,
        ]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=self._log, start_new_session=True,
        )
        try:
            self._wait_healthy(started, log_path)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_healthy(self, started: float, log_path: Path) -> None:
        from loadgen import Connection

        while True:
            if self.process.poll() is not None:
                fail(f"server exited with {self.process.returncode} during "
                     f"set-up; log:\n{log_path.read_text()[-2000:]}")
            try:
                conn = Connection("127.0.0.1", self.port)
                status, _ = conn.get("/healthz")
                conn.close()
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() - started > HEALTH_TIMEOUT_S:
                fail("server did not become healthy in time")
            time.sleep(0.01)

    def stop(self) -> None:
        """SIGINT (a clean shutdown that lets tracing write its spans),
        then make sure nothing of the process group survives."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        self._log.close()


def scrape(port: int) -> dict:
    """kernel_backend (a const label) and shard dispatch failures from
    ``/metrics``."""
    from loadgen import Connection

    conn = Connection("127.0.0.1", port)
    try:
        _, body = conn.get("/metrics")
    finally:
        conn.close()
    text = body.decode()
    backend = re.search(r'kernel_backend="([^"]+)"', text)
    failures = sum(
        float(m.group(1)) for m in re.finditer(
            r"^\S*shard_dispatch_failures_total\S*\s+(\S+)$", text, re.MULTILINE
        )
    )
    return {
        "kernel_backend": backend.group(1) if backend else "unknown",
        "dispatch_failures": failures,
    }


def keepalive_ms(port: int, requests: int = 21) -> float:
    """Median time of back-to-back ``GET /healthz`` on one keep-alive
    connection: what an HTTP/1.1 client pays per request beyond the
    server's work."""
    from stats import median

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    times = []
    try:
        for _ in range(requests + 1):
            started = time.perf_counter()
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            times.append((time.perf_counter() - started) * 1e3)
    finally:
        conn.close()
    return median(times[1:])  # the first reply on a connection never waits


def drive(server: Server, inputs, connections: int) -> dict:
    """Warm-up, open-loop phase, closed-loop phase; outcomes and PSS."""
    from loadgen import Connection, run_closed_loop, run_open_loop

    conns = [Connection("127.0.0.1", server.port) for _ in range(connections)]
    try:
        warm, _ = run_closed_loop(conns, inputs.warmup, WARMUP_S)
        pss = [pss_mb(server.process.pid)]
        opened = run_open_loop(conns, inputs.open_ops)
        pss.append(pss_mb(server.process.pid))
        closed, closed_wall = run_closed_loop(
            conns, inputs.closed_reads, inputs.closed_duration,
            inputs.closed_updates,
        )
        pss.append(pss_mb(server.process.pid))
    finally:
        for conn in conns:
            conn.close()
    return {
        "warm": warm, "open": opened, "closed": closed,
        "closed_wall": closed_wall, "pss_mb": max(pss),
        "keepalive_ms": keepalive_ms(server.port),
        **scrape(server.port),
    }


def _ok_batch(outcome) -> bool:
    return outcome.ok and (
        outcome.op.kind != "batch"
        or all(i["error"] is None for i in outcome.doc["result"]["items"])
    )


def summarize(run: dict, inputs, seed: int) -> dict:
    """End-to-end figures of one driven server, including the correctness
    check of a seeded sample of its answers."""
    import oracle
    from loadgen import lateness_p95_ms
    from stats import percentile

    from repro.network.io import load_network

    measured = run["open"] + run["closed"]
    ok = [o for o in measured if _ok_batch(o)]
    updates = [o for o in measured if o.op.kind == "update" and o.ok]
    # A private copy: the check replays the mutation batches onto it.
    errors = oracle.check(
        load_network(inputs.network_path), oracle.sample(ok, seed), updates,
        inputs.batches,
    )
    failed = len(measured) - len(ok) + len(errors)
    point_open = [o.latency * 1e3 for o in run["open"]
                  if o.ok and o.op.kind in POINT_KINDS]
    point_closed = [o for o in run["closed"]
                    if o.ok and o.op.kind in POINT_KINDS]
    batch_open = [o.latency * 1e3 for o in run["open"]
                  if o.ok and o.op.kind == "batch"]
    update_ms = [(o.done - o.sent) * 1e3 for o in updates]
    stats = [o.doc["result"]["stats"] for o in ok if o.op.kind in POINT_KINDS]
    labels = sum(s["labels_generated"] for s in stats)
    pruned = sum(s["pruned_dominated"] + s["pruned_bound"] for s in stats)
    lateness = lateness_p95_ms(run["open"])
    return {
        "errors": errors,
        "attempted": len(measured),
        "failed": failed,
        "lateness_ms": lateness,
        "samples": {"query": len(point_open), "batch": len(batch_open),
                    "update": len(update_ms),
                    "closed_query": len(point_closed)},
        "e2e": {
            "query_qps": len(point_closed) / run["closed_wall"],
            "server_pss_mb": run["pss_mb"],
            "keepalive_ms": run["keepalive_ms"],
        },
        "extra": {
            "query_p50_ms": percentile(point_open, 50),
            "query_p90_ms": percentile(point_open, 90),
            "batch_p50_ms": percentile(batch_open, 50),
            "batch_p90_ms": percentile(batch_open, 90),
            "update_p50_ms": percentile(update_ms, 50),
            "update_p90_ms": percentile(update_ms, 90),
            "failed_share": failed / len(measured) if measured else 0.0,
            "loadgen.lateness_ms_p95": lateness,
            "engine.labels_per_query": labels / len(stats) if stats else 0.0,
            "engine.expanded_per_query": (
                sum(s["expanded_paths"] for s in stats) / len(stats)
                if stats else 0.0
            ),
            "engine.pruned_share": pruned / labels if labels else 0.0,
        },
    }


def serve_and_measure(workload, inputs, seed, work: Path, connections: int,
                      trace_dir: str | None = None) -> tuple[dict, float, dict]:
    server = Server(workload, inputs.network_path, work / "server.log", trace_dir)
    try:
        run = drive(server, inputs, connections)
    finally:
        server.stop()
    return run, server.setup_s, summarize(run, inputs, seed)


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _out_of_time(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S} s")


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured seconds: open-loop plus closed-loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny network, one set-up: checks the benchmark "
                        "itself, figures not comparable")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        fail(f"no server sources at {ROOT / 'src' / 'repro'}; run from a "
             "full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_TIMEOUT_S)
    import numpy

    from ledger import layer_metrics, load
    from stats import median
    from workloads import WORKLOADS, make_inputs, smoke

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    connections = max(1, min(2, os.cpu_count() or 1))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(
            workload, args.seed, args.seconds, str(work / "network.json")
        )
        if args.trace == 0:
            setups = []
            for _ in range(workload.setups - 1):
                extra = Server(workload, inputs.network_path, work / "server.log")
                setups.append(extra.setup_s)
                extra.stop()
            run, setup_s, summary = serve_and_measure(
                workload, inputs, args.seed, work, connections
            )
            setups.append(setup_s)
            metrics = {"setup_s": median(setups), **summary["e2e"]}
            units = E2E_UNITS
            shown = {**metrics, **summary["extra"]}
            summaries = [summary]
        else:
            run, _, plain = serve_and_measure(
                workload, inputs, args.seed, work, connections
            )
            trace_dir = work / "trace"
            trace_dir.mkdir()
            traced_run, _, traced = serve_and_measure(
                workload, inputs, args.seed, work, connections, str(trace_dir)
            )
            metrics = {**plain["extra"], **layer_metrics(load(str(trace_dir)))}
            metrics["shard.dispatch_failures"] = traced_run["dispatch_failures"]
            client = sum(
                o.done - o.sent for phase in ("warm", "open", "closed")
                for o in traced_run[phase]
            )
            handled_ms = metrics.pop("trace.handled_ms", None)
            metrics["trace.server_share"] = (
                handled_ms / 1e3 / client if handled_ms and client else 0.0
            )
            base = plain["extra"]["query_p50_ms"]
            metrics["trace.overhead_share"] = (
                traced["extra"]["query_p50_ms"] / base - 1.0 if base else 0.0
            )
            units = LAYER_UNITS
            shown = metrics
            summaries = [plain, traced]
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "open_rate_per_s": workload.open_rate,
            "update_rate_per_s": workload.update_rate,
            "connections": connections,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel_backend": run["kernel_backend"],
            "git_commit": git_commit(),
            "samples": [s["samples"] for s in summaries],
        }
        print("meta " + json.dumps(meta, sort_keys=True))
        all_units = {**E2E_UNITS, **LAYER_UNITS}
        for name, value in shown.items():
            print(f"{name} = {value:.6g} {all_units[name]}")
        correct = True
        for summary in summaries:
            for error in summary["errors"]:
                print(f"mismatch: {error}", file=sys.stderr)
            if summary["errors"]:
                correct = False
            if summary["lateness_ms"] > LATENESS_BOUND_MS:
                print(f"invalid run: generator p95 lateness "
                      f"{summary['lateness_ms']:.1f} ms exceeds "
                      f"{LATENESS_BOUND_MS} ms", file=sys.stderr)
                correct = False
        result = {
            "correct": correct,
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
