"""HTTP load generator: open-loop on a schedule, closed-loop at full speed.

Each of at most ``nproc`` threads owns one persistent ``http.client``
connection.  In the open loop every request has a *due* time; a thread
takes the next request in schedule order, sleeps until it is due, sends
it and waits for the reply.  Latency is measured from the due time, so a
server stall that keeps both connections busy delays later requests and
that wait is counted.  The generator's own lateness is the part of the
send delay it caused itself: ``sent - max(due, picked)``, where
``picked`` is when a free thread took the request.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable

from stats import percentile

REQUEST_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Op:
    """One request: ``kind`` is allfp/singlefp/batch/update."""

    kind: str
    path: str
    body: bytes
    #: seconds after the phase start; open-loop and update schedules only
    due: float = 0.0
    #: caller's key into its own bookkeeping (e.g. the mutation batch)
    tag: int = -1


@dataclass
class Outcome:
    op: Op
    status: int
    #: perf_counter instants: due (absolute), picked by a thread, sent, done
    due: float
    picked: float
    sent: float
    done: float
    doc: dict | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its reply."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """Seconds the generator itself sent late (never the wait for a
        free connection, which the server's slowness causes)."""
        return self.sent - max(self.due, self.picked)


class Connection:
    """A persistent HTTP/1.1 connection that reconnects after a failure."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._conn = self._open()

    def _open(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self._host, self._port, timeout=REQUEST_TIMEOUT_S
        )

    def send(self, op: Op) -> tuple[int, dict | None, str | None]:
        try:
            self._conn.request(
                "POST", op.path, body=op.body,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            self._conn = self._open()
            return 0, None, f"{type(exc).__name__}: {exc}"
        try:
            doc = json.loads(data)
        except ValueError as exc:
            return response.status, None, f"bad JSON reply: {exc}"
        return response.status, doc, None

    def get(self, path: str) -> tuple[int, bytes]:
        self._conn.request("GET", path)
        response = self._conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self._conn.close()


def _run_threads(connections: list, target: Callable[[object], None]) -> None:
    """Run ``target(conn)`` on the calling thread plus one thread per extra
    connection, so the generator never holds more threads than
    connections."""
    threads = [
        threading.Thread(target=target, args=(conn,), daemon=True)
        for conn in connections[1:]
    ]
    for thread in threads:
        thread.start()
    target(connections[0])
    for thread in threads:
        thread.join()


def run_open_loop(
    connections: list,
    ops: list[Op],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    lead: float = 0.05,
) -> list[Outcome]:
    """Send ``ops`` (sorted by ``due``) on schedule; one outcome each."""
    start = clock() + lead
    outcomes: list[Outcome | None] = [None] * len(ops)
    lock = threading.Lock()
    cursor = [0]

    def drive(conn) -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(ops):
                    return
                cursor[0] = index + 1
            op = ops[index]
            picked = clock()
            due = start + op.due
            if due > picked:
                sleep(due - picked)
            sent = clock()
            status, doc, error = conn.send(op)
            outcomes[index] = Outcome(
                op, status, due, picked, sent, clock(), doc, error
            )

    _run_threads(connections, drive)
    return outcomes  # type: ignore[return-value]


class ClosedSource:
    """Closed-loop request supply: the next read in a cycle, unless an
    update from the fixed-rate update schedule has come due."""

    def __init__(self, reads: list[Op], updates: list[Op], start: float) -> None:
        if not reads:
            raise ValueError("closed loop needs at least one read")
        self._reads = reads
        self._updates = updates
        self._start = start
        self._next_read = 0
        self._next_update = 0
        self._lock = threading.Lock()

    def take(self, now: float) -> tuple[Op, float]:
        """The op to send now and the instant it became due."""
        with self._lock:
            if self._next_update < len(self._updates):
                update = self._updates[self._next_update]
                due = self._start + update.due
                if due <= now:
                    self._next_update += 1
                    return update, due
            op = self._reads[self._next_read % len(self._reads)]
            self._next_read += 1
            return op, now


def run_closed_loop(
    connections: list,
    reads: list[Op],
    duration: float,
    updates: list[Op] = (),
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[list[Outcome], float]:
    """Each connection sends its next request as soon as the last reply
    arrives, for ``duration`` seconds; returns outcomes and the measured
    wall time (to the last reply)."""
    start = clock()
    end = start + duration
    source = ClosedSource(reads, list(updates), start)
    outcomes: list[Outcome] = []
    lock = threading.Lock()

    def drive(conn) -> None:
        while True:
            now = clock()
            if now >= end:
                return
            op, due = source.take(now)
            sent = clock()
            status, doc, error = conn.send(op)
            outcome = Outcome(op, status, due, now, sent, clock(), doc, error)
            with lock:
                outcomes.append(outcome)

    _run_threads(connections, drive)
    finished = max((o.done for o in outcomes), default=end)
    return outcomes, max(finished, end) - start


def lateness_p95_ms(outcomes: list[Outcome]) -> float:
    return percentile([o.lateness for o in outcomes], 95.0) * 1e3
