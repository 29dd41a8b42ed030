"""The benchmark's workloads: network, server flags and request streams.

The network and the query pool are fixed per workload; the run's
``--seed`` draws the request stream from them: the order the pooled
queries are asked in, the Poisson arrival times and the mutation batches.  The server
only ever sees the network file and the HTTP requests.  Open-loop rates
are constants (about half the closed-loop capacity measured at seed 1 on a
2-core machine), never derived at run time, so a faster server meets the
same offered load.  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace

from repro.network.generator import MetroConfig, make_metro_network
from repro.network.io import save_network
from repro.serve.updates import EdgeMutation, MutationBatch, slowdown_pattern
from repro.workloads.queries import morning_rush_interval

from loadgen import Op

#: Each update batch mutates 1 to this many edges.
MAX_MUTATIONS = 4

#: Speed factors a mutation applies to an edge's original pattern: lane
#: closures down to 40% and recovery to the original.  No factor exceeds
#: 1, so no update raises the network's top speed.
SLOWDOWN_FACTORS = (0.4, 0.6, 0.8, 1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    metro: MetroConfig
    #: ``repro-allfp serve`` flags besides --network/--port
    serve_flags: tuple[str, ...]
    interval_hours: float
    #: Euclidean-distance bands (miles); point queries take them in turn
    bands: tuple[tuple[float, float], ...]
    #: open-loop arrival rate of reads, requests per second
    open_rate: float
    singlefp_share: float = 0.0
    batch_share: float = 0.0
    batch_targets: int = 0
    #: updates per second beside the reads, in both phases
    update_rate: float = 0.0
    #: server launches per run; setup_s is their median
    setups: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="metro-overlay",
            metro=MetroConfig(
                width=48, height=48, spacing=0.125, vertical_keep=0.17
            ),
            serve_flags=(
                "--estimator", "boundary", "--overlay-levels", "2",
                "--no-result-cache",
            ),
            interval_hours=2.0,
            bands=((4.0, 7.0),),
            open_rate=7.0,
        ),
        Workload(
            name="live-sharded",
            metro=MetroConfig(width=32, height=32),
            serve_flags=(
                "--estimator", "boundary", "--shards", "2", "--no-result-cache",
            ),
            interval_hours=1.0,
            bands=((0.5, 3.0),),
            open_rate=8.0,
            singlefp_share=0.5,
            batch_share=0.2,
            batch_targets=32,
            update_rate=2.0,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """A seconds-long variant of ``workload`` on a small network (for the
    benchmark's own tests; its figures are not comparable)."""
    metro = replace(workload.metro, width=16, height=16, spacing=0.25)
    return replace(
        workload,
        metro=metro,
        bands=((0.5, 2.5),),
        interval_hours=0.5,
        open_rate=4.0,
        batch_targets=min(workload.batch_targets, 8),
        setups=1,
    )


@dataclass
class Inputs:
    """One run's generated inputs."""

    network_path: str
    warmup: list[Op]
    open_ops: list[Op]
    closed_reads: list[Op]
    closed_updates: list[Op]
    #: mutation batches by tag, for replay in the correctness check
    batches: dict[int, MutationBatch]
    closed_duration: float


def _pair(network, ids: list, rng: random.Random, lo: float, hi: float):
    while True:
        source, target = rng.choice(ids), rng.choice(ids)
        if source != target and lo <= network.euclidean(source, target) <= hi:
            return source, target


def _point_op(
    network, workload: Workload, rng: random.Random, ids: list, turn: int
) -> Op:
    source, target = _pair(
        network, ids, rng, *workload.bands[turn % len(workload.bands)]
    )
    interval = morning_rush_interval(workload.interval_hours)
    mode = "singlefp" if _due(turn, workload.singlefp_share) else "allfp"
    body = {
        "source": source,
        "target": target,
        "start": interval.start,
        "end": interval.end,
    }
    return Op(mode, f"/v1/{mode}", json.dumps(body).encode())


def _batch_op(network, workload: Workload, rng: random.Random, ids: list) -> Op:
    lo, hi = workload.bands[0]
    interval = morning_rush_interval(workload.interval_hours)
    while True:
        source = rng.choice(ids)
        candidates = [
            t for t in rng.sample(ids, len(ids))
            if t != source and lo <= network.euclidean(source, t) <= hi
        ]
        if len(candidates) >= workload.batch_targets:
            break
    body = {
        "source": source,
        "targets": candidates[: workload.batch_targets],
        "start": interval.start,
        "end": interval.end,
    }
    return Op("batch", "/v1/batch", json.dumps(body).encode())


def _due(turn: int, share: float) -> bool:
    """Whether the ``turn``-th item is one of a ``share`` spread evenly,
    so every stream has exactly the workload's mix."""
    return int((turn + 1) * share) > int(turn * share)


@dataclass(frozen=True)
class Pool:
    """The workload's fixed queries: point queries (allFP and singleFP in
    the workload's share) and batches.

    Every run asks these same queries, in its own seeded order, so a run's
    latency figures do not depend on which random endpoints its seed drew:
    drawn per seed, 150-200 endpoints alone moved the median query cost by
    ~20% between seeds.  The pool holds one open-loop phase's expected
    arrivals, so each run asks each pooled query about once there.
    """

    points: tuple[Op, ...]
    batches: tuple[Op, ...]


def make_pool(network, workload: Workload, open_duration: float) -> Pool:
    rng = random.Random(f"{workload.name}/pool")
    ids = list(network.node_ids())
    reads = max(1, round(workload.open_rate * open_duration))
    # _reads makes read i a batch when _due(i, batch_share): int(n * share)
    # of the first n reads.
    batches = int(reads * workload.batch_share)
    points = reads - batches
    return Pool(
        tuple(
            _point_op(network, workload, rng, ids, turn)
            for turn in range(points)
        ),
        tuple(_batch_op(network, workload, rng, ids) for _ in range(batches)),
    )


def _reads(pool: Pool, workload: Workload, rng: random.Random, count: int) -> list[Op]:
    """``count`` reads dealt from the pool: every ``1/batch_share``-th a
    batch, each kind from its own deck, reshuffled whenever it runs out."""
    decks: dict[str, list[Op]] = {"points": [], "batches": []}
    ops = []
    for index in range(count):
        kind = "batches" if _due(index, workload.batch_share) else "points"
        if not decks[kind]:
            cards = getattr(pool, kind)
            decks[kind] = rng.sample(cards, len(cards))
        ops.append(decks[kind].pop())
    return ops


def _updates(
    edges: list, workload: Workload, rng: random.Random, duration: float,
    batches: dict[int, MutationBatch],
) -> list[Op]:
    """A fixed-rate update schedule over ``duration`` seconds."""
    ops = []
    if not workload.update_rate:
        return ops
    gap = 1.0 / workload.update_rate
    for k in range(int(duration * workload.update_rate)):
        chosen = rng.sample(edges, rng.randint(1, MAX_MUTATIONS))
        batch = MutationBatch(
            tuple(
                EdgeMutation(
                    e.source, e.target,
                    slowdown_pattern(e.pattern, rng.choice(SLOWDOWN_FACTORS)),
                )
                for e in chosen
            )
        )
        tag = len(batches)
        batches[tag] = batch
        ops.append(
            Op("update", "/v1/updates", json.dumps(batch.to_wire()).encode(),
               due=(k + 0.5) * gap, tag=tag)
        )
    return ops


def make_inputs(
    workload: Workload, seed: int, seconds: float, network_path: str
) -> Inputs:
    """Generate the network file and every request stream for one run.

    The open-loop phase gets 75% of ``seconds`` (latency percentiles need
    the samples), the closed-loop phase the rest.
    """
    network = make_metro_network(workload.metro)
    save_network(network, network_path)
    open_duration = 0.75 * seconds
    closed_duration = seconds - open_duration
    pool = make_pool(network, workload, open_duration)
    rng = random.Random(f"{workload.name}/{seed}")
    # A Poisson process conditioned on its count: given n arrivals in the
    # window, their times are n sorted uniform draws.  Fixing n at the
    # pool size asks every pooled query exactly once in the open loop.
    arrivals = sorted(
        rng.uniform(0.0, open_duration)
        for _ in range(len(pool.points) + len(pool.batches))
    )
    reads = _reads(pool, workload, rng, len(arrivals))
    edges = [e for n in network.node_ids() for e in network.outgoing(n)]
    batches: dict[int, MutationBatch] = {}
    open_ops = [replace(op, due=due) for op, due in zip(reads, arrivals)]
    open_ops += _updates(edges, workload, rng, open_duration, batches)
    open_ops.sort(key=lambda op: op.due)
    return Inputs(
        network_path=network_path,
        warmup=_reads(pool, workload, rng, 64),
        open_ops=open_ops,
        closed_reads=_reads(pool, workload, rng, 2000),
        closed_updates=_updates(edges, workload, rng, closed_duration, batches),
        batches=batches,
        closed_duration=closed_duration,
    )
