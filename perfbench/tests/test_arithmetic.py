"""The benchmark's own arithmetic: percentiles, schedule timing, span
self times, and the metric table against BENCHMARK.json."""

import json
import random
from pathlib import Path

import numpy
import pytest

import ledger
import run
from loadgen import ClosedSource, Op, Outcome, run_open_loop
from stats import percentile, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


class TestPercentile:
    def test_interpolates_between_ranks(self):
        assert percentile([4, 1, 3, 2], 50) == 2.5
        assert percentile([1, 2, 3, 4], 0) == 1
        assert percentile([1, 2, 3, 4], 100) == 4
        assert percentile([10], 95) == 10

    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_matches_numpy_default(self):
        rng = random.Random(7)
        for _ in range(50):
            values = [rng.expovariate(1.0) for _ in range(rng.randint(1, 300))]
            for q in (50, 90, 95, 99):
                assert percentile(values, q) == pytest.approx(
                    float(numpy.percentile(values, q)), rel=1e-12
                )


class FakeClock:
    """Time advances only when the generator sleeps or a request is sent."""

    def __init__(self, oversleep: float = 0.0) -> None:
        self.now = 100.0
        self.oversleep = oversleep

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds + self.oversleep


class FakeConnection:
    def __init__(self, clock: FakeClock, service: float) -> None:
        self.clock = clock
        self.service = service

    def send(self, op):
        self.clock.now += self.service
        return 200, {"ok": True}, None


def _ops(*dues):
    return [Op("allfp", "/v1/allfp", b"{}", due=d) for d in dues]


class TestScheduledSend:
    def test_latency_counts_wait_behind_a_slow_reply(self):
        clock = FakeClock()
        outcomes = run_open_loop(
            [FakeConnection(clock, 0.12)], _ops(0.0, 0.1, 0.15),
            clock=clock, sleep=clock.sleep, lead=0.0,
        )
        assert [round(o.latency, 9) for o in outcomes] == [0.12, 0.14, 0.21]
        # The request waited for the connection, not for the generator.
        assert [round(o.lateness, 9) for o in outcomes] == [0.0, 0.0, 0.0]

    def test_idle_generator_sends_on_schedule(self):
        clock = FakeClock()
        outcomes = run_open_loop(
            [FakeConnection(clock, 0.01)], _ops(0.0, 0.5, 1.0),
            clock=clock, sleep=clock.sleep, lead=0.0,
        )
        assert [round(o.sent - outcomes[0].sent, 9) for o in outcomes] == [
            0.0, 0.5, 1.0
        ]
        assert all(round(o.latency, 9) == 0.01 for o in outcomes)

    def test_oversleeping_is_the_generators_lateness(self):
        clock = FakeClock(oversleep=0.005)
        outcomes = run_open_loop(
            [FakeConnection(clock, 0.01)], _ops(0.2, 0.4),
            clock=clock, sleep=clock.sleep, lead=0.0,
        )
        assert [round(o.lateness, 9) for o in outcomes] == [0.005, 0.005]
        assert [round(o.latency, 9) for o in outcomes] == [0.015, 0.015]

    def test_outcome_lateness_excludes_connection_wait(self):
        op = _ops(0.0)[0]
        outcome = Outcome(op, 200, due=1.0, picked=1.3, sent=1.302, done=1.5)
        assert outcome.latency == pytest.approx(0.5)
        assert outcome.lateness == pytest.approx(0.002)

    def test_closed_source_sends_due_updates_first(self):
        reads = _ops(0, 0)
        updates = [Op("update", "/v1/updates", b"{}", due=1.0, tag=0)]
        source = ClosedSource(reads, updates, start=10.0)
        assert source.take(10.5)[0].kind == "allfp"
        op, due = source.take(11.2)
        assert (op.kind, due) == ("update", 11.0)
        assert source.take(11.3)[0].kind == "allfp"


class TestSelfTime:
    def test_children_union_is_subtracted_once(self):
        spans = [(0.0, 10.0), (1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]
        assert self_times(spans, {0: [1, 2, 3]})[0] == pytest.approx(4.0)

    def test_leaf_self_time_is_its_duration(self):
        assert self_times([(2.0, 3.5)], {}) == [1.5]

    def test_ledger_charges_each_layer(self):
        ms = 1e-3
        doc = {
            "counters": {
                "kernel.compose": [10, 4 * ms, 3 * ms],
                "kernel.merge_min": [4, 1 * ms, 1 * ms],
                "edge_cache.lookups": [8, 0.0, 0.0],
                "edge_cache.misses": [2, 0.0, 0.0],
            },
            "spans": [
                (1, None, 1, "http.request", 0.0, 10 * ms, 1, None),
                (2, 1, 1, "service.query", 1 * ms, 9 * ms, 1, None),
                (3, 2, 1, "service.read_lock_wait", 1 * ms, 2 * ms, 1, None),
                (4, 2, 1, "engine.allfp", 2 * ms, 8 * ms, 2, None),
                (5, 4, 1, "engine.construct", 2 * ms, 3 * ms, 2, None),
            ],
        }
        metrics = ledger.layer_metrics([ledger.Process(doc)])
        assert metrics["http.self_ms_p50"] == pytest.approx(2.0)
        assert metrics["service.self_ms_p50"] == pytest.approx(2.0)
        assert metrics["engine.run_ms_p50"] == pytest.approx(6.0)
        assert metrics["service.read_lock_wait_ms_p95"] == pytest.approx(1.0)
        assert metrics["service.engine_rebuilds"] == 0
        assert metrics["trace.coverage_share"] == pytest.approx(0.8)
        assert metrics["edge_cache.hit_ratio"] == pytest.approx(0.75)
        assert metrics["kernel.compose.ms"] == pytest.approx(3.0)
        assert metrics["kernel.merge_per_compose"] == pytest.approx(0.4)


class TestBenchmarkFile:
    @pytest.fixture(scope="class")
    def spec(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_end_to_end_names_and_units(self, spec):
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        assert declared == run.E2E_UNITS
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["better"] == "lower"
        assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])

    def test_per_layer_names_and_units(self, spec):
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        assert declared == run.LAYER_UNITS

    def test_workloads_match(self, spec):
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    def test_command_and_paths(self, spec):
        assert spec["command"] == ["python3", "perfbench/run.py"]
        assert spec["paths"] == ["perfbench"]
