"""Correctness check of sampled answers against fixed-departure A*.

A piecewise-linear answer is checked at its own breakpoints: at each
sampled departure instant, the independent time-dependent A* oracle
(:func:`repro.core.astar.fixed_departure_query`) must find the same travel
time.  Answers are checked at the network version the server stamped on
them; for a live workload the benchmark replays its own mutation batches,
in version order, on a private copy of the network.
"""

from __future__ import annotations

import random

from repro.core.astar import fixed_departure_query
from repro.estimators.naive import NaiveEstimator
from repro.serve.updates import apply_batch

#: relative tolerance between an answer and the oracle (minutes)
REL_TOL = 1e-6

POINT_SAMPLES = 6
BATCH_SAMPLES = 2
ITEMS_PER_BATCH = 2


def _breakpoints(function: list) -> list:
    """First, middle and last breakpoint of a ``[[x, y], ...]`` list."""
    picks = sorted({0, len(function) // 2, len(function) - 1})
    return [function[i] for i in picks]


def _check_function(network, source, target, function, label) -> list[str]:
    estimator = NaiveEstimator(network)
    estimator.prepare(target)
    errors = []
    for depart, travel in _breakpoints(function):
        found = fixed_departure_query(
            network, source, target, depart, estimator.bound
        ).travel_time
        if abs(found - travel) > REL_TOL * max(1.0, abs(found)):
            errors.append(
                f"{label} {source}->{target} at {depart:.4f}: answer "
                f"{travel!r} min, A* {found!r} min"
            )
    return errors


def check_answer(network, kind: str, doc: dict) -> list[str]:
    """Mismatches between one 200 reply and the oracle (empty when right)."""
    result = doc["result"]
    if kind == "allfp":
        return _check_function(
            network, result["source"], result["target"], result["border"],
            "allfp",
        )
    if kind == "singlefp":
        function = result["travel_time_function"]
        errors = _check_function(
            network, result["source"], result["target"], function, "singlefp"
        )
        best = min(y for _, y in function)
        optimum = result["optimal_travel_time"]
        if abs(best - optimum) > REL_TOL * max(1.0, abs(best)):
            errors.append(
                f"singlefp optimum {optimum!r} differs from its function's "
                f"minimum {best!r}"
            )
        return errors
    if kind == "batch":
        errors = []
        items = [i for i in result["items"] if i["error"] is None]
        if len(items) != len(result["items"]):
            errors.append("batch item(s) failed")
        rng = random.Random(len(items))
        for item in rng.sample(items, min(ITEMS_PER_BATCH, len(items))):
            errors += _check_function(
                network, item["source"], item["target"],
                item["travel_time_function"], "batch item",
            )
        return errors
    raise ValueError(f"no oracle for {kind!r}")


def sample(outcomes: list, seed: int) -> list:
    """A seeded sample of the successful reads: point answers and batches."""
    rng = random.Random(seed)
    points = [o for o in outcomes if o.ok and o.op.kind in ("allfp", "singlefp")]
    batches = [o for o in outcomes if o.ok and o.op.kind == "batch"]
    return rng.sample(points, min(POINT_SAMPLES, len(points))) + rng.sample(
        batches, min(BATCH_SAMPLES, len(batches))
    )


def check(network, sampled: list, updates: list, batches: dict) -> list[str]:
    """Check ``sampled`` outcomes, replaying mutation batches on ``network``
    (which this call mutates) up to each answer's version.

    ``updates`` are the successful update outcomes; each reply names the
    version its batch produced.
    """
    errors = []
    by_version = {}
    for outcome in updates:
        by_version[outcome.doc["version"]] = batches[outcome.op.tag]
    applied = 0
    for outcome in sorted(sampled, key=lambda o: o.doc["version"]):
        version = outcome.doc["version"]
        while applied < version:
            applied += 1
            if applied not in by_version:
                errors.append(f"no update reply produced version {applied}")
                return errors
            apply_batch(network, by_version[applied])
        errors += check_answer(network, outcome.op.kind, outcome.doc)
    return errors
