"""Multi-level time-dependent overlays with flat-array shortcut storage.

The single-level :class:`~repro.hierarchy.index.HierarchicalIndex` keeps one
``ShortcutEdge`` object per boundary pair; at metro scale that is millions of
Python objects before the first query runs.  :class:`MultiLevelOverlay`
replaces it with the customisable-route-planning layout (Strasser's
"Intriguingly Simple and Efficient Time-Dependent Routing", PAPERS.md):

* the base grid partition is coarsened recursively — ``fanout × fanout``
  cells merge into one super-cell per level — giving nested partitions where
  every level-``k`` cell border is also a level-``j`` border for all
  ``j <= k``;
* per level, exact boundary-to-boundary earliest-arrival *functions* are
  built bottom-up: level 0 searches the raw street graph inside each base
  cell, level ``k`` searches the level-``k-1`` overlay graph (previous
  shortcuts plus edges crossing level-``k-1`` borders) inside each
  super-cell, so each level's work shrinks with the boundary count instead
  of the street count;
* shortcut functions live in five flat ``array`` stores per level
  (``src``/``dst``/breakpoint offsets/``xs``/``ys``) — snapshot-friendly,
  ``mmap``-able, and materialised into edge objects lazily per queried node;
* per-cell profile searches fan out across the same fork-preferring process
  pool as the estimator precompute, with a serial fallback that produces
  bitwise-identical arrays.

Exactness argument (used by the engine's level rule, see ``engine.py``):
within one level-``k`` cell, any street path between two level-``k``
boundary nodes decomposes at level-``k-1`` borders; every intra-cell segment
is dominated by a level-``k-1`` shortcut and every border crossing is an
original edge, both present in the level-``k-1`` overlay graph — so the
level-``k`` profile search returns the true street-level minimum.
"""

from __future__ import annotations

import os
import time
from array import array
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from ..core.profile import profile_search
from ..core.runtime import QueryTimeout, SearchBudgetExceeded, SearchContext
from ..core.results import SearchStats
from ..estimators.grid import GridPartition
from ..exceptions import QueryError
from ..func.monotone import MonotonePiecewiseLinear
from ..timeutil import TimeInterval, days
from .index import ShortcutEdge

#: array typecodes of the flat shortcut stores (shared with the snapshot
#: format: node ids and offsets are signed 64-bit, breakpoints are f64).
NODE_TYPECODE = "q"
OFFSET_TYPECODE = "q"
VALUE_TYPECODE = "d"


@dataclass
class LevelStats:
    """Size/effort summary of one overlay level's build."""

    level: int = 0
    nx: int = 0
    ny: int = 0
    cells: int = 0
    boundary_nodes: int = 0
    shortcuts: int = 0
    breakpoints: int = 0
    profile_searches: int = 0
    expanded_paths: int = 0
    #: relaxations the profile searches' pre-compose bound rejected
    #: (candidates never composed; ``SearchStats.pruned_bound`` summed)
    pruned_bound: int = 0
    #: chained same-cell shortcut relaxations the clique rule skipped
    #: (``SearchStats.skipped_clique`` summed)
    skipped_clique: int = 0
    build_seconds: float = 0.0

    def add_effort(self, other: "LevelStats") -> None:
        """Sum ``other``'s search-effort counters into this summary."""
        self.profile_searches += other.profile_searches
        self.expanded_paths += other.expanded_paths
        self.pruned_bound += other.pruned_bound
        self.skipped_clique += other.skipped_clique


@dataclass
class OverlayStats:
    """Whole-build summary (one entry per level plus totals)."""

    levels: list[LevelStats] = field(default_factory=list)
    workers_used: int = 1
    build_seconds: float = 0.0

    @property
    def shortcuts(self) -> int:
        return sum(lv.shortcuts for lv in self.levels)

    @property
    def breakpoints(self) -> int:
        return sum(lv.breakpoints for lv in self.levels)


class OverlayLevel:
    """One level's shortcuts in five flat arrays.

    ``src``/``dst`` hold one row per shortcut, grouped by source node (each
    node belongs to exactly one cell, and the build appends whole cells, so
    grouping is contiguous by construction).  ``off[i]:off[i+1]`` indexes the
    row's breakpoints in ``xs``/``ys``.  The stores may be ``array`` objects
    or read-only memoryviews over an ``mmap``'ed snapshot; either way,
    :meth:`shortcuts_from` materialises (and memoises) per-node
    :class:`~repro.hierarchy.index.ShortcutEdge` tuples on demand, so cold
    levels cost no objects.
    """

    __slots__ = (
        "level",
        "nx",
        "ny",
        "src",
        "dst",
        "off",
        "xs",
        "ys",
        "stats",
        "_rows",
        "_edges",
    )

    def __init__(
        self,
        level: int,
        nx: int,
        ny: int,
        src,
        dst,
        off,
        xs,
        ys,
        stats: LevelStats | None = None,
    ) -> None:
        if len(src) != len(dst) or len(off) != len(src) + 1:
            raise QueryError(
                f"overlay level {level}: shortcut arrays disagree "
                f"({len(src)} src, {len(dst)} dst, {len(off)} offsets)"
            )
        self.level = level
        self.nx = nx
        self.ny = ny
        self.src = src
        self.dst = dst
        self.off = off
        self.xs = xs
        self.ys = ys
        self.stats = stats or LevelStats(level=level, nx=nx, ny=ny)
        # source node -> (first_row, past_last_row); rows are grouped by
        # source, so one range per node suffices.
        rows: dict[int, tuple[int, int]] = {}
        current = None
        start = 0
        for i, s in enumerate(src):
            if s != current:
                if current is not None:
                    rows[current] = (start, i)
                if s in rows:
                    raise QueryError(
                        f"overlay level {level}: shortcut rows for node {s} "
                        "are not contiguous"
                    )
                current, start = s, i
        if current is not None:
            rows[current] = (start, len(src))
        self._rows = rows
        self._edges: dict[int, tuple[ShortcutEdge, ...]] = {}

    @property
    def shortcut_count(self) -> int:
        return len(self.src)

    @property
    def breakpoint_count(self) -> int:
        return len(self.xs)

    def shortcuts_from(self, node: int) -> tuple[ShortcutEdge, ...]:
        """Shortcut edges leaving ``node`` (empty for non-boundary nodes)."""
        cached = self._edges.get(node)
        if cached is not None:
            return cached
        span = self._rows.get(node)
        if span is None:
            return ()
        lo, hi = span
        edges = []
        for row in range(lo, hi):
            a, b = self.off[row], self.off[row + 1]
            # The validating constructor keeps a corrupt snapshot from
            # silently serving a non-monotone arrival function.
            fn = MonotonePiecewiseLinear(
                list(zip(self.xs[a:b], self.ys[a:b]))
            )
            edges.append(ShortcutEdge(node, self.dst[row], fn))
        result = tuple(edges)
        self._edges[node] = result
        return result

    def rows(self) -> Iterable[tuple[int, int, tuple, tuple]]:
        """Raw ``(src, dst, xs, ys)`` rows — for tests and diagnostics."""
        for row in range(len(self.src)):
            a, b = self.off[row], self.off[row + 1]
            yield (
                self.src[row],
                self.dst[row],
                tuple(self.xs[a:b]),
                tuple(self.ys[a:b]),
            )


class _LevelBuildGraph:
    """The overlay graph of level ``k-1``, used to build level ``k``.

    ``outgoing`` of a level-``k-1`` boundary node is its original edges that
    cross a level-``k-1`` border plus its level-``k-1`` shortcuts; for
    ``k == 0`` it is simply the street graph.  Exposes the accessor surface
    ``profile_search`` needs, plus ``outgoing_split``, which hands the two
    groups over separately so the search can apply its clique rule.
    """

    __slots__ = ("_network", "_overlay", "_below")

    def __init__(self, network, overlay: "MultiLevelOverlay", level: int) -> None:
        self._network = network
        self._overlay = overlay if level > 0 else None
        self._below = level - 1

    @property
    def calendar(self):
        return self._network.calendar

    @property
    def node_count(self) -> int:
        return self._network.node_count

    def location(self, node: int) -> tuple[float, float]:
        return self._network.location(node)

    def max_speed(self) -> float:
        return self._network.max_speed()

    def outgoing(self, node: int):
        crossing, clique = self.outgoing_split(node)
        return [*crossing, *clique]

    def outgoing_split(self, node: int):
        """``(crossing, clique)``: the street edges leaving ``node``'s
        level-``k-1`` cell, and ``node``'s shortcuts inside that cell."""
        if self._overlay is None:
            return self._network.outgoing(node), ()
        overlay = self._overlay
        below = self._below
        cell = overlay.cell_at(node, below)
        crossing = [
            e
            for e in self._network.outgoing(node)
            if overlay.cell_at(e.target, below) != cell
        ]
        return crossing, overlay.levels[below].shortcuts_from(node)


# ----------------------------------------------------------------------
# Parallel build plumbing (mirrors repro.estimators.precompute)
# ----------------------------------------------------------------------
_WORKER_STATE: dict | None = None


def _init_worker(state: dict) -> None:  # pragma: no cover - worker process
    global _WORKER_STATE
    _WORKER_STATE = state


def _cell_job(state: dict, cell_index: int, boundary: Sequence[int]):
    """All boundary profile searches of one cell.

    Returns ``("ok", rows, effort)`` with deterministic row order (sorted
    boundary sources, sorted targets) and the searches' counters in a
    :class:`LevelStats`, or a typed failure marker — budget/timeout
    errors carry unpicklable partial stats, so they cross the pool as
    tuples and are re-raised in the parent.
    """
    overlay: MultiLevelOverlay = state["overlay"]
    level: int = state["level"]
    graph = _LevelBuildGraph(overlay.network, overlay, level)
    context: SearchContext = state.setdefault(
        "context", SearchContext(graph, max_pops=state["max_pops"])
    )
    horizon: TimeInterval = state["horizon"]
    deadline_at = state["deadline_at"]
    in_cell = (
        lambda n, c=cell_index, k=level, ov=overlay: ov.cell_at(n, k) == c
    )
    targets = frozenset(boundary)
    rows: list[tuple[int, int, tuple, tuple]] = []
    effort = LevelStats(level=level)
    try:
        for b in boundary:
            budget = (
                {}
                if deadline_at is None
                else {"deadline": max(deadline_at - time.monotonic(), 0.0)}
            )
            result = profile_search(
                graph,
                b,
                horizon,
                node_filter=in_cell,
                targets=targets,
                context=context,
                **budget,
            )
            effort.profile_searches += 1
            effort.expanded_paths += result.stats.expanded_paths
            effort.pruned_bound += result.stats.pruned_bound
            effort.skipped_clique += result.stats.skipped_clique
            for other in sorted(result.profiles):
                if other == b:
                    continue
                fn = result.profiles[other]
                points = fn.breakpoints
                rows.append(
                    (
                        b,
                        other,
                        tuple(p[0] for p in points),
                        tuple(p[1] for p in points),
                    )
                )
    except QueryTimeout as exc:
        return ("timeout", exc.deadline)
    except SearchBudgetExceeded as exc:
        return ("budget", exc.budget, exc.what)
    return ("ok", rows, effort)


def _cell_task(args):  # pragma: no cover - executed in worker processes
    index, (cell_index, boundary) = args
    assert _WORKER_STATE is not None, "pool initializer did not run"
    return index, _cell_job(_WORKER_STATE, cell_index, boundary)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host's
    count): the default size of the overlay build's process pool."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # platforms without affinity masks
        return max(1, os.cpu_count() or 1)


def _make_pool(workers: int, state: dict):
    """A fork-preferring multiprocessing pool, or ``None`` when unavailable."""
    try:
        import multiprocessing

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        return ctx.Pool(
            processes=workers, initializer=_init_worker, initargs=(state,)
        )
    except Exception:
        return None


class MultiLevelOverlay:
    """Nested partitions plus per-level flat-array shortcut functions.

    Build with :meth:`build`; persist inside an RPRESNAP v2 snapshot via
    :func:`repro.estimators.snapshot.save_tables` and re-attach with
    ``load_overlay``/``map_overlay``.  Queries go through
    :class:`~repro.hierarchy.engine.OverlayEngine`.
    """

    def __init__(
        self,
        network,
        grid: GridPartition,
        fanout: int,
        horizon: TimeInterval,
        levels: list[OverlayLevel],
        stats: OverlayStats | None = None,
        horizon_pad: float = 720.0,
    ) -> None:
        self._network = network
        self._grid = grid
        self._fanout = fanout
        self._horizon = horizon
        self._horizon_pad = horizon_pad
        self.levels = levels
        self.stats = stats or OverlayStats(
            levels=[lv.stats for lv in levels]
        )
        nx0, ny0 = grid.shape
        # Per-level divisors: base cell (cx, cy) -> super-cell (cx//f^k, cy//f^k).
        self._divisors = [fanout**k for k in range(len(levels))]
        self._dims = [_level_dims(nx0, ny0, fanout, k) for k in range(len(levels))]

    # ------------------------------------------------------------------
    @property
    def network(self):
        return self._network

    @property
    def grid(self) -> GridPartition:
        return self._grid

    @property
    def fanout(self) -> int:
        return self._fanout

    @property
    def horizon(self) -> TimeInterval:
        return self._horizon

    @property
    def level_count(self) -> int:
        return len(self.levels)

    def level_dims(self, level: int) -> tuple[int, int]:
        return self._dims[level]

    def cell_at(self, node: int, level: int) -> int:
        """The node's cell index at ``level`` (level 0 = the base grid)."""
        base = self._grid.cell_of_node(node)
        if level == 0:
            return base
        nx0 = self._grid.shape[0]
        div = self._divisors[level]
        return (base // nx0 // div) * self._dims[level][0] + (base % nx0) // div

    def shortcuts_from(self, node: int, level: int) -> tuple[ShortcutEdge, ...]:
        return self.levels[level].shortcuts_from(node)

    def members_at(self, node: int, level: int) -> frozenset[int]:
        """Every node sharing ``node``'s level-``level`` cell (path expansion)."""
        cell = self.cell_at(node, level)
        return frozenset(
            n for n in self._network.node_ids() if self.cell_at(n, level) == cell
        )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network,
        levels: int = 2,
        nx: int = 8,
        ny: int | None = None,
        fanout: int = 2,
        horizon: TimeInterval | None = None,
        *,
        workers: int | None = None,
        max_pops: int | None = None,
        deadline: float | None = None,
        horizon_pad: float = 720.0,
    ) -> "MultiLevelOverlay":
        """Build a ``levels``-deep overlay bottom-up.

        Parameters mirror :class:`~repro.hierarchy.index.HierarchicalIndex`:
        ``max_pops`` bounds each boundary profile search, ``deadline`` is a
        wall-clock budget **for the whole build** (each search gets the
        remaining time; both are enforced through ``SearchContext`` in the
        serial and the parallel path).  ``workers > 1`` fans the per-cell
        searches across a fork-preferring process pool, one pool per level
        (levels are sequential by construction); results are bitwise
        identical to the serial build.  ``workers=None`` (the default) sizes
        the pool from :func:`usable_cpus`; ``workers=1`` builds serially.

        ``horizon_pad`` (minutes) widens lower levels' departure windows:
        level ``k`` is built over ``[start, end + pad·(levels-1-k)]``
        because the level-``k+1`` search composes level-``k`` functions at
        departures up to its own horizon end **plus intra-super-cell
        travel**.  The default allows 12 h of travel inside one cell; a
        build whose cells are slower than that fails with the shortcut
        window error, naming the fix.
        """
        if levels < 1:
            raise QueryError(f"overlay needs levels >= 1, got {levels}")
        if fanout < 2:
            raise QueryError(f"overlay needs fanout >= 2, got {fanout}")
        ny = nx if ny is None else ny
        workers = usable_cpus() if workers is None else max(1, workers)
        started = time.monotonic()
        deadline_at = None if deadline is None else started + deadline
        grid = GridPartition(network, nx, ny)
        horizon = horizon or TimeInterval(0.0, days(2))
        overlay = cls(
            network, grid, fanout, horizon, [], OverlayStats(), horizon_pad
        )
        overlay.stats.workers_used = workers

        boundaries = _boundaries_by_level(network, grid, fanout, levels)
        for level in range(levels):
            level_started = time.monotonic()
            lnx, lny = _level_dims(nx, ny, fanout, level)
            # Register the (still empty) level so cell_at works for it.
            placeholder = OverlayLevel(
                level,
                lnx,
                lny,
                array(NODE_TYPECODE),
                array(NODE_TYPECODE),
                array(OFFSET_TYPECODE, [0]),
                array(VALUE_TYPECODE),
                array(VALUE_TYPECODE),
            )
            overlay.levels.append(placeholder)
            overlay._divisors.append(fanout**level)
            overlay._dims.append((lnx, lny))

            tasks = [
                (cell, tuple(sorted(nodes)))
                for cell, nodes in sorted(boundaries[level].items())
                if nodes
            ]
            level_horizon = TimeInterval(
                horizon.start,
                horizon.end + horizon_pad * (levels - 1 - level),
            )
            state = {
                "overlay": overlay,
                "level": level,
                "horizon": level_horizon,
                "max_pops": max_pops,
                "deadline_at": deadline_at,
            }
            results = _run_level(tasks, state, workers)

            src = array(NODE_TYPECODE)
            dst = array(NODE_TYPECODE)
            off = array(OFFSET_TYPECODE, [0])
            xs = array(VALUE_TYPECODE)
            ys = array(VALUE_TYPECODE)
            stats = LevelStats(
                level=level,
                nx=lnx,
                ny=lny,
                cells=len(tasks),
                boundary_nodes=sum(len(t[1]) for t in tasks),
            )
            for outcome in results:
                kind = outcome[0]
                if kind == "timeout":
                    raise QueryTimeout(
                        outcome[1], SearchStats(timed_out=True)
                    )
                if kind == "budget":
                    raise SearchBudgetExceeded(
                        outcome[1], SearchStats(), what=outcome[2]
                    )
                _, rows, effort = outcome
                stats.add_effort(effort)
                for s, t, row_xs, row_ys in rows:
                    src.append(s)
                    dst.append(t)
                    xs.extend(row_xs)
                    ys.extend(row_ys)
                    off.append(len(xs))
            stats.shortcuts = len(src)
            stats.breakpoints = len(xs)
            stats.build_seconds = time.monotonic() - level_started
            overlay.levels[level] = OverlayLevel(
                level, lnx, lny, src, dst, off, xs, ys, stats
            )
            overlay.stats.levels.append(stats)
        overlay.stats.build_seconds = time.monotonic() - started
        # Drop the duplicated divisor/dim entries from the placeholder loop.
        overlay._divisors = [fanout**k for k in range(levels)]
        overlay._dims = [_level_dims(nx, ny, fanout, k) for k in range(levels)]
        return overlay

    # ------------------------------------------------------------------
    def refresh_delta(
        self,
        mutations,
        *,
        workers: int = 1,
        max_pops: int | None = None,
        deadline: float | None = None,
    ) -> int:
        """Re-customize only the cells an edge-pattern mutation can reach.

        ``mutations`` is any sequence of objects with ``source``/``target``
        attributes (``AppliedMutation`` records from the live-update path).
        Because the profile search of a cell skips every edge whose target
        lies outside the cell, a mutated edge ``(u, v)`` influences a
        level-``k`` cell's shortcut rows **iff** both endpoints share that
        cell — and nested partitions make the set of touched cells per
        level exactly ``{cell_k(u) : cell_k(u) == cell_k(v)}``, which also
        covers the lift of every touched lower-level cell.  Touched cells
        are recomputed bottom-up against the already-refreshed lower level
        with the same per-level horizon arithmetic as :meth:`build`, then
        their rows are spliced into fresh flat arrays (cells are contiguous
        in sorted order by construction), so the result is byte-identical
        to a from-scratch rebuild.  Returns the number of recomputed cells.

        Topology must be unchanged — only speed patterns may differ from
        the build-time network — so grids and boundary sets stay valid.
        """
        levels = len(self.levels)
        if levels == 0:
            return 0
        started = time.monotonic()
        deadline_at = None if deadline is None else started + deadline
        touched: list[set[int]] = [set() for _ in range(levels)]
        for m in mutations:
            for k in range(levels):
                cu = self.cell_at(m.source, k)
                if cu == self.cell_at(m.target, k):
                    touched[k].add(cu)
        if not any(touched):
            return 0
        boundaries = _boundaries_by_level(
            self._network, self._grid, self._fanout, levels
        )
        recomputed = 0
        for level in range(levels):
            if not touched[level]:
                continue
            level_started = time.monotonic()
            tasks = [
                (cell, tuple(sorted(boundaries[level].get(cell, ()))))
                for cell in sorted(touched[level])
            ]
            tasks = [(cell, nodes) for cell, nodes in tasks if nodes]
            if not tasks:
                continue
            level_horizon = TimeInterval(
                self._horizon.start,
                self._horizon.end + self._horizon_pad * (levels - 1 - level),
            )
            state = {
                "overlay": self,
                "level": level,
                "horizon": level_horizon,
                "max_pops": max_pops,
                "deadline_at": deadline_at,
            }
            results = _run_level(tasks, state, workers)
            fresh_rows: dict[int, list] = {}
            effort = LevelStats(level=level)
            for (cell, _), outcome in zip(tasks, results):
                kind = outcome[0]
                if kind == "timeout":
                    raise QueryTimeout(outcome[1], SearchStats(timed_out=True))
                if kind == "budget":
                    raise SearchBudgetExceeded(
                        outcome[1], SearchStats(), what=outcome[2]
                    )
                _, rows, cell_effort = outcome
                fresh_rows[cell] = rows
                effort.add_effort(cell_effort)
            # Swapping ``levels[level]`` in place is visible to every live
            # _LevelBuildGraph / query graph holding this overlay, and the
            # next iteration's level builds against the refreshed rows.
            self.levels[level] = self._splice_level(
                self.levels[level],
                level,
                touched[level],
                fresh_rows,
                effort,
                time.monotonic() - level_started,
            )
            if level < len(self.stats.levels):
                self.stats.levels[level] = self.levels[level].stats
            recomputed += len(tasks)
        self.stats.build_seconds += time.monotonic() - started
        return recomputed

    def _splice_level(
        self,
        old: OverlayLevel,
        level: int,
        touched: set[int],
        fresh_rows: dict[int, list],
        effort: LevelStats,
        elapsed: float,
    ) -> OverlayLevel:
        """A new :class:`OverlayLevel` with touched cells' rows replaced.

        Works for ``array`` and ``mmap``-backed stores alike: untouched
        cells' rows are copied out of the old views, touched cells get the
        freshly computed rows, offsets are rebuilt as the splice runs.
        """
        cell_of = lambda node: self.cell_at(node, level)  # noqa: E731
        old_spans: dict[int, tuple[int, int]] = {}
        current: int | None = None
        start = 0
        for i in range(len(old.src)):
            cell = cell_of(old.src[i])
            if cell != current:
                if current is not None:
                    old_spans[current] = (start, i)
                if cell in old_spans:
                    raise QueryError(
                        f"overlay level {level}: rows of cell {cell} are not "
                        "contiguous; cannot splice a delta refresh"
                    )
                current, start = cell, i
        if current is not None:
            old_spans[current] = (start, len(old.src))

        src = array(NODE_TYPECODE)
        dst = array(NODE_TYPECODE)
        off = array(OFFSET_TYPECODE, [0])
        xs = array(VALUE_TYPECODE)
        ys = array(VALUE_TYPECODE)
        for cell in sorted(set(old_spans) | set(fresh_rows)):
            if cell in touched:
                for s, t, row_xs, row_ys in fresh_rows.get(cell, ()):
                    src.append(s)
                    dst.append(t)
                    xs.extend(row_xs)
                    ys.extend(row_ys)
                    off.append(len(xs))
            else:
                lo, hi = old_spans[cell]
                src.extend(old.src[lo:hi])
                dst.extend(old.dst[lo:hi])
                for row in range(lo, hi):
                    a, b = old.off[row], old.off[row + 1]
                    xs.extend(old.xs[a:b])
                    ys.extend(old.ys[a:b])
                    off.append(len(xs))

        stats = replace(
            old.stats,
            level=level,
            nx=old.nx,
            ny=old.ny,
            shortcuts=len(src),
            breakpoints=len(xs),
            build_seconds=old.stats.build_seconds + elapsed,
        )
        stats.add_effort(effort)
        return OverlayLevel(
            level, old.nx, old.ny, src, dst, off, xs, ys, stats
        )

    # ------------------------------------------------------------------
    def fingerprint_grid(self) -> tuple[int, int]:
        return self._grid.shape


def _level_dims(nx: int, ny: int, fanout: int, level: int) -> tuple[int, int]:
    div = fanout**level
    return (max(1, -(-nx // div)), max(1, -(-ny // div)))


def _boundaries_by_level(
    network, grid: GridPartition, fanout: int, levels: int
) -> list[dict[int, set[int]]]:
    """Per level, ``{cell_index: boundary node set}`` in one edge pass.

    A node is level-``k`` boundary when one of its edges crosses a level-``k``
    cell border; nesting means every level-``k`` boundary node is also
    boundary at every level below.
    """
    nx0, ny0 = grid.shape
    dims = [_level_dims(nx0, ny0, fanout, k) for k in range(levels)]
    divisors = [fanout**k for k in range(levels)]
    cell_of = grid.cell_of_node

    def lift(base: int, k: int) -> int:
        return ((base // nx0) // divisors[k]) * dims[k][0] + (
            base % nx0
        ) // divisors[k]

    out: list[dict[int, set[int]]] = [{} for _ in range(levels)]
    for edge in network.edges():
        cu = cell_of(edge.source)
        cv = cell_of(edge.target)
        if cu == cv:
            continue
        for k in range(levels):
            ku = lift(cu, k) if k else cu
            kv = lift(cv, k) if k else cv
            if ku == kv:
                # Nested partitions: once two nodes share a cell they share
                # every coarser cell too.
                break
            out[k].setdefault(ku, set()).add(edge.source)
            out[k].setdefault(kv, set()).add(edge.target)
    return out


def _run_level(tasks, state: dict, workers: int) -> list:
    """Run one level's cell jobs serially or across a pool; the results
    come back in task order either way.

    Cells are uneven (a level-1 cell's cost spreads over 50x on a metro),
    so the pool is handed them one at a time, largest first by boundary
    count (one profile search per boundary node): the long cells start at
    once and the short ones fill in behind them.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [_cell_job(state, cell, boundary) for cell, boundary in tasks]
    pool = _make_pool(min(workers, len(tasks)), state)
    if pool is None:
        return [_cell_job(state, cell, boundary) for cell, boundary in tasks]
    order = sorted(range(len(tasks)), key=lambda i: -len(tasks[i][1]))
    results: list = [None] * len(tasks)
    try:
        for index, outcome in pool.imap_unordered(
            _cell_task, [(i, tasks[i]) for i in order]
        ):
            results[index] = outcome
        return results
    finally:
        pool.terminate()
        pool.join()
