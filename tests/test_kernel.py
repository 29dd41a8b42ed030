"""Property-based cross-checks of the array kernel.

Every kernel operator is verified three ways on randomized piecewise-linear
functions:

* against a **dense-sampling oracle** (the mathematical definition evaluated
  pointwise),
* against the **legacy implementation** (kernel disabled via
  :func:`repro.func.kernel.set_kernel_enabled`),
* on **degenerate inputs** — single-point domains and near-duplicate
  abscissae — that historically hide off-by-one sweeps.

Plus direct tests of the configuration surface: the MAX_BREAKPOINTS guard
(triggered through repeated composition) and the named continuity tolerance.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import (
    _BOUND_SLACK,
    _IMPROVE_TOL,
    _bound_rejects,
    _entry,
)
from repro.exceptions import FunctionShapeError
from repro.func import kernel
from repro.func.envelope import AnnotatedEnvelope
from repro.func.monotone import MonotonePiecewiseLinear
from repro.func.piecewise import (
    CONTINUITY_TOL,
    XTOL,
    YTOL,
    PiecewiseLinearFunction,
    pointwise_minimum,
)

LO, HI = 0.0, 10.0
#: Dense oracle grid over the shared domain.
GRID = [LO + i * (HI - LO) / 97 for i in range(98)]


@pytest.fixture
def legacy_mode():
    """Run the wrapped code with the kernel disabled; restore afterwards."""
    previous = kernel.set_kernel_enabled(False)
    yield
    kernel.set_kernel_enabled(previous)


def _with_kernel(flag: bool, fn):
    previous = kernel.set_kernel_enabled(flag)
    try:
        return fn()
    finally:
        kernel.set_kernel_enabled(previous)


# ----------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------

_Y = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
# Interior abscissae include values snapped onto near-duplicate positions.
_X = st.floats(min_value=LO, max_value=HI, allow_nan=False)


@st.composite
def plf(draw) -> PiecewiseLinearFunction:
    """A random PLF on [LO, HI], occasionally with near-duplicate abscissae."""
    interior = draw(st.lists(_X, max_size=6))
    raw = [LO, *sorted(interior), HI]
    xs = [raw[0]]
    for x in raw[1:]:
        if x > xs[-1] + 2 * XTOL:
            xs.append(x)
    ys = [draw(_Y) for _ in xs]
    pts = list(zip(xs, ys))
    if draw(st.booleans()) and len(xs) > 2:
        # Shadow one interior point at distance ~XTOL/2 with a
        # continuity-compatible ordinate: dedupe territory.
        wiggle = draw(
            st.floats(min_value=-5e-7, max_value=5e-7, allow_nan=False)
        )
        pts.append((xs[1] + 4e-10, ys[1] + wiggle))
        pts.sort()
    return PiecewiseLinearFunction(pts)


@st.composite
def monotone(draw, lo: float = LO, hi: float = HI) -> MonotonePiecewiseLinear:
    """A strictly increasing PLF on [lo, hi] (invertible)."""
    interior = draw(st.lists(_X, max_size=6))
    span = hi - lo
    raw = sorted({lo, hi, *[lo + (x - LO) / (HI - LO) * span for x in interior]})
    xs = [raw[0]]
    for x in raw[1:]:
        if x > xs[-1] + XTOL:
            xs.append(x)
    deltas = [
        draw(st.floats(min_value=0.05, max_value=3.0, allow_nan=False))
        for _ in xs
    ]
    y = draw(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    pts = []
    for x, d in zip(xs, deltas):
        pts.append((x, y))
        y += d
    return MonotonePiecewiseLinear(pts)


# ----------------------------------------------------------------------
# Binary operators: add / min / dominates.
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(plf(), plf())
def test_add_matches_oracle_and_legacy(a, b):
    fused = _with_kernel(True, lambda: a + b)
    legacy = _with_kernel(False, lambda: a + b)
    for t in GRID:
        want = a(t) + b(t)
        assert fused(t) == pytest.approx(want, abs=1e-6)
        assert legacy(t) == pytest.approx(fused(t), abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(plf(), plf())
def test_min_matches_oracle_and_legacy(a, b):
    fused = _with_kernel(True, lambda: pointwise_minimum(a, b))
    legacy = _with_kernel(False, lambda: pointwise_minimum(a, b))
    for t in GRID:
        want = min(a(t), b(t))
        assert fused(t) == pytest.approx(want, abs=1e-6)
        assert legacy(t) == pytest.approx(fused(t), abs=1e-6)
    # min never exceeds either input anywhere (including crossing points).
    for x, y in fused.breakpoints:
        assert y <= a(x) + 1e-6
        assert y <= b(x) + 1e-6


@settings(max_examples=60, deadline=None)
@given(plf(), plf())
def test_dominates_matches_legacy(a, b):
    fused = _with_kernel(True, lambda: a.dominates(b))
    legacy = _with_kernel(False, lambda: a.dominates(b))
    assert fused == legacy
    # Self-dominance always holds (the tie case).
    assert _with_kernel(True, lambda: a.dominates(a))


# ----------------------------------------------------------------------
# Monotone operators: compose / inverse.
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_matches_oracle_and_legacy(data):
    inner = data.draw(monotone())
    lo, hi = inner.value_range
    outer = data.draw(monotone(lo - 1.0, hi + 1.0))
    fused = _with_kernel(True, lambda: outer.compose(inner))
    legacy = _with_kernel(False, lambda: outer.compose(inner))
    assert fused.x_min == pytest.approx(inner.x_min)
    assert fused.x_max == pytest.approx(inner.x_max)
    for t in GRID:
        want = outer(min(max(inner(t), outer.x_min), outer.x_max))
        assert fused(t) == pytest.approx(want, abs=1e-6)
        assert legacy(t) == pytest.approx(fused(t), abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(monotone())
def test_inverse_roundtrip_and_legacy(f):
    fused = _with_kernel(True, f.inverse)
    legacy = _with_kernel(False, f.inverse)
    for t in GRID:
        y = f(t)
        assert fused(y) == pytest.approx(t, abs=1e-6)
        assert legacy(y) == pytest.approx(fused(y), abs=1e-6)


# ----------------------------------------------------------------------
# Reshaping: simplify / restrict.
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(plf())
def test_simplify_preserves_values(f):
    fused = _with_kernel(True, lambda: f.simplify(1e-9))
    legacy = _with_kernel(False, lambda: f.simplify(1e-9))
    assert fused.breakpoints == legacy.breakpoints
    for t in GRID:
        assert fused(t) == pytest.approx(f(t), abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(plf(), st.floats(min_value=LO, max_value=HI), st.floats(min_value=LO, max_value=HI))
def test_restrict_matches_legacy(f, p, q):
    lo, hi = min(p, q), max(p, q)
    fused = _with_kernel(True, lambda: f.restrict(lo, hi))
    legacy = _with_kernel(False, lambda: f.restrict(lo, hi))
    assert fused.x_min == pytest.approx(legacy.x_min)
    assert fused.x_max == pytest.approx(legacy.x_max)
    steps = 20
    for i in range(steps + 1):
        t = lo + (hi - lo) * i / steps
        assert fused(t) == pytest.approx(f(t), abs=1e-6)
        assert legacy(t) == pytest.approx(fused(t), abs=1e-6)


# ----------------------------------------------------------------------
# Profile search's pre-compose bound: sound against the exact test.
# ----------------------------------------------------------------------

TAU = _IMPROVE_TOL


@st.composite
def fifo_arrival(draw, lo: float, hi: float, min_travel: float = 0.0):
    """Raw ``(xs, ys)`` of a FIFO arrival function ``x + tt(x)`` on
    ``[lo, hi]``: slopes in [0.1, 4], travel times >= ``min_travel``,
    sometimes constant (then ``edge∘u`` is exactly ``u + m``)."""
    gaps = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=(hi - lo) / 2), max_size=8
        )
    )
    xs = [lo]
    for gap in gaps:
        if xs[-1] + gap < hi - 0.05:
            xs.append(xs[-1] + gap)
    xs.append(hi)
    tt = draw(st.floats(min_value=min_travel, max_value=min_travel + 30.0))
    constant = draw(st.booleans())
    ys = [lo + tt]
    for x0, x1 in zip(xs, xs[1:]):
        gap = x1 - x0
        if not constant:
            step = draw(st.floats(min_value=-0.9 * gap, max_value=3.0 * gap))
            tt = max(tt + step, min_travel)
        ys.append(x1 + tt)
    return xs, ys


def _candidate(e_xs, e_ys, u_xs, u_ys):
    return kernel.simplify(*kernel.compose(e_xs, e_ys, u_xs, u_ys), TAU)


def _rejects(e_xs, e_ys, u_xs, u_ys, inc_xs, inc_ys) -> bool:
    return _bound_rejects(
        object(), e_xs, e_ys, u_xs, u_ys,
        kernel.min_travel(u_xs, u_ys), _entry(list(inc_xs), list(inc_ys)),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bound_rejects_only_what_the_exact_test_rejects(data):
    u_xs, u_ys = data.draw(fifo_arrival(0.0, 60.0))
    e_xs, e_ys = data.draw(
        fifo_arrival(u_ys[0] - 1.0, u_ys[-1] + 30.0, min_travel=0.5)
    )
    c_xs, c_ys = _candidate(e_xs, e_ys, u_xs, u_ys)
    m = kernel.min_travel(e_xs, e_ys)
    margin = (len(u_xs) + len(e_xs)) * TAU + _BOUND_SLACK
    # Shifts of a few τ, and up to the margin (~1000 τ) either way.
    k = data.draw(
        st.integers(min_value=-3 * len(c_xs), max_value=3 * len(c_xs))
        | st.integers(min_value=-2000, max_value=2000)
    )
    family = data.draw(st.sampled_from(["candidate", "floor", "random"]))
    if family == "candidate":
        # Near-tie: the incumbent is the candidate itself, shifted by k·τ.
        inc_xs, inc_ys = c_xs, [y + k * TAU for y in c_ys]
    elif family == "floor":
        # At the bound's threshold: u + m - margin, shifted by k·τ.
        inc_xs, inc_ys = u_xs, [y + m - margin + k * TAU for y in u_ys]
    else:
        inc_xs, inc_ys = data.draw(fifo_arrival(0.0, 60.0))
    if _rejects(e_xs, e_ys, u_xs, u_ys, inc_xs, inc_ys):
        assert not kernel.lt_somewhere(c_xs, c_ys, inc_xs, inc_ys, TAU)


def test_bound_rejects_a_clear_loser_and_keeps_a_winner():
    u_xs, u_ys = [0.0, 30.0, 60.0], [10.0, 45.0, 70.0]
    e_xs, e_ys = [0.0, 200.0], [5.0, 205.0]  # 5 minutes, all day
    c_xs, c_ys = _candidate(e_xs, e_ys, u_xs, u_ys)
    worse_incumbent = [y + 1.0 for y in c_ys]
    better_incumbent = [y - 1.0 for y in c_ys]
    assert not _rejects(e_xs, e_ys, u_xs, u_ys, c_xs, worse_incumbent)
    assert _rejects(e_xs, e_ys, u_xs, u_ys, c_xs, better_incumbent)
    # An edge function ending before u's latest arrival is clamped by
    # compose, which voids the bound: never rejected.
    assert not _rejects(
        [0.0, 60.0], [5.0, 65.0], u_xs, u_ys, c_xs, better_incumbent
    )


# ----------------------------------------------------------------------
# Envelope fold.
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(plf(), min_size=1, max_size=5))
def test_envelope_fold_matches_oracle_and_legacy(fns):
    def build():
        env = AnnotatedEnvelope(LO, HI)
        flags = [env.add(fn, tag=k) for k, fn in enumerate(fns)]
        return env, flags

    fused_env, fused_flags = _with_kernel(True, build)
    legacy_env, legacy_flags = _with_kernel(False, build)
    assert fused_flags == legacy_flags
    # The first fold always improves an empty envelope.
    assert fused_flags[0] is True
    for t in GRID:
        # The envelope dedupes abscissae within XTOL, so a crossing sliver
        # narrower than XTOL may legitimately be snapped away.  On functions
        # with near-vertical segments that snap moves the value by
        # slope * XTOL, so the oracle is checked as an interval: the fold's
        # value must fall between the true minimum's extremes over an
        # XTOL-wide neighbourhood of t.
        nbhd = [t, max(LO, t - 2e-9), min(HI, t + 2e-9)]
        want_lo = min(fn(s) for fn in fns for s in nbhd)
        want_hi = min(max(fn(s) for s in nbhd) for fn in fns)
        got = fused_env.value_at(t)
        assert want_lo - 1e-6 <= got <= want_hi + 1e-6
        assert legacy_env.value_at(t) == pytest.approx(got, abs=1e-6)


def test_envelope_fold_instant_domain():
    env = AnnotatedEnvelope(5.0, 5.0)
    assert env.add(PiecewiseLinearFunction([(5.0, 3.0)]), tag="a")
    assert not env.add(PiecewiseLinearFunction([(5.0, 3.0)]), tag="b")
    assert env.add(PiecewiseLinearFunction([(5.0, 1.0)]), tag="c")
    assert env.tag_at(5.0) == "c"
    assert env.value_at(5.0) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Degenerate single-point domains.
# ----------------------------------------------------------------------

def test_single_point_add_and_min():
    a = PiecewiseLinearFunction([(5.0, 2.0)])
    b = PiecewiseLinearFunction([(5.0, 7.0)])
    assert (a + b)(5.0) == pytest.approx(9.0)
    assert pointwise_minimum(a, b)(5.0) == pytest.approx(2.0)
    assert a.dominates(b)
    assert not b.dominates(a)


def test_single_point_compose():
    inner = MonotonePiecewiseLinear([(5.0, 3.0)])
    outer = MonotonePiecewiseLinear([(2.0, 0.0), (4.0, 8.0)])
    out = outer.compose(inner)
    assert out(5.0) == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Guard and configuration surface.
# ----------------------------------------------------------------------

def test_max_breakpoints_guard_via_repeated_composition():
    """Repeated composition fattens a function until the guard trips."""
    n = 60
    step = (HI - LO) / (n - 1)
    pts = []
    y = 0.0
    for i in range(n):
        pts.append((LO + i * step, y))
        y += 0.11 if i % 2 == 0 else 0.25
    f = MonotonePiecewiseLinear(pts)
    # An identity-like outer spanning f's range, equally fat.
    lo, hi = f.value_range
    ostep = (hi - lo) / (n - 1)
    outer = MonotonePiecewiseLinear(
        [(lo + i * ostep, lo + i * ostep) for i in range(n)]
    )
    previous = kernel.set_max_breakpoints(100)
    prev_mode = kernel.set_kernel_enabled(True)  # the guard is a kernel feature
    try:
        with pytest.raises(FunctionShapeError, match="MAX_BREAKPOINTS"):
            g = f
            for _ in range(50):
                g = outer.compose(g)  # breakpoints accumulate each round
    finally:
        kernel.set_max_breakpoints(previous)
        kernel.set_kernel_enabled(prev_mode)


def test_set_max_breakpoints_validates():
    with pytest.raises(ValueError):
        kernel.set_max_breakpoints(1)
    previous = kernel.set_max_breakpoints(500)
    assert kernel.get_max_breakpoints() == 500
    assert kernel.set_max_breakpoints(previous) == 500


def test_set_kernel_enabled_returns_previous():
    first = kernel.set_kernel_enabled(False)
    try:
        assert kernel.KERNEL_ENABLED is False
        assert kernel.set_kernel_enabled(first) is False
    finally:
        kernel.set_kernel_enabled(first)


def test_counters_delta():
    snap = kernel.COUNTERS.snapshot()
    _with_kernel(
        True,
        lambda: PiecewiseLinearFunction([(0.0, 1.0), (1.0, 2.0)])
        + PiecewiseLinearFunction([(0.0, 1.0), (1.0, 0.0)]),
    )
    bp, _merges = kernel.COUNTERS.delta(snap)
    assert bp >= 2


def test_continuity_tolerance_is_named_and_consistent():
    """Satellite fix: the dedupe tolerance is one named constant (1e-6)."""
    assert CONTINUITY_TOL == 1e-6
    # Just-inside the tolerance: duplicate abscissae merge fine.
    f = PiecewiseLinearFunction(
        [(0.0, 1.0), (5.0, 2.0), (5.0 + 1e-10, 2.0 + 5e-7), (10.0, 3.0)]
    )
    assert len(f.breakpoints) == 3
    # Beyond it: a genuine discontinuity is rejected.
    with pytest.raises(Exception):
        PiecewiseLinearFunction(
            [(0.0, 1.0), (5.0, 2.0), (5.0 + 1e-10, 2.1), (10.0, 3.0)]
        )


def test_legacy_mode_fixture_round_trips(legacy_mode):
    """With the kernel off, class ops still work (A/B baseline path)."""
    a = PiecewiseLinearFunction([(0.0, 1.0), (10.0, 3.0)])
    b = PiecewiseLinearFunction([(0.0, 2.0), (10.0, 2.0)])
    assert (a + b)(5.0) == pytest.approx(4.0)
    assert pointwise_minimum(a, b)(0.0) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Numpy backend: bitwise parity with the array kernel.
#
# The numpy implementations replicate the array kernel's floating-point
# operation order exactly, so every answer must be bitwise identical —
# these tests compare with ``==``, not ``approx``.
# ----------------------------------------------------------------------

needs_numpy = pytest.mark.skipif(
    not kernel.numpy_available(), reason="numpy is not installed"
)


def _xy(fn) -> tuple[list[float], list[float]]:
    pts = fn.breakpoints
    return [p[0] for p in pts], [p[1] for p in pts]


def _np_op(name: str):
    module = kernel._load_numpy_backend()
    assert module is not None
    return getattr(module, name)


def _pair(name: str, *args):
    """``(array_result, numpy_result)`` for one dispatched op."""
    return kernel._ARRAY_IMPLS[name](*args), _np_op(name)(*args)


def _assert_kernel_invariants(xs: list[float], ys: list[float]) -> None:
    """Shape invariants every kernel output must satisfy (both backends)."""
    assert len(xs) == len(ys) >= 1
    for a, b in zip(xs, xs[1:]):
        assert b > a  # strictly increasing abscissae
    # Continuous by construction: materialising the pair must not trip the
    # CONTINUITY_TOL discontinuity check.
    PiecewiseLinearFunction(list(zip(xs, ys)))


@needs_numpy
class TestNumpyParity:
    @settings(max_examples=60, deadline=None)
    @given(plf(), plf())
    def test_merge_add_bitwise(self, a, b):
        want, got = _pair("merge_add", *_xy(a), *_xy(b))
        assert got == want
        _assert_kernel_invariants(*got)

    @settings(max_examples=60, deadline=None)
    @given(plf(), plf())
    def test_merge_min_bitwise(self, a, b):
        want, got = _pair("merge_min", *_xy(a), *_xy(b))
        assert got == want
        _assert_kernel_invariants(*got)

    @settings(max_examples=60, deadline=None)
    @given(plf(), plf())
    def test_comparisons_bitwise(self, a, b):
        axy, bxy = _xy(a), _xy(b)
        for name in ("lt_somewhere", "le_everywhere"):
            for left, right in ((axy, bxy), (bxy, axy), (axy, axy)):
                want, got = _pair(name, *left, *right, YTOL)
                assert got == want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_compose_bitwise(self, data):
        inner = data.draw(monotone())
        lo, hi = inner.value_range
        outer = data.draw(monotone(lo - 1.0, hi + 1.0))
        want, got = _pair("compose", *_xy(outer), *_xy(inner))
        assert got == want
        _assert_kernel_invariants(*got)

    @settings(max_examples=60, deadline=None)
    @given(monotone())
    def test_inverse_bitwise(self, f):
        want, got = _pair("inverse", *_xy(f))
        assert got == want
        _assert_kernel_invariants(*got)

    def test_inverse_flat_raises_identically(self):
        xs, ys = [0.0, 4.0, 6.0, 10.0], [0.0, 1.0, 1.0, 2.0]
        with pytest.raises(Exception) as array_err:
            kernel._ARRAY_IMPLS["inverse"](xs, ys)
        with pytest.raises(Exception) as np_err:
            _np_op("inverse")(xs, ys)
        assert type(np_err.value) is type(array_err.value)
        assert str(np_err.value) == str(array_err.value)

    @settings(max_examples=60, deadline=None)
    @given(plf(), st.sampled_from([1e-9, 1e-3, 0.05]))
    def test_simplify_bitwise(self, f, tol):
        want, got = _pair("simplify", *_xy(f), tol)
        assert got == want
        _assert_kernel_invariants(*got)

    @settings(max_examples=60, deadline=None)
    @given(
        plf(),
        st.floats(min_value=LO, max_value=HI),
        st.floats(min_value=LO, max_value=HI),
    )
    def test_restrict_bitwise(self, f, p, q):
        lo, hi = min(p, q), max(p, q)
        want, got = _pair("restrict", *_xy(f), lo, hi)
        assert got == want
        _assert_kernel_invariants(*got)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(plf(), min_size=1, max_size=5))
    def test_envelope_fold_bitwise(self, fns):
        state_a: tuple = ([], [], [], [])
        state_n: tuple = ([], [], [], [])
        for tag, fn in enumerate(fns):
            xs, ys = _xy(fn)
            *state_a, improved_a = kernel._ARRAY_IMPLS["envelope_fold"](
                *state_a, xs, ys, tag, LO, HI
            )
            *state_n, improved_n = _np_op("envelope_fold")(
                *state_n, xs, ys, tag, LO, HI
            )
            assert improved_n == improved_a
            assert state_n == state_a

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_compose_many_bitwise_ragged(self, data):
        inners = data.draw(st.lists(monotone(), min_size=1, max_size=4))
        lo = min(f.value_range[0] for f in inners)
        hi = max(f.value_range[1] for f in inners)
        outer = data.draw(monotone(lo - 1.0, hi + 1.0))
        stacked = [_xy(f) for f in inners]
        want, got = _pair("compose_many", *_xy(outer), stacked)
        assert got == want
        for xs, ys in got:
            _assert_kernel_invariants(xs, ys)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(plf(), min_size=1, max_size=5))
    def test_merge_min_many_bitwise_ragged(self, fns):
        stacked = [_xy(f) for f in fns]
        want, got = _pair("merge_min_many", stacked)
        assert got == want
        _assert_kernel_invariants(*got)

    def test_merge_min_many_empty_raises_identically(self):
        with pytest.raises(ValueError) as array_err:
            kernel._ARRAY_IMPLS["merge_min_many"]([])
        with pytest.raises(ValueError) as np_err:
            _np_op("merge_min_many")([])
        assert str(np_err.value) == str(array_err.value)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(plf(), min_size=1, max_size=4))
    def test_envelope_fold_many_matches_loop(self, fns):
        """The stacked fold equals folding one function at a time."""
        stacked = [(*_xy(fn), tag) for tag, fn in enumerate(fns)]
        previous = kernel.set_backend("numpy")
        try:
            many = kernel.envelope_fold_many([], [], [], [], stacked, LO, HI)
            state: tuple = ([], [], [], [])
            improved_any = False
            for xs, ys, tag in stacked:
                *state, improved = kernel.envelope_fold(
                    *state, xs, ys, tag, LO, HI
                )
                improved_any = improved_any or improved
            assert many == (*state, improved_any)
        finally:
            kernel.set_backend(previous)


# ----------------------------------------------------------------------
# Backend selection and the numpy-absent fallback.
# ----------------------------------------------------------------------

class TestBackendSelection:
    def test_set_backend_round_trip(self):
        previous = kernel.get_backend()
        assert kernel.set_backend("array") == previous
        assert kernel.get_backend() == "array"
        kernel.set_backend(previous)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernel.set_backend("cuda")

    def test_active_backend_tracks_kernel_flag(self):
        assert kernel.active_backend() == kernel.get_backend()
        previous = kernel.set_kernel_enabled(False)
        try:
            assert kernel.active_backend() == "legacy"
        finally:
            kernel.set_kernel_enabled(previous)

    @needs_numpy
    def test_numpy_backend_installs_and_dispatches(self):
        previous = kernel.set_backend("numpy")
        try:
            assert kernel.get_backend() == "numpy"
            assert "kernel_np" in kernel.merge_min.__module__
            xs, ys = kernel.merge_min(
                [0.0, 10.0], [5.0, 1.0], [0.0, 10.0], [2.0, 2.0]
            )
            assert kernel.eval_at(xs, ys, 0.0) == pytest.approx(2.0)
        finally:
            kernel.set_backend(previous)

    def test_numpy_absent_falls_back_with_note(self, monkeypatch, capsys):
        """REPRO_FUNC_KERNEL=numpy without numpy degrades to 'array'."""
        import sys as _sys

        previous = kernel.get_backend()
        kernel.set_backend("array")
        # ``import numpy`` raises ImportError when sys.modules maps the
        # name to None — this simulates an environment without numpy even
        # if numpy is importable here.
        monkeypatch.setitem(_sys.modules, "numpy", None)
        try:
            assert not kernel.numpy_available()
            assert kernel.set_backend("numpy") == "array"
            assert kernel.get_backend() == "array"
            note = capsys.readouterr().err
            assert "numpy is unavailable" in note
            assert "falls back to 'array'" in note
            # The dispatched ops still answer (with the array impls).
            xs, ys = kernel.merge_min(
                [0.0, 10.0], [5.0, 1.0], [0.0, 10.0], [2.0, 2.0]
            )
            assert kernel.eval_at(xs, ys, 10.0) == pytest.approx(1.0)
        finally:
            monkeypatch.undo()
            kernel.set_backend(previous)
