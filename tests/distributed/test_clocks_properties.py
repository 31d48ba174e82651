"""Property-based tests (hypothesis) for the vector-clock layer.

The partial-order laws the monitoring algorithm silently relies on:
irreflexivity and transitivity of happened-before, symmetry of
concurrency, merge being the least upper bound, and the agreement between
clock-level cut consistency and :meth:`Computation.is_consistent_cut`.
The last block pins the soundness contract of ``apply_clock_skew``: in
sound mode every cut consistent under skewed clocks is consistent under
true clocks.
"""

import itertools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.distributed.clocks import VectorClock
from repro.distributed.computation import ComputationBuilder
from repro.faults import SKEW_MODES, SKEW_SOUND, ClockSkewSpec, apply_clock_skew

clock_components = st.lists(st.integers(0, 3), min_size=2, max_size=4)


def clock_pairs(draw_sizes=(2, 3, 4)):
    """Same-arity clock tuples (hypothesis can't pair dependent lists inline)."""
    return st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            *(
                st.lists(st.integers(0, 3), min_size=n, max_size=n)
                for _ in range(len(draw_sizes))
            )
        )
    )


# ---------------------------------------------------------------------------
# partial-order laws
# ---------------------------------------------------------------------------
@given(clock_components)
@settings(max_examples=100, deadline=None)
def test_happened_before_is_irreflexive(components):
    clock = VectorClock(components)
    assert not clock < clock
    assert clock <= clock


@given(clock_pairs())
@settings(max_examples=100, deadline=None)
def test_happened_before_is_transitive(triple):
    a, b, c = (VectorClock(components) for components in triple)
    if a < b and b < c:
        assert a < c
    if a <= b and b <= c:
        assert a <= c


@given(clock_pairs())
@settings(max_examples=100, deadline=None)
def test_chained_clocks_are_transitive(triple):
    """Transitivity with the premise forced: b and c built above a."""
    base, d1, d2 = triple
    a = VectorClock(base)
    b = VectorClock(x + y for x, y in zip(base, d1))
    c = VectorClock(x + y + z for x, y, z in zip(base, d1, d2))
    assert a <= b <= c
    if a < b and b < c:
        assert a < c


@given(clock_pairs())
@settings(max_examples=100, deadline=None)
def test_concurrency_is_symmetric(triple):
    a, b, _ = (VectorClock(components) for components in triple)
    assert a.concurrent_with(b) == b.concurrent_with(a)
    if a.concurrent_with(b):
        assert not a <= b and not b <= a


@given(clock_pairs())
@settings(max_examples=100, deadline=None)
def test_order_cases_are_mutually_exclusive(triple):
    a, b, _ = (VectorClock(components) for components in triple)
    cases = [a == b, a < b, b < a, a.concurrent_with(b)]
    assert sum(cases) == 1


@given(clock_pairs())
@settings(max_examples=100, deadline=None)
def test_merge_is_least_upper_bound(triple):
    a, b, c = (VectorClock(components) for components in triple)
    merged = a.merge(b)
    assert a <= merged and b <= merged  # upper bound
    assert merged == b.merge(a)  # commutative
    if a <= c and b <= c:
        assert merged <= c  # least among upper bounds


# ---------------------------------------------------------------------------
# cut consistency: clock layer vs Computation
# ---------------------------------------------------------------------------
def _build_computation(num_processes, script):
    """Interpret a random op script into a valid computation.

    Ops are ``(kind, process, target)`` triples; receives deliver the oldest
    pending message to the target process (skipped while none is pending),
    so every script maps to a structurally valid computation.
    """
    builder = ComputationBuilder([{} for _ in range(num_processes)])
    pending = []  # (message_id, recipient)
    next_message = itertools.count(1)
    for kind, process, target in script:
        process %= num_processes
        target %= num_processes
        if kind == 0:
            builder.internal(process, {})
        elif kind == 1 and target != process:
            message_id = next(next_message)
            builder.send(process, to=target, message_id=message_id)
            pending.append((message_id, target, process))
        elif kind == 2 and pending:
            message_id, recipient, sender = pending.pop(0)
            builder.receive(recipient, frm=sender, message_id=message_id)
    return builder.build()


computation_scripts = st.tuples(
    st.integers(2, 3),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        min_size=2,
        max_size=10,
    ),
)


def _all_cuts(computation):
    return itertools.product(
        *(range(len(events) + 1) for events in computation.events)
    )


def _merged_frontier(computation, cut):
    merged = VectorClock.zero(computation.num_processes)
    for events, count in zip(computation.events, cut):
        if count > 0:
            merged = merged.merge(events[count - 1].vc)
    return merged


@given(computation_scripts)
@settings(max_examples=60, deadline=None)
def test_cut_clock_consistency_agrees_with_computation(case):
    """A cut is consistent iff its merged frontier clock is below its
    cut clock — the clock-layer formulation of Definition 4."""
    num_processes, script = case
    computation = _build_computation(num_processes, script)
    for cut in _all_cuts(computation):
        clock_consistent = _merged_frontier(computation, cut) <= VectorClock(cut)
        assert computation.is_consistent_cut(cut) == clock_consistent


# ---------------------------------------------------------------------------
# apply_clock_skew: the soundness contract
# ---------------------------------------------------------------------------
@given(computation_scripts, st.integers(0, 1 << 16))
@settings(max_examples=40, deadline=None)
def test_sound_skew_only_shrinks_the_consistent_cut_set(case, seed):
    num_processes, script = case
    computation = _build_computation(num_processes, script)
    spec = ClockSkewSpec(mode=SKEW_SOUND, rate=0.5, magnitude=2, seed=seed)
    skewed, _ = apply_clock_skew(computation, spec)
    for cut in _all_cuts(computation):
        if skewed.is_consistent_cut(cut):
            assert computation.is_consistent_cut(cut)


@given(computation_scripts, st.sampled_from(SKEW_MODES), st.integers(0, 1 << 16))
@settings(max_examples=60, deadline=None)
def test_skew_preserves_event_invariants(case, mode, seed):
    """In both modes: ``vc[i] == sn`` and per-process clocks only grow.

    The monitor's one-shot token serving rests on both (the position bound
    of a visit is fixed, ``depend`` is folded from a run's last clock only).
    """
    num_processes, script = case
    computation = _build_computation(num_processes, script)
    spec = ClockSkewSpec(mode=mode, rate=1.0, magnitude=3, seed=seed)
    skewed, _ = apply_clock_skew(computation, spec)
    maxima = computation.final_cut()
    for process in range(num_processes):
        previous = None
        for event in skewed.events_of(process):
            assert event.vc[process] == event.sn  # local component invariant
            assert all(event.vc[k] <= maxima[k] for k in range(num_processes))
            if previous is not None:
                assert previous <= event.vc  # per-process monotonicity
            previous = event.vc


@given(computation_scripts, st.integers(0, 1 << 16))
@settings(max_examples=20, deadline=None)
def test_skew_is_deterministic_in_its_seed(case, seed):
    num_processes, script = case
    computation = _build_computation(num_processes, script)
    spec = ClockSkewSpec(mode=SKEW_SOUND, rate=0.5, magnitude=2, seed=seed)
    first, first_stats = apply_clock_skew(computation, spec)
    second, second_stats = apply_clock_skew(computation, spec)
    assert first_stats == second_stats
    for process in range(num_processes):
        assert [e.vc for e in first.events_of(process)] == [
            e.vc for e in second.events_of(process)
        ]


def test_clock_skew_rejects_bad_parameters():
    import pytest

    with pytest.raises(ValueError, match="unknown skew mode"):
        ClockSkewSpec(mode="sideways")
    with pytest.raises(ValueError, match="rate must be within"):
        ClockSkewSpec(rate=1.5)
    with pytest.raises(ValueError, match="magnitude must be >= 1"):
        ClockSkewSpec(magnitude=0)
