"""The monitor's per-process columns, and the runs that fill them.

* Whatever sequence of runs a monitor absorbs — overlapping, duplicated,
  stale, with a gap, misshapen, holding a mask outside the alphabet — each
  column stays a gapless prefix of the process's true events, and nothing
  raises.
* A returned entry whose box the columns do not hold forks nothing.
* At the end of real runs (the five fixture cells, a crash/rejoin plan, a
  duplicating and replaying Byzantine plan) every monitor's column for ``j``
  is a prefix of monitor ``j``'s own column, and every live view satisfies
  ``cut[j] <= len(column[j]) - 1`` — the invariant the box search slices by.
"""

import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from test_token_hot_paths import _network

from repro.core.global_view import ViewStatus
from repro.core.messages import Token, TokenEntry
from repro.core.monitor import DecentralizedMonitor
from repro.experiments.properties import case_study_registry
from repro.faults import parse_fault_plan
from repro.ltl import build_monitor
from repro.sim import simulate_monitored_run

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from capture_topology_fixtures import CELLS, build_cell_inputs  # noqa: E402

N = 3
#: the true events 1..TRUTH of every process (position 0 is the initial state)
TRUTH = 12
REGISTRY = case_study_registry(N)
AUTOMATON = build_monitor("F(P0.p & P1.p & P2.p)", atoms=REGISTRY.names)
#: the first mask outside the automaton's alphabet
N_LETTERS = AUTOMATON.compiled.n_letters


def _true_events(process):
    bit = AUTOMATON.compiled.atom_bit[f"P{process}.p"]
    masks = [bit if sn % 3 else 0 for sn in range(1, TRUTH + 1)]
    vcs = [tuple(sn if k == process else sn // 2 for k in range(N)) for sn in range(1, TRUTH + 1)]
    return masks, vcs


def _monitor():
    return DecentralizedMonitor(
        process=0,
        num_processes=N,
        automaton=AUTOMATON,
        registry=REGISTRY,
        initial_letters=[frozenset()] * N,
        transport=_network(),
    )


def _token(known, runs, entries=()):
    return Token(0, entries=list(entries), known=known, runs=runs)


@st.composite
def honest_runs(draw):
    """A token's ``known`` and runs cut out of the truth, anywhere in it."""
    known = [0] * N
    runs = {}
    for j in draw(st.sets(st.integers(1, N - 1))):
        known[j] = draw(st.integers(0, TRUTH))
        length = draw(st.integers(0, TRUTH - known[j]))
        letters, vcs = _true_events(j)
        runs[j] = (letters[known[j] : known[j] + length], vcs[known[j] : known[j] + length])
    return known, runs


misshapen_runs = st.sampled_from(
    [
        ([0] * N, {7: ([0], [(1,) * N])}),  # no such process
        ([0] * N, {-1: ([0], [(1,) * N])}),
        ([0] * N, {0: ([0], [(9,) * N])}),  # the monitor's own
        ([0] * N, {1: ([N_LETTERS], [(1,) * N])}),  # a mask outside the alphabet
        ([0] * N, {2: ([0, -1, 0], [(1,) * N] * 3)}),
        ([0] * N, {1: ([0], [])}),  # masks without clocks
        ([0] * (N - 1), {1: ([0], [(1,) * N])}),  # known of another size
        ([0] * (N + 1), {1: ([0], [(1,) * N])}),
        ([0, TRUTH + 5, 0], {1: ([0], [(1,) * N])}),  # known beyond anything held
    ]
)


@given(st.lists(st.one_of(honest_runs(), misshapen_runs), max_size=12))
@settings(max_examples=300, deadline=None)
def test_columns_stay_true_prefixes_whatever_is_absorbed(arrivals):
    monitor = _monitor()
    held = [0] * N
    for known, runs in arrivals:
        if len(known) == N:
            monitor.columns.absorb_runs(_token(known, runs))
        else:  # not as wide as the session: refused before a run is read
            with pytest.raises(ValueError, match=f"wide for a monitor of {N} processes"):
                monitor.receive_message(_token(known, runs))
        for j in range(1, N):
            masks, vcs = _true_events(j)
            length = len(monitor.columns.vcs[j]) - 1
            assert monitor.columns.masks[j][1:] == masks[:length]
            assert monitor.columns.vcs[j][1:] == vcs[:length]
            if (
                len(known) == N
                and j in runs
                and len(runs[j][0]) == len(runs[j][1])
                and all(0 <= mask < N_LETTERS for mask in runs[j][0])
            ):
                reach = known[j] + len(runs[j][1])
                # a run is absorbed exactly when it continues the column
                held[j] = max(held[j], reach) if known[j] <= held[j] else held[j]
            assert length == held[j]
        assert len(monitor.columns.vcs[0]) == 1  # its own column is never absorbed into


def _returned(monitor, cut, known, runs=None):
    """Hand *monitor* a decided token of its only view, reaching *cut*."""
    (view,) = monitor.views
    entry = TokenEntry(
        transition_id=0,
        bits=((0, 0),) * N,
        start_cut=list(view.cut),
        cut=list(cut),
        depend=list(cut),
        min_positions=list(view.cut),
        satisfied=[True] * N,
        eval=True,
    )
    token = _token(known, runs or {}, [entry])
    view.status = ViewStatus.WAITING
    view.outstanding_token = token.token_id
    monitor.views.waiting[token.token_id] = view
    monitor.receive_message(token)
    return view


@pytest.mark.parametrize(
    "cut, known, runs",
    [
        ([0, 3, 0], [0, 0, 0], {}),  # reached events nobody shipped
        ([0, 3, 0], [0, 5, 0], {1: (_true_events(1)[0][5:8], _true_events(1)[1][5:8])}),  # a gap
        ([0, 3, 0], [0, 0], {1: (_true_events(1)[0][:3], _true_events(1)[1][:3])}),  # forged known
        # a mask outside the alphabet: it would index another state's table row
        ([0, 3, 0], [0, 0, 0], {1: ([0, N_LETTERS, 0], _true_events(1)[1][:3])}),
        ([0, 3], [0, 0, 0], {}),  # an entry over fewer processes
        ([0, -1, 0], [0, 0, 0], {}),  # a cut below the view's
    ],
)
def test_an_entry_the_columns_do_not_cover_forks_nothing(cut, known, runs):
    monitor = _monitor()
    created = monitor.metrics.views_created
    if len(cut) == len(known) == N:
        view = _returned(monitor, cut, known, runs)
        assert view.status == ViewStatus.UNBLOCKED
    else:  # not as wide as the session: refused before a run is read
        with pytest.raises(ValueError, match=f"wide for a monitor of {N} processes"):
            _returned(monitor, cut, known, runs)
        (view,) = monitor.views
        assert view.status == ViewStatus.WAITING  # its token never arrived
    assert monitor.metrics.views_created == created
    assert monitor.metrics.box_queries == 0
    assert monitor.views == [view]
    assert [len(column) for column in monitor.columns.masks] == [1] * N  # none grew


def test_an_entry_the_runs_cover_is_replayed():
    monitor = _monitor()
    masks, vcs = _true_events(1)
    _returned(monitor, [0, 3, 0], [0, 0, 0], {1: (masks[:3], vcs[:3])})
    assert monitor.metrics.box_queries == 1
    assert monitor.columns.masks[1][1:] == masks[:3]



# ---------------------------------------------------------------------------
# end of real runs
# ---------------------------------------------------------------------------
def _assert_columns_are_prefixes(report):
    monitors = report.monitors
    for monitor in monitors:
        for j, owner in enumerate(monitors):
            held = len(monitor.columns.vcs[j])
            assert monitor.columns.masks[j] == owner.columns.masks[j][:held]
            assert monitor.columns.vcs[j] == owner.columns.vcs[j][:held]
        for view in monitor.views:
            assert all(
                position < len(column) for position, column in zip(view.cut, monitor.columns.vcs)
            )


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-n{c[1]}-s{c[2]}")
def test_fixture_cells_end_with_prefix_columns_under_every_view(cell):
    computation, automaton, registry = build_cell_inputs(*cell)
    report = simulate_monitored_run(
        computation, automaton, registry, seed=cell[2], max_views_per_state=2
    )
    assert report.metrics.events_shipped > 0
    _assert_columns_are_prefixes(report)
    # the search counters: summed over the monitors, outside as_dict()
    metrics = [monitor.metrics for monitor in report.monitors]
    assert report.metrics.box_cells_visited == sum(m.box_cells_visited for m in metrics)
    # one search serves every entry of a view step, so cells are not bounded
    # below by entries searched; but an entry searched is an entry issued
    assert report.metrics.box_cells_visited > 0
    counters = report.metrics
    assert counters.entries_created >= counters.box_queries >= counters.boxes_by_letter >= 0
    assert report.metrics.views_evicted == sum(m.views_evicted for m in metrics)
    # an evicted view is booked once, under views_evicted, never as a merge:
    # every view created is live, final, retired, merged away or evicted
    assert all(
        m.metrics.views_created
        >= len(m.views) + len(m.views.final) + m.metrics.views_evicted
        for m in report.monitors
    )
    assert not {"box_cells_visited", "views_evicted"} & set(report.as_dict())


@pytest.mark.parametrize("plan", ["1@2+1:rejoin", "1!dup2!replay3"])
def test_faulty_runs_end_with_prefix_columns_under_every_view(plan):
    computation, automaton, registry = build_cell_inputs("C", 3, 2015)
    report = simulate_monitored_run(
        computation,
        automaton,
        registry,
        seed=2015,
        max_views_per_state=2,
        faults=parse_fault_plan(plan),
    )
    assert any(value for key, value in report.fault_stats.items() if key.startswith("fault_"))
    _assert_columns_are_prefixes(report)
