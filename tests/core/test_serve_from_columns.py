"""Answer from what you hold, and never explore a signature twice.

* **Serving from a prefix.**  Serving an entry from the columns a monitor
  holds gives what passing it round monitors that each held that prefix of
  their own process would have given — the same least cut and clocks — and
  never parks the entry on a foreign process.
* **Equivalence.**  With foreign-column serving switched off from outside,
  verdicts are the same and no fewer messages are sent.  With settling off
  too, on the cells where every entry comes back true (properties B and E)
  so are the views and — up to one last exploration by a view that no
  longer waits when its process ends — the box searches: only tokens and
  messages differ.
* **Fallback.**  Columns that do not reach the target leave the search to a
  token, exactly as before.
* **Depth.**  Thousands of pending events answered at home are consumed in
  a loop.
* **Covering.**  No monitor creates two views at one ``(state, cut)`` unless
  the first was evicted, or merged into a view that was; an eviction is
  booked once; repair forks obey the dominance rule of every
  other fork; remembering *dominated* signatures would lose verdicts.
* **Home.**  A token passing home undecided leaves refreshed; runs that
  leave a gap change no column.
* Clocks that are not clocks, and the pinned workload cells.

The verdict gate is PR 16's, unchanged, in ``test_token_lifecycle.py``.
"""

import copy
import random
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from test_token_hot_paths import (
    _bits_of,
    _lagging,
    _random_automaton,
    _reachable,
    _serve_one_event_at_a_time,
    _setting,
)
from test_token_hot_paths import _monitor as _fed_monitor

from repro.core.box import Box
from repro.core.columns import Columns
from repro.core.global_view import GlobalView, ViewSet, ViewStatus
from repro.core.messages import Token, TokenEntry
from repro.core.monitor import DecentralizedMonitor
from repro.distributed.clocks import VectorClock
from repro.distributed.events import Event, EventKind
from repro.experiments.engine import cell_inputs
from repro.experiments.properties import case_study_registry
from repro.faults import ClockSkewSpec, FaultPlan
from repro.ltl import Verdict, build_monitor
from repro.scenarios import ReliableNetwork, get_scenario
from repro.sim import SimulatedNetwork, Simulator, simulate_monitored_run

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from capture_topology_fixtures import CELLS, build_cell_inputs  # noqa: E402

NOTHING = frozenset()


def _mask(monitor, *atoms):
    """The letter mask of the atoms given, over *monitor*'s automaton."""
    return monitor.automaton.compiled.encode(atoms)


def _paper_cell(property_name, num_processes, events_per_process, seed):
    return cell_inputs(
        get_scenario("paper-default"), property_name, num_processes,
        events_per_process=events_per_process,
        evt_mu=3, evt_sigma=1, comm_mu=3, comm_sigma=1, seed=seed,
    )


def _simulate(inputs, seed, faults=None):
    return simulate_monitored_run(
        *inputs, seed=seed, max_views_per_state=2, faults=faults,
        network=get_scenario("paper-default").network,
    )


@pytest.fixture(scope="module")
def long_trace_inputs():
    """The ``long-trace`` workload's one session: property B, n=5, 1 736 events."""
    return _paper_cell("B", 5, 40, 2015)


@pytest.fixture(scope="module")
def token_heavy_inputs():
    """The ``token-heavy`` workload's one session: property C, n=4, 536 events."""
    return _paper_cell("C", 4, 20, 2015)


def _own_column_only(monkeypatch):
    """Switch foreign-column serving off from outside: a visit advances the
    visited process's component and nothing else, as before."""
    serve = Columns.serve_component

    def own_column_only(self, entry, j, care, want):
        if j == self.process:
            serve(self, entry, j, care, want)

    monkeypatch.setattr(Columns, "serve_component", own_column_only)


def _never_settle(monkeypatch):
    """Switch settling off from outside: every monitor explores to the end."""
    monkeypatch.setattr(ViewSet, "settle", lambda self, declared, heard: False)


def _held_and_travelled(inputs, seed, monkeypatch):
    """One run serving from every column held, one from the own column only."""
    held = _simulate(inputs, seed)
    with monkeypatch.context() as patch:
        _own_column_only(patch)
        return held, _simulate(inputs, seed)


def _hold(monitor, process, clocks, masks=None):
    """Put events ``1 …`` of *process* (mask 0 unless given) in the columns."""
    known = [0] * monitor.num_processes
    runs = {process: (list(masks or [0] * len(clocks)), list(clocks))}
    monitor.columns.absorb_runs(Token(0, entries=[], known=known, runs=runs))


# ---------------------------------------------------------------------------
# (i) serving from prefixes == passing the entry round the prefixes' owners
# ---------------------------------------------------------------------------
_SEARCH_FIELDS = ("cut", "depend", "satisfied", "min_positions", "start_cut")


@st.composite
def held_prefixes(draw):
    computation, registry = _setting(draw, max_events_per_process=8)
    automaton = _random_automaton(registry.names, inconclusive=2, seed=0)
    n = computation.num_processes
    server = draw(st.integers(0, n - 1))
    held = [draw(st.integers(0, len(computation.events_of(j)))) for j in range(n)]
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    cut = [rng.randint(0, held[j] + 1) for j in range(n)]
    conjuncts = [{f"P{j}.p": rng.random() < 0.5} if rng.random() < 0.6 else {} for j in range(n)]
    entry = TokenEntry(
        transition_id=rng.choice([None, 0]),
        bits=_bits_of(automaton, conjuncts),
        start_cut=list(cut),
        cut=list(cut),
        depend=[rng.randint(0, held[j] + 1) for j in range(n)],
        min_positions=[rng.randint(0, held[j] + 1) for j in range(n)],
        satisfied=[rng.random() < 0.5 for _ in range(n)],
        parked_on=rng.choice([None, *range(n)]),
        waiting_for={j for j in range(n) if rng.random() < 0.3},
    )
    ended = [draw(st.booleans()) for _ in range(n)]
    return computation, registry, automaton, server, held, entry, ended


@given(held_prefixes())
@settings(max_examples=300, deadline=None)
def test_serving_from_prefixes_matches_the_owners_event_at_a_time_loops(case):
    computation, registry, automaton, server, held, entry, ended = case
    n = computation.num_processes
    # the reference: monitor j, having read held[j] of its own events, runs
    # the event-at-a-time loop; the entry goes round until nothing moves
    owners = [_fed_monitor(j, computation, registry, automaton, feed=held[j]) for j in range(n)]
    expected = copy.deepcopy(entry)
    moved = True
    while moved:
        moved = any([_serve_one_event_at_a_time(owners[j], expected) for j in range(n)])
    # the monitor under test holds the same prefixes, as columns
    monitor = owners[server]
    for j in range(n):
        if j != server:
            events = computation.events_of(j)[: held[j]]
            _hold(
                monitor, j, [tuple(e.vc) for e in events],
                [_mask(monitor, *registry.local_letter(j, e.state)) for e in events],
            )
            # a process known to have ended, either inside the column or beyond it
            monitor.terminated[j] = held[j] + (0 if ended[j] else 1)
    parked_on, waiting_for = entry.parked_on, set(entry.waiting_for)
    monitor.columns.serve_entry(entry, monitor.columns.live_ends())
    if entry.eval is None:
        for name in _SEARCH_FIELDS:
            assert getattr(entry, name) == getattr(expected, name), name
    else:
        # settled (the search stops there), and only by a process known to
        # have ended where the column held here, or the entry itself, has got to
        assert entry.eval is False
        assert any(
            monitor.terminated[j] <= max(held[j], entry.cut[j])
            for j in _lagging(entry)
            if j != server
        )
    # never parks on a foreign process: only M_j knows it has nothing more
    assert entry.parked_on in (None, server, parked_on)
    assert entry.waiting_for <= waiting_for | {server}


def test_a_foreign_column_that_runs_out_leaves_the_component_lagging():
    monitor, _ = _monitor(n=3, p0_initially=True)
    _hold(monitor, 1, [(0, 1, 0), (0, 2, 0)])
    p1 = _mask(monitor, "P1.p")
    entry = TokenEntry(
        transition_id=0, bits=((0, 0), (p1, p1), (0, 0)),
        start_cut=[0, 0, 0], cut=[0, 0, 0], depend=[0, 0, 0], min_positions=[0, 0, 0],
        satisfied=[True, False, True],
    )
    assert monitor.columns.serve_entry(entry, monitor.columns.live_ends()) == [1]  # lagging on P1
    assert entry.cut == [0, 2, 0]
    assert entry.parked_on is None and entry.waiting_for == set() and entry.eval is None
    monitor.terminated[1] = 3  # ended, but beyond what is held here
    monitor.columns.serve_entry(entry, monitor.columns.live_ends())
    assert entry.eval is None
    monitor.terminated[1] = 2  # ended inside the column: nothing more can come
    monitor.columns.serve_entry(entry, monitor.columns.live_ends())
    assert entry.eval is False


# ---------------------------------------------------------------------------
# (ii) equivalence
# ---------------------------------------------------------------------------
def _assert_same_verdicts_no_more_messages(held, travelled):
    # settled monitors stop at different points of the two runs: only the
    # verdicts and the direction of the message count are shared
    assert held.declared_verdicts == travelled.declared_verdicts
    assert held.monitor_messages <= travelled.monitor_messages


def _assert_same_search_fewer_tokens(held, travelled):
    assert held.declared_verdicts == travelled.declared_verdicts
    h, t = held.metrics, travelled.metrics
    assert (h.views_created, h.views_evicted) == (t.views_created, t.views_evicted)
    # the same searches, each replaying its box once or finding it in what its
    # view searched a step earlier — but for the views that are no longer
    # waiting when their process ends, which explore once more
    for counters in (h, t):
        assert counters.box_queries + counters.boxes_remembered == counters.entries_created
    assert 0 <= h.entries_created - t.entries_created <= held.num_processes
    assert 0 <= h.box_queries - t.box_queries <= held.num_processes
    assert 0 <= h.box_cells_visited - t.box_cells_visited <= 16
    assert h.tokens_created < t.tokens_created
    assert h.answered_at_home > t.answered_at_home
    assert held.monitor_messages < travelled.monitor_messages


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-n{c[1]}-s{c[2]}")
def test_an_answer_from_the_columns_is_what_the_token_would_have_brought(cell, monkeypatch):
    inputs = build_cell_inputs(*cell)
    _assert_same_verdicts_no_more_messages(*_held_and_travelled(inputs, cell[2], monkeypatch))
    instant = ReliableNetwork(latency=0.0, jitter=0.0)
    runner = simulate_monitored_run(*inputs, network=instant)
    with monkeypatch.context() as patch:
        _own_column_only(patch)
        travelled = simulate_monitored_run(*inputs, network=instant)
        assert runner.declared_verdicts == travelled.declared_verdicts
    if cell[0] in "BE":  # every entry returns true: nothing else may move
        _never_settle(monkeypatch)
        _assert_same_search_fewer_tokens(*_held_and_travelled(inputs, cell[2], monkeypatch))


def test_long_trace_answers_at_home_change_tokens_and_messages_only(
    long_trace_inputs, monkeypatch
):
    _assert_same_verdicts_no_more_messages(
        *_held_and_travelled(long_trace_inputs, 2015, monkeypatch)
    )
    _never_settle(monkeypatch)
    _assert_same_search_fewer_tokens(*_held_and_travelled(long_trace_inputs, 2015, monkeypatch))


@pytest.mark.parametrize("workload", ["token-heavy", "box-heavy"])
def test_sim_workload_cells_declare_the_same_either_way(
    workload, token_heavy_inputs, monkeypatch
):
    inputs = token_heavy_inputs if workload == "token-heavy" else _paper_cell("F", 4, 4, 2046)
    seed = 2015 if workload == "token-heavy" else 2046
    held = _simulate(inputs, seed)
    _own_column_only(monkeypatch)
    travelled = _simulate(inputs, seed)
    assert held.declared_verdicts == travelled.declared_verdicts == {Verdict.BOTTOM}
    assert held.monitor_messages < travelled.monitor_messages


# ---------------------------------------------------------------------------
# hand-driven monitors
# ---------------------------------------------------------------------------
class _Outbox(SimulatedNetwork):
    """Links that deliver at once and keep what was sent, each message of a
    frame on its own (nothing runs them)."""

    def __init__(self):
        super().__init__(Simulator(), ReliableNetwork(latency=0.0, jitter=0.0).delay_model(0))
        self.tokens = []

    def send(self, sender, target, message):
        self.tokens += [(target, part) for part in (message if isinstance(message, tuple) else (message,))]
        super().send(sender, target, message)


def _monitor(n=2, p0_initially=False, max_views_per_state=None):
    """Monitor 0 of ``F(P0.p & … )``; with P0's ``p`` false it never asks."""
    registry = case_study_registry(n)
    formula = "F(" + " & ".join(f"P{j}.p" for j in range(n)) + ")"
    network = _Outbox()
    monitor = DecentralizedMonitor(
        process=0,
        num_processes=n,
        automaton=build_monitor(formula, atoms=registry.names),
        registry=registry,
        initial_letters=[frozenset({"P0.p"}) if p0_initially else NOTHING] + [NOTHING] * (n - 1),
        transport=network,
        max_views_per_state=max_views_per_state,
    )
    for process in range(n):
        network.register(process, monitor)
    monitor.start()
    return monitor, network


def _receive(monitor, sn, clock, p=False):
    """Local event *sn* of P0: a receive whose clock names remote events."""
    monitor.local_event(
        Event(0, sn, EventKind.RECEIVE, VectorClock(list(clock)), {"p": p}, peer=1)
    )


# ---------------------------------------------------------------------------
# (iii) fallback to the token
# ---------------------------------------------------------------------------
def test_fresh_columns_send_the_repair_token_as_before():
    monitor, network = _monitor()
    (view,) = monitor.views
    _receive(monitor, 1, (1, 1))
    assert monitor.metrics.answered_at_home == 0
    assert monitor.metrics.tokens_created == 1
    ((target, token),) = network.tokens
    (entry,) = token.entries
    assert target == 1 and entry.is_repair and entry.eval is None
    assert (entry.cut, entry.min_positions) == ([0, 0], [0, 1])
    assert monitor.views == [view] and view.is_waiting() and not monitor.is_quiescent


def test_one_uncovered_lagging_process_is_enough_for_a_token():
    monitor, network = _monitor(n=3)
    _hold(monitor, 1, [(0, 1, 0)])  # P1's event is here, P2's is not
    _receive(monitor, 1, (1, 1, 1))
    assert monitor.metrics.answered_at_home == 0
    assert monitor.metrics.tokens_created == 1
    ((target, token),) = network.tokens
    assert target == 2  # P1's component was served here; only P2 is asked
    assert token.entries[0].cut == [0, 1, 0] and not token.runs


def test_covered_columns_need_no_token():
    monitor, network = _monitor(n=3)
    _hold(monitor, 1, [(0, 1, 0)])
    _hold(monitor, 2, [(0, 0, 1)])
    _receive(monitor, 1, (1, 1, 1))
    assert monitor.metrics.answered_at_home == 1
    assert monitor.metrics.tokens_created == 0 and network.tokens == []
    assert monitor.metrics.entries_created == 1  # a search issued all the same
    (view,) = monitor.views
    assert view.cut == [1, 1, 1] and not view.is_waiting() and monitor.is_quiescent


def test_a_transition_search_the_columns_answer_sends_nothing():
    monitor, network = _monitor(p0_initially=True)
    (waiting,) = monitor.views  # asked P1 for its p at start: fresh columns
    assert waiting.is_waiting() and len(network.tokens) == 1
    # a second monitor of the same kind that already holds P1 raising p
    other, outbox = _monitor(p0_initially=False)
    _hold(other, 1, [(0, 1)], [_mask(other, "P1.p")])
    other.local_event(Event(0, 1, EventKind.INTERNAL, VectorClock([1, 0]), {"p": True}))
    assert outbox.tokens == [] and other.metrics.tokens_created == 0
    assert other.metrics.answered_at_home == 1 and other.is_quiescent
    assert other.declared_verdicts == {Verdict.TOP}


# ---------------------------------------------------------------------------
# (iv) depth
# ---------------------------------------------------------------------------
def test_three_thousand_pending_events_are_answered_in_a_loop():
    pending = 3000
    monitor, network = _monitor()
    for sn in range(1, pending + 1):
        _receive(monitor, sn, (sn, sn))  # each names one more event of P1
    # the first went out as a token (fresh columns), the rest queued behind it
    assert monitor.metrics.tokens_created == 1 and monitor.views[0].cut == [0, 0]
    ((_, token),) = network.tokens
    (entry,) = token.entries
    # P1 serves it — and, as it happens, ships everything it has
    entry.cut[1], entry.eval = 1, True
    token.runs[1] = ([0] * pending, [(0, sn) for sn in range(1, pending + 1)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        monitor.receive_message(token)
    finally:
        sys.setrecursionlimit(limit)
    (view,) = monitor.views
    assert view.cut == [pending, pending]
    assert monitor.metrics.answered_at_home == pending - 1
    assert monitor.metrics.tokens_created == 1 and monitor.is_quiescent
    assert monitor.metrics.views_created == 1 + pending  # one successor per repair


def test_three_thousand_transition_searches_answered_at_home_do_not_nest():
    pending = 3000
    monitor, network = _monitor(p0_initially=True)
    (first,) = network.tokens  # the search issued at start waits at P1
    _hold(monitor, 1, [(0, sn) for sn in range(1, pending + 1)])  # P1 never raises p
    monitor.terminated[1] = pending
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for sn in range(1, pending + 1):  # queue behind the waiting view
            monitor.local_event(
                Event(0, sn, EventKind.INTERNAL, VectorClock([sn, 0]), {"p": True})
            )
        token = first[1]
        token.entries[0].eval = False
        monitor.receive_message(token)  # … and release them all at once
    finally:
        sys.setrecursionlimit(limit)
    (view,) = monitor.views
    assert view.cut == [pending, 0] and monitor.is_quiescent
    assert monitor.metrics.answered_at_home == pending  # each settled False here
    assert monitor.metrics.tokens_created == 1 and len(network.tokens) == 1


# ---------------------------------------------------------------------------
# (v) covering: the dominance rule, and never the same signature twice
# ---------------------------------------------------------------------------
def test_a_repaired_lone_view_always_leaves_a_successor():
    monitor, _ = _monitor()
    (stale,) = monitor.views
    _hold(monitor, 1, [(0, 1)])
    _receive(monitor, 1, (1, 1))
    (successor,) = monitor.views  # same state, larger cut: the stale view
    assert successor is not stale  # would have "covered" it, had it stayed
    assert (successor.state, successor.cut) == (stale.state, [1, 1])
    assert stale not in monitor.views.final
    assert monitor.metrics.views_merged == 0 and monitor.metrics.views_created == 2


def test_a_repair_fork_below_a_waiting_view_of_its_state_is_not_created():
    monitor, network = _monitor(p0_initially=True)
    (waiting,) = monitor.views  # asked P1 for its p at start, no answer yet
    assert waiting.is_waiting() and len(network.tokens) == 1
    lagging = GlobalView(cut=[0, 0], state=waiting.state)
    monitor.views.append(lagging)
    _hold(monitor, 1, [(0, 1)])
    _receive(monitor, 1, (1, 1), p=True)
    assert monitor.metrics.answered_at_home == 1
    assert monitor.views == [waiting]  # the stale view retired, its fork covered
    assert monitor.metrics.views_merged == 1
    assert monitor.metrics.views_created == 1  # the initial view only
    assert len(network.tokens) == 1


def _fork_repaired(monitor, view, cut):
    """Search and fork a decided repair of *view* up to *cut*."""
    target = tuple(cut)
    return monitor.views.fork(view, target, *_reachable(monitor, view, [target]), True)


def test_a_signature_is_born_once_unless_its_view_was_evicted():
    monitor, _ = _monitor(max_views_per_state=1)
    (root,) = monitor.views
    _hold(monitor, 1, [(0, 1), (0, 2)])
    monitor.views.remove(root)  # retired, as a repaired view is before it forks
    (child,) = _fork_repaired(monitor, root, [0, 1])
    assert child.born == {(root.state, (0, 1))} and child.born <= monitor.views.born
    # the child moves on: no live view dominates the same fork any more, but
    # creating it again would only re-walk the child's chain
    child.cut = [0, 2]
    merged = monitor.metrics.views_merged
    assert _fork_repaired(monitor, root, [0, 1]) == []
    assert monitor.metrics.views_merged == merged + 1
    # the budget (1 per state) gives the child up for an incomparable, smaller
    # view: its signature is forgotten and may be born again
    smaller = GlobalView(cut=[1, 0], state=root.state)
    monitor.views.append(smaller)
    monitor.views.merge(monitor.declared_bits, monitor.heard)
    assert monitor.views == [smaller] and monitor.metrics.views_evicted == 1
    assert not child.born & monitor.views.born
    monitor.views.remove(smaller)
    (reborn,) = _fork_repaired(monitor, root, [0, 1])
    assert reborn.born == child.born and reborn.born <= monitor.views.born


def test_a_merged_view_is_given_up_with_the_view_that_covered_it():
    monitor, _ = _monitor(max_views_per_state=1)
    (root,) = monitor.views
    _hold(monitor, 1, [(0, 1), (0, 2), (0, 3)])
    monitor.views.remove(root)
    (merged_away,) = _fork_repaired(monitor, root, [0, 2])
    (coverer,) = _fork_repaired(monitor, root, [0, 1])
    merged_away.cut, coverer.cut = [0, 3], [0, 2]  # both move on
    monitor.views.merge(monitor.declared_bits, monitor.heard)  # same state, [0, 2] <= [0, 3]: the coverer takes it over
    assert monitor.views == [coverer] and monitor.metrics.views_merged == 1
    assert coverer.born == {(root.state, (0, 1)), (root.state, (0, 2))}
    # while the coverer lives, [0, 2] is still being explored — by the coverer
    assert _fork_repaired(monitor, root, [0, 2]) == []
    smaller = GlobalView(cut=[1, 0], state=root.state)
    monitor.views.append(smaller)
    monitor.views.merge(monitor.declared_bits, monitor.heard)  # the budget gives the coverer up, and with it both chains
    assert monitor.views == [smaller] and monitor.metrics.views_evicted == 1
    assert monitor.views.born == {(root.state, (0, 0))}  # the initial view's
    monitor.views.remove(smaller)
    (reborn,) = _fork_repaired(monitor, root, [0, 2])
    assert reborn.born == {(root.state, (0, 2))}


def _watch_births(monkeypatch):
    """Record, per monitor, every signature born and every one given up; an
    eviction is booked once, as an eviction."""
    fork, enforce = ViewSet.fork, ViewSet.enforce_budget
    births = {}

    def watched_fork(self, view, cut, reached, repair):
        children = fork(self, view, cut, reached, repair)
        live = births.setdefault(id(self), set())
        for child in children:
            assert child.born == {child.signature()}
            assert not child.born & live, f"{child.born} born twice"
            live.update(child.born)
        return children

    def watched_enforce(self):
        before = list(self)
        merged, evicted = self.metrics.views_merged, self.metrics.views_evicted
        enforce(self)
        assert self.metrics.views_merged == merged
        assert self.metrics.views_evicted - evicted == len(before) - len(self)
        for view in before:
            if view not in self:
                births.get(id(self), set()).difference_update(view.born)

    monkeypatch.setattr(ViewSet, "fork", watched_fork)
    monkeypatch.setattr(ViewSet, "enforce_budget", watched_enforce)
    return births


# D n=4 epp=12 seed 5 settles before it forks more than one view per monitor,
# and so does C n=4 epp=20 seed 2015 once monitors hear what was declared
@pytest.mark.parametrize("cell", [("C", 4, 20, 7), ("F", 4, 5, 77), ("D", 4, 10, 1)],
                         ids=lambda c: f"{c[0]}-n{c[1]}-epp{c[2]}-s{c[3]}")
def test_no_monitor_bears_one_signature_twice_on_real_runs(cell, monkeypatch):
    births = _watch_births(monkeypatch)
    report = _simulate(_paper_cell(*cell), cell[3])
    assert sum(map(len, births.values())) > report.num_processes
    if cell[0] == "F":  # the forgetting path ran, and disowned tokens came home
        assert 0 < report.metrics.orphan_tokens_swallowed <= report.metrics.views_evicted


def test_remembering_dominated_signatures_would_lose_the_long_trace_verdict(
    long_trace_inputs, monkeypatch
):
    covered = ViewSet.covered

    def covered_or_dominated_by_a_past_view(self, state, cut):
        return covered(self, state, cut) or any(
            born_state == state and all(b <= c for b, c in zip(born_cut, cut))
            for born_state, born_cut in self.born
        )

    monkeypatch.setattr(ViewSet, "covered", covered_or_dominated_by_a_past_view)
    # a repair fork is a same-state, larger-cut successor of its own predecessor
    assert _simulate(long_trace_inputs, 2015).declared_verdicts == set()


# ---------------------------------------------------------------------------
# (vi) home: refreshed on every pass; gaps change nothing
# ---------------------------------------------------------------------------
def test_a_token_passing_home_undecided_leaves_refreshed():
    monitor, network = _monitor(n=3, p0_initially=True)
    ((_, token),) = network.tokens  # F(p0 & p1 & p2): left for P1 at start
    assert token.known == [0, 0, 0] and not token.runs
    (entry,) = token.entries
    # P1 raised p at its second event and served the token; P2 is still wanted
    entry.cut[1], entry.satisfied[1] = 2, True
    token.runs[1] = ([0, _mask(monitor, "P1.p")], [(0, 1, 0), (0, 2, 0)])
    _hold(monitor, 2, [(0, 0, 1)])  # home learnt of a P2 event meanwhile (p still false)
    monitor.receive_message(token)  # … relayed through home, undecided
    assert len(monitor.columns.vcs[1]) == 3  # absorbed
    assert token.runs == {} and token.known == [0, 2, 1]
    assert token.known == [len(column) - 1 for column in monitor.columns.vcs]
    assert entry.cut == [0, 2, 1] and entry.eval is None  # served from column 2 on the way
    assert [target for target, _ in network.tokens] == [1, 2]


@pytest.mark.parametrize("known", [[0, 5, 0], [0, 0], [0, 1, 0, 0]])
def test_a_forged_token_whose_runs_leave_a_gap_changes_no_column(known):
    monitor, _ = _monitor(n=3)
    _hold(monitor, 1, [(0, 1, 0)])
    before = copy.deepcopy((monitor.columns.masks, monitor.columns.vcs))
    forged = Token(
        2, entries=[], known=known,
        runs={1: ([_mask(monitor, "P1.p")] * 2, [(0, 7, 0), (0, 8, 0)])},
    )
    if len(known) == 3:
        monitor.receive_message(forged)  # someone else's token, snooped on the way
    else:  # not as wide as the session: refused before a run is read
        with pytest.raises(ValueError, match="wide for a monitor of 3 processes"):
            monitor.receive_message(forged)
    assert (monitor.columns.masks, monitor.columns.vcs) == before


def test_every_monitor_absorbs_the_runs_of_tokens_it_merely_relays():
    monitor, network = _monitor(n=3)
    passing = Token(
        2, entries=[], known=[0, 0, 0],
        runs={1: ([_mask(monitor, "P1.p")], [(0, 1, 0)])},
    )
    monitor.receive_message(passing)
    assert monitor.columns.masks[1] == [0, _mask(monitor, "P1.p")]
    assert [target for target, _ in network.tokens] == [2]  # decided: on to its parent


# ---------------------------------------------------------------------------
# (vii) clocks that are not clocks
# ---------------------------------------------------------------------------
def test_a_clock_the_columns_do_not_hold_takes_the_token_path():
    monitor, network = _monitor()
    _hold(monitor, 1, [(0, 1)])
    _receive(monitor, 1, (1, 2))  # inflated: P1's second event is not here
    assert monitor.metrics.answered_at_home == 0
    assert [target for target, _ in network.tokens] == [1]


def test_a_held_event_whose_own_clock_leaves_the_target_is_followed():
    monitor, network = _monitor(n=3)
    _hold(monitor, 1, [(0, 1, 1)])  # inflated: claims to know P2's first event
    _hold(monitor, 2, [(0, 0, 1)])
    _receive(monitor, 1, (1, 1, 0))  # ... which this clock does not name
    # the search is a search: the scanned clock lifts P2's bound, column 2 serves it
    assert monitor.metrics.answered_at_home == 1 and network.tokens == []
    (view,) = monitor.views
    assert view.cut == [1, 1, 1]


def test_a_held_event_whose_clock_names_an_event_not_held_takes_the_token_path():
    monitor, network = _monitor(n=3)
    _hold(monitor, 1, [(0, 1, 1)])  # names P2's first event, which is not here
    _receive(monitor, 1, (1, 1, 0))
    assert monitor.metrics.answered_at_home == 0
    assert [target for target, _ in network.tokens] == [2]


#: what commit 3c5b665 declared under ``rate=1, magnitude=2`` — and every
#: commit since
_DECLARED_SKEWED = {
    ("B", 4, 8, 77): {Verdict.TOP},
    ("C", 3, 6, 2015): set(),
    ("D", 4, 8, 77): {Verdict.BOTTOM},
    ("E", 4, 8, 77): {Verdict.TOP},
}


def _skewed_run(cell, mode, monkeypatch):
    """The cell under ``rate=1, magnitude=2`` skew, and per repair entry
    whose box was searched whether its cut was reached."""
    box = Box.reachable
    repairs = []

    def watched(self, view, cuts, mask):
        reached = box(self, view, cuts, mask)
        if view.status == ViewStatus.FINAL:  # a repair retires its view first
            repairs.extend(map(bool, reached))
        return reached

    monkeypatch.setattr(Box, "reachable", watched)
    plan = FaultPlan(
        clock_skew=ClockSkewSpec(mode=mode, rate=1.0, magnitude=2, seed=cell[3])
    )
    return _simulate(_paper_cell(*cell), cell[3], faults=plan), repairs


@pytest.mark.parametrize("mode", ["sound", "unsound"])
@pytest.mark.parametrize("cell", _DECLARED_SKEWED, ids=lambda c: f"{c[0]}-n{c[1]}")
def test_skewed_runs_declare_what_the_parent_commit_declared(cell, mode, monkeypatch):
    report, repairs = _skewed_run(cell, mode, monkeypatch)
    assert report.declared_verdicts == _DECLARED_SKEWED[cell]
    # home or away, a repaired cut is one the (skewed) clocks call consistent
    # (D's monitors settle before any view needs a repair)
    assert all(repairs)


@pytest.mark.parametrize("mode", ["sound", "unsound"])
@pytest.mark.parametrize(
    "cell", [("C", 3, 6, 2015), ("C", 4, 8, 77)], ids=lambda c: f"{c[0]}-n{c[1]}"
)
def test_skewed_runs_whose_monitors_never_settle_are_answered_at_home(cell, mode, monkeypatch):
    # B, D and E above settle once their verdict is declared and stop
    # searching before they answer anything at home (B n=4 unsound: none)
    report, repairs = _skewed_run(cell, mode, monkeypatch)
    assert report.metrics.views_settled == 0
    assert report.metrics.answered_at_home > 0
    assert repairs and all(repairs)


# ---------------------------------------------------------------------------
# (viii) the pinned workload cells
# ---------------------------------------------------------------------------
def test_long_trace_cell_is_answered_at_home():
    # C n=4 epp=40 seed 5 declares nothing, so no monitor settles and every
    # view searches to the end; the long-trace workload's monitors settle on
    # their first ⊤ and answer nothing at home (1 114 before they stopped
    # stepping at once)
    report = _simulate(_paper_cell("C", 4, 40, 5), 5)
    assert report.total_events == 1138
    assert report.monitor_messages / report.total_events < 0.3
    counters = report.metrics
    assert counters.views_settled == 0
    assert counters.answered_at_home >= 1000
    assert report.metrics.token_hops_max < 50
    assert report.declared_verdicts == set()
    assert not {"answered_at_home", "entries_created"} & set(report.as_dict())


def test_long_trace_workload_cell_settles_on_few_messages(long_trace_inputs):
    report = _simulate(long_trace_inputs, 2015)
    assert report.total_events == 1736
    assert report.monitor_messages / report.total_events < 0.3  # 2.27 before
    counters = report.metrics
    # one entry per search, decided at home or sent out as a token
    assert counters.entries_created == counters.answered_at_home + counters.tokens_created
    assert report.metrics.token_hops_max < 50
    # views_per_event 0.037; 773 (0.445) while a settled monitor still
    # stepped its views until the next merge
    assert report.total_global_views == 65
    assert all(monitor.metrics.views_settled for monitor in report.monitors)
    assert report.declared_verdicts == {Verdict.TOP}


def test_token_heavy_cell_sends_less_than_one_message_per_two_events(token_heavy_inputs):
    report = _simulate(token_heavy_inputs, 2015)
    assert report.total_events == 536
    assert report.monitor_messages / report.total_events < 0.5  # 10.19 before
    assert report.total_global_views / report.total_events < 0.5  # 0.81 before
    assert report.metrics.views_evicted == 0  # 91 before
    assert report.declared_verdicts == {Verdict.BOTTOM}
