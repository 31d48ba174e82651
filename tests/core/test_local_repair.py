"""Repair at home, and the one covering rule.

* **Equivalence.**  A repair served from the monitor's own columns is what a
  repair token would have brought back: with the local path switched off from
  outside the verdicts are the same, and on the cells where every entry comes
  back true (properties B and E) so are the views and the box searches — only
  tokens and messages differ.
* **Fallback.**  Columns that do not cover the target — fresh ones, one
  lagging process short, or clocks that are not clocks (``ClockSkew``) —
  leave the repair to a token, exactly as before.
* **Depth.**  Thousands of pending receive events are repaired in a loop.
* **One covering rule.**  A repair fork obeys the dominance rule of every
  other fork (a waiting same-state view below it covers it), and the stale
  view, retired first, never covers its own forks.
* The ``long-trace`` cell stays cheap.

The verdict gate for the covering rule is PR 16's, unchanged, in
``test_token_lifecycle.py``.
"""

import sys
from pathlib import Path

import pytest

from repro.core.global_view import GlobalView
from repro.core.messages import Token
from repro.core.monitor import DecentralizedMonitor
from repro.core.transport import LoopbackNetwork
from repro.distributed.clocks import VectorClock
from repro.distributed.events import Event, EventKind
from repro.experiments.engine import cell_inputs
from repro.experiments.properties import case_study_registry
from repro.faults import ClockSkewSpec, FaultPlan
from repro.ltl import Verdict, build_monitor
from repro.scenarios import get_scenario
from repro.session import run_decentralized
from repro.sim import simulate_monitored_run

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from capture_topology_fixtures import CELLS, build_cell_inputs  # noqa: E402

NOTHING = frozenset()


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


def _tokens_only(monkeypatch):
    """Switch the local path off from outside: every repair takes a token."""
    monkeypatch.setattr(
        DecentralizedMonitor, "_columns_cover", lambda self, target, lagging: False
    )


# ---------------------------------------------------------------------------
# (i) equivalence
# ---------------------------------------------------------------------------
def _assert_same_search_fewer_tokens(local, travelled):
    assert local.declared_verdicts == travelled.declared_verdicts
    for counter in ("total_global_views", "box_queries", "box_cells_visited",
                    "box_linear_fallbacks", "views_evicted"):
        assert getattr(local, counter) == getattr(travelled, counter), counter
    created = [sum(m.metrics.tokens_created for m in r.monitors) for r in (local, travelled)]
    assert travelled.repairs_served_locally == 0 < local.repairs_served_locally
    assert created[1] - created[0] == local.repairs_served_locally
    assert local.monitor_messages < travelled.monitor_messages


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-n{c[1]}-s{c[2]}")
def test_a_repair_at_home_is_what_the_token_would_have_brought(cell, monkeypatch):
    inputs = build_cell_inputs(*cell)
    local = _simulate(inputs, cell[2])
    runner = run_decentralized(*inputs)
    _tokens_only(monkeypatch)
    travelled = _simulate(inputs, cell[2])
    assert local.declared_verdicts == travelled.declared_verdicts
    assert runner.declared_verdicts == run_decentralized(*inputs).declared_verdicts
    if cell[0] in "BE":  # every entry returns true: nothing else may move
        _assert_same_search_fewer_tokens(local, travelled)


def test_long_trace_repairs_at_home_change_tokens_and_messages_only(
    long_trace_inputs, monkeypatch
):
    local = _simulate(long_trace_inputs, 2015)
    _tokens_only(monkeypatch)
    _assert_same_search_fewer_tokens(local, _simulate(long_trace_inputs, 2015))


# ---------------------------------------------------------------------------
# hand-driven monitors
# ---------------------------------------------------------------------------
class _Outbox(LoopbackNetwork):
    """A loopback network that keeps what was sent (nothing is pumped)."""

    def __init__(self):
        super().__init__()
        self.tokens = []

    def send(self, sender, target, message):
        self.tokens.append((target, message))
        super().send(sender, target, message)


def _monitor(n=2, p0_initially=False):
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
    )
    for process in range(n):
        network.register(process, monitor)
    monitor.start()
    return monitor, network


def _hold(monitor, process, clocks):
    """Put events ``1 …`` of *process* (letter ∅, the given clocks) in the columns."""
    known = [0] * monitor.num_processes
    runs = {process: ([NOTHING] * len(clocks), list(clocks))}
    monitor._absorb_runs(Token(0, 0, 0, entries=[], known=known, runs=runs))


def _receive(monitor, sn, clock, p=False):
    """Local event *sn* of P0: a receive whose clock names remote events."""
    monitor.local_event(
        Event(0, sn, EventKind.RECEIVE, VectorClock(list(clock)), {"p": p}, peer=1)
    )


# ---------------------------------------------------------------------------
# (ii) fallback to the token
# ---------------------------------------------------------------------------
def test_fresh_columns_send_the_repair_token_as_before():
    monitor, network = _monitor()
    (view,) = monitor.views
    _receive(monitor, 1, (1, 1))
    assert monitor.metrics.repairs_served_locally == 0
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
    assert monitor.metrics.repairs_served_locally == 0
    assert monitor.metrics.tokens_created == 1
    assert [target for target, _ in network.tokens] == [1]


def test_covered_columns_need_no_token():
    monitor, network = _monitor(n=3)
    _hold(monitor, 1, [(0, 1, 0)])
    _hold(monitor, 2, [(0, 0, 1)])
    _receive(monitor, 1, (1, 1, 1))
    assert monitor.metrics.repairs_served_locally == 1
    assert monitor.metrics.tokens_created == 0 and network.tokens == []
    (view,) = monitor.views
    assert view.cut == [1, 1, 1] and not view.is_waiting() and monitor.is_quiescent


# ---------------------------------------------------------------------------
# (iii) depth
# ---------------------------------------------------------------------------
def test_three_thousand_pending_repairs_are_served_in_a_loop():
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
    token.runs[1] = ([NOTHING] * pending, [(0, sn) for sn in range(1, pending + 1)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        monitor.receive_message(token)
    finally:
        sys.setrecursionlimit(limit)
    (view,) = monitor.views
    assert view.cut == [pending, pending]
    assert monitor.metrics.repairs_served_locally == pending - 1
    assert monitor.metrics.tokens_created == 1 and monitor.is_quiescent
    assert monitor.metrics.views_created == 1 + pending  # one successor per repair


# ---------------------------------------------------------------------------
# (iv) one covering rule
# ---------------------------------------------------------------------------
def test_a_repaired_lone_view_always_leaves_a_successor():
    monitor, _ = _monitor()
    (stale,) = monitor.views
    _hold(monitor, 1, [(0, 1)])
    _receive(monitor, 1, (1, 1))
    (successor,) = monitor.views  # same state, larger cut: the stale view
    assert successor is not stale  # would have "covered" it, had it stayed
    assert (successor.state, successor.cut) == (stale.state, [1, 1])
    assert successor.forked_from == stale.view_id and stale not in monitor.final_views
    assert monitor.metrics.views_merged == 0 and monitor.metrics.views_created == 2


def test_a_repair_fork_below_a_waiting_view_of_its_state_is_not_created():
    monitor, network = _monitor(p0_initially=True)
    (waiting,) = monitor.views  # asked P1 for its p at start, no answer yet
    assert waiting.is_waiting() and len(network.tokens) == 1
    lagging = GlobalView(cut=[0, 0], state=waiting.state, letters=list(waiting.letters))
    monitor.views.append(lagging)
    _hold(monitor, 1, [(0, 1)])
    _receive(monitor, 1, (1, 1), p=True)
    assert monitor.metrics.repairs_served_locally == 1
    assert monitor.views == [waiting]  # the stale view retired, its fork covered
    assert monitor.metrics.views_merged == 1
    assert monitor.metrics.views_created == 1  # the initial view only
    assert len(network.tokens) == 1


# ---------------------------------------------------------------------------
# (v) clocks that are not clocks
# ---------------------------------------------------------------------------
def test_a_clock_the_columns_do_not_hold_takes_the_token_path():
    monitor, network = _monitor()
    _hold(monitor, 1, [(0, 1)])
    _receive(monitor, 1, (1, 2))  # inflated: P1's second event is not here
    assert monitor.metrics.repairs_served_locally == 0
    assert [target for target, _ in network.tokens] == [1]


def test_a_held_event_whose_own_clock_leaves_the_target_takes_the_token_path():
    monitor, network = _monitor(n=3)
    _hold(monitor, 1, [(0, 1, 1)])  # inflated: claims to know P2's first event
    _hold(monitor, 2, [(0, 0, 1)])
    _receive(monitor, 1, (1, 1, 0))  # ... which this clock does not name
    assert monitor.metrics.repairs_served_locally == 0
    assert [target for target, _ in network.tokens] == [1]


#: what the parent commit (3c5b665) declared under ``rate=1, magnitude=2``
_PARENT_DECLARED_SKEWED = {
    ("B", 4, 8, 77): {Verdict.TOP},
    ("C", 3, 6, 2015): set(),
    ("D", 4, 8, 77): {Verdict.BOTTOM},
    ("E", 4, 8, 77): {Verdict.TOP},
}


@pytest.mark.parametrize("mode", ["sound", "unsound"])
@pytest.mark.parametrize("cell", _PARENT_DECLARED_SKEWED, ids=lambda c: f"{c[0]}-n{c[1]}")
def test_skewed_runs_declare_what_the_parent_commit_declared(cell, mode, monkeypatch):
    box = DecentralizedMonitor._box_reachable
    repairs = []

    def watched(self, view, entry):
        reachable, letters = box(self, view, entry)
        if entry.is_repair:
            repairs.append(bool(reachable))
        return reachable, letters

    monkeypatch.setattr(DecentralizedMonitor, "_box_reachable", watched)
    plan = FaultPlan(
        clock_skew=ClockSkewSpec(mode=mode, rate=1.0, magnitude=2, seed=cell[3])
    )
    report = _simulate(_paper_cell(*cell), cell[3], faults=plan)
    assert report.declared_verdicts == _PARENT_DECLARED_SKEWED[cell]
    assert report.repairs_served_locally > 0
    # home or away, a repaired cut is one the (skewed) clocks call consistent
    assert repairs and all(repairs)


# ---------------------------------------------------------------------------
# (vi) the long-trace cell
# ---------------------------------------------------------------------------
def test_long_trace_cell_repairs_at_home(long_trace_inputs):
    report = _simulate(long_trace_inputs, 2015)
    assert report.total_events == 1736
    assert report.monitor_messages / report.total_events < 2.5  # 3.46 before
    assert report.repairs_served_locally >= 700
    assert report.repairs_served_locally == sum(
        m.metrics.repairs_served_locally for m in report.monitors
    )
    assert report.token_hops_max < 50
    assert report.total_global_views == 773  # views_per_event 0.445, as before
    assert report.declared_verdicts == {Verdict.TOP}
    assert "repairs_served_locally" not in report.as_dict()
