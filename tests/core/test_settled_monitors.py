"""Settled monitors stop exploring.

A monitor is *settled* once every conclusive state its live views — waiting
ones included — can still reach has been declared, by itself or by another
monitor as the tokens and termination notices it received tell (``heard``).
Conclusive states are traps, so no search could add to the session's
declarations: the monitor retires its views and disowns their tokens, and
from then on only appends its own events, absorbs runs, serves and routes
the others' tokens and sends termination notices.  It reports ``?`` if it
retired a view when it settled, and declares only what it found itself.

Scratch mutants of ``ViewSet.settle`` and the test here that
catches each:

* waiting views left out of the union —
  ``test_a_waiting_views_reach_keeps_the_monitor_exploring``;
* the check made on declared *verdicts* over every live view but the first —
  every test here, ``test_one_declared_verdict_of_two_does_not_settle`` the
  most direct; but the last (of two or more) —
  ``test_every_live_views_reach_counts_in_any_order`` only: no other test of
  ``tests/core``, ``tests/coordination`` or ``tests/session`` catches it.

The rule is checked after every merge, on news, and, once a state was
declared or heard, by ``_advance_views`` on entry and before every step;
checking at merges only fails
``test_no_view_steps_on_the_token_heavy_cell_once_its_monitor_is_settled``
and ``test_views_retired_inside_the_termination_loop_are_not_explored``.
Hearing the news only after the token is consumed fails
``test_news_on_a_token_coming_home_settles_before_its_box_is_searched``.
"""

import itertools

import pytest
from test_serve_from_columns import _hold, _mask, _never_settle, _Outbox
from test_step_search import _curve_cell

from repro.core.box import Box
from repro.core.global_view import ViewStatus
from repro.core.messages import TerminationNotice, Token, TokenEntry
from repro.core.monitor import DecentralizedMonitor
from repro.core.tokens import Tokens
from repro.distributed.clocks import VectorClock
from repro.distributed.events import Event, EventKind
from repro.experiments.engine import cell_inputs
from repro.experiments.properties import case_study_registry
from repro.ltl import Verdict, build_monitor
from repro.scenarios import get_scenario
from repro.sim import simulate_monitored_run


def _monitor(formula, n=2, initially=(), held=None):
    """Monitor 0 of *formula* over ``n`` processes; *initially*: the atoms
    true at the initial state; *held*: ``{process: [(clock, atoms), …]}``,
    events of other processes put in the columns before it starts."""
    registry = case_study_registry(n)
    network = _Outbox()
    letters = [frozenset(a for a in initially if a.startswith(f"P{j}.")) for j in range(n)]
    monitor = DecentralizedMonitor(
        process=0,
        num_processes=n,
        automaton=build_monitor(formula, atoms=registry.names),
        registry=registry,
        initial_letters=letters,
        transport=network,
    )
    for process in range(n):
        network.register(process, monitor)
    for process, events in (held or {}).items():
        _hold(monitor, process, [c for c, _ in events], [_mask(monitor, *a) for _, a in events])
    monitor.start()
    return monitor, network


def _event(monitor, sn, clock, **state):
    """Local event *sn* of P0 with vector clock *clock*."""
    if any(clock[1:]):
        event = Event(0, sn, EventKind.RECEIVE, VectorClock(list(clock)), state, peer=1)
    else:
        event = Event(0, sn, EventKind.INTERNAL, VectorClock(list(clock)), state)
    monitor.local_event(event)


def _state_of(monitor, verdict):
    (state,) = [q for q in monitor.automaton.states if monitor.automaton.verdict(q) is verdict]
    return state


def _settled_on_b():
    """Monitor 0 of property B, ``F(P0.p & P1.p)``: P1 raised p at its event
    1, held here, and P0's event 1 raises p — ⊤ is declared at home."""
    monitor, network = _monitor("F(P0.p & P1.p)", held={1: [((0, 1), {"P1.p"})]})
    assert monitor.views and not monitor.declared_verdicts
    _event(monitor, 1, (1, 0), p=True)
    return monitor, network


def test_after_top_on_b_the_monitor_holds_no_view_and_asks_nothing_more(monkeypatch):
    monitor, network = _settled_on_b()
    assert monitor.declared_verdicts == {Verdict.TOP}
    assert monitor.views == [] and monitor.metrics.views_settled == 1
    assert monitor.is_quiescent
    # receives that name P1 events not held here: an exploring view would
    # have to ask P1 about each, a settled monitor only appends them
    for sn in range(2, 6):
        _event(monitor, sn, (sn, sn), p=sn % 2 == 0)
    assert monitor.metrics.tokens_created == 0 and network.tokens == []
    assert len(monitor.columns.vcs[monitor.process]) == 6 and monitor.metrics.events_processed == 5
    assert monitor.views == [] and monitor.metrics.views_settled == 1

    _never_settle(monkeypatch)  # the control: the same feed, never settling
    exploring, outbox = _settled_on_b()
    assert exploring.declared_verdicts == {Verdict.TOP} and exploring.views
    for sn in range(2, 6):
        _event(exploring, sn, (sn, sn), p=sn % 2 == 0)
    assert exploring.metrics.tokens_created > 0 and outbox.tokens


def test_a_settled_monitor_still_serves_routes_and_absorbs_foreign_tokens():
    monitor, network = _settled_on_b()
    assert monitor.views == []
    p0 = _mask(monitor, "P0.p")
    # a token of monitor 1 that needs P0 to raise p, with one more P1 event
    entry = TokenEntry(
        transition_id=0, bits=((p0, p0), (0, 0)),
        start_cut=[0, 2], cut=[0, 2], depend=[0, 2], min_positions=[0, 2],
        satisfied=[False, True],
    )
    token = Token(1, entries=[entry], known=[0, 1], runs={1: ([0], [(0, 2)])})
    monitor.receive_message(token)
    assert len(monitor.columns.vcs[1]) == 3  # P1's event 2 was absorbed
    assert monitor.metrics.token_hops_served == 1
    assert entry.eval is True and entry.cut == [1, 2]  # P0's event 1 raised p
    assert network.tokens == [(1, token)]  # decided: back to its parent
    assert token.runs[0] == ([p0], [(1, 0)]) and monitor.metrics.events_shipped == 1
    assert monitor.views == [] and monitor.metrics.tokens_created == 0


def test_reported_verdicts_add_question_mark_only_for_views_retired_inconclusive():
    # retired one inconclusive view when it settled
    monitor, _ = _settled_on_b()
    assert monitor.reported_verdicts() == {Verdict.TOP, Verdict.INCONCLUSIVE}
    # conclusive from the start: nothing to retire, nothing inconclusive
    decided, _ = _monitor("F(P0.p & P1.p)", initially={"P0.p", "P1.p"})
    assert decided.declared_verdicts == {Verdict.TOP}
    assert decided.metrics.views_settled == 0 and decided.reported_verdicts() == {Verdict.TOP}
    # no conclusive state in reach at all: settles at start, never searches
    never, network = _monitor("G F P0.p", initially={"P0.p"})
    assert never.views == [] and never.metrics.views_settled == 1
    assert never.reported_verdicts() == {Verdict.INCONCLUSIVE}
    _event(never, 1, (1, 0), p=False)
    assert never.metrics.entries_created == 0 and network.tokens == []
    # not settled: the live views' own verdicts, as before
    exploring, _ = _monitor("F(P0.p & P1.p)")
    assert exploring.views and exploring.reported_verdicts() == {Verdict.INCONCLUSIVE}


def test_one_declared_verdict_of_two_does_not_settle():
    # P0.p U P1.p: P1 raising p (held here) gives ⊤, P0 dropping p first ⊥
    monitor, _ = _monitor("P0.p U P1.p", initially={"P0.p"}, held={1: [((0, 1), {"P1.p"})]})
    assert monitor.declared_verdicts == {Verdict.TOP}
    (view,) = monitor.views  # ⊥ is still in its reach
    assert monitor.metrics.views_settled == 0
    _event(monitor, 1, (1, 0), p=False)  # concurrent with P1's event: ⊥ too
    assert monitor.verdict_log == [Verdict.TOP, Verdict.BOTTOM]
    assert monitor.views == [] and monitor.metrics.views_settled == 0  # it ended at ⊥
    assert monitor.reported_verdicts() == {Verdict.TOP, Verdict.BOTTOM}


def test_a_waiting_views_reach_keeps_the_monitor_exploring():
    monitor, network = _monitor("P0.p U P1.p", initially={"P0.p"})
    (view,) = monitor.views  # asked P1 for p: nothing of P1 is held here
    ((_, token),) = network.tokens
    assert view.is_waiting()
    # ⊤ found elsewhere by this monitor; the waiting view can still reach ⊥
    monitor._declare_reached(1 << _state_of(monitor, Verdict.TOP))
    monitor.receive_message(TerminationNotice(1, 3))  # an entry point: the check runs
    assert monitor.views == [view] and monitor.metrics.views_settled == 0
    assert not monitor.is_quiescent  # its token is still its own
    # once ⊥ is declared too, the waiting view is retired and its token disowned
    monitor._declare_reached(1 << _state_of(monitor, Verdict.BOTTOM))
    monitor.receive_message(TerminationNotice(1, 3))
    assert monitor.views == [] and monitor.metrics.views_settled == 1
    token.entries[0].eval, token.entries[0].cut[1] = True, 1
    monitor.receive_message(token)  # back home: swallowed as an orphan
    assert monitor.metrics.orphan_tokens_swallowed == 1 and monitor.views == []
    assert monitor.is_quiescent


def test_every_live_views_reach_counts_in_any_order():
    # P0.p U (P1.p & F P0.q): from the initial state ⊥ is in reach; once P1
    # raises p with P0.q false, only ⊤ is
    monitor, _ = _monitor(
        "P0.p U (P1.p & F P0.q)", initially={"P0.p"}, held={1: [((0, 1), {"P1.p"})]}
    )
    first, forked = monitor.views  # the initial view, and its fork at [0, 1]
    reach = monitor.automaton.reach_bits
    top, bottom = _state_of(monitor, Verdict.TOP), _state_of(monitor, Verdict.BOTTOM)
    assert forked.cut == [0, 1] and reach[forked.state] >> bottom & 1 == 0
    assert reach[first.state] >> bottom & 1 and reach[forked.state] >> top & 1
    # as if found by a search: ⊥ is still in the first view's reach
    monitor._declare_reached(1 << top)
    for views in ([first, forked], [forked, first]):
        monitor.views[:] = views
        monitor.views.settle(monitor.declared_bits, monitor.heard)
        assert monitor.views == views and monitor.metrics.views_settled == 0
    monitor._declare_reached(1 << bottom)
    monitor.views.settle(monitor.declared_bits, monitor.heard)
    assert monitor.views == [] and monitor.metrics.views_settled == 2


def _is_settled(monitor):
    """The definition, read off the monitor without ``ViewSet.settle``."""
    undeclared = monitor._final_bits & ~(monitor.declared_bits | monitor.heard)
    reach = monitor.automaton.reach_bits
    return not any(reach[view.state] & undeclared for view in monitor.views)


def test_no_view_steps_on_the_token_heavy_cell_once_its_monitor_is_settled(monkeypatch):
    step = DecentralizedMonitor._step_view
    steps, late = [], []

    def watched(self, view, sn):
        (late if _is_settled(self) else steps).append((self.process, sn))
        return step(self, view, sn)

    monkeypatch.setattr(DecentralizedMonitor, "_step_view", watched)
    report = _curve_cell(("C", 4, 20))  # the token-heavy cell, seed 2015
    # checked at merges only, 529 of its 530 steps were taken by monitors
    # already settled: a token coming home stepped the whole backlog first.
    # Now no view steps at all: the monitor that finds ⊥ settles inside that
    # token's box search, the others on the news (at merges only: 124 steps)
    assert steps == late == []
    assert all(monitor.metrics.views_settled for monitor in report.monitors)
    assert report.declared_verdicts == {Verdict.BOTTOM}
    # seed 11 steps 145 times before its monitors settle (43 more at merges only)
    report = _curve_cell(("C", 4, 20), seed=11)
    assert steps and late == []
    assert all(monitor.metrics.views_settled for monitor in report.monitors)
    assert report.declared_verdicts == {Verdict.BOTTOM}


def test_views_retired_inside_the_termination_loop_are_not_explored(monkeypatch):
    # (F P1.p) U P0.q: P1 raised p at its event 1, held here; the initial
    # view at [0, 0] and its fork at [0, 1] are both live at termination
    monitor, network = _monitor(
        "(F P1.p) U P0.q", initially={"P0.p", "P1.q"}, held={1: [((0, 1), {"P1.p"})]}
    )
    first, second = monitor.views
    assert (first.cut, second.cut) == ([0, 0], [0, 1]) and not monitor.declared_verdicts
    issue, step = Tokens.issue, DecentralizedMonitor._step_view
    searched, stepped = [], []

    def found_top(self, view, searches):
        searched.append(view)
        answered = issue(self, view, searches)
        monitor._declare_reached(1 << _state_of(monitor, Verdict.TOP))  # as if this search met ⊤
        return answered

    monkeypatch.setattr(Tokens, "issue", found_top)
    monkeypatch.setattr(
        DecentralizedMonitor, "_step_view", lambda *a: stepped.append(a[1]) or step(*a)
    )
    monitor.local_termination()
    # the first view's search settled the monitor inside the loop: the
    # second view, next in the loop's snapshot, was retired before its turn
    assert searched == [first] and stepped == []
    assert monitor.views == [] and monitor.metrics.views_settled == 2
    assert second.status == ViewStatus.FINAL
    assert [message for _, message in network.tokens if isinstance(message, Token)] == []
    assert monitor.reported_verdicts() == {Verdict.TOP, Verdict.INCONCLUSIVE}


# ---------------------------------------------------------------------------
# the session settles: what was declared travels on tokens and notices
# ---------------------------------------------------------------------------
def _both(monitor):
    """The states of ⊤ and of ⊥, as a bitset."""
    return 1 << _state_of(monitor, Verdict.TOP) | 1 << _state_of(monitor, Verdict.BOTTOM)


def _waiting_on_p1(monkeypatch):
    """Monitor 0 of ``P0.p U P1.p``, its one view waiting on a token that
    asks P1 for ``p`` (⊤ and ⊥ both in reach), and a log of box searches."""
    monitor, network = _monitor("P0.p U P1.p", initially={"P0.p"})
    (view,) = monitor.views
    ((_, token),) = network.tokens
    assert view.is_waiting() and token.declared == 0
    searched = []
    box = Box.reachable
    monkeypatch.setattr(Box, "reachable", lambda self, v, *rest: searched.append(v) or box(self, v, *rest))
    return monitor, network, view, token, searched


def _found_p(monitor, token, declared):
    """*token*, decided: P1's event 1 raised ``p``; it carries *declared*."""
    (entry,) = token.entries
    entry.eval, entry.cut[1], entry.satisfied[1] = True, 1, True
    token.runs = {1: ([_mask(monitor, "P1.p")], [(0, 1)])}
    token.declared = declared
    return token


def test_a_tokens_news_settles_a_monitor_whose_own_token_then_comes_home_an_orphan(
    monkeypatch,
):
    monitor, network, view, token, searched = _waiting_on_p1(monkeypatch)
    # a token of monitor 1 passes: the session has declared ⊤ and ⊥
    monitor.receive_message(Token(1, entries=[], known=[0, 0], declared=_both(monitor)))
    assert monitor.views == [] and view.status == ViewStatus.FINAL
    assert monitor.metrics.views_settled == monitor.metrics.settled_on_news == 1
    assert monitor.heard == _both(monitor)
    assert monitor.declared_bits == 0 and monitor.verdict_log == []
    assert monitor.is_quiescent  # its token was disowned
    # a token that knows less is served on carrying what this monitor heard
    monitor.receive_message(Token(1, entries=[], known=[0, 0]))
    (_, passed) = network.tokens[-1]
    assert passed.declared == _both(monitor)
    # its own token comes home decided, with no news: swallowed unsearched
    monitor.receive_message(_found_p(monitor, token, 0))
    assert monitor.metrics.orphan_tokens_swallowed == 1 and searched == []
    assert monitor.verdict_log == [] and monitor.declared_verdicts == set()
    assert monitor.reported_verdicts() == {Verdict.INCONCLUSIVE}
    monitor.local_termination()
    notices = [m for _, m in network.tokens if isinstance(m, TerminationNotice)]
    assert notices and all(notice.declared == _both(monitor) for notice in notices)


def test_news_on_a_token_coming_home_settles_before_its_box_is_searched(monkeypatch):
    monitor, _, _, token, searched = _waiting_on_p1(monkeypatch)
    monitor.receive_message(_found_p(monitor, token, _both(monitor)))
    assert searched == [] and monitor.metrics.orphan_tokens_swallowed == 1
    assert monitor.metrics.settled_on_news == 1 and monitor.verdict_log == []
    # the control: without the news, the box is searched and ⊤ declared here
    deaf, _, _, token, searched = _waiting_on_p1(monkeypatch)
    deaf.receive_message(_found_p(deaf, token, 0))
    assert len(searched) == 1 and deaf.verdict_log == [Verdict.TOP]
    assert deaf.metrics.orphan_tokens_swallowed == deaf.metrics.settled_on_news == 0


def test_news_of_a_part_of_the_reach_or_of_no_final_state_settles_nothing():
    monitor, _ = _monitor("P0.p U P1.p", initially={"P0.p"})
    top = 1 << _state_of(monitor, Verdict.TOP)
    inconclusive = ~monitor._final_bits & (1 << monitor._num_states) - 1
    monitor.receive_message(TerminationNotice(1, 3, declared=top | inconclusive))
    assert monitor.heard == top  # only conclusive states are heard
    assert monitor.views and monitor.metrics.views_settled == 0


def _sampled_cells():
    """A third of the 216-cell sweep: A–F × n ∈ {3, 4} × epp ∈ {6, 12, 20} ×
    a view budget of 2 or none, seeds 2015, 7 and 77 taken in turn."""
    seeds = itertools.cycle((2015, 7, 77))
    for cell in itertools.product("ABCDEF", (3, 4), (6, 12, 20)):
        seed = next(seeds)
        for budget in (2, None):
            yield (*cell, seed, budget)


def _run(cell):
    property_name, n, epp, seed, budget = cell
    scenario = get_scenario("paper-default")
    inputs = cell_inputs(
        scenario, property_name, n, events_per_process=epp,
        evt_mu=3, evt_sigma=1, comm_mu=3, comm_sigma=1, seed=seed,
    )
    return simulate_monitored_run(
        *inputs, seed=seed, max_views_per_state=budget, network=scenario.network
    )


@pytest.fixture(scope="module")
def hearing_and_deaf():
    """Per sampled cell, the run as it is and the run with nothing heard."""
    hearing = {cell: _run(cell) for cell in _sampled_cells()}
    with pytest.MonkeyPatch.context() as patch:
        deaf_ears = property(lambda self: 0, lambda self, _: None)
        patch.setattr(DecentralizedMonitor, "heard", deaf_ears, raising=False)
        deaf = {cell: _run(cell) for cell in hearing}
    return hearing, deaf


def test_hearing_leaves_the_sessions_declarations_and_sends_no_more(hearing_and_deaf):
    hearing, deaf = hearing_and_deaf
    for cell, report in hearing.items():
        assert report.declared_verdicts == deaf[cell].declared_verdicts, cell
        assert report.monitor_messages <= deaf[cell].monitor_messages, cell
        for monitor in report.monitors:  # each declares only what it found
            assert monitor.declared_verdicts <= deaf[cell].declared_verdicts, cell
    assert sum(report.metrics.settled_on_news for report in hearing.values()) > 0
    assert sum(report.metrics.settled_on_news for report in deaf.values()) == 0


def test_every_run_ends_quiescent(hearing_and_deaf):
    for runs in hearing_and_deaf:
        for cell, report in runs.items():
            assert all(monitor.is_quiescent for monitor in report.monitors), cell
