"""What a monitor remembers of its searches: ``Tokens.least`` and ``GlobalView.searched``.

* **One least cut per guard.**  What ``Tokens.issue`` takes from ``least``
  is what walking the columns gives and what the slicer computes,
  found or settled ``False``; a floor beyond the remembered cut, or not above
  the remembered floor, is walked.
* **A leaving token is built by walking.**  A step with one remembered and
  one undecided entry sends the token a monitor without memory sends.
* **The last step's boxes.**  Leaving out the targets a view searched one
  step earlier changes no view, signature, verdict or count of views, and
  never searches more cells.
* **What makes a view search again:** an eviction of what it forked, a change
  of its state, a fork that was only covered by a smaller live view.
* **Issue time only.**  Arriving, retried and forged entries neither read nor
  write ``Tokens.least``.
"""

import copy

import hypothesis.strategies as st
import pytest
import test_serve_from_columns as home
from hypothesis import assume, given, settings
from test_step_search import _concurrent, _satisfies, least_consistent_cut, searches
from test_token_hot_paths import (
    _bits_of,
    _box,
    _closed_automaton,
    _formula_automaton,
    _monitor,
    _network,
    _random_automaton,
    _setting,
)

from repro.core.box import states_of
from repro.core.global_view import GlobalView
from repro.core.messages import TerminationNotice, Token, TokenEntry
from repro.core.monitor import DecentralizedMonitor
from repro.distributed.computation import ComputationBuilder
from repro.distributed.lattice import ComputationLattice
from repro.ltl import PropositionRegistry, Verdict

ROW = 7_000  # the ``transition_id`` of a search made by hand


def _below(low, high):
    return all(a <= b for a, b in zip(low, high))


def _assert_counters_add_up(monitor):
    metrics = monitor.metrics
    assert metrics.entries_created >= metrics.box_queries + metrics.boxes_remembered
    assert metrics.least_cuts_remembered <= metrics.entries_created


# ---------------------------------------------------------------------------
# (i) the remembered answer == the walked answer == the slicer's
# ---------------------------------------------------------------------------
def _holding_everything(computation, registry, process):
    """A monitor of *process* whose columns hold the whole computation and
    that knows every process has ended: every search is decided at home."""
    n = computation.num_processes
    final = [len(computation.events_of(j)) for j in range(n)]
    automaton = _random_automaton(registry.names, inconclusive=2, seed=0)
    monitor = _monitor(process, computation, registry, automaton, feed=final[process])
    _box(monitor, computation, registry, [0] * n, final, 0)  # fills the other columns
    monitor.terminated.update(enumerate(final))
    return monitor


def _conjuncts(monitor, guard):
    return monitor.registry.conjuncts_by_process(guard, monitor.num_processes)


def _guard_bits(monitor, guard):
    """The ``(care, want)`` bits ``Tokens.least`` keys *guard*'s searches by."""
    return _bits_of(monitor.automaton, _conjuncts(monitor, guard))


def _search(monitor, computation, guard, floor):
    """A view at *floor* (a consistent cut) and its search for *guard*."""
    n = computation.num_processes
    registry = monitor.registry
    conjuncts = _conjuncts(monitor, guard)
    letters = [registry.local_letter(j, computation.local_state(j, floor[j])) for j in range(n)]
    view = GlobalView(cut=list(floor), state=0)
    entry = TokenEntry(
        transition_id=ROW, bits=_guard_bits(monitor, guard),
        start_cut=list(floor), cut=list(floor), depend=list(floor), min_positions=list(floor),
        satisfied=list(map(_satisfies, letters, conjuncts)),
    )
    return view, entry


def _as_search(entry):
    """The ``(row, satisfied, floor)`` ``Tokens.issue`` takes for *entry*."""
    return (entry.transition_id, entry.bits, ()), entry.satisfied, entry.min_positions


def _issue(monitor, computation, guard, floor):
    """Issue the search for *guard* at *floor*, decided at home; returns the
    least cut it found, or ``None`` (settled ``False``)."""
    view, entry = _search(monitor, computation, guard, floor)
    forks, given = monitor.views.forks, []  # the target cuts it forks from
    monitor.views.forks = lambda v, cuts, *rest: given.extend(cuts) or forks(v, cuts, *rest)
    monitor._issue(view, [_as_search(entry)], monitor.columns.mask_at(view.cut))
    del monitor.views.forks
    (found,) = given or [None]
    return found


@st.composite
def floor_chains(draw):
    """A search and two to six floors: mostly a rising chain of consistent
    cuts, now and then one from anywhere above the first."""
    computation, registry, process, start, guard = draw(searches())
    assume(guard)
    cuts = [
        cut for cut in ComputationLattice.from_computation(computation).cuts()
        if _below(start, cut)
    ]
    floors = [start]
    for _ in range(draw(st.integers(1, 5))):
        rising = draw(st.integers(0, 3)) > 0
        above = [cut for cut in cuts if _below(floors[-1], cut)] if rising else cuts
        floors.append(draw(st.sampled_from(above)))
    return computation, registry, process, floors, guard


@given(floor_chains())
@settings(max_examples=300, deadline=None)
def test_a_remembered_least_cut_is_the_walked_one_and_the_slicers(case):
    computation, registry, process, floors, guard = case
    remembering = _holding_everything(computation, registry, process)
    forgetful = _holding_everything(computation, registry, process)
    bits = _guard_bits(remembering, guard)
    for floor in floors:
        known = remembering.tokens.least.get(bits)
        covered = (
            known is not None
            and _below(known[0], floor)
            and (known[1] is None or _below(floor, known[1]))
        )
        hits = remembering.metrics.least_cuts_remembered
        found = _issue(remembering, computation, guard, floor)
        forgetful.tokens.least.clear()
        walked = _issue(forgetful, computation, guard, floor)
        least = least_consistent_cut(computation, registry, guard, start=floor)
        assert found == walked == (least and tuple(least))
        # answered from memory exactly when the remembered pair covers the
        # floor; a walk leaves its own pair, an answer from memory leaves all
        assert remembering.metrics.least_cuts_remembered - hits == covered
        expected = known if covered else (tuple(floor), least and tuple(least))
        assert remembering.tokens.least == {bits: expected}
    assert forgetful.metrics.least_cuts_remembered == 0
    assert remembering.metrics.answered_at_home == len(floors)
    _assert_counters_add_up(remembering)


def _rises_late():
    """P0 sends at its second event; P1 receives, raises ``p`` at its third
    event and drops it for good at its fourth."""
    builder = ComputationBuilder([{"p": False}, {"p": False}])
    builder.internal(0, {})
    builder.send(0, to=1, message_id=1)
    builder.internal(0, {})
    builder.internal(1, {})
    builder.receive(1, frm=0, message_id=1)
    builder.internal(1, {"p": True})
    builder.internal(1, {"p": False})
    return builder.build(), PropositionRegistry.boolean_grid(2, variables=("p",))


def test_only_floors_between_the_remembered_floor_and_cut_are_answered_from_memory():
    computation, registry = _rises_late()
    guard = {"P1.p": True}
    monitor = _holding_everything(computation, registry, 0)
    bits = _guard_bits(monitor, guard)

    def issue(floor):
        before = monitor.metrics.least_cuts_remembered
        found = _issue(monitor, computation, guard, floor)
        return found, monitor.metrics.least_cuts_remembered - before

    assert issue((0, 0)) == ((2, 3), 0)  # walked: the raise depends on P0's send
    assert issue((1, 0)) == ((2, 3), 1) and issue((2, 2)) == ((2, 3), 1)
    assert monitor.tokens.least[bits] == ((0, 0), (2, 3))
    # beyond the remembered cut in one component: the least cut is another
    assert issue((3, 0)) == ((3, 3), 0)
    assert monitor.tokens.least[bits] == ((3, 0), (3, 3))
    # not above the remembered floor: walked, whatever the cut
    assert issue((0, 1)) == ((2, 3), 0)
    # settled False, for every floor above — and for none below
    assert issue((2, 4)) == (None, 0) and monitor.tokens.least[bits] == ((2, 4), None)
    assert issue((3, 4)) == (None, 1)
    assert issue((2, 3)) == ((2, 3), 0)


# ---------------------------------------------------------------------------
# (ii) a token that leaves is the token a monitor without memory builds
# ---------------------------------------------------------------------------
def _one_remembered_one_undecided(forget):
    """Monitor 0 of three holds its own events and P1's, none of P2's; it
    decides a search for P1's ``p`` at home, then (one own event later) issues
    that search again together with one for P2's ``p``.  Returns the monitor
    and what it sent."""
    builder = ComputationBuilder([{"p": False}] * 3)
    builder.internal(0, {})
    builder.send(0, to=1, message_id=1)
    builder.internal(0, {})
    builder.internal(1, {})
    builder.receive(1, frm=0, message_id=1)
    builder.internal(1, {"p": True})
    builder.internal(2, {"p": True})
    computation = builder.build()
    registry = PropositionRegistry.boolean_grid(3, variables=("p",))
    automaton = _random_automaton(registry.names, inconclusive=2, seed=0)
    monitor = _monitor(0, computation, registry, automaton, feed=3)
    monitor.transport = network = home._Outbox()
    for j in range(3):
        network.register(j, monitor)  # nothing is pumped
    _box(monitor, computation, registry, [0, 0, 0], [3, 3, 0], 0)
    of_p1, of_p2 = {"P1.p": True}, {"P2.p": True}
    bits = _guard_bits(monitor, of_p1)
    first = _issue(monitor, computation, of_p1, (0, 0, 0))
    assert first == (2, 3, 0) and monitor.tokens.least == {bits: ((0, 0, 0), (2, 3, 0))}
    if forget:
        monitor.tokens.least.clear()
    view, again = _search(monitor, computation, of_p1, (1, 0, 0))
    _, open_ended = _search(monitor, computation, of_p2, (1, 0, 0))
    searches = [_as_search(again), _as_search(open_ended)]
    assert monitor._issue(view, searches, monitor.columns.mask_at(view.cut)) == ()
    monitor.tokens.flush(monitor.transport)  # what an entry point does at its end
    return monitor, view, network.tokens


def test_a_leaving_token_carries_what_walking_every_entry_gives():
    remembering, view, sent = _one_remembered_one_undecided(forget=False)
    forgetful, _, expected = _one_remembered_one_undecided(forget=True)
    ((target, token),) = sent
    ((expected_target, expected_token),) = expected
    assert target == expected_target == 2  # P2 alone can say more
    assert view.is_waiting() and remembering.views.waiting[token.token_id] is view
    token.token_id = expected_token.token_id
    assert token == expected_token  # dataclass equality: entries, known, runs, hops
    walked, open_ended = token.entries
    assert walked.eval is True and walked.cut == walked.depend == [2, 3, 0]
    assert walked.satisfied == [True] * 3 and open_ended.eval is None
    for monitor in (remembering, forgetful):
        assert monitor.metrics.events_shipped == 0  # the parent holds what was walked
        assert monitor.metrics.tokens_created == 1
        assert monitor.metrics.least_cuts_remembered == 0  # the hit was walked after all
        _assert_counters_add_up(monitor)


# ---------------------------------------------------------------------------
# (iii) leaving out the last step's boxes changes nothing but the searching
# ---------------------------------------------------------------------------
@st.composite
def explorations(draw):
    computation, registry = _setting(draw, max_events_per_process=6)
    kind = draw(st.sampled_from(("closed", "formula", "random")))
    seed = draw(st.integers(0, 1 << 16))
    if kind == "formula":
        automaton = _formula_automaton(registry.names, seed)
    else:
        build = _random_automaton if kind == "random" else _closed_automaton
        automaton = build(registry.names, draw(st.integers(2, 8)), seed)
    assume(not automaton.is_final(automaton.initial_state))
    process = draw(st.integers(0, computation.num_processes - 1))
    return computation, registry, automaton, process, draw(st.sampled_from((None, 2)))


def _explorer(computation, registry, automaton, process, budget):
    """A started monitor of *process* that holds every other column whole and
    knows the others have ended: it explores alone, as its events come."""
    n = computation.num_processes
    monitor = DecentralizedMonitor(
        process=process, num_processes=n, automaton=automaton, registry=registry,
        initial_letters=[registry.local_letter(j, computation.initial_states[j]) for j in range(n)],
        transport=_network(), max_views_per_state=budget,
    )
    for j in range(n):
        monitor.transport.register(j, monitor)  # termination notices go nowhere
    runs = {}
    for j in range(n):
        events = computation.events_of(j)
        if j != process:
            monitor.terminated[j] = len(events)
            letters = [registry.local_letter(j, event.state) for event in events]
            runs[j] = (
                list(map(automaton.compiled.encode, letters)),
                [tuple(event.vc) for event in events],
            )
    monitor.columns.absorb_runs(Token(process, entries=[], known=[0] * n, runs=runs))
    monitor.start()
    return monitor


def _explored(monitor):
    return (
        [(view.state, view.cut, view.status) for view in monitor.views],
        monitor.views.born,
        monitor.declared_bits,
        monitor.verdict_log,
        monitor.metrics.views_created,
        monitor.metrics.views_evicted,
        monitor.metrics.answered_at_home,
    )


@given(explorations())
@settings(max_examples=200, deadline=None)
def test_leaving_out_the_last_steps_boxes_changes_no_view_and_no_verdict(case):
    computation, registry, automaton, process, budget = case
    remembering = _explorer(computation, registry, automaton, process, budget)
    forgetful = _explorer(computation, registry, automaton, process, budget)
    forks = forgetful.views.forks

    def forgetting(view, cuts, repair, mask):
        view.searched = {}
        return forks(view, cuts, repair, mask)

    forgetful.views.forks = forgetting
    for event in computation.events_of(process):
        remembering.local_event(event)
        forgetful.local_event(event)
        assert _explored(remembering) == _explored(forgetful)
    remembering.local_termination()
    forgetful.local_termination()
    assert _explored(remembering) == _explored(forgetful)
    assert remembering.is_quiescent  # a token waited for own events at most
    searched, left_out = remembering.metrics.box_queries, remembering.metrics.boxes_remembered
    assert searched + left_out == forgetful.metrics.box_queries
    assert forgetful.metrics.boxes_remembered == 0
    assert remembering.metrics.box_cells_visited <= forgetful.metrics.box_cells_visited
    assert remembering.metrics.views_merged <= forgetful.metrics.views_merged
    for monitor in (remembering, forgetful):
        _assert_counters_add_up(monitor)


# ---------------------------------------------------------------------------
# (iv) what makes a view search a target again
# ---------------------------------------------------------------------------
SIDE = 4


def _two_steps(between=lambda monitor, view, forked: None, before=None):
    """A view searches one target, moves on by one own event and is handed the
    same target again; *between* runs in between.  Returns the monitor, the
    forks of both steps and the states the first search reached."""
    computation, registry = _concurrent(2, SIDE)
    automaton = _random_automaton(registry.names, inconclusive=6, seed=3)
    monitor = _monitor(0, computation, registry, automaton, feed=SIDE)
    view, entry = _box(monitor, computation, registry, (0, 0), (SIDE, SIDE), 0)
    again = copy.deepcopy(entry)
    if before is not None:
        before(monitor, view)
    first = monitor.views.forks(view, [tuple(entry.cut)], False, monitor.columns.mask_at(view.cut))
    ((mark, reached),) = view.searched.items() or [(None, None)]
    assert mark in (None, (0, (SIDE, SIDE)))
    between(monitor, view, first)
    view.cut[0] += 1  # one own event later; the state is whatever it is by then
    second = monitor.views.forks(view, [tuple(again.cut)], False, monitor.columns.mask_at(view.cut))
    return monitor, first, second, reached


def test_the_box_a_views_last_step_searched_is_not_searched_again():
    monitor, first, second, reached = _two_steps()
    pivots = set(states_of(reached)) - {0, 6, 7}
    assert {child.state for child in first} == pivots and len(pivots) >= 2
    assert all((state, (SIDE, SIDE)) in monitor.views.born for state in pivots)
    assert second == []
    assert monitor.metrics.box_queries == monitor.metrics.boxes_remembered == 1
    assert monitor.metrics.views_merged == 0  # the forks left out are not counted covered


def test_an_eviction_of_a_fork_makes_the_view_search_again():
    def evict_one(monitor, view, forked):
        victim = forked[0]
        smaller = GlobalView(cut=[0, 0], state=victim.state)
        monitor.views[:], monitor.views.budget = [victim, smaller], 1
        monitor.views.enforce_budget()
        assert monitor.views == [smaller] and monitor.metrics.views_evicted == 1
        monitor.views.remove(smaller)

    monitor, first, second, _ = _two_steps(evict_one)
    assert [child.signature() for child in second] == [first[0].signature()]  # born again
    assert monitor.metrics.box_queries == 2 and monitor.metrics.boxes_remembered == 0
    assert monitor.metrics.views_merged == len(first) - 1  # the rest: covered, by ``ViewSet.born``


def test_a_change_of_state_makes_the_view_search_again():
    def change_state(monitor, view, forked):
        view.state = 1

    monitor, first, second, _ = _two_steps(change_state)
    # from another state the pivots are others: what was left out as the
    # view's own state then has to be looked at now
    assert monitor.metrics.box_queries == 2 and monitor.metrics.boxes_remembered == 0
    assert all(child.state != 1 for child in second)


def test_a_fork_covered_by_a_smaller_live_view_only_is_searched_again():
    _, forked, _, _ = _two_steps()
    covered = forked[0].state

    def smaller_view_of_one_pivot(monitor, view):
        monitor.views.append(GlobalView(cut=[0, 0], state=covered))

    def it_moves_on(monitor, view, forked):
        assert covered not in {child.state for child in forked}
        assert (covered, (SIDE, SIDE)) not in monitor.views.born
        (smaller,) = [other for other in monitor.views if other.cut == [0, 0]]
        monitor.views.remove(smaller)

    monitor, first, second, _ = _two_steps(it_moves_on, before=smaller_view_of_one_pivot)
    assert [child.state for child in second] == [covered]  # lost, had the box been left out
    assert monitor.metrics.box_queries == 2 and monitor.metrics.boxes_remembered == 0


# ---------------------------------------------------------------------------
# (v) issue time only
# ---------------------------------------------------------------------------
def _asked_at_start(truth):
    """Monitor 0 of ``F(P0.p & P1.p)`` asked P1 for its ``p`` at start; its
    ``Tokens.least`` is then made to say the opposite of *truth* for that guard."""
    monitor, network = home._monitor(p0_initially=True)
    ((_, token),) = network.tokens
    (entry,) = token.entries
    bits = entry.bits
    assert monitor.tokens.least == {}  # nothing was decided at issue time
    monitor.tokens.least[bits] = ((0, 0), None if truth else (0, 1))
    return monitor, network, token, copy.deepcopy(monitor.tokens.least)


def test_an_arriving_entry_is_walked_whatever_the_memory_says():
    monitor, network, token, poisoned = _asked_at_start(truth=True)
    arriving = Token(
        1, entries=[copy.deepcopy(token.entries[0])], known=[0, 0],
        runs={1: ([home._mask(monitor, "P1.p")], [(0, 1)])},
    )
    monitor.receive_message(arriving)  # P1's monitor asks the same of this one
    (entry,) = arriving.entries
    assert entry.eval is True and entry.cut == [0, 1]
    assert network.tokens[-1] == (1, arriving)  # decided: back to its parent
    assert monitor.tokens.least == poisoned and monitor.metrics.least_cuts_remembered == 0


def test_a_retried_entry_is_walked_whatever_the_memory_says():
    monitor, network, token, poisoned = _asked_at_start(truth=False)
    home._hold(monitor, 1, [(0, 1)])  # P1's only event leaves its p false
    monitor.tokens.park(token)  # came home undecided, parked
    monitor.receive_message(TerminationNotice(1, 1))
    assert token.entries[0].eval is False and monitor.tokens.waiting == []
    assert monitor.is_quiescent and monitor.declared_verdicts == set()
    assert monitor.tokens.least == poisoned and monitor.metrics.least_cuts_remembered == 0


def test_a_repair_answered_at_home_is_not_remembered():
    monitor, network = home._monitor(n=3)
    home._hold(monitor, 1, [(0, 1, 0)])
    home._hold(monitor, 2, [(0, 0, 1)])
    home._receive(monitor, 1, (1, 1, 1))  # its floor is new every time
    assert monitor.metrics.answered_at_home == 1 and network.tokens == []
    assert monitor.tokens.least == {} and monitor.metrics.least_cuts_remembered == 0


@pytest.mark.parametrize("cut", [[0, 9], [5, 0]])
def test_a_forged_entry_neither_reads_nor_writes_the_memory(cut):
    monitor, network, token, poisoned = _asked_at_start(truth=True)
    forged = copy.deepcopy(token.entries[0])
    forged.cut, forged.eval = cut, None
    monitor.receive_message(Token(1, entries=[forged], known=[0, 0]))
    assert monitor.tokens.least == poisoned
    # and claimed decided on the monitor's own token, it forks nothing
    token.entries[0].cut, token.entries[0].eval = cut, True
    monitor.receive_message(token)
    assert monitor.tokens.least == poisoned and monitor.declared_verdicts == set()
    assert monitor.metrics.least_cuts_remembered == monitor.metrics.boxes_remembered == 0
    assert Verdict.TOP not in monitor.reported_verdicts()
