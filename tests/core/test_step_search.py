"""One search per view step, from tables nobody rebuilds.

* **Union search.**  The one box search of a view step gives every entry the
  state set a search of its own box would, which is the brute force over the
  lattice — stutter-closed or not, at the view's fixed point or off it — and
  declares what those searches declare; targets that are incomparable do not
  make it visit their join.
* **Targets the letter decides.**  An entry answered by its target's letter
  gets what the search gets and what the lattice gives, and declares what
  they declare — over random tables whose conclusive states need not be
  traps, with targets at the view's cut and targets that are not consistent
  cuts.  Every conclusive state of the case-study monitors is a trap.
* **Segment index.**  ``seg_starts`` is the list of mask changes of its
  column, whatever is appended, by whichever path.
* **Guard table.**  Testing letter masks against the table issues the
  entries that testing letters against dictionaries did (the reference is
  kept here), also when a step reads the search table another step filled;
  a conjunct's ``care`` bits are 0 exactly when it is empty, because every
  guard of the case-study monitors names only atoms of the compiled
  alphabet; an entry is served by the bits it carries, whatever its
  transition asks; the monitors of a property share one ``bits`` object per
  row, across sessions, and another owner binding gets rows of its own.
* **Slicing oracle.**  Served from columns that hold a whole computation, a
  search is decided ``True`` exactly at the slicer's least cut
  (``tests/slicing/slicer.py``).
* The pinned counts of the three curve cells CI checks.
* **Set-up of what moves.**  A search that sets up only the processes its
  union moves — and nothing when it moves one process or none: it walks a
  line, and stops at the first opener whose clock does not fit under the
  join — gives and leaves what the box layer's reference, the lane BFS for
  every union that moves a process (``tests/core/references.py``), gives
  and leaves, collapsing or not, with targets in the view's own segment,
  on the hypothesis steps of (i) and in every search of real runs.
"""

import copy
import random
import sys
from itertools import product
from operator import is_, le
from pathlib import Path

import hypothesis.strategies as st
import pytest
import test_shared_columns as columns
from hypothesis import assume, given, settings
from references import lane_search
from test_token_hot_paths import (
    _bits_of,
    _box,
    _brute_force,
    _closed_automaton,
    _formula_automaton,
    _monitor,
    _network,
    _random_automaton,
    _reachable,
    _setting,
)

from repro.core.box import Box, states_of
from repro.core.global_view import GlobalView
from repro.core.messages import TokenEntry
from repro.core.monitor import DecentralizedMonitor
from repro.distributed.clocks import VectorClock
from repro.distributed.computation import ComputationBuilder
from repro.distributed.events import Event, EventKind
from repro.distributed.lattice import ComputationLattice
from repro.experiments.engine import cell_inputs
from repro.experiments.properties import PROPERTY_NAMES, case_study_monitor, case_study_registry
from repro.ltl import Proposition, PropositionRegistry, Verdict, build_monitor
from repro.ltl.monitor import MonitorAutomaton
from repro.ltl.semantics import all_assignments
from repro.scenarios import get_scenario
from repro.sim import simulate_monitored_run

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "slicing"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "ltl"))
from slicer import least_consistent_cut  # noqa: E402
from table_rows import table_machine  # noqa: E402


# ---------------------------------------------------------------------------
# (i) union search == one search per entry == brute force over the lattice
# ---------------------------------------------------------------------------
@st.composite
def steps(draw):
    """A computation, a view (cut and state) and the cuts of 1-6 entries."""
    computation, registry = _setting(draw, max_events_per_process=5)
    lattice = ComputationLattice.from_computation(computation)
    cuts = lattice.cuts()
    start = lattice.bottom if draw(st.booleans()) else draw(st.sampled_from(cuts))
    above = [cut for cut in cuts if all(s <= c for s, c in zip(start, cut))]
    if draw(st.booleans()):
        # targets that move one process between them: the search walks a line
        j = draw(st.integers(0, len(start) - 1))
        above = [cut for cut in above if cut[:j] + cut[j + 1 :] == start[:j] + start[j + 1 :]]
    targets = draw(st.lists(st.sampled_from(above), min_size=1, max_size=6))
    # a closed table and a formula's machine (the search may collapse), a
    # table that is not closed and ``X`` (it may not)
    kind = draw(st.sampled_from(("closed", "formula", "random", "next")))
    seed = draw(st.integers(0, 1 << 16))
    if kind == "next":
        automaton = build_monitor("X(P0.p | X P1.p)", atoms=registry.names)
        assert not automaton.stutter_closed
    elif kind == "formula":
        automaton = _formula_automaton(registry.names, seed)
    else:
        build = _random_automaton if kind == "random" else _closed_automaton
        automaton = build(registry.names, draw(st.integers(1, 12)), seed)
    inconclusive = [q for q in automaton.states if not automaton.is_final(q)]
    assume(inconclusive)
    state = draw(st.sampled_from(inconclusive))
    if draw(st.booleans()):
        # at the fixed point of its own letter, as every view the monitor
        # builds; otherwise a hand-built view off it (no collapsing then)
        state = automaton.step(state, registry.letter_of(computation.global_state(start)))
        assume(not automaton.is_final(state))
    return computation, registry, lattice, start, targets, automaton, state


def _step(computation, registry, automaton, start, targets, state):
    """A monitor holding every target's box, the view and the targets' cuts."""
    feed = max(target[0] for target in targets)
    monitor = _monitor(0, computation, registry, automaton, feed=feed)
    boxes = [_box(monitor, computation, registry, start, target, state) for target in targets]
    return monitor, boxes[0][0], [tuple(entry.cut) for _, entry in boxes]


def _searched_targets(monitor):
    """Record the targets *monitor*'s box searches are given (the others,
    their letter answered)."""
    searched = []
    search = monitor.box.search

    def spy(view, cuts, mask):
        searched.extend(cuts)
        return search(view, cuts, mask)

    monitor.box.search = spy
    return searched


@given(steps())
@settings(max_examples=300, deadline=None)
def test_one_search_per_step_matches_a_search_per_entry_and_the_lattice(case):
    computation, registry, lattice, start, targets, automaton, state = case
    monitor, view, cuts = _step(computation, registry, automaton, start, targets, state)
    before = set(states_of(monitor.declared_bits))
    searched = _searched_targets(monitor)
    together = _reachable(monitor, view, cuts)
    assert monitor.metrics.box_queries == len(cuts)
    assert monitor.metrics.boxes_by_letter == len(cuts) - len(searched)
    expected_conclusive = set()
    cells_alone = 0
    for target, cut, reached in zip(targets, cuts, together):
        states, conclusive, _ = _brute_force(
            computation, lattice, registry, automaton, start, target, state
        )
        expected_conclusive |= conclusive
        assert set(states_of(reached)) == states
        alone, view_alone, cuts_alone = _step(
            computation, registry, automaton, start, [target], state
        )
        assert _reachable(alone, view_alone, cuts_alone) == [reached]
        assert set(states_of(alone.declared_bits)) - before == conclusive - before
        cells_alone += alone.metrics.box_cells_visited
    assert set(states_of(monitor.declared_bits)) - before == expected_conclusive - before
    # never more cells than the searches it replaces, nor than the cuts below
    # a target searched (one its letter answered costs none)
    below = {
        cut for cut in lattice.cuts()
        if all(s <= c for s, c in zip(start, cut))
        and any(all(c <= t for c, t in zip(cut, target)) for target in searched)
    }
    assert monitor.metrics.box_cells_visited <= min(cells_alone, len(below))
    may_collapse = automaton.stutter_closed and automaton.step(
        state, registry.letter_of(computation.global_state(start))
    ) == state
    if not may_collapse:
        assert monitor.metrics.box_cells_visited == len(below)


def _concurrent(n, events):
    """*n* processes of *events* internal events each, all flipping ``p``."""
    builder = ComputationBuilder([{"p": False} for _ in range(n)])
    for sn in range(1, events + 1):
        for j in range(n):
            builder.internal(j, {"p": sn % 2 == 1})
    return builder.build(), PropositionRegistry.boolean_grid(n, variables=("p",))


def test_incomparable_targets_do_not_make_the_search_visit_their_join():
    side = 9
    computation, registry = _concurrent(2, side)
    automaton = _random_automaton(registry.names, inconclusive=6, seed=3)
    lattice = ComputationLattice.from_computation(computation)
    targets = [(side, 0), (0, side)]
    monitor, view, cuts = _step(computation, registry, automaton, (0, 0), targets, 0)
    together = _reachable(monitor, view, cuts)
    for target, reached in zip(targets, together):
        states, _, _ = _brute_force(computation, lattice, registry, automaton, (0, 0), target, 0)
        assert set(states_of(reached)) == states
    # the two edges of the join rectangle, not its (side + 1) ** 2 cells
    assert monitor.metrics.box_cells_visited == 2 * side + 1


# ---------------------------------------------------------------------------
# (ii) the segment index
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.one_of(st.booleans(), columns.honest_runs(), columns.misshapen_runs), max_size=16
    )
)
@settings(max_examples=300, deadline=None)
def test_seg_starts_lists_the_mask_changes_whatever_is_appended(arrivals):
    monitor = columns._monitor()
    for j in range(monitor.num_processes):
        monitor.transport.register(j, monitor)  # tokens sent are never delivered
    sn = 0
    for arrival in arrivals:
        if isinstance(arrival, bool):  # a local event setting P0's p
            sn += 1
            clock = VectorClock([sn, 0, 0])
            monitor.local_event(Event(0, sn, EventKind.INTERNAL, clock, {"p": arrival}))
        else:
            monitor.columns.absorb_runs(columns._token(*arrival))
        for masks, starts in zip(monitor.columns.masks, monitor.columns.seg_starts):
            assert starts == [0] + [p for p in range(1, len(masks)) if masks[p] != masks[p - 1]]
    assert len(monitor.columns.masks[0]) == sn + 1


# ---------------------------------------------------------------------------
# (iii) the guard table
# ---------------------------------------------------------------------------
def _satisfies(letter, conjunct):
    return all((atom in letter) == required for atom, required in conjunct.items())


def _explore_with_dictionaries(monitor, view, letters, include_currently_satisfied):
    """The entries ``_explore_outgoing`` issued when it split every guard and
    tested the view's *letters* against the dictionaries, as (transition,
    bits, satisfied, min_positions)."""
    issued = []
    for transition in monitor.automaton.outgoing_transitions(view.state):
        conjuncts = monitor.registry.conjuncts_by_process(transition.guard, monitor.num_processes)
        bits = _bits_of(monitor.automaton, conjuncts)
        mine = conjuncts[monitor.process]
        if mine and not _satisfies(letters[monitor.process], mine):
            continue
        satisfied_now = list(map(_satisfies, letters, conjuncts))
        remote = [j for j, c in enumerate(conjuncts) if c and j != monitor.process]
        if all(satisfied_now):
            if include_currently_satisfied:
                for j in remote:
                    bumped = list(view.cut)
                    bumped[j] += 1
                    issued.append((transition.transition_id, bits, satisfied_now, bumped))
        elif remote:
            issued.append((transition.transition_id, bits, satisfied_now, list(view.cut)))
    return issued


def _issuing(monitor):
    """Make *monitor* issue nothing: the entries of the searches
    ``_explore_outgoing`` hands ``_issue`` are collected instead."""
    issued = []

    def collect(view, searches, mask):
        issued.extend(monitor.tokens.make_entry(view, *search) for search in searches)
        return ()

    monitor._issue = collect
    return issued


@given(
    st.sampled_from(PROPERTY_NAMES), st.integers(2, 4), st.integers(0, 1 << 16), st.booleans()
)
@settings(max_examples=200, deadline=None)
def test_testing_masks_against_the_table_issues_what_testing_letters_did(
    name, n, seed, include_currently_satisfied
):
    rng = random.Random(seed)
    registry, automaton = case_study_registry(n), case_study_monitor(name, n)
    process = rng.randrange(n)
    monitor = DecentralizedMonitor(
        process=process, num_processes=n, automaton=automaton, registry=registry,
        initial_letters=[registry.local_letter(j, {}) for j in range(n)],
        transport=_network(),
    )
    monitor._started = True
    columns = []
    for j in range(n):  # random letters in every column; clocks are not read
        letters = [registry.local_letter(j, {})] + [
            registry.local_letter(j, {"p": rng.random() < 0.5, "q": rng.random() < 0.5})
            for _ in range(4)
        ]
        monitor.columns.append_masks(j, map(automaton.compiled.encode, letters[1:]))
        columns.append(letters)
    cut = [rng.randrange(5) for _ in range(n)]
    for j in range(n):  # position 5 repeats the letter at the cut
        monitor.columns.append_masks(j, [automaton.compiled.encode(columns[j][cut[j]])])
    inconclusive = [q for q in automaton.states if not automaton.is_final(q)]
    state = rng.choice(inconclusive)
    letters = [columns[j][cut[j]] for j in range(n)]
    key = monitor.columns.mask_at(cut) << automaton.num_states | state
    # the second step, from a cut with the same state and masks, reads the
    # search table the first filled (or found filled: monitors share it)
    for step_cut in (cut, [5] * n):
        view = GlobalView(cut=list(step_cut), state=state)
        issued = _issuing(monitor)
        mask = monitor.columns.mask_at(view.cut)
        assert monitor._explore_outgoing(view, mask, include_currently_satisfied) == ()
        assert [
            (e.transition_id, e.bits, e.satisfied, e.min_positions) for e in issued
        ] == _explore_with_dictionaries(monitor, view, letters, include_currently_satisfied)
        assert all(e.cut == e.start_cut == e.depend == step_cut for e in issued)
        assert key in monitor.box.table
        monitor.box.searches_at = lambda key: pytest.fail("the second step missed the table")


@pytest.mark.parametrize("name", PROPERTY_NAMES)
def test_a_conjunct_cares_about_some_atom_exactly_when_it_is_not_empty(name):
    # masks are over ``compiled.atoms``: a guard naming an atom outside it
    # would read as a conjunct that asks nothing
    for n in range(2, 7):
        registry, automaton = case_study_registry(n), case_study_monitor(name, n)
        atoms = set(automaton.compiled.atoms)
        assert list(automaton.compiled.atoms) == sorted(atoms)
        for state in automaton.states:
            for transition in automaton.outgoing_transitions(state):
                conjuncts = registry.conjuncts_by_process(transition.guard, n)
                assert set().union(*conjuncts) <= atoms
                bits = _bits_of(automaton, conjuncts)
                assert [care != 0 for care, _ in bits] == [bool(c) for c in conjuncts]


def test_an_entry_is_served_by_the_bits_it_carries():
    registry = case_study_registry(2)
    monitor = DecentralizedMonitor(
        process=0, num_processes=2, registry=registry,
        automaton=build_monitor("F(P0.p & P1.p)", atoms=registry.names),
        initial_letters=[frozenset({"P0.p"}), frozenset()], transport=_network(),
    )
    monitor._started = True
    (view,) = monitor.views
    p0, p1 = (monitor.automaton.compiled.atom_bit[f"P{j}.p"] for j in range(2))
    monitor.columns.vcs[1] += [(0, 1), (0, 2)]
    monitor.columns.append_masks(1, [0, p1])  # P1: p stays false, then rises
    issued = _issuing(monitor)
    monitor._explore_outgoing(view, monitor.columns.mask_at(view.cut))
    (genuine,) = issued
    assert genuine.bits == ((p0, p0), (p1, p1))
    corrupted, unknown = copy.deepcopy(genuine), copy.deepcopy(genuine)
    corrupted.bits = ((p0, p0), (p1, 0))
    unknown.transition_id = 10_000
    for entry in (genuine, corrupted, unknown):
        monitor.columns.serve_entry(entry, monitor.columns.live_ends())
    assert genuine.cut == unknown.cut == [0, 2] and genuine.satisfied == [True, True]
    # told its conjunct does not hold where it stands, it stops at the next
    # event that shows what it carries — not what its transition asks
    assert corrupted.cut == [0, 1] and corrupted.satisfied == [True, True]


def _shared_bits(monitor):
    return [bits for rows in monitor.box.rows for _, bits in rows]


def test_monitors_of_one_property_share_its_guard_rows_and_another_binding_does_not():
    sessions = [_curve_cell(("F", 3, 6)) for _ in range(2)]
    monitors = [monitor for report in sessions for monitor in report.monitors]
    shared = _shared_bits(monitors[0])
    assert shared and len(monitors) == 6
    for monitor in monitors:
        # one ``bits`` object per row, in every monitor and every entry made
        assert all(map(is_, _shared_bits(monitor), shared))
        assert all(any(bits is row for row in shared) for bits in monitor.tokens.least)
    assert any(monitor.tokens.least for monitor in monitors)
    # the atoms of process j owned by j + 1: the rows are rebuilt, their
    # conjuncts move one process on
    registry = case_study_registry(3)
    swapped = PropositionRegistry(
        Proposition.variable(name, (registry.owner_of(name) + 1) % 3, name.split(".")[1])
        for name in registry.names
    )
    automaton = monitors[0].automaton
    moved = DecentralizedMonitor(
        process=0, num_processes=3, automaton=automaton, registry=swapped,
        initial_letters=[frozenset()] * 3, transport=_network(),
    )
    assert _shared_bits(moved) == [bits[-1:] + bits[:-1] for bits in shared]
    assert not any(map(is_, _shared_bits(moved), shared))


# ---------------------------------------------------------------------------
# (iv) the slicer is the oracle of the search answered at home
# ---------------------------------------------------------------------------
@st.composite
def searches(draw):
    computation, registry = _setting(draw, max_events_per_process=6)
    n = computation.num_processes
    cuts = ComputationLattice.from_computation(computation).cuts()
    start = draw(st.sampled_from(cuts))
    guard = {
        f"P{j}.p": draw(st.booleans()) for j in range(n) if draw(st.booleans())
    }
    return computation, registry, draw(st.integers(0, n - 1)), start, guard


@given(searches())
@settings(max_examples=300, deadline=None)
def test_a_search_answered_at_home_finds_the_slicers_least_cut(case):
    computation, registry, process, start, guard = case
    n = computation.num_processes
    automaton = _random_automaton(registry.names, inconclusive=2, seed=0)
    final = [len(computation.events_of(j)) for j in range(n)]
    monitor = _monitor(process, computation, registry, automaton, feed=final[process])
    _box(monitor, computation, registry, start, final, 0)  # fills the other columns
    monitor.terminated.update(enumerate(final))
    conjuncts = registry.conjuncts_by_process(guard, n)
    letters = [registry.local_letter(j, computation.local_state(j, start[j])) for j in range(n)]
    entry = TokenEntry(
        transition_id=None, bits=_bits_of(automaton, conjuncts),
        start_cut=list(start), cut=list(start), depend=list(start), min_positions=list(start),
        satisfied=list(map(_satisfies, letters, conjuncts)),
    )
    pending = monitor.columns.serve_entries([entry])
    least = least_consistent_cut(computation, registry, guard, start=start)
    assert pending == []  # the columns hold everything: decided here
    if least is None:
        assert entry.eval is False
    else:
        assert entry.eval is True and tuple(entry.cut) == least
        assert entry.satisfied == [True] * n
        letters = [registry.local_letter(j, computation.local_state(j, least[j])) for j in range(n)]
        assert all(map(_satisfies, letters, conjuncts))


# ---------------------------------------------------------------------------
# (v) the pinned counts (seed 2015, budget 2): what CI's perf-smoke checks
# ---------------------------------------------------------------------------
def _curve_cell(cell, seed=2015):
    scenario = get_scenario("paper-default")
    inputs = cell_inputs(
        scenario, cell[0], cell[1], events_per_process=cell[2],
        evt_mu=3, evt_sigma=1, comm_mu=3, comm_sigma=1, seed=seed,
    )
    return simulate_monitored_run(
        *inputs, seed=seed, max_views_per_state=2, network=scenario.network
    )


@pytest.mark.parametrize(
    "cell, queries, remembered, by_letter, cells, views, slept",
    [
        (("C", 4, 20), 4, 0, 2, 6, 6, 442),  # the token-heavy cell
        # 81 queries, 15 by letter, 532 cells and 33 views while every
        # message travelled alone: framed news settles monitors sooner
        (("F", 5, 20), 46, 0, 11, 310, 21, 805),
        (("B", 5, 40), 63, 0, 3, 75, 65, 1566),  # the long-trace cell
    ],
    ids=["C-n4-epp20", "F-n5-epp20", "B-n5-epp40"],
)
def test_curve_cells_search_each_step_once(
    cell, queries, remembered, by_letter, cells, views, slept
):
    report = _curve_cell(cell)
    # 1 088, 11 098 and 1 180 asked before a view remembered its last step's
    # targets; 612, 5 000 and 988 (164, 315 and 773 views) while a settled
    # monitor still stepped its views until the next merge (C and F had 659,
    # 6 313 queries and 169, 405 views before settled monitors stopped at all);
    # C 66 queries (44 remembered, 6 by letter, 27 views) and B 65 (5 by
    # letter) before monitors settled on the declarations they hear
    assert report.metrics.box_queries == queries
    assert report.metrics.boxes_remembered == remembered
    assert report.metrics.boxes_by_letter == by_letter
    assert report.total_global_views == views
    # C and F: 4 779 and 274 878 with one search per entry, 2 632 and 58 720
    # per step, 1 419 and 34 345 (842 entries replayed along one path) before
    # targets the letter decides were left out, 952 and 38 529 before settled
    # monitors stopped exploring, 898 and 33 098 before they stopped stepping,
    # 139 for C before they settled on what they hear; B: 5 801 (172
    # replayed), then 1 020
    assert report.metrics.box_cells_visited == cells
    assert report.metrics.least_cuts_remembered <= report.metrics.entries_created
    # 248, 451 and 868 while a clock that asked more of a peer than an
    # entry's ``depend`` woke its token, whatever column here held
    assert report.metrics.parked_tokens_slept == slept


@pytest.mark.parametrize(
    "cell, seed", [(("C", 4, 20), 7), (("F", 4, 6), 7)], ids=["C-n4-epp20-s7", "F-n4-epp6-s7"]
)
def test_cells_that_never_settle_answer_from_both_search_memories(cell, seed):
    # no monitor of these runs declares a verdict, so none settles: every
    # view steps to the end and both memories serve (1 709 and 2 143 least
    # cuts, 231 and 64 boxes)
    report = _curve_cell(cell, seed)
    assert report.metrics.views_settled == 0 and report.declared_verdicts == frozenset()
    assert 0 < report.metrics.least_cuts_remembered <= report.metrics.entries_created
    assert report.metrics.boxes_remembered > 0


# ---------------------------------------------------------------------------
# (vi) targets the letter decides: the answer the search and the lattice give
# ---------------------------------------------------------------------------
def _letter_table(atoms, size, seed):
    """A random table of *size* states, any of which may be conclusive — and
    then a trap or not; about half its letters send every state to one state."""
    rng = random.Random(seed)
    letters = tuple(all_assignments(atoms))
    outputs = [
        rng.choice((Verdict.TOP, Verdict.BOTTOM, Verdict.INCONCLUSIVE, Verdict.INCONCLUSIVE))
        for _ in range(size)
    ]
    traps = rng.random() < 0.5
    delta = [[0] * len(letters) for _ in range(size)]
    for column in range(len(letters)):
        synchronising = rng.randrange(size) if rng.random() < 0.5 else None
        for state in range(size):
            if traps and outputs[state].is_final:
                delta[state][column] = state
            elif synchronising is not None:
                delta[state][column] = synchronising
            else:
                delta[state][column] = rng.randrange(size)
    return MonitorAutomaton(formula=None, atoms=atoms, machine=table_machine(atoms, delta, outputs))


@st.composite
def lettered_steps(draw):
    """A view, a step of one to four consistent targets (the view's own cut
    among them, now and then) or one target that is not a consistent cut,
    and a table that may synchronise."""
    computation, registry = _setting(draw, max_events_per_process=5)
    lattice = ComputationLattice.from_computation(computation)
    cuts = lattice.cuts()
    start = lattice.bottom if draw(st.booleans()) else draw(st.sampled_from(cuts))
    if draw(st.integers(0, 3)) == 0:
        consistent = set(cuts)
        box = product(*(range(s, t + 1) for s, t in zip(start, lattice.top)))
        forged = [cut for cut in box if cut not in consistent]
        assume(forged)
        targets = [draw(st.sampled_from(forged))]
    else:
        above = [cut for cut in cuts if all(s <= c for s, c in zip(start, cut))]
        targets = draw(st.lists(st.sampled_from(above), min_size=1, max_size=4))
        if draw(st.integers(0, 3)) == 0:
            targets.append(start)
    automaton = _letter_table(registry.names, draw(st.integers(2, 5)), draw(st.integers(0, 1 << 16)))
    inconclusive = [q for q in automaton.states if not automaton.is_final(q)]
    assume(inconclusive)
    state = draw(st.sampled_from(inconclusive))
    if draw(st.booleans()):  # at the fixed point of its own letter, as a monitor's views
        state = automaton.step(state, registry.letter_of(computation.global_state(start)))
        assume(not automaton.is_final(state))
    return computation, registry, lattice, start, targets, automaton, state


@given(lettered_steps())
@settings(max_examples=400, deadline=None)
def test_a_target_its_letter_decides_gets_what_the_search_and_the_lattice_give(case):
    computation, registry, lattice, start, targets, automaton, state = case
    monitor, view, cuts = _step(computation, registry, automaton, start, targets, state)
    before = set(states_of(monitor.declared_bits))
    together = _reachable(monitor, view, cuts)
    searched, declared = {}, set()
    for target in targets:  # the search alone, on a monitor of its own
        alone, view_alone, cuts_alone = _step(
            computation, registry, automaton, start, [target], state
        )
        (searched[target],) = alone.box.search(
            view_alone, cuts_alone, alone.columns.mask_at(view_alone.cut)
        )
        declared |= set(states_of(alone.declared_bits))
    consistent = set(lattice.cuts())
    lattice_declared = set()
    for target, reached in zip(targets, together):
        assert reached == searched[target]
        if target in consistent:
            states, conclusive, _ = _brute_force(
                computation, lattice, registry, automaton, start, target, state
            )
            assert set(states_of(reached)) == states
            lattice_declared |= conclusive
    assert set(states_of(monitor.declared_bits)) == declared
    if all(target in consistent for target in targets):
        assert set(states_of(monitor.declared_bits)) - before == lattice_declared - before
    assert monitor.metrics.box_queries == len(targets) >= monitor.metrics.boxes_by_letter


def test_every_conclusive_state_of_the_case_study_monitors_is_a_trap():
    for name in PROPERTY_NAMES:
        for n in range(2, 7):
            automaton = case_study_monitor(name, n)
            table, width = automaton.compiled.table, automaton.compiled.n_letters
            for q in automaton.states:
                if automaton.is_final(q):
                    assert set(table[q * width : (q + 1) * width]) == {q}, (name, n, q)


# ---------------------------------------------------------------------------
# (vii) a search sets up only what it moves: against the box layer's
# reference, the lane BFS for every union that moves a process
# ---------------------------------------------------------------------------
def _both_searches(monitor, view, cuts, search=Box.search):
    """What the reference search (:func:`references.lane_search`) and
    *search* each give and leave — answers, declared states and verdicts,
    cells counted — from the same monitor state; the monitor is left as
    *search* leaves it."""
    declared = monitor.declared_bits
    log = list(monitor.verdict_log)
    cells = monitor.metrics.box_cells_visited
    results = []
    mask = monitor.columns.mask_at(view.cut)
    for run in (lane_search, search):
        monitor.declared_bits, monitor.verdict_log = declared, list(log)
        monitor.metrics.box_cells_visited = cells
        reached = run(monitor.box, view, cuts, mask)
        results.append((
            reached, monitor.declared_bits, list(monitor.verdict_log),
            monitor.metrics.box_cells_visited - cells,
        ))
    return results


@given(steps())
@settings(max_examples=300, deadline=None)
def test_a_search_gives_and_leaves_what_the_lane_search_did(case):
    computation, registry, _, start, targets, automaton, state = case
    monitor, view, cuts = _step(computation, registry, automaton, start, targets, state)
    reference, own = _both_searches(monitor, view, cuts)
    assert own == reference


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("name", PROPERTY_NAMES)
def test_every_search_of_a_run_gives_what_the_lane_search_did(monkeypatch, name, n):
    searched = []
    own = Box.search

    def checked(box, view, cuts, mask):
        monitor = box.declare.__self__  # whose declarations the search writes
        reference, mine = _both_searches(monitor, view, cuts, own)
        assert mine == reference
        searched.append(mine[-1])
        return mine[0]

    monkeypatch.setattr(Box, "search", checked)
    report = _curve_cell((name, n, 20))
    assert sum(searched) == report.metrics.box_cells_visited > 0


def _chain(steps):
    """Two processes of boolean ``p``: *steps* is a script of ``("i", j)``
    (flip ``p`` of j), ``("k", j)`` (keep it) and ``("m", j)`` (j sends to the
    other process, which receives at once)."""
    builder = ComputationBuilder([{"p": False} for _ in range(2)])
    value = [False, False]
    for sent, (kind, j) in enumerate(steps, start=1):
        if kind == "i":
            value[j] = not value[j]
            builder.internal(j, {"p": value[j]})
        elif kind == "k":
            builder.internal(j, {})
        else:
            builder.send(j, to=1 - j, message_id=sent)
            builder.receive(1 - j, frm=j, message_id=sent)
    return builder.build(), PropositionRegistry.boolean_grid(2, variables=("p",))


def test_a_union_that_crosses_no_segment_boundary_is_the_views_own_cell():
    computation, registry = _chain([("k", 0), ("k", 1), ("k", 0), ("m", 1)])
    automaton = build_monitor("F(P0.p & P1.p)", atoms=registry.names)
    state = automaton.step(automaton.initial_state, frozenset())
    targets = [(2, 1), (1, 2), (3, 2)]
    monitor, view, cuts = _step(computation, registry, automaton, (0, 0), targets, state)
    reference, own = _both_searches(monitor, view, cuts)
    assert own == reference
    assert own[0] == [1 << state] * 3 and own[-1] == 1  # one cell, no level searched
    lattice = ComputationLattice.from_computation(computation)
    for target in targets:
        states, _, _ = _brute_force(computation, lattice, registry, automaton, (0, 0), target, state)
        assert states == {state}


@pytest.mark.parametrize(
    "formula", ["F(P0.p & P1.p)", "X(P0.p | X P1.p)"], ids=["collapse", "event-by-event"]
)
@pytest.mark.parametrize(
    ("script", "targets"),
    [
        # P1's message reaches P0 first, then P0's p rises: the rise asks for
        # P1's send, and a target without it is not a consistent cut
        ([("m", 1), ("i", 0)], [(2, 0)]),
        # P0 keeps p (a target in the view's own segment), raises it, then
        # receives P1's message and drops p: the line stops part-way along
        ([("k", 0), ("i", 0), ("m", 1), ("i", 0)], [(1, 0), (2, 0), (4, 0)]),
        # the same on P1, with its target at the join inside the line
        ([("i", 1), ("m", 0), ("i", 1)], [(0, 1), (0, 3), (0, 1)]),
        # every opener fits: the line runs to the join
        ([("i", 0), ("k", 0), ("i", 0), ("m", 0)], [(4, 0), (2, 0)]),
    ],
    ids=["first-opener", "part-way", "process-1", "to-the-join"],
)
def test_a_chain_of_one_process_stops_where_its_openers_clock_does_not_fit(
    formula, script, targets
):
    computation, registry = _chain(script)
    automaton = build_monitor(formula, atoms=registry.names)
    assert automaton.stutter_closed == (formula[0] == "F")
    state = automaton.step(automaton.initial_state, frozenset())
    monitor, view, cuts = _step(computation, registry, automaton, (0, 0), targets, state)
    reference, own = _both_searches(monitor, view, cuts)
    assert own == reference
    lattice = ComputationLattice.from_computation(computation)
    consistent = set(lattice.cuts())
    line = {cut for cut in consistent if cut[1:] == (0,) or cut[:1] == (0,)}
    join = tuple(map(max, (0, 0), *targets))
    for target, reached in zip(targets, own[0]):
        if target in consistent:
            states, _, _ = _brute_force(
                computation, lattice, registry, automaton, (0, 0), target, state
            )
            assert set(states_of(reached)) == states
        else:
            assert reached == 0
    # event by event, the cells visited are the consistent cuts of the line
    # below the join; collapsing, no more
    cells = sum(all(map(le, cut, join)) for cut in line)
    assert own[-1] == cells if formula[0] == "X" else 1 <= own[-1] <= cells
