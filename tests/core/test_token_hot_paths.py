"""Property tests for the monitor's two hot loops.

* The box search (``Box.reachable``) must return exactly the automaton
  states, and declare exactly the conclusive states, that a brute-force walk
  over the consistent cuts of :class:`ComputationLattice` finds between the
  view's cut and the token's cut — whether or not the
  search may collapse letter-preserving events (stutter-closed automaton at
  a fixed point of the view's letter), answered by the target's letter or
  searched, and never visiting more cells than the box has consistent cuts.
* One-shot token serving (``Columns.serve_entry``) must leave an entry exactly as
  the one-event-at-a-time loop it replaced (kept below as the reference),
  and the run the token leaves with must hold exactly the events that loop
  scanned and the parent did not already know.
"""

import copy
import random
import sys
from operator import ne
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import assume, given, seed, settings

from repro.core.box import states_of
from repro.core.global_view import GlobalView
from repro.core.messages import Token, TokenEntry
from repro.core.monitor import DecentralizedMonitor
from repro.distributed.computation import ComputationBuilder
from repro.distributed.lattice import ComputationLattice
from repro.experiments.properties import PROPERTY_NAMES, case_study_monitor
from repro.ltl import PropositionRegistry, Verdict
from repro.ltl.monitor import MonitorAutomaton, build_monitor
from repro.ltl.semantics import all_assignments
from repro.scenarios import ReliableNetwork
from repro.sim import SimulatedNetwork, Simulator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "ltl"))
from table_rows import table_machine  # noqa: E402


def _monitor_shaped(atoms, delta):
    """The automaton of letter-ordered rows whose last two states are ⊤ and ⊥."""
    outputs = [Verdict.INCONCLUSIVE] * (len(delta) - 2) + [Verdict.TOP, Verdict.BOTTOM]
    return MonitorAutomaton(
        formula=None, atoms=atoms, machine=table_machine(atoms, delta, outputs)
    )


def _random_automaton(atoms, inconclusive, seed):
    """A monitor-shaped machine with a random table: ⊤/⊥ absorbing, every
    other move drawn at random, so the states reached depend on the order in
    which a path reads its letters (LTL monitors mostly forget it)."""
    rng = random.Random(seed)
    letters = tuple(all_assignments(atoms))
    top, bottom = inconclusive, inconclusive + 1
    delta = [
        [
            rng.randrange(inconclusive) if rng.random() < 0.95 else rng.choice((top, bottom))
            for _ in letters
        ]
        for _ in range(inconclusive)
    ]
    delta += [[top] * len(letters), [bottom] * len(letters)]
    return _monitor_shaped(atoms, delta)


def _closed_automaton(atoms, inconclusive, seed):
    """Like :func:`_random_automaton`, but stutter-closed by construction:
    every letter has its own random set of states it fixes (⊤ and ⊥ among
    them) and sends every other state into that set."""
    rng = random.Random(seed)
    letters = tuple(all_assignments(atoms))
    top, bottom = inconclusive, inconclusive + 1
    delta = [[0] * len(letters) for _ in range(inconclusive + 2)]
    for column in range(len(letters)):
        fixed = [q for q in range(inconclusive) if rng.random() < 0.5] or [0]
        for state in range(inconclusive):
            if state in fixed:
                delta[state][column] = state
            else:
                delta[state][column] = (
                    rng.choice(fixed) if rng.random() < 0.95 else rng.choice((top, bottom))
                )
        delta[top][column], delta[bottom][column] = top, bottom
    return _monitor_shaped(atoms, delta)


def _formula_automaton(atoms, seed):
    """The unminimised progression machine of a random ``X``-free formula:
    boolean combinations of G, F, U, R and response patterns over
    propositional arguments (deeper nestings need not converge)."""
    rng = random.Random(seed)

    def prop(depth=1):
        if depth == 0 or rng.random() < 0.4:
            return rng.choice(("", "!")) + rng.choice(atoms)
        return f"({prop(depth - 1)} {rng.choice('&|')} {prop(depth - 1)})"

    def temporal():
        return rng.choice(
            (
                f"G({prop()})",
                f"F({prop()})",
                f"({prop()} U {prop()})",
                f"({prop()} R {prop()})",
                f"G({prop()} -> F({prop()}))",
                f"G({prop()} -> ({prop()} U {prop()}))",
            )
        )

    formula = temporal()
    while rng.random() < 0.4:
        formula = f"({formula} {rng.choice('&|')} {temporal()})"
    return build_monitor(formula, atoms=atoms, minimize=False)


def _setting(draw, max_events_per_process):
    """A random computation over one boolean per process, and its registry.

    Drawn as a script of internal events that flip the process's boolean
    (each changes the global letter), internal events that keep it, sends
    and receives of the oldest pending message (all three repeat it).
    """
    n = draw(st.integers(2, 4))
    script = draw(
        st.lists(
            st.tuples(st.sampled_from("iiksr"), st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=n,
            max_size=max_events_per_process * n,
        )
    )
    builder = ComputationBuilder([{"p": False} for _ in range(n)])
    value = [False] * n
    pending = []
    for kind, process, peer in script:
        if kind == "i":
            value[process] = not value[process]
            builder.internal(process, {"p": value[process]})
        elif kind == "k":
            builder.internal(process, {})
        elif kind == "s" and peer != process:
            builder.send(process, to=peer, message_id=len(pending) + 1)
            pending.append((process, peer))
        elif kind == "r" and any(pending):
            message_id = next(i for i, m in enumerate(pending, start=1) if m)
            sender, receiver = pending[message_id - 1]
            pending[message_id - 1] = None
            builder.receive(receiver, frm=sender, message_id=message_id)
    return builder.build(), PropositionRegistry.boolean_grid(n, variables=("p",))


def _bits_of(automaton, conjuncts):
    """Per conjunct, its ``(care, want)`` bits over the automaton's masks."""
    encode = automaton.compiled.encode
    return tuple((encode(c), encode(a for a in c if c[a])) for c in conjuncts)


def _network():
    """Links that deliver at once; what is sent waits until the simulator runs."""
    return SimulatedNetwork(Simulator(), ReliableNetwork(latency=0.0, jitter=0.0).delay_model(0))


def _monitor(process, computation, registry, automaton, feed=0):
    """A monitor of *process* that has read its first *feed* local events."""
    n = computation.num_processes
    monitor = DecentralizedMonitor(
        process=process,
        num_processes=n,
        automaton=automaton,
        registry=registry,
        initial_letters=[
            registry.local_letter(j, computation.initial_states[j]) for j in range(n)
        ],
        transport=_network(),
    )
    monitor._started = True  # feed history only: explore nothing, send nothing
    monitor.views.clear()
    for event in computation.events_of(process)[:feed]:
        monitor.local_event(event)
    return monitor


def _reachable(monitor, view, cuts):
    """The box layer's answer for the targets *cuts* of one step of *view*."""
    return monitor.box.reachable(view, cuts, monitor.columns.mask_at(view.cut))


# ---------------------------------------------------------------------------
# (a) box search == brute force over the lattice
# ---------------------------------------------------------------------------
@st.composite
def boxes(draw):
    computation, registry = _setting(draw, max_events_per_process=5)
    lattice = ComputationLattice.from_computation(computation)
    cuts = lattice.cuts()
    # half the boxes start at the bottom and half end at the top: two cuts
    # drawn at random are mostly a few cells apart
    start = lattice.bottom if draw(st.booleans()) else draw(st.sampled_from(cuts))
    above = [cut for cut in cuts if all(s <= c for s, c in zip(start, cut))]
    # the top, any cut above, or one that moves a single process from the
    # start (the search walks that line; collapsing, maybe in one segment)
    line = [cut for cut in above if sum(map(ne, start, cut)) == 1]
    where = draw(st.sampled_from(("top", "above", "line")))
    if where == "top":
        target = lattice.top
    else:
        target = draw(st.sampled_from(line if where == "line" and line else above))
    # a table that is not stutter-closed, one that is, and a formula's
    # machine (also closed): the search may collapse on the last two
    kind = draw(st.sampled_from(("random", "closed", "formula")))
    seed = draw(st.integers(0, 1 << 16))
    if kind == "formula":
        automaton = _formula_automaton(registry.names, seed)
    else:
        build = _random_automaton if kind == "random" else _closed_automaton
        automaton = build(registry.names, draw(st.integers(1, 12)), seed)
    inconclusive = [q for q in automaton.states if not automaton.is_final(q)]
    assume(inconclusive)  # a formula may be valid or unsatisfiable
    state = draw(st.sampled_from(inconclusive))
    if draw(st.booleans()):
        # as in every view the monitor builds itself: the state has read the
        # letter of its own cut (once is enough only if stutter-closed) and
        # is not conclusive
        state = automaton.step(state, registry.letter_of(computation.global_state(start)))
        assume(not automaton.is_final(state))
    return computation, registry, lattice, start, target, automaton, state


def _brute_force(computation, lattice, registry, automaton, start, target, state):
    """(states reachable at *target*, conclusive states met past *start*,
    number of consistent cuts inside the box)."""

    def inside(cut):
        return all(c <= t for c, t in zip(cut, target))

    reached = {start: {state}}
    conclusive = set()
    frontier = [start]
    while frontier:
        level = {}
        for cut in frontier:
            for successor in lattice.successors(cut):
                if not inside(successor):
                    continue
                letter = registry.letter_of(computation.global_state(successor))
                level.setdefault(successor, set()).update(
                    automaton.step(q, letter) for q in reached[cut]
                )
        reached.update(level)
        frontier = list(level)
        for states in level.values():
            conclusive |= {q for q in states if automaton.is_final(q)}
    return reached[target], conclusive, len(reached)


def _box(monitor, computation, registry, start, target, state):
    """The view at *start* and a decided entry that scanned up to *target*.

    *monitor* has read its own events; the other processes' events reach its
    columns the way they do in a run, from the runs of the returning token.
    """
    n = computation.num_processes
    view = GlobalView(cut=list(start), state=state)
    entry = TokenEntry(
        transition_id=0,
        bits=((0, 0),) * n,
        start_cut=list(start),
        cut=list(target),
        depend=list(target),
        min_positions=list(start),
        satisfied=[True] * n,
        eval=True,
    )
    runs = {}
    encode = monitor.automaton.compiled.encode
    for j in range(n):
        run = computation.events_of(j)[: target[j]]
        if run and j != monitor.process:
            runs[j] = (
                [encode(registry.local_letter(j, event.state)) for event in run],
                [tuple(event.vc) for event in run],
            )
    monitor.columns.absorb_runs(
        Token(monitor.process, entries=[entry], known=[0] * n, runs=runs)
    )
    return view, entry


@given(boxes())
@settings(max_examples=300, deadline=None)
@seed(2015)  # the same boxes on every run: fresh draws took 5–50 s; CI draws fresh ones
def test_box_search_matches_brute_force_over_the_lattice(case):
    computation, registry, lattice, start, target, automaton, state = case
    expected_states, expected_conclusive, consistent_cuts = _brute_force(
        computation, lattice, registry, automaton, start, target, state
    )
    base_letter = registry.letter_of(computation.global_state(start))
    may_collapse = automaton.stutter_closed and automaton.step(state, base_letter) == state
    monitor = _monitor(0, computation, registry, automaton, feed=target[0])
    before = set(states_of(monitor.declared_bits))
    view, entry = _box(monitor, computation, registry, start, target, state)
    (reached,) = _reachable(monitor, view, [tuple(entry.cut)])
    assert set(states_of(reached)) == expected_states
    assert set(states_of(monitor.declared_bits)) - before == expected_conclusive - before
    assert monitor.declared_verdicts >= {automaton.verdict(q) for q in expected_conclusive}
    # as a repair: every inconclusive state reached is forked
    letter = registry.letter_of(computation.global_state(target))
    for child in monitor.views.fork(view, tuple(target), reached, repair=True):
        assert child.cut == list(target)
        assert monitor.columns.mask_at(child.cut) == automaton.compiled.encode(letter)
    assert monitor.metrics.box_queries == 1
    assert view.searched == {}  # the box layer writes no view
    # every cell searched holds a consistent cut of its own; without
    # collapsing, the cells are the cuts; a target its letter decides costs none
    if monitor.metrics.boxes_by_letter:
        assert monitor.metrics.box_cells_visited == 0
    elif may_collapse:
        assert monitor.metrics.box_cells_visited <= consistent_cuts
    else:
        assert monitor.metrics.box_cells_visited == consistent_cuts


def test_the_search_visits_letter_runs_not_the_events_spanned():
    """24 389 raw cells, 27 after collapsing: searched exactly, and equal to
    the brute force over all 24 389 cuts."""
    n, events, flips = 3, 28, (9, 19)
    builder = ComputationBuilder([{"p": False} for _ in range(n)])
    for sn in range(1, events + 1):
        for j in range(n):
            builder.internal(j, {"p": (sn >= flips[0]) != (sn >= flips[1])} if sn in flips else {})
    computation = builder.build()
    registry = PropositionRegistry.boolean_grid(n, variables=("p",))
    lattice = ComputationLattice.from_computation(computation)
    start, target = lattice.bottom, lattice.top
    automaton = _closed_automaton(registry.names, inconclusive=8, seed=11)
    state = automaton.step(0, registry.letter_of(computation.global_state(start)))
    expected_states, expected_conclusive, consistent_cuts = _brute_force(
        computation, lattice, registry, automaton, start, target, state
    )
    assert consistent_cuts == (events + 1) ** n
    monitor = _monitor(0, computation, registry, automaton, feed=events)
    view, entry = _box(monitor, computation, registry, start, target, state)
    (reached,) = _reachable(monitor, view, [tuple(entry.cut)])
    assert set(states_of(reached)) == expected_states
    assert set(states_of(monitor.declared_bits)) == expected_conclusive
    assert monitor.metrics.boxes_by_letter == 0
    assert monitor.metrics.box_cells_visited == (len(flips) + 1) ** n


# ---------------------------------------------------------------------------
# when the search may collapse: MonitorAutomaton.stutter_closed
# ---------------------------------------------------------------------------
def test_case_study_automata_are_stutter_closed_and_next_is_not():
    for name in PROPERTY_NAMES:
        for n in range(2, 6):
            assert case_study_monitor(name, n).stutter_closed, (name, n)
    assert not build_monitor("X p").stutter_closed
    assert not build_monitor("X p", minimize=False).stutter_closed


def test_stutter_closed_walks_the_table_once(monkeypatch):
    automaton = build_monitor("G(a U b)", minimize=False)
    assert automaton.stutter_closed
    monkeypatch.setattr(automaton.compiled, "table", None)  # a second walk would raise
    assert automaton.stutter_closed


# ---------------------------------------------------------------------------
# forked siblings do not share their cuts
# ---------------------------------------------------------------------------
def test_children_of_one_entry_keep_their_own_cuts():
    """Two children forked from one entry; stepping one over a local event
    must leave the other at its own cut, and the letter there.

    The case-study automata forget everything but the last letter, so one
    entry never forks two children from them; ``G(p0 -> F p1)`` remembers a
    pending request, and a repair entry forks every reachable state.
    """
    builder = ComputationBuilder([{"p": False}, {"p": False}])
    for value in (True, False, True):
        builder.internal(0, {"p": value})
    for value in (True, False):
        builder.internal(1, {"p": value})
    computation = builder.build()
    registry = PropositionRegistry.boolean_grid(2, variables=("p",))
    automaton = build_monitor(
        "G(P0.p -> F(P1.p))", atoms=registry.names, minimize=False
    )
    monitor = _monitor(0, computation, registry, automaton, feed=3)
    for j in range(2):
        monitor.transport.register(j, monitor)  # tokens sent are never delivered
    view, _ = _box(monitor, computation, registry, (0, 0), (2, 2), automaton.initial_state)
    target = (2, 2)  # a repair's: every state reached is forked
    first, second = monitor.views.fork(
        view, target, *_reachable(monitor, view, [target]), repair=True
    )
    assert first.cut == second.cut and first.cut is not second.cut
    monitor._step_view(first, 3)
    assert first.cut == [3, 2] and second.cut == [2, 2]
    assert monitor.columns.mask_at(first.cut) == automaton.compiled.atom_bit["P0.p"]
    assert monitor.columns.mask_at(second.cut) == 0


# ---------------------------------------------------------------------------
# (b) one-shot serving == the one-event-at-a-time loop
# ---------------------------------------------------------------------------
def _lagging(entry):
    """The processes whose component of *entry* must still advance."""
    return [
        j for j, at in enumerate(entry.cut)
        if at < entry.depend[j] or at < entry.min_positions[j]
        or (entry.bits[j][0] != 0 and not entry.satisfied[j])
    ]  # fmt: skip


def _serve_one_event_at_a_time(monitor, entry):
    """The loop ``Columns.serve_entry`` replaced, behind the guard its callers applied.

    Returns the events it scanned, as ``(sn, mask, clock)``.
    """
    j = monitor.process
    scanned = []
    if j not in _lagging(entry):
        return scanned
    care, want = entry.bits[j]
    entry.waiting_for.discard(j)
    progressed = False
    while True:
        target_min = max(entry.depend[j], entry.min_positions[j])
        needs_position = entry.cut[j] < target_min
        needs_conjunct = care != 0 and not entry.satisfied[j]
        if not needs_position and not needs_conjunct:
            entry.parked_on = None
            break
        next_sn = entry.cut[j] + 1
        if next_sn >= len(monitor.columns.vcs[j]):
            if monitor.terminated[j] is not None:
                entry.eval = False
                entry.parked_on = None
            else:
                entry.parked_on = j
                entry.waiting_for.add(j)
            break
        mask = monitor.columns.masks[j][next_sn]
        vc = monitor.columns.vcs[j][next_sn]
        scanned.append((next_sn, mask, vc))
        entry.depend = [max(a, b) for a, b in zip(entry.depend, vc)]
        entry.cut[j] = next_sn
        entry.satisfied[j] = mask & care == want
        progressed = True
    if progressed:
        entry.waiting_for.intersection_update({j})
    return scanned


@st.composite
def visits(draw):
    computation, registry = _setting(draw, max_events_per_process=8)
    automaton = _random_automaton(registry.names, inconclusive=2, seed=0)
    n = computation.num_processes
    process = draw(st.integers(0, n - 1))
    history = len(computation.events_of(process))
    feed = draw(st.integers(0, history))
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    limits = [len(computation.events_of(j)) + 1 for j in range(n)]
    cut = [rng.randint(0, limits[j]) for j in range(n)]
    cut[process] = rng.randint(0, feed + 1)
    conjuncts = [{f"P{j}.p": rng.random() < 0.5} if rng.random() < 0.6 else {} for j in range(n)]
    entry = TokenEntry(
        transition_id=rng.choice([None, 0]),
        bits=_bits_of(automaton, conjuncts),
        start_cut=list(cut),
        cut=list(cut),
        depend=[rng.randint(0, limits[j]) for j in range(n)],
        min_positions=[rng.randint(0, limits[j]) for j in range(n)],
        satisfied=[rng.random() < 0.5 for _ in range(n)],
        parked_on=rng.choice([None, *range(n)]),
        waiting_for={j for j in range(n) if rng.random() < 0.3},
    )
    # what the token's parent already held of this process when it made the
    # token: at least the cut its view stood at
    known = [0] * n
    known[process] = rng.randint(min(cut[process], feed), feed)
    return computation, registry, automaton, process, feed, draw(st.booleans()), entry, known


@given(visits())
@settings(max_examples=300, deadline=None)
def test_one_shot_serving_matches_the_event_at_a_time_loop(case):
    computation, registry, automaton, process, feed, terminated, entry, known = case
    monitor = _monitor(process, computation, registry, automaton, feed=feed)
    monitor.terminated[process] = feed if terminated else None
    expected = copy.deepcopy(entry)
    scanned = _serve_one_event_at_a_time(monitor, expected)
    monitor.columns.serve_entry(entry, monitor.columns.live_ends())
    assert entry == expected  # dataclass equality: every field
    # the events the loop scanned leave on the token, once, minus what the
    # parent knew
    token = Token((process + 1) % len(known), entries=[entry], known=known)
    monitor.metrics.events_shipped += monitor.columns.extend_run(token)
    shipped = [event for event in scanned if event[0] > known[process]]
    masks, vcs = token.runs.get(process, ([], []))
    first = known[process] + 1
    assert list(zip(range(first, first + len(vcs)), masks, vcs)) == shipped
    assert monitor.metrics.events_shipped == len(shipped)
