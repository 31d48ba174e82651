"""Property tests for the monitor's two hot loops.

* The box search (``_box_reachable``) must return exactly the automaton
  states, and declare exactly the conclusive states, that a brute-force walk
  over the consistent cuts of :class:`ComputationLattice` finds between the
  view's cut and the token's cut — under both kernels.  The oversized-box
  fallback replays one real path, so it must stay inside those sets.
* One-shot token serving (``_serve_entry``) must leave an entry exactly as
  the one-event-at-a-time loop it replaced (kept below as the reference),
  and the run the token leaves with must hold exactly the events that loop
  scanned and the parent did not already know.
"""

import copy
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.core.monitor as monitor_module
from repro.core.global_view import GlobalView
from repro.core.messages import Token, TokenEntry
from repro.core.monitor import DecentralizedMonitor
from repro.core.transport import LoopbackNetwork
from repro.distributed.computation import ComputationBuilder
from repro.distributed.lattice import ComputationLattice
from repro.ltl import PropositionRegistry, Verdict
from repro.ltl.dfa import MooreMachine
from repro.ltl.monitor import MonitorAutomaton
from repro.ltl.semantics import all_assignments


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
    outputs = [Verdict.INCONCLUSIVE] * inconclusive + [Verdict.TOP, Verdict.BOTTOM]
    return MonitorAutomaton(
        formula=None, atoms=atoms, machine=MooreMachine(letters, 0, delta, outputs)
    )


def _setting(draw, max_events_per_process):
    """A random computation over one boolean per process, and its registry.

    Drawn as a script of internal events (each flips the process's boolean,
    so every one changes the global letter), sends and receives of the
    oldest pending message.
    """
    n = draw(st.integers(2, 4))
    script = draw(
        st.lists(
            st.tuples(st.sampled_from("iisr"), st.integers(0, n - 1), st.integers(0, n - 1)),
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
        elif kind == "s" and peer != process:
            builder.send(process, to=peer, message_id=len(pending) + 1)
            pending.append((process, peer))
        elif kind == "r" and any(pending):
            message_id = next(i for i, m in enumerate(pending, start=1) if m)
            sender, receiver = pending[message_id - 1]
            pending[message_id - 1] = None
            builder.receive(receiver, frm=sender, message_id=message_id)
    return builder.build(), PropositionRegistry.boolean_grid(n, variables=("p",))


def _monitor(process, computation, registry, automaton, compiled, feed=0):
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
        transport=LoopbackNetwork(),
        use_compiled_kernel=compiled,
    )
    monitor._started = True  # feed history only: explore nothing, send nothing
    monitor.views.clear()
    for event in computation.events_of(process)[:feed]:
        monitor.local_event(event)
    return monitor


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
    target = lattice.top if draw(st.booleans()) else draw(st.sampled_from(above))
    inconclusive = draw(st.integers(1, 12))
    automaton = _random_automaton(registry.names, inconclusive, draw(st.integers(0, 1 << 16)))
    state = draw(st.integers(0, inconclusive - 1))
    return computation, registry, lattice, start, target, automaton, state


def _brute_force(computation, lattice, registry, automaton, start, target, state):
    """(states reachable at *target*, conclusive states met past *start*)."""

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
    return reached[target], conclusive


def _box(monitor, computation, registry, start, target, state):
    """The view at *start* and a decided entry that scanned up to *target*.

    *monitor* has read its own events; the other processes' events reach its
    columns the way they do in a run, from the runs of the returning token.
    """
    n = computation.num_processes
    view = GlobalView(
        cut=list(start),
        state=state,
        letters=[
            registry.local_letter(j, computation.local_state(j, start[j])) for j in range(n)
        ],
    )
    entry = TokenEntry(
        transition_id=0,
        guard={},
        conjuncts=[{} for _ in range(n)],
        start_cut=list(start),
        cut=list(target),
        depend=list(target),
        min_positions=list(start),
        satisfied=[True] * n,
        eval=True,
    )
    runs = {}
    for j in range(n):
        run = computation.events_of(j)[: target[j]]
        if run and j != monitor.process:
            runs[j] = (
                [registry.local_letter(j, event.state) for event in run],
                [tuple(event.vc) for event in run],
            )
    monitor._absorb_runs(
        Token(monitor.process, 0, 0, entries=[entry], known=[0] * n, runs=runs)
    )
    return view, entry


@given(boxes())
@settings(max_examples=200, deadline=None)
def test_box_search_matches_brute_force_over_the_lattice(case):
    computation, registry, lattice, start, target, automaton, state = case
    expected_states, expected_conclusive = _brute_force(
        computation, lattice, registry, automaton, start, target, state
    )
    for compiled in (True, False):
        monitor = _monitor(0, computation, registry, automaton, compiled, feed=target[0])
        before = set(monitor.declared_states)
        view, entry = _box(monitor, computation, registry, start, target, state)
        states, letters = monitor._box_reachable(view, entry)
        assert states == expected_states
        assert monitor.declared_states - before == expected_conclusive - before
        assert monitor.declared_verdicts >= {automaton.verdict(q) for q in expected_conclusive}
        assert letters == [
            registry.local_letter(j, computation.local_state(j, target[j]))
            for j in range(computation.num_processes)
        ]
        assert monitor.metrics.box_queries == 1
        assert monitor.metrics.box_linear_fallbacks == 0


@given(boxes())
@settings(max_examples=60, deadline=None)
def test_linear_fallback_replays_one_real_path(case):
    computation, registry, lattice, start, target, automaton, state = case
    expected_states, expected_conclusive = _brute_force(
        computation, lattice, registry, automaton, start, target, state
    )
    outcomes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monitor_module, "_BOX_CELL_LIMIT", 0)
        for compiled in (True, False):
            monitor = _monitor(0, computation, registry, automaton, compiled, feed=target[0])
            before = set(monitor.declared_states)
            view, entry = _box(monitor, computation, registry, start, target, state)
            states, _ = monitor._box_reachable(view, entry)
            assert len(states) == 1 and states <= expected_states
            assert monitor.declared_states - before <= expected_conclusive
            assert monitor.metrics.box_linear_fallbacks == monitor.metrics.box_queries == 1
            outcomes.append((states, monitor.declared_states))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# (b) one-shot serving == the one-event-at-a-time loop
# ---------------------------------------------------------------------------
def _serve_one_event_at_a_time(monitor, entry):
    """The loop ``_serve_entry`` replaced, behind the guard its callers applied.

    Returns the events it scanned, as ``(sn, letter, clock)``.
    """
    j = monitor.process
    scanned = []
    if j not in entry.lagging_processes():
        return scanned
    conjunct = entry.conjuncts[j]
    entry.waiting_for.discard(j)
    progressed = False
    while True:
        target_min = max(entry.depend[j], entry.min_positions[j])
        needs_position = entry.cut[j] < target_min
        needs_conjunct = bool(conjunct) and not entry.satisfied[j]
        if not needs_position and not needs_conjunct:
            entry.parked_on = None
            break
        next_sn = entry.cut[j] + 1
        if next_sn > monitor.last_local_sn:
            if monitor.local_terminated:
                entry.eval = False
                entry.parked_on = None
            else:
                entry.parked_on = j
                entry.waiting_for.add(j)
            break
        letter = monitor.local_letters[next_sn]
        vc = monitor.local_vcs[next_sn]
        scanned.append((next_sn, letter, vc))
        entry.depend = [max(a, b) for a, b in zip(entry.depend, vc)]
        entry.cut[j] = next_sn
        entry.letters[j] = letter
        entry.satisfied[j] = (
            all((atom in letter) == wanted for atom, wanted in conjunct.items())
            if conjunct
            else True
        )
        progressed = True
    if progressed:
        entry.waiting_for.intersection_update({j})
    return scanned


@st.composite
def visits(draw):
    computation, registry = _setting(draw, max_events_per_process=8)
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
        guard={},
        conjuncts=conjuncts,
        start_cut=list(cut),
        cut=list(cut),
        depend=[rng.randint(0, limits[j]) for j in range(n)],
        min_positions=[rng.randint(0, limits[j]) for j in range(n)],
        satisfied=[rng.random() < 0.5 for _ in range(n)],
        letters={j: frozenset() for j in range(n)},
        parked_on=rng.choice([None, *range(n)]),
        waiting_for={j for j in range(n) if rng.random() < 0.3},
    )
    # what the token's parent already held of this process when it made the
    # token: at least the cut its view stood at
    known = [0] * n
    known[process] = rng.randint(min(cut[process], feed), feed)
    return computation, registry, process, feed, draw(st.booleans()), entry, known


@given(visits())
@settings(max_examples=300, deadline=None)
def test_one_shot_serving_matches_the_event_at_a_time_loop(case):
    computation, registry, process, feed, terminated, entry, known = case
    automaton = _random_automaton(registry.names, inconclusive=2, seed=0)
    monitor = _monitor(process, computation, registry, automaton, True, feed=feed)
    monitor.local_terminated = terminated
    expected = copy.deepcopy(entry)
    was_pending = process in expected.lagging_processes()
    scanned = _serve_one_event_at_a_time(monitor, expected)
    assert monitor._serve_entry(entry) == was_pending
    assert entry == expected  # dataclass equality: every field
    # the events the loop scanned leave on the token, once, minus what the
    # parent knew
    token = Token((process + 1) % len(known), 0, 0, entries=[entry], known=known)
    monitor._extend_run(token)
    shipped = [event for event in scanned if event[0] > known[process]]
    letters, vcs = token.runs.get(process, ([], []))
    first = known[process] + 1
    assert list(zip(range(first, first + len(vcs)), letters, vcs)) == shipped
    assert monitor.metrics.events_shipped == len(shipped)
