"""The kernel hot paths of the LTL monitoring stack, checked at full size.

These are the paths the whole-run benchmark of ``perf/`` times; here each
one runs once on a representative input and its result is checked:

* ``build_progression_machine`` — the full case-study automaton sweep
  (properties A–F at 2–5 processes).
* ``run_monitoring_experiment`` — one representative simulated monitoring
  point (property C, 4 processes) at the default :class:`ExperimentScale`.
* the compiled step — the per-event inner loop as the monitors execute it
  (OR the cached bitmasks of the per-process letters, step the table of
  :mod:`repro.ltl.compiled`), against stepping the encoded unions.
* the box search — box reachability over a fully concurrent box, as hit by
  token returns: every event its own cell (the search's worst case), and
  the same box with 85 % of the events repeating their process's letter.
  The target's letter decides neither, so both search, and the number of
  cells each visits is checked.
* ``serve_entry`` — token serving: one entry scanning a 2 000-event local
  history and the token leaving with those events as its run.
* one full sweep cell of the monitored workload.
"""

import os
import random

from conftest import BENCH_SCALE
from repro.core.global_view import GlobalView
from repro.core.messages import Token, TokenEntry
from repro.core.monitor import DecentralizedMonitor
from repro.distributed.clocks import VectorClock
from repro.distributed.events import Event, EventKind
from repro.experiments import DEFAULT_SCALE, run_monitoring_experiment
from repro.experiments.engine import run_scenario_cell
from repro.experiments.properties import (
    PROPERTY_NAMES,
    case_study_monitor,
    case_study_registry,
    property_formula,
)
from repro.ltl import parse
from repro.ltl.progression import build_progression_machine
from repro.scenarios import GridPoint, ReliableNetwork, get_scenario
from repro.sim import SimulatedNetwork, Simulator

_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))


def test_build_progression_machine_sweep():
    machines = [
        build_progression_machine(parse(property_formula(name, n)))[0]
        for name in PROPERTY_NAMES
        for n in (2, 3, 4, 5)
    ]
    assert len(machines) == len(PROPERTY_NAMES) * 4
    # every machine is non-trivial and fully defined over its alphabet
    for machine in machines:
        assert machine.num_states >= 2
        assert len(machine.table) == machine.num_states * machine.n_letters


def test_run_monitoring_experiment_default_scale():
    row = run_monitoring_experiment("C", 4, scale=DEFAULT_SCALE)
    assert row["property"] == "C"
    assert row["processes"] == 4
    assert row["events"] > 0
    assert row["messages"] > 0


def _per_process_letters(num_processes, num_events, seed=2015):
    """Random per-process letters over the case-study propositions."""
    rng = random.Random(seed)
    columns = []
    for j in range(num_processes):
        atoms = (f"P{j}.p", f"P{j}.q")
        columns.append(
            [
                frozenset(a for a in atoms if rng.random() < 0.5)
                for _ in range(num_events)
            ]
        )
    return columns


def test_compiled_step_throughput():
    """The single-monitor inner loop: combine per-process letters, step.

    What a monitor does per event — one mask per per-process letter, an
    integer OR — followed by the table walk of
    ``run_batch``; stepping the frozenset unions of the letters, each
    encoded on its own, is the reference.
    """
    num_events = 20_000 if _SMOKE else 200_000
    automaton = case_study_monitor("C", 3)
    compiled = automaton.compiled
    columns = _per_process_letters(3, num_events)
    # a monitor reads an own event's mask straight off the atoms its process
    # owns (DecentralizedMonitor.local_event); a dict of masks stands in here
    mask_of = {letter: compiled.encode(letter) for column in columns for letter in column}

    masks = [mask_of[a] | mask_of[b] | mask_of[c] for a, b, c in zip(*columns)]
    state, _ = compiled.run_batch(compiled.initial, masks)
    assert state == automaton.run([frozenset().union(*letters) for letters in zip(*columns)])


def _network():
    """Links that deliver at once; what is sent waits until the simulator runs."""
    return SimulatedNetwork(Simulator(), ReliableNetwork(latency=0.0, jitter=0.0).delay_model(0))


def _box_monitor(automaton, registry, n, holds=False):
    """Monitor of process 0 whose box search the ``box_bfs_*`` tests run;
    *holds*: every atom of the initial state is true, else false."""
    monitor = DecentralizedMonitor(
        process=0,
        num_processes=n,
        automaton=automaton,
        registry=registry,
        initial_letters=[registry.local_letter(j, {"p": holds, "q": holds}) for j in range(n)],
        transport=_network(),
    )
    monitor._started = True  # reads its events only: explores nothing, sends nothing
    monitor.views.clear()
    return monitor


def _fully_concurrent_box(monitor, automaton, registry, side, stutter=0.0):
    """A view plus token entry spanning a fully concurrent ``side``³ box.

    The box's events are put in *monitor*'s columns the way a run puts them
    there: its own read as local events, the others' absorbed from the runs
    of the returning token.  With *stutter* that share of the events repeat
    the letter before them and the view's state has read the letter of its
    cut, as in a run (a monitor built with ``holds``, or that state is ⊥);
    without, the view sits at the automaton's initial state, which has not,
    so the search may collapse nothing.  Every atom holds at the target: that
    letter sends the view's states to two states, so the answer is not known
    before the search.
    """
    n = monitor.num_processes
    compiled = automaton.compiled
    # the initial letters, as the automaton reads them
    initial_letters = [compiled.decode(column[0]) for column in monitor.columns.masks]
    state = automaton.initial_state
    if stutter:
        state = automaton.step(state, frozenset().union(*initial_letters))
    view = GlobalView(cut=[0] * n, state=state)
    entry = TokenEntry(
        transition_id=0,
        bits=((0, 0),) * n,
        start_cut=[0] * n,
        cut=[side] * n,
        depend=[0] * n,
        min_positions=[0] * n,
        satisfied=[True] * n,
        eval=True,
    )
    columns = _per_process_letters(n, side, seed=7)
    rng = random.Random(11)  # not the letters' own seed: its draws would line up with theirs
    for column, previous in zip(columns, initial_letters):
        for sn, letter in enumerate(column):
            if rng.random() < stutter:
                column[sn] = previous
            previous = column[sn]
    for j, column in enumerate(columns):
        column[-1] = frozenset({f"P{j}.p", f"P{j}.q"})
    clocks = [
        [tuple(sn if k == j else 0 for k in range(n)) for sn in range(1, side + 1)]
        for j in range(n)
    ]
    mine = monitor.process
    for sn, (letter, clock) in enumerate(zip(columns[mine], clocks[mine]), start=1):
        state = {"p": f"P{mine}.p" in letter, "q": f"P{mine}.q" in letter}
        monitor.local_event(Event(mine, sn, EventKind.INTERNAL, VectorClock(clock), state))
    runs = {j: (list(map(compiled.encode, columns[j])), clocks[j]) for j in range(n) if j != mine}
    monitor.columns.absorb_runs(Token(mine, entries=[entry], known=[0] * n, runs=runs))
    return view, entry


def test_box_bfs_events_per_sec():
    """Box reachability (the token-return hot path) at its worst case.

    A fully concurrent box maximises the consistent cells the BFS must
    expand: every one of them is visited, none is collapsed by a letter.
    """
    side = 8 if _SMOKE else 16
    iterations = 2 if _SMOKE else 3
    n = 3
    cells = (side + 1) ** n
    automaton = case_study_monitor("C", n)
    registry = case_study_registry(n)
    monitor = _box_monitor(automaton, registry, n)
    view, entry = _fully_concurrent_box(monitor, automaton, registry, side)
    for _ in range(iterations):
        monitor.box.reachable(view, [tuple(entry.cut)], monitor.columns.mask_at(view.cut))
    # the worst case: nothing collapsed, every cut of the box searched
    assert monitor.metrics.boxes_by_letter == 0
    assert monitor.metrics.box_cells_visited == cells * iterations


def test_box_bfs_stuttering_events_per_sec():
    """The same box as a run fills it: 85 % of the events keep their letter.

    The search visits one cell per tuple of letter runs: ``cells_searched``
    is what it visited to cover the box's ``cells``.
    """
    side = 8 if _SMOKE else 16
    iterations = 20 if _SMOKE else 200
    n = 3
    cells = (side + 1) ** n
    automaton = case_study_monitor("C", n)
    registry = case_study_registry(n)
    monitor = _box_monitor(automaton, registry, n, holds=True)
    view, entry = _fully_concurrent_box(monitor, automaton, registry, side, stutter=0.85)
    for _ in range(iterations):
        monitor.box.reachable(view, [tuple(entry.cut)], monitor.columns.mask_at(view.cut))
    searched = monitor.metrics.box_cells_visited
    assert monitor.metrics.boxes_by_letter == 0
    assert iterations < searched < cells * iterations // 10


def test_serve_entry_events_per_sec():
    """Token serving in isolation: one entry scanning a whole local history.

    The entry must reach the end of a 2 000-event history (a repair-style
    position bound, no conjunct) on a token whose parent holds none of it,
    so one ``Columns.serve_entry`` call scans every event and the token leaves with
    all of them as its run.
    """
    history = 2_000
    iterations = 5 if _SMOKE else 50
    n = 3
    automaton = case_study_monitor("C", n)
    registry = case_study_registry(n)
    monitor = DecentralizedMonitor(
        process=0,
        num_processes=n,
        automaton=automaton,
        registry=registry,
        initial_letters=[registry.local_letter(j, {}) for j in range(n)],
        transport=_network(),
    )
    rng = random.Random(11)
    for sn in range(1, history + 1):
        state = {"p": rng.random() < 0.5, "q": rng.random() < 0.5}
        clock = VectorClock((sn, sn // 3, sn // 7))
        monitor.local_event(Event(0, sn, EventKind.INTERNAL, clock, state))
    tokens = [
        Token(
            parent_process=1,
            entries=[
                TokenEntry(
                    transition_id=None,
                    bits=((0, 0),) * n,
                    start_cut=[0] * n,
                    cut=[0] * n,
                    depend=[0] * n,
                    min_positions=[history, 0, 0],
                    satisfied=[True] * n,
                )
            ],
            known=[0] * n,
        )
        for _ in range(iterations)
    ]
    ends = monitor.columns.live_ends()
    for token in tokens:
        monitor.columns.serve_entry(token.entries[0], ends)
        monitor.columns.extend_run(token)
    for token in tokens:
        (entry,) = token.entries
        assert entry.cut == [history, 0, 0]
        assert len(token.runs[0][1]) == history
        assert entry.depend == [history, history // 3, history // 7]


def test_monitoring_end_to_end():
    """One full sweep cell at the suite's scale."""
    cell = run_scenario_cell(
        get_scenario("paper-default"), GridPoint("C", 3), BENCH_SCALE, seed=2015
    )
    assert cell["events"] > 0 and cell["messages"] > 0
