"""A view step pays only for the guards that can still fire, and each layer
of the step equals its reference on the grid.

The step ``_explore_outgoing → Tokens.issue → ViewSet.forks → Box.reachable
/ Box.search`` runs on target cuts, skips the guards a view holds dead
(``GlobalView.dead``) without a lookup, and sets a box search up from the
join: only for what its union moves, and not at all when it moves one
process or none.  Each layer it passes through is compared with the one
reference of that layer kept in ``tests/core/references.py``:

* **box** — the lane BFS for every union that moves a process;
* **tokens** — a token layer that remembers no least cut and lets no
  parked token sleep;
* **serving** — the slicer's least cut, for every entry served.

* **Exact.**  Every ``MonitorMetrics`` counter (less the two memory counters
  against the token reference), each verdict log and declared bitset, and
  the messages are the reference's — and every entry served is where the
  slicer puts it — on properties A–F, n ∈ {3, 4}, 6 and 20 events per
  process, seeds 2015 and 7, view budget 2 and none; on ``box-heavy``'s
  three traces; on F n=5 epp=6 (it declares nothing); and, with settling
  switched off, on cells whose every view searches to the end.
* **Dead guards.**  While ``least`` holds the answer that killed a guard for
  a view, neither the view nor its forks look the guard up again; a walk of
  another view that overwrites that answer revives it, where a lookup would
  have missed; a repair is never marked dead.
"""

from operator import le

import pytest
from references import lane_searches, reference_tokens, sliced_serving, without_memories
from test_parked_tokens import _cell, _observed
from test_search_memory import _guard_bits, _holding_everything, _rises_late
from test_serve_from_columns import _never_settle, _paper_cell, _simulate
from test_step_search import _satisfies

from repro.core.box import states_of
from repro.core.global_view import GlobalView, ViewSet
from repro.core.tokens import Tokens
from repro.faults import ClockSkewSpec, FaultPlan

# ---------------------------------------------------------------------------
# each layer against its reference
# ---------------------------------------------------------------------------
def _compared(monkeypatch, cell, settle, install):
    """``run()`` as the monitor is and with the reference *install* puts in
    place; with *settle* false, settling is switched off in both."""
    run, observed = _cell(*cell), []
    for reference in (False, True):
        with monkeypatch.context() as patched:
            if reference:
                install(patched)
            if not settle:
                _never_settle(patched)
            observed.append(_observed(run(), slept=True))
    if install is reference_tokens:
        return list(map(without_memories, observed))
    return observed


def _served(monkeypatch, cell, settle):
    """Whether every entry a run of *cell* serves is where the slicer puts it."""
    computation, automaton, registry = _paper_cell(*cell[:4])
    missed = []
    with monkeypatch.context() as patched:
        sliced_serving(patched, computation, registry, automaton.compiled.atoms, missed)
        if not settle:
            _never_settle(patched)
        _cell(*cell)()
    return missed


#: the references, by layer: a layer put in place whole, or a check of every serve
REFERENCES = {"box": lane_searches, "tokens": reference_tokens, "serving": None}


def differing_cells(cells, settle=True, reference="box"):
    """The *cells* whose run differs from the one under *reference* (a key of
    ``REFERENCES``) in anything shown, or serves an entry the slicer does not."""
    install = REFERENCES[reference]
    with pytest.MonkeyPatch.context() as monkeypatch:
        if install is None:
            return [cell for cell in cells if _served(monkeypatch, cell, settle)]
        observed = {cell: _compared(monkeypatch, cell, settle, install) for cell in cells}
    return [cell for cell, (lean, expected) in observed.items() if lean != expected]


#: (property, processes, events per process, seed, view budget)
GRID = [
    (p, n, epp, seed, budget)
    for p in "ABCDEF"
    for n in (3, 4)
    for epp in (6, 20)
    for seed in (2015, 7)
    for budget in (2, None)
]
#: box-heavy's three traces, and F n=5 epp=6, which declares nothing
WORKLOAD_CELLS = [
    ("F", 4, 4, 2015, 2), ("F", 4, 4, 2046, 2), ("F", 4, 5, 2015, 2), ("F", 5, 6, 2015, 2),
]


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("property_name", "ABCDEF")
def test_each_layer_equals_its_reference_on_the_grid(property_name, reference):
    cells = [cell for cell in GRID if cell[0] == property_name]
    assert differing_cells(cells, reference=reference) == []


@pytest.mark.parametrize("reference", REFERENCES)
def test_each_layer_equals_its_reference_on_the_workload_cells(reference):
    assert differing_cells(WORKLOAD_CELLS, reference=reference) == []


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize(
    "cell", [("C", 4, 20, 7, 2), ("F", 4, 6, 7, 2), ("F", 4, 20, 2015, None), ("D", 3, 20, 7, 2)],
    ids=lambda c: f"{c[0]}-n{c[1]}-epp{c[2]}-s{c[3]}-b{c[4]}",
)
def test_each_layer_equals_its_reference_when_no_monitor_settles(cell, reference):
    assert differing_cells([cell], settle=False, reference=reference) == []


# ---------------------------------------------------------------------------
# dead guards
# ---------------------------------------------------------------------------
class _Recording(dict):
    """A ``Tokens.least`` that records every key looked up."""

    def __init__(self, looked):
        super().__init__()
        self.looked = looked

    def get(self, key, default=None):
        self.looked.append(key)
        return super().get(key, default)


def _watch_dead_guards(patched, seen):
    """Check, at every issue, that each guard a view holds dead is what
    ``Tokens.least`` says and is not looked up; forks inherit the dead guards, and
    the repair row's id is never among them.  *seen* counts searches, those
    skipped as dead, and repairs."""
    init, issue, fork = Tokens.__init__, Tokens.issue, ViewSet.fork

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.least = _Recording([])
        rows = self.views.box.rows
        self.bits_of = {guard: bits for row in rows for _, bits, guard in row}
        self.repair = sum(map(len, rows))  # the repair row's guard id

    def checked_issue(self, view, searches):
        dead, repair = view.dead, self.repair
        for guard in states_of(dead):  # the set bits, by guard id
            floor, answer = dict.get(self.least, self.bits_of[guard])
            assert answer is None and all(map(le, floor, view.cut))
        del self.least.looked[:]
        answered = issue(self, view, searches)
        dead_bits = [self.bits_of[guard] for guard in states_of(dead)]
        assert not [bits for bits in self.least.looked if bits in dead_bits]
        seen["searches"] += len(searches)
        seen["skipped"] += sum(dead >> row[3] & 1 for row, _, _ in searches)
        seen["repairs"] += sum(row[0] is None for row, _, _ in searches)
        assert not (dead | view.dead) >> repair & 1
        return answered

    def inheriting_fork(self, view, cut, reached, repair):
        children = fork(self, view, cut, reached, repair)
        assert all(child.dead == view.dead for child in children)
        return children

    patched.setattr(Tokens, "__init__", recording_init)
    patched.setattr(Tokens, "issue", checked_issue)
    patched.setattr(ViewSet, "fork", inheriting_fork)


def test_a_dead_guard_is_not_looked_up_again_by_its_view_or_its_forks(monkeypatch):
    seen = dict.fromkeys(("searches", "skipped", "repairs"), 0)
    with monkeypatch.context() as patched:
        _watch_dead_guards(patched, seen)
        report = _cell("F", 5, 6, 2015, 2)()  # declares nothing: every view searches on
    assert report.declared_verdicts == frozenset()
    # most searches of a view that never settles are of guards it holds dead
    assert seen["searches"] // 2 < seen["skipped"] <= report.metrics.least_cuts_remembered


def test_a_repair_is_never_marked_dead(monkeypatch):
    seen = dict.fromkeys(("searches", "skipped", "repairs"), 0)
    skewed = FaultPlan(clock_skew=ClockSkewSpec(mode="sound", rate=1.0, magnitude=2, seed=77))
    with monkeypatch.context() as patched:
        _watch_dead_guards(patched, seen)
        report = _simulate(_paper_cell("C", 4, 8, 77), 77, faults=skewed)
    assert seen["repairs"] > 0 and report.metrics.answered_at_home > 0


# ---------------------------------------------------------------------------
# a walk of another view revives a dead guard, exactly where a lookup
# would miss
# ---------------------------------------------------------------------------
def _searches_in_turn(views, script):
    """Monitor 0 of ``_rises_late`` (P1 raises ``p`` at its third event, drops
    it at its fourth) holds everything and the live *views*, given as cuts;
    per ``(view, bump)`` of *script* that view searches ``P1.p`` from its cut,
    raised by one event of P1 if *bump* (a floor above the cut, as a search
    after the own process ended has).  Returns per search what it did to
    ``least_cuts_remembered``, ``least`` after it, the keys looked up, and
    the view's dead guards."""
    computation, registry = _rises_late()
    monitor = _holding_everything(computation, registry, 0)
    guard = {"P1.p": True}
    bits = _guard_bits(monitor, guard)
    monitor.tokens.least = _Recording([])
    views = [GlobalView(cut=list(cut), state=0) for cut in views]
    monitor.views += views
    steps = []
    for index, bump in script:
        view = views[index]
        before = monitor.metrics.least_cuts_remembered
        del monitor.tokens.least.looked[:]
        states = [computation.local_state(j, at) for j, at in enumerate(view.cut)]
        letters = [registry.local_letter(j, state) for j, state in enumerate(states)]
        satisfied = list(map(_satisfies, letters, registry.conjuncts_by_process(guard, 2)))
        floor = [view.cut[0], view.cut[1] + 1] if bump else view.cut
        search = ((7_000, bits, (1,), 0), satisfied, floor)
        monitor._issue(view, [search], monitor.columns.mask_at(view.cut))
        steps.append((
            monitor.metrics.least_cuts_remembered - before,
            dict(monitor.tokens.least),
            len(monitor.tokens.least.looked),
            view.dead,
        ))  # fmt: skip
    return steps


def test_a_walk_of_another_view_revives_a_dead_guard_where_the_lookup_would_miss():
    # view W at [2, 4] searches twice, view V at [3, 0] once, then W again
    views, script = ([2, 4], [3, 0]), [(0, False), (0, False), (1, False), (0, False)]
    lean = _searches_in_turn(views, script)
    bits = next(iter(lean[0][1]))
    # W walks and finds none: dead for W; W again: remembered, not looked up
    assert lean[0][:2] == (0, {bits: ((2, 4), None)}) and lean[0][3] == 1
    assert lean[1] == (1, {bits: ((2, 4), None)}, 0, 1)
    # V's walk finds (3, 3) above [3, 0]: W's guard is alive again
    assert lean[2][:2] == (0, {bits: ((3, 0), (3, 3))})
    # W looks it up, misses, walks and kills it again
    assert lean[3] == (0, {bits: ((2, 4), None)}, 1, 1)


def test_none_above_a_floor_over_the_views_cut_leaves_the_guard_alive():
    # W at [2, 3] holds p; above [2, 4] there is none, at [2, 3] there is one:
    # neither the walk nor the remembered answer from [2, 4] kills the guard
    views, script = ([2, 3],), [(0, True), (0, True), (0, False), (0, False)]
    lean = _searches_in_turn(views, script)
    bits = next(iter(lean[0][1]))
    assert lean[0] == (0, {bits: ((2, 4), None)}, 1, 0)
    assert lean[1] == (1, {bits: ((2, 4), None)}, 1, 0)
    assert lean[2] == (0, {bits: ((2, 3), (2, 3))}, 1, 0)  # walked: found at the cut
    assert lean[3] == (1, {bits: ((2, 3), (2, 3))}, 1, 0)  # then remembered
