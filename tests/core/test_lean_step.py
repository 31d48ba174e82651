"""Each layer of a view step equals its reference on the grid.

The step ``_explore_outgoing → Tokens.issue → ViewSet.forks → Box.reachable
/ Box.search`` runs on target cuts and sets a box search up from the join:
only for what its union moves, and not at all when it moves one process or
none.  Each layer it passes through is compared with the one reference of
that layer kept in ``tests/core/references.py``:

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
* **One least cut per guard, for every view.**  A walk of another view
  overwrites the answer a view would look up; the view then misses and walks.
"""

import pytest
from references import lane_searches, reference_tokens, sliced_serving, without_memories
from test_parked_tokens import _cell, _observed
from test_search_memory import _guard_bits, _holding_everything, _rises_late
from test_serve_from_columns import _never_settle, _paper_cell
from test_step_search import _satisfies

from repro.core.global_view import GlobalView

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
# a walk of another view overwrites the least cut a view would look up
# ---------------------------------------------------------------------------
def _searches_in_turn(views, script):
    """Monitor 0 of ``_rises_late`` (P1 raises ``p`` at its third event, drops
    it at its fourth) holds everything and the live *views*, given as cuts;
    per ``(view, bump)`` of *script* that view searches ``P1.p`` from its cut,
    raised by one event of P1 if *bump* (a floor above the cut, as a search
    after the own process ended has).  Returns per search what it did to
    ``least_cuts_remembered``, and ``least`` after it."""
    computation, registry = _rises_late()
    monitor = _holding_everything(computation, registry, 0)
    guard = {"P1.p": True}
    bits = _guard_bits(monitor, guard)
    views = [GlobalView(cut=list(cut), state=0) for cut in views]
    monitor.views += views
    steps = []
    for index, bump in script:
        view = views[index]
        before = monitor.metrics.least_cuts_remembered
        states = [computation.local_state(j, at) for j, at in enumerate(view.cut)]
        letters = [registry.local_letter(j, state) for j, state in enumerate(states)]
        satisfied = list(map(_satisfies, letters, registry.conjuncts_by_process(guard, 2)))
        floor = [view.cut[0], view.cut[1] + 1] if bump else view.cut
        search = ((7_000, bits, (1,)), satisfied, floor)
        monitor._issue(view, [search], monitor.columns.mask_at(view.cut))
        steps.append(
            (monitor.metrics.least_cuts_remembered - before, dict(monitor.tokens.least))
        )
    return steps


def test_a_walk_of_another_view_overwrites_what_a_view_would_look_up():
    # view W at [2, 4] searches twice, view V at [3, 0] once, then W again
    views, script = ([2, 4], [3, 0]), [(0, False), (0, False), (1, False), (0, False)]
    lean = _searches_in_turn(views, script)
    bits = next(iter(lean[0][1]))
    # W walks and finds none; W again: remembered
    assert lean[0] == (0, {bits: ((2, 4), None)})
    assert lean[1] == (1, {bits: ((2, 4), None)})
    # V's walk finds (3, 3) above [3, 0]
    assert lean[2] == (0, {bits: ((3, 0), (3, 3))})
    # W's floor is not above V's: it misses, walks and finds none again
    assert lean[3] == (0, {bits: ((2, 4), None)})


def test_none_above_a_floor_over_the_views_cut_is_not_none_at_the_cut():
    # W at [2, 3] holds p; above [2, 4] there is none, at [2, 3] there is one:
    # the answer remembered from [2, 4] does not answer a search from [2, 3]
    views, script = ([2, 3],), [(0, True), (0, True), (0, False), (0, False)]
    lean = _searches_in_turn(views, script)
    bits = next(iter(lean[0][1]))
    assert lean[0] == (0, {bits: ((2, 4), None)})
    assert lean[1] == (1, {bits: ((2, 4), None)})
    assert lean[2] == (0, {bits: ((2, 3), (2, 3))})  # walked: found at the cut
    assert lean[3] == (1, {bits: ((2, 3), (2, 3))})  # then remembered
