"""A view step pays only for the guards that can still fire.

The step pipeline ``_explore_outgoing → _issue_token → _forks_of →
_box_reachable / _box_search`` runs on target cuts, skips the guards a view
holds dead (``GlobalView.dead``) without a lookup, and sets a box search up
from the join: only for what its union moves, and not at all when it moves
one process or none.  The references kept here are the pipeline as it was —
``_reference_issue_token``, ``_reference_forks_of``,
``_reference_box_reachable``, ``_reference_fork_from_entry``,
``_reference_token_returned`` and ``_reference_serve_entries``: every search
built into a ``TokenEntry``, every remembered answer looked up in ``_least``,
decided entries filtered for staleness at home too, the lagging set computed
after the walk — and ``_reference_box_search``, the box search that ran the
lane BFS for every union that moves a process.  A run is compared against
the whole reference pipeline, and against the monitor with only its box
search swapped for the reference's.

* **Exact.**  Every ``MonitorMetrics`` counter, each verdict log and declared
  bitset, and the messages are the reference's on properties A–F, n ∈ {3, 4},
  6 and 20 events per process, seeds 2015 and 7, view budget 2 and none; on
  ``box-heavy``'s three traces; on F n=5 epp=6 (it declares nothing); and, with
  settling switched off, on cells whose every view searches to the end.
* **Dead guards.**  While ``_least`` holds the answer that killed a guard for
  a view, neither the view nor its forks look the guard up again; a walk of
  another view that overwrites that answer revives it, as the lookup of the
  reference would have missed; a repair is never marked dead.
"""

from bisect import bisect_right
from operator import le, mul, sub

import pytest
from test_parked_tokens import _cell, _observed
from test_search_memory import _guard_bits, _holding_everything, _rises_late
from test_serve_from_columns import _never_settle, _paper_cell, _simulate
from test_step_search import _satisfies
from test_token_hot_paths import _lagging

from repro.core.global_view import GlobalView, ViewStatus
from repro.core.messages import Token
from repro.core.monitor import DecentralizedMonitor, _states_of
from repro.faults import ClockSkewSpec, FaultPlan

# ---------------------------------------------------------------------------
# the references: the step pipeline as it was
# ---------------------------------------------------------------------------


def _reference_serve_entry(self, entry, ends):
    cut, depend, floor = entry.cut, entry.depend, entry.min_positions
    bits, satisfied = entry.bits, entry.satisfied
    moved = True
    while moved and entry.eval is None:
        moved = False
        for j in self._serve_order:
            at = cut[j]
            if at == ends[j]:
                continue
            care, want = bits[j]
            if at < depend[j] or at < floor[j] or (care and not satisfied[j]):
                self._serve_component(entry, j, care, want)
                moved = moved or cut[j] > at


def _reference_serve_entries(self, entries):
    pending = []
    ended = {k for k, final in self.terminated.items() if final is not None} - {self.process}
    ends = self._live_ends()
    for entry in entries:
        entry.waiting_for -= ended
        _reference_serve_entry(self, entry, ends)
        if entry.eval is None:
            lagging = _lagging(entry)
            if lagging:
                pending.append((entry, lagging))
            else:
                entry.eval = True
    return pending


def _reference_issue_token(self, view, searches):
    self.metrics.entries_created += len(searches)
    least = self._least
    entries, hits, walked = [], [], []
    for row, satisfied, floor in searches:
        known = None if row[0] is None else least.get(row[1])
        if known and all(map(le, known[0], floor)) and (
            known[1] is None or all(map(le, floor, known[1]))
        ):
            hits.append((len(entries), known[1]))
            entries.append(None)
        else:
            walked.append(self._make_entry(view, row, satisfied, floor))
            entries.append(walked[-1])
    pending = _reference_serve_entries(self, walked)
    for entry in walked:
        if entry.eval is not None and not entry.is_repair:
            least[entry.bits] = (
                tuple(entry.min_positions), tuple(entry.cut) if entry.eval else None
            )
    if pending and hits:
        for at, _ in hits:
            entries[at] = self._make_entry(view, *searches[at])
        pending += _reference_serve_entries(self, [entries[at] for at, _ in hits])
    else:
        self.metrics.least_cuts_remembered += len(hits)
        for at, target in hits:
            if target is not None:
                entry = entries[at] = self._make_entry(view, *searches[at])
                entry.eval = True
                entry.cut[:] = target
    built = [entry for entry in entries if entry is not None]
    if not pending:
        self.metrics.answered_at_home += 1
        return _reference_forks_of(self, view, built)
    token = Token(
        parent_process=self.process,
        entries=built,
        known=[len(column) - 1 for column in self.vc_columns],
    )
    self.metrics.tokens_created += 1
    view.status = ViewStatus.WAITING
    view.outstanding_token = token.token_id
    self._outstanding[token.token_id] = view
    self._route_token(token, pending)
    return ()


def _reference_token_returned(self, token):
    self.metrics.token_hops_max = max(self.metrics.token_hops_max, token.hops)
    view = self._outstanding.pop(token.token_id, None)
    if view is None:
        self.metrics.orphan_tokens_swallowed += 1
        return
    view.status = ViewStatus.UNBLOCKED
    view.outstanding_token = None
    self._advance_views((*_reference_forks_of(self, view, token.entries), view))
    self._merge_views()


def _reference_forks_of(self, view, entries):
    repair = any(entry.is_repair for entry in entries)
    if repair:
        self._retire(view)
    held = [len(column) for column in self.vc_columns]
    decided = [
        (entry, (view.state, tuple(entry.cut)))
        for entry in entries
        if entry.eval is True
        and all(b <= at < h for b, at, h in zip(view.cut, entry.cut, held))
    ]
    last, born = {} if repair else view.searched, self._born
    view.searched = {}
    pivots = ~(self._final_bits | 1 << view.state)
    fresh = []
    for entry, mark in decided:
        found = last.get(mark)
        if found is None or not all((s, mark[1]) in born for s in _states_of(found & pivots)):
            fresh.append(entry)
        else:
            view.searched[mark] = found
    self.metrics.boxes_remembered += len(decided) - len(fresh)
    forked = []
    for entry, reached in zip(fresh, _reference_box_reachable(self, view, fresh) if fresh else ()):
        forked.extend(_reference_fork_from_entry(self, view, entry, reached))
    return forked


def _reference_fork_from_entry(self, view, entry, reached):
    children = []
    for state in _states_of(reached & ~self._final_bits):
        if state == view.state and not entry.is_repair:
            continue
        if self._covered_by_existing_view(state, tuple(entry.cut)):
            self.metrics.views_merged += 1
            continue
        child = GlobalView(cut=list(entry.cut), state=state)
        self.metrics.views_created += 1
        self._born |= child.born
        self.views.append(child)
        children.append(child)
    self.metrics.max_active_views = max(self.metrics.max_active_views, len(self.views))
    return children


def _reference_box_reachable(self, view, entries):
    cuts = [tuple(entry.cut) for entry in entries]
    self.metrics.box_queries += len(entries)
    base, vc_columns = view.cut, self.vc_columns
    reach = self._reach[view.state]
    others = reach & self._final_bits
    shift, image = self._num_states, self._image_cache
    reached = [0] * len(entries)
    for e, entry in enumerate(entries):
        cut = entry.cut
        key = self._mask_at(cut) << shift | reach
        one = image.get(key) or self._image(key)
        if (
            one & (one - 1) == 0
            and not others & ~one
            and cut != base
            and all(all(map(le, vc_columns[j][at], cut)) for j, at in enumerate(cut))
        ):
            self._declare_reached(one)
            reached[e] = view.searched[view.state, tuple(cut)] = one
    if not any(reached):
        return _reference_box_search(self, view, cuts)
    searched = [cut for cut, one in zip(cuts, reached) if not one]
    self.metrics.boxes_by_letter += len(entries) - len(searched)
    found = iter(_reference_box_search(self, view, searched) if searched else ())
    return [one or next(found) for one in reached]


def _reference_box_search(self, view, cuts):
    """``_box_search`` as it was when every union that moves a process ran
    the lane BFS: cells, a target map, lanes, strides, ``fits`` and
    ``goals`` set up even when one process moves and the cells are a line."""
    n, base, columns = self.num_processes, view.cut, self.mask_columns
    shift, image = self._num_states, self._image_cache
    start = 1 << view.state
    hi = list(map(max, base, *cuts))  # the join searched
    same, collapse, first = hi == base, False, base  # same: every target in the view's cell
    if not same and self.automaton.stutter_closed:
        key = self._mask_at(base) << shift | start
        collapse = (image.get(key) or self._image(key)) == start
    if collapse:  # cells count segments past the view's, off the index; else events
        index = self.seg_starts
        first = list(map(bisect_right, index, base))
        same = list(map(bisect_right, index, hi)) == first
    if same:  # the search would stop at level 0
        self.metrics.box_cells_visited += 1
        for cut in cuts:
            view.searched[view.state, cut] = start
        return [start] * len(cuts)
    cells = [map(bisect_right, index, cut) if collapse else cut for cut in cuts]
    cells = [tuple(map(sub, cell, first)) for cell in cells]
    targets = {}  # target cell -> its targets
    for e, cell in enumerate(cells):
        targets.setdefault(cell, []).append(e)
    ranges = [max(column) for column in zip(*targets)]
    active = [j for j in range(n) if ranges[j]]  # the processes the union moves

    # per process moved (a *lane* a): the positions of the events that
    # open segments 1, 2, … of the union, and per segment its letter mask
    # and its last position — maybe beyond a target in it, but an opener
    # at or below a target is inside that consistent cut.  A process not
    # moved has one segment, ending at the join.  A cell is a mixed-radix
    # integer (advancing process j adds strides[j]); a set of automaton
    # states, or of targets, is a bitmask.  fits[g] of a lane: the targets
    # whose cell reaches its segment g — a successor is kept only below
    # some target, or the union could outgrow the boxes it joins; needs[g],
    # filled when first asked for: what the opener of its segment g + 1
    # requires of the others, as (lane, least position) pairs.
    m = len(active)
    lane_of, strides = [m] * n, [0] * n  # lane m: those not moved
    fixed, stride, lanes, seg_masks, seg_ends = 0, 1, [], [], []
    for j, r in enumerate(ranges):
        b = base[j]
        if not r:
            fixed |= columns[j][b]  # the letter of those not moved
            continue
        opens = index[j][first[j] : first[j] + r] if collapse else range(b + 1, b + r + 1)
        seg_masks.append([columns[j][b], *[columns[j][o] for o in opens]])
        seg_ends.append([*[o - 1 for o in opens], hi[j]])
        lane_of[j] = a = len(lanes)
        lanes.append((a, j, stride, [0] * (r + 2), [None] * r, opens))
        strides[j], stride = stride, stride * (r + 1)
    seg_ends.append([-1])  # what is asked of lane m beyond the join never fits
    goals = {}  # target cell, as an integer -> its slot
    for bit, cell in enumerate(targets):
        goals[sum(map(mul, cell, strides))] = None
        for _, j, _, fit, _, _ in lanes:
            for g in range(1, cell[j] + 1):
                fit[g] |= 1 << bit
    vc_columns = self.vc_columns

    # Level-synchronous BFS over the *inhabited* cells — those holding a
    # consistent cut (all predecessors of a cell sit exactly one level
    # below it, so each level is complete before it is expanded).  A slot
    # is [state bits, segment index per lane, letter mask << shift,
    # targets above].
    visited = 1
    current = {0: [start, [0] * (m + 1), 0, (1 << len(targets)) - 1]}
    if 0 in goals:
        goals[0] = current[0]
    while current:
        nxt = {}
        for cell, (states, segments, _, below) in current.items():
            for a, j, stride, fit, need_of, opened in lanes:
                gj = segments[a]
                under = below & fit[gj + 1]
                if not under:
                    continue
                succ = cell + stride
                slot = nxt.get(succ)
                if slot is None:
                    # the predecessor is inhabited, so the successor is
                    # iff the clock of the one event that opens the new
                    # segment fits inside the cell: each process it needs
                    # can get there before its segment ends (a plain loop:
                    # any() over a generator costs a third of the search)
                    need = need_of[gj]
                    if need is None:
                        need = need_of[gj] = [
                            (lane_of[k], least)
                            for k, least in enumerate(vc_columns[j][opened[gj]])
                            if k != j and least > (base[k] if lane_of[k] < m else hi[k])
                        ]
                    for k, least in need:
                        if seg_ends[k][segments[k]] < least:
                            break
                    else:
                        at = segments.copy()
                        at[a] = gj + 1
                        mask = fixed
                        for masks, g in zip(seg_masks, at):
                            mask |= masks[g]
                        slot = nxt[succ] = [0, at, mask << shift, under]
                        if succ in goals:
                            goals[succ] = slot
                if slot is not None:
                    key = slot[2] | states
                    slot[0] |= image.get(key) or self._image(key)
        level = 0
        for slot in nxt.values():
            level |= slot[0]
        self._declare_reached(level)
        visited += len(nxt)
        current = nxt
    self.metrics.box_cells_visited += visited
    reached = [0] * len(cuts)
    for slot, served in zip(goals.values(), targets.values()):
        for e in served if slot else ():  # no slot: the cut was not a consistent one
            reached[e] = view.searched[view.state, cuts[e]] = slot[0]
    return reached


def _install_reference(patched):
    patched.setattr(DecentralizedMonitor, "_issue_token", _reference_issue_token)
    patched.setattr(DecentralizedMonitor, "_token_returned", _reference_token_returned)
    patched.setattr(DecentralizedMonitor, "_serve_entries", _reference_serve_entries)


def _install_reference_box_search(patched):
    patched.setattr(DecentralizedMonitor, "_box_search", _reference_box_search)


#: what a run is compared against: the reference pipeline, or the monitor as
#: it is with only its box search the reference's
REFERENCES = {"pipeline": _install_reference, "box-search": _install_reference_box_search}


def _lean_and_reference(monkeypatch, run, settle=True, install=_install_reference):
    """``run()`` as the monitor is and with the references *install* puts in
    place; with *settle* false, settling is switched off in both."""
    observed = []
    for reference in (False, True):
        with monkeypatch.context() as patched:
            if reference:
                install(patched)
            if not settle:
                _never_settle(patched)
            observed.append(_observed(run(), slept=True))
    return observed


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


def differing_cells(cells, settle=True, reference="pipeline"):
    """The *cells* whose run differs from the one under *reference* (a key
    of ``REFERENCES``) in anything shown."""
    install = REFERENCES[reference]
    with pytest.MonkeyPatch.context() as monkeypatch:
        observed = {
            cell: _lean_and_reference(monkeypatch, _cell(*cell), settle, install) for cell in cells
        }
    return [cell for cell, (lean, reference) in observed.items() if lean != reference]


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("property_name", "ABCDEF")
def test_the_lean_step_equals_the_reference_on_the_grid(property_name, reference):
    cells = [cell for cell in GRID if cell[0] == property_name]
    assert differing_cells(cells, reference=reference) == []


@pytest.mark.parametrize("reference", REFERENCES)
def test_the_lean_step_equals_the_reference_on_the_workload_cells(reference):
    assert differing_cells(WORKLOAD_CELLS, reference=reference) == []


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize(
    "cell", [("C", 4, 20, 7, 2), ("F", 4, 6, 7, 2), ("F", 4, 20, 2015, None), ("D", 3, 20, 7, 2)],
    ids=lambda c: f"{c[0]}-n{c[1]}-epp{c[2]}-s{c[3]}-b{c[4]}",
)
def test_the_lean_step_equals_the_reference_when_no_monitor_settles(cell, reference):
    assert differing_cells([cell], settle=False, reference=reference) == []


# ---------------------------------------------------------------------------
# dead guards
# ---------------------------------------------------------------------------
class _Recording(dict):
    """A ``_least`` that records every key looked up."""

    def __init__(self, looked):
        super().__init__()
        self.looked = looked

    def get(self, key, default=None):
        self.looked.append(key)
        return super().get(key, default)


def _watch_dead_guards(patched, seen):
    """Check, at every issue, that each guard a view holds dead is what
    ``_least`` says and is not looked up; forks inherit the dead guards, and
    the repair row's id is never among them.  *seen* counts searches, those
    skipped as dead, and repairs."""
    init, issue, fork = (
        DecentralizedMonitor.__init__,
        DecentralizedMonitor._issue_token,
        DecentralizedMonitor._fork_from_entry,
    )

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._least = _Recording([])
        self.bits_of = {guard: bits for rows in self._rows for _, bits, guard in rows}

    def checked_issue(self, view, searches):
        dead, repair = view.dead, self._repair_row[3]
        for guard in _states_of(dead):  # the set bits, by guard id
            floor, answer = dict.get(self._least, self.bits_of[guard])
            assert answer is None and all(map(le, floor, view.cut))
        del self._least.looked[:]
        forks = issue(self, view, searches)
        dead_bits = [self.bits_of[guard] for guard in _states_of(dead)]
        assert not [bits for bits in self._least.looked if bits in dead_bits]
        seen["searches"] += len(searches)
        seen["skipped"] += sum(dead >> row[3] & 1 for row, _, _ in searches)
        seen["repairs"] += sum(row[0] is None for row, _, _ in searches)
        assert not (dead | view.dead) >> repair & 1
        return forks

    def inheriting_fork(self, view, cut, reached, repair):
        children = fork(self, view, cut, reached, repair)
        assert all(child.dead == view.dead for child in children)
        return children

    patched.setattr(DecentralizedMonitor, "__init__", recording_init)
    patched.setattr(DecentralizedMonitor, "_issue_token", checked_issue)
    patched.setattr(DecentralizedMonitor, "_fork_from_entry", inheriting_fork)


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
# a walk of another view revives a dead guard, exactly where the lookup of
# the reference misses
# ---------------------------------------------------------------------------
def _searches_in_turn(reference, views, script):
    """Monitor 0 of ``_rises_late`` (P1 raises ``p`` at its third event, drops
    it at its fourth) holds everything and the live *views*, given as cuts;
    per ``(view, bump)`` of *script* that view searches ``P1.p`` from its cut,
    raised by one event of P1 if *bump* (a floor above the cut, as a search
    after the own process ended has).  Returns per search what it did to
    ``least_cuts_remembered``, ``_least`` after it, the keys looked up, and
    the view's dead guards."""
    computation, registry = _rises_late()
    monitor = _holding_everything(computation, registry, 0)
    guard = {"P1.p": True}
    bits = _guard_bits(monitor, guard)
    monitor._least = _Recording([])
    views = [GlobalView(cut=list(cut), state=0) for cut in views]
    monitor.views += views
    issue = _reference_issue_token if reference else DecentralizedMonitor._issue_token
    steps = []
    for index, bump in script:
        view = views[index]
        before = monitor.metrics.least_cuts_remembered
        del monitor._least.looked[:]
        states = [computation.local_state(j, at) for j, at in enumerate(view.cut)]
        letters = [registry.local_letter(j, state) for j, state in enumerate(states)]
        satisfied = list(map(_satisfies, letters, registry.conjuncts_by_process(guard, 2)))
        floor = [view.cut[0], view.cut[1] + 1] if bump else view.cut
        issue(monitor, view, [((7_000, bits, (1,), 0), satisfied, floor)])
        steps.append((
            monitor.metrics.least_cuts_remembered - before,
            dict(monitor._least),
            len(monitor._least.looked),
            view.dead,
        ))  # fmt: skip
    return steps


def test_a_walk_of_another_view_revives_a_dead_guard_where_the_lookup_would_miss():
    # view W at [2, 4] searches twice, view V at [3, 0] once, then W again
    views, script = ([2, 4], [3, 0]), [(0, False), (0, False), (1, False), (0, False)]
    lean, reference = (_searches_in_turn(ref, views, script) for ref in (False, True))
    assert [step[:2] for step in lean] == [step[:2] for step in reference]
    bits = next(iter(lean[0][1]))
    # W walks and finds none: dead for W; W again: remembered, not looked up
    assert lean[0][:2] == (0, {bits: ((2, 4), None)}) and lean[0][3] == 1
    assert lean[1] == (1, {bits: ((2, 4), None)}, 0, 1)
    # V's walk finds (3, 3) above [3, 0]: W's guard is alive again
    assert lean[2][:2] == (0, {bits: ((3, 0), (3, 3))})
    # W looks it up, misses as the reference does, walks and kills it again
    assert lean[3] == (0, {bits: ((2, 4), None)}, 1, 1)


def test_none_above_a_floor_over_the_views_cut_leaves_the_guard_alive():
    # W at [2, 3] holds p; above [2, 4] there is none, at [2, 3] there is one:
    # neither the walk nor the remembered answer from [2, 4] kills the guard
    views, script = ([2, 3],), [(0, True), (0, True), (0, False), (0, False)]
    lean, reference = (_searches_in_turn(ref, views, script) for ref in (False, True))
    assert [step[:2] for step in lean] == [step[:2] for step in reference]
    bits = next(iter(lean[0][1]))
    assert lean[0] == (0, {bits: ((2, 4), None)}, 1, 0)
    assert lean[1] == (1, {bits: ((2, 4), None)}, 1, 0)
    assert lean[2] == (0, {bits: ((2, 3), (2, 3))}, 1, 0)  # walked: found at the cut
    assert lean[3] == (1, {bits: ((2, 3), (2, 3))}, 1, 0)  # then remembered
