"""One reference per layer of the monitor, each put in place whole.

A run, or one call, of the monitor as it is is compared with the same run
under the layer's reference.  Each reference is the simplest exact one its
layer has:

* **columns and serving** (``repro.core.columns``): the slicer's least cut
  (``tests/slicing/slicer.py``).  :func:`sliced_serving` checks every
  entry served, in a whole run, against it.
* **box search** (``repro.core.box``): :func:`lane_search`, the search that
  ran the lane BFS for every union that moves a process, with no line walk
  and nothing left out of the set-up.
* **views** (``repro.core.global_view``): ``local_event`` merging after every
  own event (``tests/core/test_merge_after_step.py``).
* **tokens** (``repro.core.tokens``): :func:`reference_tokens`, a token layer
  that remembers no least cut (every search is walked) and lets no parked
  token sleep (every one is served again on every own event).
* **an own event** (``DecentralizedMonitor.local_event``):
  :func:`reference_own_event`, the entry point as it was before it made one
  pass over what an own event can change (``tests/core/test_own_event.py``).
"""

import sys
from bisect import bisect_right
from operator import mul, sub
from pathlib import Path

from test_token_hot_paths import _lagging as lagging

from repro.core.box import Box
from repro.core.columns import Columns
from repro.core.monitor import DecentralizedMonitor
from repro.core.tokens import Tokens

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "slicing"))
from slicer import least_consistent_cut  # noqa: E402


# ---------------------------------------------------------------------------
# columns and serving: the slicer's least cut
# ---------------------------------------------------------------------------
def _guard(atoms, bits):
    """The conjunctive guard, as ``{atom: value}``, of per-process ``(care, want)`` bits."""
    return {
        atom: bool(want >> a & 1)
        for care, want in bits
        for a, atom in enumerate(atoms)
        if care >> a & 1
    }


def sliced_serving(patched, computation, registry, atoms, missed):
    """Check every serve of a run over *computation*: an entry decided ``True``
    stands at the slicer's least cut above its floor, one decided ``False`` has
    none, and an undecided one lies below it and is returned with the
    processes :func:`lagging` names.  What differs is appended to *missed*."""
    serve = Columns.serve_entries
    final, least = computation.final_cut(), {}

    def slicer(entry):
        floor = tuple(entry.min_positions)
        key = entry.bits, floor
        if key not in least:
            inside = all(map(int.__le__, floor, final))
            guard = _guard(atoms, entry.bits)
            least[key] = inside and least_consistent_cut(computation, registry, guard, floor)
        return least[key] or None

    def checked(self, entries):
        pending = serve(self, entries)
        lagged = {id(entry): needs for entry, needs in pending}
        for entry in entries:
            found = slicer(entry)
            if entry.eval is True:
                ok = tuple(entry.cut) == found
            elif entry.eval is False:
                ok = found is None
            else:
                below = found is None or all(map(int.__le__, entry.cut, found))
                ok = below and sorted(lagged.get(id(entry), ())) == lagging(entry)
            if not ok:
                missed.append((self.process, entry.eval, list(entry.cut), found))
        return pending

    patched.setattr(Columns, "serve_entries", checked)


# ---------------------------------------------------------------------------
# box search: the lane BFS for every union that moves a process
# ---------------------------------------------------------------------------
def lane_search(self, view, cuts, mask):
    """``Box.search`` as it was when every union that moves a process ran
    the lane BFS: cells, a target map, lanes, strides, ``fits`` and
    ``goals`` set up even when one process moves and the cells are a line."""
    n, base, columns = len(view.cut), view.cut, self.columns.masks
    shift, image = self.num_states, self.images
    start = 1 << view.state
    hi = list(map(max, base, *cuts))  # the join searched
    same, collapse, first = hi == base, False, base  # same: every target in the view's cell
    if not same and self.automaton.stutter_closed:
        key = mask << shift | start
        collapse = (image.get(key) or self.image(key)) == start
    if collapse:  # cells count segments past the view's, off the index; else events
        index = self.columns.seg_starts
        first = list(map(bisect_right, index, base))
        same = list(map(bisect_right, index, hi)) == first
    if same:  # the search would stop at level 0
        self.metrics.box_cells_visited += 1
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
    # and its last position.  A cell is a mixed-radix integer; a set of
    # automaton states, or of targets, is a bitmask.  fits[g] of a lane: the
    # targets whose cell reaches its segment g; needs[g], filled when first
    # asked for: what the opener of its segment g + 1 requires of the
    # others, as (lane, least position) pairs.
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
    vc_columns = self.columns.vcs

    # level-synchronous BFS over the inhabited cells; a slot is [state bits,
    # segment index per lane, letter mask << shift, targets above]
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
                    need = need_of[gj]
                    if need is None:
                        need = need_of[gj] = [
                            (lane_of[k], least)
                            for k, least in enumerate(vc_columns[j][opened[gj]])
                            if k != j and least > (base[k] if lane_of[k] < m else hi[k])
                        ]
                    if all(seg_ends[k][segments[k]] >= least for k, least in need):
                        at = segments.copy()
                        at[a] = gj + 1
                        letter = fixed
                        for masks, g in zip(seg_masks, at):
                            letter |= masks[g]
                        slot = nxt[succ] = [0, at, letter << shift, under]
                        if succ in goals:
                            goals[succ] = slot
                if slot is not None:
                    key = slot[2] | states
                    slot[0] |= image.get(key) or self.image(key)
        level = 0
        for slot in nxt.values():
            level |= slot[0]
        self.declare(level)
        visited += len(nxt)
        current = nxt
    self.metrics.box_cells_visited += visited
    reached = [0] * len(cuts)
    for slot, served in zip(goals.values(), targets.values()):
        for e in served if slot else ():  # no slot: the cut was not a consistent one
            reached[e] = slot[0]
    return reached


def lane_searches(patched):
    """Put :func:`lane_search` in place of the box search."""
    patched.setattr(Box, "search", lane_search)


# ---------------------------------------------------------------------------
# tokens: no memory, no sleep
# ---------------------------------------------------------------------------
#: the counters of the two memories :func:`reference_tokens` does without
MEMORY_COUNTERS = ("least_cuts_remembered", "parked_tokens_slept")


def without_memories(observed):
    """A run's observation (``test_parked_tokens._observed``) less
    :data:`MEMORY_COUNTERS`."""
    counters, *rest = observed
    return [{k: v for k, v in c.items() if k not in MEMORY_COUNTERS} for c in counters], *rest


def reference_tokens(patched):
    """Put the reference token layer in place: no least cut is remembered,
    so every search is walked, and no parked token sleeps, so every one is
    served again on every own event.  A run differs from the monitor's as
    it is only in :data:`MEMORY_COUNTERS`."""
    patched.setattr(Tokens, "remember", lambda self, search, entry: None)
    patched.setattr(Tokens, "sleeps", lambda self, record: False)


# ---------------------------------------------------------------------------
# an own event: the entry point as it was
# ---------------------------------------------------------------------------
def reference_own_event(self, event):
    """``DecentralizedMonitor.local_event`` as it was, verbatim: two
    ``Columns.last`` calls, the own mask by ``sum()``, ``delayed_events`` by a
    scan of the live views, and ``Tokens.retry`` on every own event."""
    if event.process != self.process:
        raise ValueError(f"monitor {self.process} received event of process {event.process}")
    if event.sn != self.columns.last(self.process) + 1:
        raise ValueError(
            f"monitor {self.process} expected event {self.columns.last(self.process) + 1}, "
            f"got event {event.sn}"
        )
    if not self._started:
        self.start()
    self.metrics.events_processed += 1
    mask = sum(bit for bit, holds in self._own_atoms if holds(event.state))
    self.columns.append_own(mask, tuple(event.vc))

    if any(view.is_waiting() for view in self.views):
        self.metrics.delayed_events += 1

    self.tokens.retry(own_event=True)
    if self._advance_views(self.views):
        # else the views are what the last merge left: it would do nothing
        self.views.merge(self.declared_bits, self.heard)
    if self.tokens.outbox:
        self.tokens.flush(self.transport)


def own_events_as_they_were(patched):
    """Put :func:`reference_own_event` in place of ``local_event``."""
    patched.setattr(DecentralizedMonitor, "local_event", reference_own_event)
