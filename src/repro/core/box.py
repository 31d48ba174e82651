"""How the automaton states reachable in a box are found.

A decided search forks a view for every automaton state reachable at its
target cut over all interleavings of the events inside the *box*
``[view.cut, target]``: sound by construction.  A set of automaton states
is a bitmask; images of such sets, and the searches a step issues, are
cached once per property (:class:`Property`; ``docs/architecture.md``,
core/box.py).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from operator import le, mul, sub
from typing import TYPE_CHECKING, Any

from ..ltl.monitor import MonitorAutomaton
from ..ltl.predicates import PropositionRegistry
from .columns import Columns

if TYPE_CHECKING:
    from .global_view import GlobalView

__all__ = ["Property", "Box", "states_of"]

#: bound on each integer-keyed cache of a property: images, and per process searches
_IMAGE_CACHE_LIMIT = 1 << 16


def states_of(bits: int) -> Iterator[int]:
    """The members of a state bitset, in ascending order."""
    state = 0
    while bits:
        if bits & 1:
            yield state
        bits >>= 1
        state += 1


class Property:
    """What every monitor of one property shares, built once per automaton,
    process count and owner of each compiled atom and kept on the automaton
    (``MonitorAutomaton.shared``): per state its guard rows ``(transition_id,
    bits)`` — per process the ``(care, want)`` bits of the guard's conjunct,
    one object per distinct guard — and bounded caches of pure functions of
    the automaton: images, and per process the searches of a step
    (:meth:`Box.searches_at`)."""

    __slots__ = ("rows", "images", "searches")

    def __init__(self, automaton: MonitorAutomaton, registry: PropositionRegistry, n: int) -> None:
        encode = automaton.compiled.encode
        guards: dict[tuple, tuple] = {}  # bits -> the one object of equal bits
        self.rows: list[tuple[tuple[int, tuple[tuple[int, int], ...]], ...]] = []
        for state in automaton.states:
            table = []
            for transition in automaton.outgoing_transitions(state):
                conjuncts = registry.conjuncts_by_process(transition.guard, n)
                bits = tuple((encode(c), encode(a for a in c if c[a])) for c in conjuncts)
                table.append((transition.transition_id, guards.setdefault(bits, bits)))
            self.rows.append(tuple(table))
        self.images: dict[int, int] = {}
        self.searches: list[dict[int, tuple[list, list]]] = [{} for _ in range(n)]

    @classmethod
    def of(cls, automaton: MonitorAutomaton, registry: PropositionRegistry, n: int) -> Property:
        """The one instance for *automaton*, *n* processes and *registry*'s owners."""
        key = n, tuple(map(registry.owner_of, automaton.compiled.atoms))
        return automaton.shared.get(key) or automaton.shared.setdefault(
            key, cls(automaton, registry, n)
        )


class Box:
    """The box searches of one monitor: over its columns, with the caches of
    its property, declaring what they reach through *declare*."""

    def __init__(
        self,
        process: int,
        columns: Columns,
        automaton: MonitorAutomaton,
        shared: Property,
        metrics: Any,  # the monitor's MonitorMetrics: the counters this layer adds to
        declare: Callable[[int], None],
    ) -> None:
        self.process = process
        self.columns = columns
        self.automaton = automaton
        self.compiled = automaton.compiled
        self.num_states = automaton.num_states
        self.final_bits = sum(1 << q for q in automaton.states if automaton.is_final(q))
        #: per state, the states a view there can still reach
        self.reach = automaton.reach_bits
        self.rows, self.images = shared.rows, shared.images
        #: the searches a step issues, by ``global letter mask << num_states | state``
        self.table = shared.searches[process]
        self.metrics = metrics
        self.declare = declare

    def searches_at(self, key: int) -> tuple[list, list]:
        """Search-table miss: the searches a step from *key* —
        ``global letter mask << num_states | state`` — issues, as ``(row,
        satisfied)`` pairs in row order: those of a step before this process
        terminated, and every row whose own conjunct holds and that has a
        remote one.  Exact per global mask because the ``(care, want)`` bits
        of process ``j`` cover only atoms ``j`` owns, and column ``j`` holds
        only their bits."""
        mine, mask = self.process, key >> self.num_states
        ordinary: list[tuple[tuple, list[bool]]] = []
        every: list[tuple[tuple, list[bool]]] = []
        for transition_id, bits in self.rows[key & ((1 << self.num_states) - 1)]:
            care, want = bits[mine]
            remote = tuple(j for j, pair in enumerate(bits) if pair[0] and j != mine)
            if mask & care != want or not remote:
                # this process forbids the transition at its frontier, or its
                # guard is purely *local*: a later local event re-evaluates it
                continue
            satisfied = [mask & care == want for care, want in bits]
            every.append(((transition_id, bits, remote), satisfied))
            if not all(satisfied):
                ordinary.append(every[-1])
        found = ordinary, every
        if len(self.table) < _IMAGE_CACHE_LIMIT:
            self.table[key] = found
        return found

    def image(self, key: int) -> int:
        """Image-cache miss: step every state of a state set through a letter.

        *key* is ``letter_mask << num_states | state_bits``; the result is
        the bitset of successor states.
        """
        mask = key >> self.num_states
        image = 0
        for state in states_of(key & ((1 << self.num_states) - 1)):
            image |= 1 << self.compiled.step(state, mask)
        if len(self.images) < _IMAGE_CACHE_LIMIT:
            self.images[key] = image
        return image

    def reachable(self, view: GlobalView, cuts: Sequence[tuple[int, ...]], mask: int) -> list[int]:
        """Per target cut, the bitset of states reachable there from the view
        over all interleavings of the events inside ``[view.cut, cut]``;
        *mask* is the letter mask at the view's cut.  Conclusive states
        reached anywhere inside are declared at once: those partial paths
        are real executions.

        A target is answered without a search when its letter sends every
        state the view can still reach (``MonitorAutomaton.reach_bits``) to
        one state, no other conclusive state is among those, and the target
        lies above the view's cut and is consistent: every path into it ends
        in that state (``docs/architecture.md``, Targets the letter decides).
        The others go to :meth:`search`.  Neither writes the view: the caller
        keeps what it needs of the answers (``ViewSet.forks``).
        """
        self.metrics.box_queries += len(cuts)
        base, vc_columns, mask_at = tuple(view.cut), self.columns.vcs, self.columns.mask_at
        reach = self.reach[view.state]
        others = reach & self.final_bits  # the conclusive states still in reach
        shift, image = self.num_states, self.images
        reached = [0] * len(cuts)
        for e, cut in enumerate(cuts):
            key = mask_at(cut) << shift | reach
            one = image.get(key) or self.image(key)
            if (
                one & (one - 1) == 0
                and not others & ~one
                and cut != base
                and all(all(map(le, vc_columns[j][at], cut)) for j, at in enumerate(cut))
            ):
                self.declare(one)
                reached[e] = one
        if not any(reached):
            return self.search(view, cuts, mask)
        searched = [cut for cut, one in zip(cuts, reached) if not one]
        self.metrics.boxes_by_letter += len(cuts) - len(searched)
        found = iter(self.search(view, searched, mask) if searched else ())
        return [one or next(found) for one in reached]

    def search(self, view: GlobalView, cuts: Sequence[tuple[int, ...]], mask: int) -> list[int]:
        """:meth:`reachable` by one search over the union of the target
        *cuts*' boxes (every target of a step lies above the view's cut);
        *mask* is the letter mask at the view's cut.

        The search runs over the quotient by *segments* (maximal runs of one
        letter mask, off ``seg_starts``) when the automaton is
        ``stutter_closed`` and at a fixed point of the view's letter, else
        event by event.  A union that moves at most one process is walked in
        a line, up to the first opener whose clock does not fit under the
        join; otherwise a *cell* holds a segment index per process moved and
        the inhabited cells are searched level by level."""
        n, base, columns = len(view.cut), view.cut, self.columns.masks
        shift, image = self.num_states, self.images
        start = 1 << view.state
        hi = list(map(max, base, *cuts))  # the join searched
        collapse, first, top = False, base, hi
        if hi != base and self.automaton.stutter_closed:
            key = mask << shift | start
            collapse = (image.get(key) or self.image(key)) == start
        if collapse:  # cells count segments past the view's, off the index; else events
            index = self.columns.seg_starts
            first, top = list(map(bisect_right, index, base)), list(map(bisect_right, index, hi))
        moved = [j for j in range(n) if top[j] != first[j]]  # the processes the union moves
        if len(moved) < 2:
            j = moved[0] if moved else 0
            fixed = 0  # the letter of the others
            for k, column in enumerate(columns):
                fixed |= column[base[k]] if k != j else 0
            roof = hi.copy()  # what an opener may ask of each process: not its own
            roof[j] = float("inf")
            opens = index[j][first[j] : top[j]] if collapse else range(base[j] + 1, hi[j] + 1)
            line, vcs, column = [start], self.columns.vcs[j], columns[j]
            for o in opens:
                if not all(map(le, vcs[o], roof)):
                    break  # not inhabited, nor is any cell past it
                key = (fixed | column[o]) << shift | line[-1]
                line.append(image.get(key) or self.image(key))
                self.declare(line[-1])
            self.metrics.box_cells_visited += len(line)
            reached = [0] * len(cuts)
            for e, cut in enumerate(cuts):
                g = bisect_right(index[j], cut[j]) - first[j] if collapse else cut[j] - base[j]
                if g < len(line):
                    reached[e] = line[g]
            return reached
        cells = [map(bisect_right, index, cut) if collapse else cut for cut in cuts]
        cells = [tuple(map(sub, cell, first)) for cell in cells]
        targets: dict[tuple[int, ...], list[int]] = {}  # target cell -> its targets
        for e, cell in enumerate(cells):
            targets.setdefault(cell, []).append(e)
        ranges = list(map(sub, top, first))

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
        m = len(moved)
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
        goals: dict[int, list | None] = {}  # target cell, as an integer -> its slot
        for bit, cell in enumerate(targets):
            goals[sum(map(mul, cell, strides))] = None
            for _, j, _, fit, _, _ in lanes:
                for g in range(1, cell[j] + 1):
                    fit[g] |= 1 << bit
        vc_columns = self.columns.vcs

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
            nxt: dict[int, list] = {}
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
