"""How a monitor holds events, and how a search walks them.

Per process, the events of that process a monitor holds are *columns*
indexed by sequence number (position 0 is the initial state): letter mask
and vector clock, a gapless prefix of the process's events that only grows.
``seg_starts[j]`` indexes mask column ``j`` by *segments*: position 0 and
every position whose mask differs from its predecessor's.  Serving walks a
token entry over the columns: the least-consistent-cut search of the
paper's EVALUATETOKEN (``docs/architecture.md``, core/columns.py).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .messages import Token, TokenEntry

__all__ = ["Columns"]


class Columns:
    """The mask and clock columns of one monitor, what it knows of when each
    process ended, and the walk of token entries over them."""

    def __init__(self, process: int, masks: Sequence[int], n_letters: int) -> None:
        n = len(masks)
        self.process, self.n_letters = process, n_letters
        self.masks = [[mask] for mask in masks]
        self.seg_starts: list[list[int]] = [[0] for _ in range(n)]
        self.vcs: list[list[tuple[int, ...]]] = [[(0,) * n] for _ in range(n)]
        #: the components a visit advances: this process's, then all others'
        self.order = (process, *(j for j in range(n) if j != process))
        #: final event count of each process, once known
        self.terminated: dict[int, int | None] = dict.fromkeys(range(n))
        #: how often :meth:`absorb_runs` grew a foreign column
        self.absorbed = 0

    def last(self, j: int) -> int:
        """The position of the last event of process *j* held."""
        return len(self.vcs[j]) - 1

    def known(self) -> list[int]:
        """Per process, the position of the last event held (a token's ``known``)."""
        return [len(column) - 1 for column in self.vcs]

    def mask_at(self, cut: Sequence[int]) -> int:
        """The global letter mask at *cut*."""
        mask = 0
        for column, at in zip(self.masks, cut):
            mask |= column[at]
        return mask

    def own_past(self, cut: Sequence[int], sn: int) -> list[int]:
        """*cut* joined with the causal past of own event *sn*, the own
        component left as it is in *cut*."""
        past = list(map(max, cut, self.vcs[self.process][sn]))
        past[self.process] = cut[self.process]
        return past

    def spans(self, base: Sequence[int], cut: Sequence[int]) -> bool:
        """Whether *cut* lies above *base* and the columns hold it."""
        return all(b <= at < len(c) for b, at, c in zip(base, cut, self.vcs))

    def append_masks(self, j: int, fresh: Iterable[int]) -> None:
        """Append *fresh* masks to foreign mask column *j* and index the
        segments they open (:meth:`append_own` grows the own column)."""
        masks, starts = self.masks[j], self.seg_starts[j]
        for mask in fresh:
            if mask != masks[-1]:
                starts.append(len(masks))
            masks.append(mask)

    def append_own(self, mask: int, vc: tuple[int, ...]) -> None:
        """Append the own process's next event: its mask, the segment it opens, its clock."""
        mine = self.process
        masks = self.masks[mine]
        if mask != masks[-1]:
            self.seg_starts[mine].append(len(masks))
        masks.append(mask)
        self.vcs[mine].append(vc)

    def absorb_runs(self, token: Token) -> None:
        """Append to the columns what a token's runs add to them.

        A run starts at ``known[j] + 1``; the part the column already holds
        is skipped, the rest appended.  A run that would leave a gap, holds
        a mask outside the alphabet (``n_letters`` masks) or appends a clock
        of another width (only a stale or forged token carries any) is
        ignored, so columns stay gapless prefixes of true masks and clocks
        whatever arrives, in whatever order, however often (a token whose
        ``known`` is of another width is refused before it gets here).
        """
        n = len(self.vcs)
        for j, (masks, vcs) in token.runs.items():
            if not 0 <= j < n or j == self.process or len(masks) != len(vcs):
                continue
            skip = len(self.vcs[j]) - 1 - token.known[j]
            fresh = vcs[skip:] if 0 <= skip < len(vcs) else ()
            if fresh and 0 <= min(masks) and max(masks) < self.n_letters and {*map(len, fresh)} == {n}:
                self.append_masks(j, masks[skip:])
                self.vcs[j] += fresh
                self.absorbed += 1

    def extend_run(self, token: Token) -> int:
        """Put on a leaving token the events its entries reached here;
        returns how many.

        The token's run of process ``j`` covers ``known[j] + 1 …`` and, on
        arrival, reached the furthest cut of any entry; whatever lies beyond
        now was served from column ``j`` here and is appended from it — by
        nothing where the parent already held that prefix.
        """
        shipped = 0
        reaches = map(max, zip(*(entry.cut for entry in token.entries)))
        for j, (known, column, reach) in enumerate(zip(token.known, self.vcs, reaches)):
            run = token.runs.get(j)
            held = known + (len(run[1]) if run else 0)
            fresh = column[held + 1 : reach + 1] if reach > held else None
            if fresh:
                masks, vcs = run or token.runs.setdefault(j, ([], []))
                masks += self.masks[j][held + 1 : reach + 1]
                vcs += fresh
                shipped += len(fresh)
        return shipped

    def live_ends(self) -> list[int]:
        """Per process, the position :meth:`serve_entry` does not visit a
        component at: the column's end for a live foreign process (a visit
        there changes nothing: only ``M_j`` can tell more), none (-1) for this
        process and for those known to have ended."""
        return [
            len(column) - 1 if j != self.process and self.terminated[j] is None else -1
            for j, column in enumerate(self.masks)
        ]

    def serve_entries(self, entries: list[TokenEntry]) -> list[tuple[TokenEntry, list[int]]]:
        """Serve undecided *entries* (at least one); returns those still
        undecided, each with the processes it needs."""
        pending: list[tuple[TokenEntry, list[int]]] = []
        # processes known to have terminated are worth a (final) visit
        ended = {k for k, final in self.terminated.items() if final is not None} - {self.process}
        ends = self.live_ends()
        for entry in entries:
            entry.waiting_for -= ended
            lagging = self.serve_entry(entry, ends)
            if entry.eval is None:
                if lagging:
                    pending.append((entry, lagging))
                else:
                    entry.eval = True
        return pending

    def serve_entry(self, entry: TokenEntry, ends: list[int]) -> list[int]:
        """Advance every component of the entry that needs it over the columns
        held here: own first, then the others, until nothing moves (a scanned
        clock can lift another component's ``depend``).  A component at its
        position in *ends* (:meth:`live_ends`) is not visited.  The events
        walked are put on the token when it leaves (:meth:`extend_run`).
        Returns those that need it still, as the last pass (it moved nothing) saw.
        """
        cut, depend, floor = entry.cut, entry.depend, entry.min_positions
        bits, satisfied = entry.bits, entry.satisfied
        while entry.eval is None:
            moved, lagging = False, []
            for j in self.order:
                at = cut[j]
                care, want = bits[j]
                if at < depend[j] or at < floor[j] or (care and not satisfied[j]):
                    lagging.append(j)
                    if at != ends[j]:
                        self.serve_component(entry, j, care, want)
                        moved = moved or cut[j] > at
            if not moved:
                return lagging
        return []

    def serve_component(self, entry: TokenEntry, j: int, care: int, want: int) -> None:
        """Advance component *j* of the entry, which needs it, over column
        *j*, in one shot; ``(care, want)`` are the bits of its conjunct.
        Event ``sn`` of *j* carries ``vc[j] == sn``, so scanning never lifts
        ``depend[j]`` above the position reached: the position bound is fixed
        for the visit, and past it only letter masks are walked until the
        conjunct holds or the column runs out.  Running out settles the search
        ``False`` if *j* is known to have ended by then; otherwise the entry
        parks on the own process, and a foreign *j* is left lagging — its
        column is a prefix of ``M_j``'s, and only ``M_j`` knows it has no more.
        """
        cut = entry.cut[j]
        end = max(cut, entry.depend[j], entry.min_positions[j])
        own = j == self.process
        if own:
            entry.waiting_for.discard(j)
        masks = self.masks[j]
        last = len(masks) - 1
        # at end == cut the conjunct is known not to hold (the caller's test)
        if end <= last and (end == cut or masks[end] & care != want):
            for end in range(end + 1, last + 1):
                if masks[end] & care == want:
                    break
            else:
                end = last + 1
        if end <= last:
            entry.parked_on = None
        else:
            end = last
            final = self.terminated[j]
            if final is not None and max(cut, last) >= final:
                entry.eval = False
                entry.parked_on = None
            elif own:
                entry.parked_on = j
                entry.waiting_for.add(j)
        if end > cut:
            entry.record_scan(self.vcs[j][end])
            entry.cut[j] = end
            entry.satisfied[j] = masks[end] & care == want
            if own:  # news from here: the others are worth revisiting
                entry.waiting_for.intersection_update({j})
            else:
                entry.waiting_for.discard(j)
