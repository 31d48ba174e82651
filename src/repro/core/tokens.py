"""Where a monitor's searches go: answered at home, or carried by a token.

Issue and remember, serve, park and sleep, route, and send in frames: the
paper's CHECKOUTGOINGTRANSITIONS, PROCESSTOKEN and SENDTONEXTPROCESS
(``docs/architecture.md``, core/tokens.py).
"""

from __future__ import annotations

from collections.abc import Callable
from operator import le
from typing import Any

from ..coordination.topology import RoundRobinToken
from .columns import Columns
from .global_view import GlobalView, ViewSet
from .messages import TerminationNotice, Token, TokenEntry
from .transport import Transport

__all__ = ["Search", "Tokens"]

#: one search :meth:`Tokens.issue` is handed: a row ``(transition_id, bits,
#: remote)``, per process whether its conjunct holds at the cut, and the floor
Search = tuple[tuple, list[bool], list[int]]


class Tokens:
    """The searches, tokens and sends of one monitor: over its *columns* and
    *views*, routed by *routing*; every message that leaves carries the
    declarations *news* returns, and a token home with every entry decided
    is handed to *returned*."""

    def __init__(
        self,
        process: int,
        columns: Columns,
        views: ViewSet,
        routing: RoundRobinToken,
        metrics: Any,  # the monitor's MonitorMetrics: the counters this layer adds to
        news: Callable[[], int],
        returned: Callable[[Token], None],
    ) -> None:
        self.process, self.columns, self.views = process, columns, views
        self.routing, self.metrics, self.news, self.returned = routing, metrics, news, returned
        #: a guard's ``bits`` -> the floor and the least cut above it (``None``:
        #: there is none) of the last search of it that was walked at issue time
        self.least: dict[tuple, tuple[tuple[int, ...], tuple[int, ...] | None]] = {}
        #: the parked tokens, each with its wake record (:meth:`park`)
        self.waiting: list[tuple[Token, tuple]] = []
        #: what the running callback sends: (target, message) in send order
        self.outbox: list[tuple[int, Token | TerminationNotice]] = []

    # ------------------------------------------------------------------
    # issue (CHECKOUTGOINGTRANSITIONS)
    # ------------------------------------------------------------------
    def issue(
        self, view: GlobalView, searches: list[Search]
    ) -> tuple[list[tuple[int, ...]], bool] | None:
        """Serve the *searches* from the columns; a token leaves only with
        what they could not decide.  Answered at home, the view never waits:
        returns the target cuts of the searches decided true and whether the
        one search was a repair, for the caller to fork from; ``None`` once a
        token left.

        A guard's least cut above a floor is its least cut above every floor
        between the two, and none above a floor is none above a larger: what
        ``least`` covers (:meth:`remember`) is not walked and gets no entry —
        unless a token leaves: an entry per search, the remembered walked last."""
        self.metrics.entries_created += len(searches)
        least = self.least
        answers: list[tuple[int, ...] | None] = [None] * len(searches)  # per search: its target
        hits, walked = [], []  # searches answered from memory; walked, with their index
        for at, (row, satisfied, floor) in enumerate(searches):
            known = None if row[0] is None else least.get(row[1])  # a repair: never
            if known and all(map(le, known[0], floor)) and (
                known[1] is None or all(map(le, floor, known[1]))
            ):
                hits.append(at)
                answers[at] = known[1]
            else:
                walked.append((at, self.make_entry(view, row, satisfied, floor)))
        serve = self.columns.serve_entries
        pending = serve([entry for _, entry in walked]) if walked else []
        for at, entry in walked:
            if entry.eval is not None and not entry.is_repair:  # whose floor never recurs
                self.remember(searches[at], entry)
            if entry.eval:
                answers[at] = tuple(entry.cut)
        if not pending:
            self.metrics.least_cuts_remembered += len(hits)
            self.metrics.answered_at_home += 1
            repair = any(entry.is_repair for _, entry in walked)  # issued alone
            return [target for target in answers if target], repair
        built = dict(walked) | {at: self.make_entry(view, *searches[at]) for at in hits}
        pending += serve([built[at] for at in hits]) if hits else []
        token = Token(
            parent_process=self.process,
            entries=[built[at] for at in range(len(searches))],
            known=self.columns.known(),
        )
        self.metrics.tokens_created += 1
        self.views.wait(view, token.token_id)
        self.route(token, pending)
        return None

    def remember(self, search: Search, entry: TokenEntry) -> None:
        """Write what the walk of *search* decided into ``least``."""
        (_, bits, _), _, floor = search
        self.least[bits] = (tuple(floor), tuple(entry.cut) if entry.eval else None)

    @staticmethod
    def make_entry(
        view: GlobalView, row: tuple, satisfied: list[bool], min_positions: list[int]
    ) -> TokenEntry:
        """A search from the view's cut, for the transition of guard-table
        *row* (the guardless row: a repair)."""
        cut, floor = view.cut, list(min_positions)
        return TokenEntry(row[0], row[1], list(cut), list(cut), list(cut), floor, list(satisfied))

    # ------------------------------------------------------------------
    # service (PROCESSTOKEN / EVALUATETOKEN)
    # ------------------------------------------------------------------
    def ends_here(self, token: Token) -> bool:
        """Whether the token is at home with nothing left to do: decided, or
        an orphan — its view was retired, no view waits for it."""
        return token.parent_process == self.process and (
            token.token_id not in self.views.waiting or token.all_decided()
        )

    def serve(self, token: Token) -> None:
        """Serve the token's undecided entries from the columns, route it.

        At home the token is refreshed first: its runs, absorbed on arrival,
        are dropped and ``known`` restarts at the column ends.
        """
        if token.parent_process == self.process:
            token.runs.clear()
            token.known = self.columns.known()
        undecided = token.undecided_entries()
        self.route(token, self.columns.serve_entries(undecided) if undecided else [])

    def retry(self, own_event: bool = False) -> None:
        """Re-examine the parked tokens after a new own event or a termination.

        After an own event a token sleeps — stays parked, unserved, with the
        wake record it was parked with — if the event leaves it as it is
        (:meth:`sleeps`).  Terminations wake every token; a parked token is never
        decided, so an own one ends here once no view waits for it (an orphan)."""
        parked, self.waiting = self.waiting, []
        mine, waiting = self.process, self.views.waiting
        for token, record in parked:
            if token.parent_process == mine and token.token_id not in waiting:
                self.returned(token)  # orphaned while it waited at home
            elif own_event and self.sleeps(record):
                self.metrics.parked_tokens_slept += 1
                self.waiting.append((token, record))
            else:
                self.serve(token)

    def sleeps(self, record: tuple) -> bool:
        """Whether the newest own event leaves a parked token as it is, by its
        wake *record* (:meth:`park`): no foreign column grew since it was
        parked, the event's mask satisfies no conjunct recorded and its clock
        exceeds no limit recorded."""
        absorbed, pairs, limits = record
        mine, columns = self.process, self.columns
        mask, vc = columns.masks[mine][-1], columns.vcs[mine][-1]
        return (
            absorbed == columns.absorbed
            and all(mask & care != want for care, want in pairs)
            and all(vc[k] <= limit for k, limit in limits)
        )

    def park(self, token: Token) -> None:
        """Keep *token* here until an own event or a termination notice, with
        its wake record.  Only an undecided entry parked on this process can
        move on an own event: when the event's mask satisfies its conjunct
        (the record keeps those ``(care, want)`` bits), when it marks another
        process in ``waiting_for`` (the record's absorption count is then
        ``None``: never asleep), or when the clock exceeds its ``depend[k]``
        for a peer ``k`` a serve here could move (the record keeps the least
        such ``depend[k]`` per ``k``).  The record holds while the token is
        parked (``docs/architecture.md``, A parked token sleeps)."""
        mine, others, ends = self.process, self.columns.order[1:], self.columns.live_ends()
        absorbed, pairs, limits = self.columns.absorbed, set(), {}
        for entry in token.entries:
            if entry.eval is None and entry.parked_on == mine:
                if not entry.waiting_for <= {mine}:
                    absorbed = None
                    break
                pairs.add(entry.bits[mine])
                for k in others:
                    if entry.cut[k] < ends[k] or ends[k] < 0:
                        limits[k] = min(limits.get(k, entry.depend[k]), entry.depend[k])
        self.waiting.append((token, (absorbed, pairs, tuple(limits.items()))))

    # ------------------------------------------------------------------
    # routing and sending (SENDTONEXTPROCESS)
    # ------------------------------------------------------------------
    def route(self, token: Token, pending: list[tuple[TokenEntry, list[int]]]) -> None:
        """Decide where the token goes next: home with every entry decided,
        it is handed back.

        *pending* pairs each still-undecided entry with the processes it
        needs (empty once every entry is decided), derived once per hop by
        whoever served the token.
        """
        mine = self.process
        if not pending:
            if token.parent_process == mine:
                self.returned(token)
            else:
                self.send(token, token.parent_process)
            return
        targets: set[int] = set()
        parked: set[int] = set()  # known to have nothing for this token yet
        live: set[int] = set()
        terminated = self.columns.terminated
        for entry, lagging in pending:
            targets.update(lagging)
            parked.update(entry.waiting_for)
            # park, don't bounce: an entry blocked on this process's next
            # event gains nothing elsewhere — unless a process it needs is
            # known to have terminated, which may settle it (False) at once
            if entry.parked_on != mine or any(terminated[k] is not None for k in lagging):
                live.update(lagging)
        # prefer a process with actionable work that is not this monitor;
        # failing that wait here if this process is needed (for its future
        # events or termination), else at a process the token is parked on
        elsewhere = live - parked - {mine}
        if not elsewhere and mine not in targets:
            elsewhere = parked - {mine}
        if elsewhere:
            target = self.routing.pick_target(mine, sorted(elsewhere), token)
            self.send(token, target)
        else:
            # nothing actionable anywhere else: keep the token until a local
            # event or a termination notice changes the situation
            self.park(token)

    def send(self, token: Token, target: int) -> None:
        """Queue *token* for *target*, with the events its entries reached here."""
        token.declared = self.news()
        self.metrics.events_shipped += self.columns.extend_run(token)
        self.outbox.append((self.routing.next_hop(self.process, target), token))

    def flush(self, transport: Transport) -> None:
        """Send what the callback queued, at its end, on *transport*: one message
        per target, in first-send order — the message alone, or a frame (a
        tuple) of them in send order.  A frame holding a token counts as a
        token message, one of notices only as a termination message."""
        frames: dict[int, list[Token | TerminationNotice]] = {}
        for target, message in self.outbox:
            frames.setdefault(target, []).append(message)
        self.outbox = []
        for target, messages in frames.items():
            tokens = Token in map(type, messages)
            self.metrics.token_messages_sent += tokens
            self.metrics.termination_messages_sent += not tokens
            frame = messages[0] if len(messages) == 1 else tuple(messages)
            transport.send(self.process, target, frame)
