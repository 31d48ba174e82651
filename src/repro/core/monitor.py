"""The decentralized LTL3 monitoring algorithm (the paper's contribution).

Each program process ``P_i`` is composed with a monitor process ``M_i`` that

* reads the local events of ``P_i`` as they occur (:meth:`DecentralizedMonitor.local_event`);
* maintains a set of **global views** — lattice paths it is tracing, each
  with a consistent cut and the LTL3 monitor automaton state reached
  (:mod:`repro.core.global_view`);
* when a transition of the automaton might be enabled by states of other
  processes, runs a least-consistent-cut search over the columns of events
  it holds (:mod:`repro.core.columns`), and emits a **token** that carries
  the search on to other monitors only for the events it lacks
  (:mod:`repro.core.tokens`);
* forks new global views from decided searches by a box search
  (:mod:`repro.core.box`), merges duplicate views, and declares ⊤/⊥ verdicts
  as soon as a traced path reaches a conclusive automaton state.

This module keeps the entry points and the wiring: the step of a view by an
own event, and what a returning token forks.  Each of the four modules above
hides one decision; where each departs from the thesis pseudo-code, and why:
``docs/architecture.md``.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..coordination.topology import RoundRobinToken
from ..distributed.events import Event
from ..ltl.monitor import MonitorAutomaton
from ..ltl.predicates import PropositionRegistry
from ..ltl.verdict import Verdict
from .box import Box, Property, states_of
from .columns import Columns
from .global_view import GlobalView, ViewSet, ViewStatus
from .messages import TerminationNotice, Token
from .tokens import Search, Tokens
from .transport import Transport

__all__ = ["MonitorMetrics", "DecentralizedMonitor", "check_view_budget", "verdict_divergence"]


def verdict_divergence(
    decentralized: Iterable[Verdict], centralized: Iterable[Verdict]
) -> frozenset[Verdict]:
    """The soundness comparison seam: decentralized verdicts the oracle denies.

    Soundness (the paper's claim) is ``decentralized ⊆ centralized``: every
    conclusive verdict declared is also declared by the centralized monitor,
    which explores every reachable consistent cut.  Returns the violating
    verdicts (empty = sound); the fuzzer and the adversarial tests classify
    soundness through it.  Eviction, crashes and message loss may cost
    completeness, never soundness; where none happened the run must declare
    exactly the oracle's set (``repro.fuzz.engine.execute_point`` and the
    ground-truth tests check it).
    """
    return frozenset(decentralized) - frozenset(centralized)


def check_view_budget(max_views_per_state: int | None) -> None:
    """Refuse a per-state view budget below 1 (``None``: no budget) with
    ``ValueError``: a monitor, a run spec and a fleet tenant all take one."""
    if max_views_per_state is not None and max_views_per_state < 1:
        raise ValueError(
            f"max_views_per_state must be None or at least 1 (got {max_views_per_state})"
        )


@dataclass
class MonitorMetrics:
    """Per-monitor counters reported by the experiments of Chapter 5."""

    events_processed: int = 0
    tokens_created: int = 0
    entries_created: int = 0
    token_messages_sent: int = 0
    termination_messages_sent: int = 0
    views_created: int = 0
    views_merged: int = 0
    max_active_views: int = 0
    delayed_events: int = 0
    token_hops_served: int = 0
    #: decided entries whose box was asked about (the rest: ``boxes_remembered``),
    #: and how many of them their target's letter answered without a search
    box_queries: int = 0
    boxes_by_letter: int = 0
    #: cells the searches created — one search per view step, over the union
    #: of its entries' boxes; tuples of letter-run segments, not of events
    box_cells_visited: int = 0
    #: views dropped by the per-state budget (not counted in ``views_merged``),
    #: and views retired because their monitor settled (:meth:`~repro.core.global_view.ViewSet.settle`)
    views_evicted: int = 0
    views_settled: int = 0
    #: of ``views_settled``, those retired by a settle that needed ``heard``
    settled_on_news: int = 0
    #: events this monitor appended to the runs of tokens leaving it
    events_shipped: int = 0
    #: most hops of any token this monitor consumed or swallowed as its
    #: parent (reports and crash incarnations fold it by max, not by sum)
    token_hops_max: int = 0
    #: own tokens dropped at home because their view was retired meanwhile
    orphan_tokens_swallowed: int = 0
    #: searches and repairs decided from the columns before any token left
    #: (``tokens_created`` counts only the tokens that did leave)
    answered_at_home: int = 0
    #: searches ``Tokens.least`` answered without a walk, and decided entries whose
    #: box ``GlobalView.searched`` says the view's last step searched
    least_cuts_remembered: int = 0
    boxes_remembered: int = 0
    #: own events a parked token stayed parked through, unserved (per token)
    parked_tokens_slept: int = 0

    @property
    def messages_sent(self) -> int:
        """Total transport messages (frames, :meth:`~repro.core.tokens.Tokens.flush`)
        this monitor put on the network: token + termination messages; the
        network-level counter of a reliable transport must agree with the sum
        of this property across monitors."""
        return self.token_messages_sent + self.termination_messages_sent

    @classmethod
    def fold(cls, records: Iterable[MonitorMetrics]) -> MonitorMetrics:
        """One record for many: counters add up, the two that are maxima do not."""
        merged = cls()
        for record in records:
            for name, value in vars(record).items():
                held = getattr(merged, name)
                maximum = name in ("max_active_views", "token_hops_max")
                setattr(merged, name, max(held, value) if maximum else held + value)
        return merged



class DecentralizedMonitor:
    """Monitor process ``M_i`` of the decentralized algorithm.

    Parameters
    ----------
    process:
        Index ``i`` of the program process this monitor is attached to.
    num_processes:
        Total number of processes ``n``.
    automaton:
        The (replicated) LTL3 monitor automaton.
    registry:
        Binding of the automaton's atomic propositions to processes.
    initial_letters:
        The per-process letters of the initial global state (known to every
        monitor, as in the paper's INIT procedure).
    transport:
        Network used to exchange tokens and termination notices.
    max_views_per_state:
        Optional bound on the number of live global views a monitor keeps
        per automaton state.  ``None`` (default) explores exhaustively —
        this is the setting validated against the lattice oracle on small
        computations.  The experiment harness uses a small bound, which
        reproduces the paper's lightweight behaviour (total views bounded by
        a small multiple of the automaton size) on long workloads at the
        cost of possibly missing verdicts reachable only through the pruned
        views.  A bound below 1 is rejected.

    The layers are the attributes ``columns``, ``box``, ``views`` and ``tokens``.
    """

    def __init__(
        self,
        process: int,
        num_processes: int,
        automaton: MonitorAutomaton,
        registry: PropositionRegistry,
        initial_letters: Sequence[frozenset[str]],
        transport: Transport,
        max_views_per_state: int | None = None,
    ) -> None:
        check_view_budget(max_views_per_state)
        self.process = process
        self.num_processes = num_processes
        self.automaton = automaton
        self.registry = registry
        self.transport = transport
        #: where tokens and termination notices go (``docs/architecture.md``, Routing)
        self.routing = RoundRobinToken(num_processes)
        #: letters are integer bitmasks over the automaton's own atoms only:
        #: propositions it does not read are projected away, so events that
        #: change only those repeat the mask
        self._compiled = compiled = automaton.compiled
        self._num_states = automaton.num_states
        #: (bit, predicate) of each atom this process owns: an own event's mask
        self._own_atoms = [
            (1 << a, registry[atom].evaluate)
            for a, atom in enumerate(compiled.atoms)
            if registry.owner_of(atom) == process
        ]
        self.metrics = MonitorMetrics()
        #: the declarations, kept once: the conclusive states declared, as a
        #: bitset, and their verdicts in the order first declared
        self.declared_bits = 0
        self.verdict_log: list[Verdict] = []
        #: conclusive states declared elsewhere, as messages tell (settling reads it)
        self.heard = 0

        #: the layers, each over the state of the ones before it
        shared = Property.of(automaton, registry, num_processes)
        self.columns = Columns(
            process, [compiled.encode(letter) for letter in initial_letters], compiled.n_letters
        )
        self.box = Box(process, self.columns, automaton, shared, self.metrics, self._declare_reached)
        self._final_bits = self.box.final_bits
        self.views = ViewSet(
            automaton, self.box, self.metrics, max_views_per_state, self._declare_reached
        )
        self.tokens = Tokens(
            process, self.columns, self.views, self.routing, self.metrics,
            lambda: self.declared_bits | self.heard, self._token_returned,
        )  # fmt: skip
        #: the guardless row of a repair
        self._repair_row = (None, ((0, 0),) * num_processes, ())

        view = GlobalView(
            cut=[0] * num_processes,
            state=compiled.step(automaton.initial_state, self.columns.mask_at([0] * num_processes)),
        )
        self.views.add(view)
        if automaton.is_final(view.state):
            self.views.retire(view)
        self.metrics.max_active_views = len(self.views)
        self._started = False

    @property
    def terminated(self) -> dict[int, int | None]:
        """Final event count of each process, once known (the columns' record)."""
        return self.columns.terminated

    @property
    def declared_verdicts(self) -> set[Verdict]:
        """The conclusive verdicts declared so far (read off ``verdict_log``)."""
        return set(self.verdict_log)

    def _declare_reached(self, states: int) -> None:
        """Declare the conclusive states of a bitset, in ascending order
        (declaring a state again changes nothing)."""
        fresh = states & self._final_bits & ~self.declared_bits
        self.declared_bits |= fresh
        for state in states_of(fresh):
            verdict = self.automaton.verdict(state)
            if verdict not in self.verdict_log:
                self.verdict_log.append(verdict)

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Explore outgoing transitions of the initial global view.

        Must be called once all monitors are registered with the transport
        (mirrors the INIT procedure, which processes the initial state as a
        pseudo event).
        """
        if self._started:
            return
        self._started = True
        for view in list(self.views):
            self._advance_views(self._explore_outgoing(view, self.columns.mask_at(view.cut)))
        self.views.merge(self.declared_bits, self.heard)
        self.tokens.flush(self.transport)

    def local_event(self, event: Event) -> None:
        """Handle one event read from the attached program process: one pass
        over what it can change (``docs/architecture.md``, core/monitor.py)."""
        mine, columns = self.process, self.columns
        sn = len(columns.vcs[mine])  # the own column's end, plus one
        if event.process != mine:
            raise ValueError(f"monitor {mine} received event of process {event.process}")
        if event.sn != sn:
            raise ValueError(f"monitor {mine} expected event {sn}, got event {event.sn}")
        if not self._started:
            self.start()
        self.metrics.events_processed += 1
        state, mask = event.state, 0
        for bit, holds in self._own_atoms:
            if holds(state):
                mask |= bit
        columns.append_own(mask, tuple(event.vc))

        if self.views.waiting:
            self.metrics.delayed_events += 1
        if self.tokens.waiting:
            self.tokens.retry(own_event=True)
        if self._advance_views(self.views):
            # else the views are what the last merge left: it would do nothing
            self.views.merge(self.declared_bits, self.heard)
        if self.tokens.outbox:
            self.tokens.flush(self.transport)

    def local_termination(self) -> None:
        """Handle the termination signal of the attached program process."""
        if not self._started:
            self.start()
        last = self.terminated[self.process] = self.columns.last(self.process)
        notice = TerminationNotice(self.process, last, self.declared_bits | self.heard)
        self.tokens.outbox += [
            (j, notice) for j in self.routing.termination_recipients(self.process)
        ]
        # my process will contribute no further events: views whose guards are
        # currently satisfied can now only fire through remote events.
        for view in list(self.views):  # the unblocked ones
            mask = self.columns.mask_at(view.cut)
            self._advance_views(self._explore_outgoing(view, mask, include_currently_satisfied=True))
        self.tokens.retry()
        self.views.merge(self.declared_bits, self.heard)
        self.tokens.flush(self.transport)

    def receive_message(self, message: object) -> None:
        """Handle a message from another monitor, or a frame (a tuple) of them:
        a part that does not fit refuses the whole frame — a token fits when
        ``num_processes`` wide and its parent is a process of the session, a
        notice when it ends another process no earlier than the events held of
        it and as any earlier notice did — the parts are handled in order, and
        what they send leaves once."""
        n, told = self.num_processes, dict(self.terminated)
        parts = message if isinstance(message, tuple) else (message,)
        for part in parts:
            if isinstance(part, Token):
                vectors = [(e.bits, e.start_cut, e.cut, e.depend, e.min_positions, e.satisfied)
                           for e in part.entries]  # fmt: skip
                widths = {len(part.known), *[len(v) for six in vectors for v in six]}
                if widths != {n}:
                    raise ValueError(f"a token {sorted(widths)} wide for a monitor of {n} processes")
                if not 0 <= part.parent_process < n:
                    raise ValueError(f"a token of parent {part.parent_process} of {n} processes")
            elif not isinstance(part, TerminationNotice):
                raise TypeError(f"unexpected monitor message {part!r}")
            elif not 0 <= (j := part.process) < n or j == self.process:
                raise ValueError(f"a termination notice of process {j} of {n} to {self.process}")
            else:
                held, last = self.columns.last(j), part.final_event_sn
                if last < held or told[j] not in (None, last):
                    raise ValueError(f"process {j} ends at {last}: {held} held, {told[j]} told")
                told[j] = last
        for part in parts:
            self._receive(part)
        self.tokens.flush(self.transport)

    def _receive(self, message: Token | TerminationNotice) -> None:
        """One message of :meth:`receive_message`; news of declarations settles first."""
        if message.declared & self._final_bits & ~(self.declared_bits | self.heard):
            self.heard |= message.declared & self._final_bits
            self.views.settle(self.declared_bits, self.heard)
        if isinstance(message, TerminationNotice):
            self.terminated[message.process] = message.final_event_sn
            self.tokens.retry()
            self.views.merge(self.declared_bits, self.heard)
            return
        self.columns.absorb_runs(message)  # whoever's token it is
        if self.tokens.ends_here(message):
            # the token is merely returning home: the parent consumes
            # (or swallows) it, it does not serve a hop
            self._token_returned(message)
        else:
            message.hops += 1
            self.metrics.token_hops_served += 1
            self.tokens.serve(message)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def is_quiescent(self) -> bool:
        """No outstanding work besides possibly waiting on other monitors."""
        return not self.tokens.waiting and not self.views.waiting

    def reported_verdicts(self) -> set[Verdict]:
        """Verdicts this monitor reports at the end of the run: those it
        declared, and ``?`` if some view was still inconclusive when the
        monitor stopped exploring — a live view at the end of the run, or a
        view retired when the monitor settled (:meth:`ViewSet.settle`)."""
        live = {self.automaton.verdict(view.state) for view in self.views}
        if self.metrics.views_settled:
            live.add(Verdict.INCONCLUSIVE)
        return self.declared_verdicts | live

    # ------------------------------------------------------------------
    # the step of a view (PROCESSEVENT, CHECKOUTGOINGTRANSITIONS)
    # ------------------------------------------------------------------
    def _advance_views(self, views: Iterable[GlobalView]) -> bool:
        """Apply pending local events (from history) to the *views* that can
        step — unblocked, own component below the column's end; returns
        whether a view stepped.

        Views forked by searches answered at home are advanced from the same
        worklist: nesting one call per answer would exhaust the stack.  On
        entry and before every step, :meth:`ViewSet.settle` runs if a state was
        declared or heard since it last ran: once settled, no view steps.
        """
        mine, live, unblocked = self.process, self.views, ViewStatus.UNBLOCKED
        last, stepped = len(self.columns.vcs[mine]) - 1, False
        work = [view for view in views if view.status == unblocked and view.cut[mine] < last][::-1]
        while (
            self.declared_bits | self.heard == live.checked
            or not live.settle(self.declared_bits, self.heard)
        ) and work:
            view = work.pop()
            if view.status == unblocked and view.cut[mine] < last:
                stepped = True
                work += reversed(self._step_view(view, view.cut[mine] + 1))
                work.append(view)  # stepped on before the views it forked
        return stepped

    def _step_view(self, view: GlobalView, sn: int) -> Sequence[GlobalView]:
        """Advance *view* by local event *sn* (PROCESSEVENT); returns the
        views forked from it by what was answered at home."""
        past = self.columns.own_past(view.cut, sn)
        if past != view.cut:
            # out of order: a search without a guard pulls the view up to its
            # cut joined with the event's causal past; answered here when the
            # columns reach that far (the view is retired, its forks returned)
            repair: Search = (self._repair_row, [True] * len(past), past)
            return self._issue(view, [repair], self.columns.mask_at(view.cut))

        view.cut[self.process] = sn
        mask = self.columns.mask_at(view.cut)
        view.state = new_state = self._compiled.step(view.state, mask)
        if self.automaton.is_final(new_state):
            self.views.retire(view)
            return ()
        return self._explore_outgoing(view, mask)

    def _explore_outgoing(
        self, view: GlobalView, mask: int, include_currently_satisfied: bool = False
    ) -> Sequence[GlobalView]:
        """Search for possibly-enabled outgoing transitions from *view*, whose
        cut has letter *mask*; returns the views forked if every search was
        answered at home.

        A transition is *possibly enabled* when this process's conjunct holds
        at the view's current letter but remote conjuncts do not (so remote
        processes must advance for the guard to become true).  With
        ``include_currently_satisfied`` also guards that already hold are
        searched with the requirement that some participating remote process
        advances — used once the local process has terminated and can no
        longer trigger the transition itself.  A floor at the cut is the cut.
        """
        if view.status != ViewStatus.UNBLOCKED:
            return ()
        cut, box = view.cut, self.box
        key = mask << self._num_states | view.state
        ordinary, every = box.table.get(key) or box.searches_at(key)
        if include_currently_satisfied:
            searches: list[Search] = []
            for row, satisfied in every:
                if all(satisfied):  # require at least one participating remote process to move
                    searches += [
                        (row, satisfied, [at + (k == j) for k, at in enumerate(cut)])
                        for j in row[2]
                    ]
                else:
                    searches.append((row, satisfied, cut))
        else:
            searches = [(row, satisfied, cut) for row, satisfied in ordinary]
        return self._issue(view, searches, mask) if searches else ()

    def _issue(self, view: GlobalView, searches: list[Search], mask: int) -> Sequence[GlobalView]:
        """Issue *searches* for *view* (letter *mask* at its cut); the views
        forked if all were answered at home (to the caller's worklist)."""
        answered = self.tokens.issue(view, searches)
        return self.views.forks(view, *answered, mask) if answered else ()

    # ------------------------------------------------------------------
    # token return (RECEIVETOKEN at the parent)
    # ------------------------------------------------------------------
    def _token_returned(self, token: Token) -> None:
        """The parent takes its token back: the one place foreign cuts come in,
        so a stale or forged entry is left out here (the columns lack its box)."""
        self.metrics.token_hops_max = max(self.metrics.token_hops_max, token.hops)
        view = self.views.resume(token.token_id)
        if view is None:
            # orphan: its view was retired (evicted); keep the events, drop it
            self.metrics.orphan_tokens_swallowed += 1
            return
        spans = self.columns.spans
        targets = [
            tuple(entry.cut) for entry in token.entries
            if entry.eval is True and spans(view.cut, entry.cut)
        ]  # fmt: skip
        repair = any(entry.is_repair for entry in token.entries)
        mask = self.columns.mask_at(view.cut)
        self._advance_views((*self.views.forks(view, targets, repair, mask), view))
        self.views.merge(self.declared_bits, self.heard)
