"""The decentralized LTL3 monitoring algorithm (the paper's contribution).

Each program process ``P_i`` is composed with a monitor process ``M_i`` that

* reads the local events of ``P_i`` as they occur (:meth:`DecentralizedMonitor.local_event`);
* maintains a set of **global views** — lattice paths it is tracing, each
  with a consistent cut and the LTL3 monitor automaton state reached
  (:mod:`repro.core.global_view`);
* when a transition of the automaton might be enabled by states of other
  processes, runs a least-consistent-cut search (:mod:`repro.core.messages`)
  over the columns of events it holds, and emits a **token** that carries
  the search on to other monitors only for the events it lacks;
* forks new global views from decided searches, merges duplicate views, and
  declares ⊤/⊥ verdicts as soon as a traced path reaches a conclusive
  automaton state.

Where this departs from the thesis pseudo-code (implicit pending queue, one
box search per view step, every component of a search answered from the shared
columns, no ``(state, cut)`` explored twice, no guard's least cut walked twice
nor a guard dead for a view looked up, no box searched by the same view twice,
no parked token served by an own event that cannot move it, no exploring once
every conclusive state in reach is declared here or, as messages tell,
elsewhere), why a step pays only for the guards that can still fire (a search
answered at home forks from target cuts, not entries) and an own event that
moves nothing costs little, and how the two hot loops — token serving off the
guard rows, built once per property with a step's searches looked up by
(global letter, state), and box search off the segment index, set up from the
join: walked in a line when it moves one process, else held in cells only for
the processes it moves — are built: ``docs/architecture.md``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import le, mul, sub

from ..coordination.topology import RoundRobinToken
from ..distributed.events import Event
from ..ltl.monitor import MonitorAutomaton
from ..ltl.predicates import PropositionRegistry
from ..ltl.verdict import Verdict
from .global_view import GlobalView, ViewStatus
from .messages import TerminationNotice, Token, TokenEntry
from .transport import Transport

__all__ = ["MonitorMetrics", "DecentralizedMonitor", "verdict_divergence"]

#: one search ``_issue_token`` is handed: a row ``(transition_id, bits, remote, guard
#: id)``, per process whether its conjunct holds at the cut, and the floor
Search = tuple[tuple, list[bool], list[int]]


def verdict_divergence(
    decentralized: Iterable[Verdict], centralized: Iterable[Verdict]
) -> frozenset[Verdict]:
    """The soundness comparison seam: decentralized verdicts the oracle denies.

    The paper's soundness claim is that every conclusive verdict a
    decentralized monitor declares corresponds to a real execution path —
    i.e. is also declared by the centralized reference monitor, which
    explores every reachable consistent cut
    (``decentralized ⊆ centralized``).  This helper returns the violating
    verdicts (empty = sound).  The reverse direction is not part of
    soundness: view eviction, crashes and message loss may cost
    completeness, never soundness.  Where none of them happened the
    decentralized run must declare exactly the oracle's set; the fuzzer
    (``repro.fuzz.engine.execute_point``) and the ground-truth tests check
    that converse.  The fuzzer and the adversarial tests both classify
    soundness through this one function.
    """
    return frozenset(decentralized) - frozenset(centralized)


#: bound on each integer-keyed cache of a property: images, and per process searches
_IMAGE_CACHE_LIMIT = 1 << 16


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
    #: and views retired because their monitor settled (:meth:`~DecentralizedMonitor._settle`)
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
    #: searches ``_least`` answered without a walk, and decided entries whose
    #: box ``GlobalView.searched`` says the view's last step searched
    least_cuts_remembered: int = 0
    boxes_remembered: int = 0
    #: own events a parked token stayed parked through, unserved (per token)
    parked_tokens_slept: int = 0

    @property
    def messages_sent(self) -> int:
        """Total transport messages (frames, :meth:`DecentralizedMonitor._flush`)
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


def _states_of(bits: int) -> Iterator[int]:
    """The members of a state bitset, in ascending order."""
    state = 0
    while bits:
        if bits & 1:
            yield state
        bits >>= 1
        state += 1


class _Property:
    """What every monitor of one property shares, built once per automaton,
    process count and owner of each compiled atom and kept on the automaton
    (``MonitorAutomaton.shared``): per state its guard rows ``(transition_id,
    bits, guard id)`` — per process the ``(care, want)`` bits of the guard's
    conjunct, one object and one small id per distinct guard — and bounded
    caches of pure functions of the automaton: images, and per process the
    searches of a step (:meth:`DecentralizedMonitor._searches_at`)."""

    __slots__ = ("rows", "images", "searches")

    def __init__(self, automaton: MonitorAutomaton, registry: PropositionRegistry, n: int) -> None:
        encode = automaton.compiled.encode
        ids: dict[tuple, tuple] = {}  # bits -> (bits, guard id)
        self.rows: list[tuple[tuple[int, tuple[tuple[int, int], ...], int], ...]] = []
        for state in automaton.states:
            table = []
            for transition in automaton.outgoing_transitions(state):
                conjuncts = registry.conjuncts_by_process(transition.guard, n)
                bits = tuple((encode(c), encode(a for a in c if c[a])) for c in conjuncts)
                table.append((transition.transition_id, *ids.setdefault(bits, (bits, len(ids)))))
            self.rows.append(tuple(table))
        self.images: dict[int, int] = {}
        self.searches: list[dict[int, tuple[list, list]]] = [{} for _ in range(n)]


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
        if max_views_per_state is not None and max_views_per_state < 1:
            raise ValueError(
                f"max_views_per_state must be None or at least 1 (got {max_views_per_state})"
            )
        self.process = process
        self.num_processes = num_processes
        self.automaton = automaton
        self.registry = registry
        self.transport = transport
        self.max_views_per_state = max_views_per_state
        #: where tokens and termination notices go (``docs/architecture.md``, Routing)
        self.routing = RoundRobinToken(num_processes)
        #: letters are integer bitmasks over the automaton's own atoms only:
        #: propositions it does not read are projected away, so events that
        #: change only those repeat the mask
        self._compiled = automaton.compiled
        self._num_states = automaton.num_states
        owners = tuple(map(registry.owner_of, self._compiled.atoms))
        #: (bit, predicate) of each atom this process owns: an own event's mask
        self._own_atoms = [
            (1 << a, registry[atom].evaluate)
            for a, atom in enumerate(self._compiled.atoms)
            if owners[a] == process
        ]
        #: the guard rows and caches every monitor of this property shares
        #: (:class:`_Property`), and the guardless row of a repair (an id no guard has)
        key = num_processes, owners
        shared = automaton.shared.get(key) or automaton.shared.setdefault(
            key, _Property(automaton, registry, num_processes)
        )
        self._rows, self._image_cache = shared.rows, shared.images
        self._searches = shared.searches[process]
        self._repair_row = (None, ((0, 0),) * num_processes, (), sum(map(len, shared.rows)))
        #: a guard's ``bits`` -> the floor and the least cut above it (``None``:
        #: there is none) of the last search of it that was walked at issue time
        self._least: dict[tuple, tuple[tuple[int, ...], tuple[int, ...] | None]] = {}
        self._final_bits = sum(1 << q for q in automaton.states if automaton.is_final(q))
        #: per state, the states a view there can still reach (settling reads it)
        self._reach = automaton.reach_bits
        self.metrics = MonitorMetrics()

        #: per process, the events of that process this monitor holds, as
        #: columns indexed by sequence number (position 0 is the initial
        #: state): letter mask and vector clock.  A column is always a
        #: gapless prefix of the process's events and only grows —
        #: its own process's from ``local_event``, the others' from the runs
        #: of every token that passes.  Invariant: every view of this monitor
        #: has ``cut[j] < len(column j)``: cuts only move to the cut of an
        #: entry answered here, or returned after its runs were absorbed.
        #: ``seg_starts[j]`` indexes mask column ``j`` by *segments*: position
        #: 0 and every position whose mask differs from its predecessor's.
        self.mask_columns = [[self._compiled.encode(letter)] for letter in initial_letters]
        self.seg_starts: list[list[int]] = [[0] for _ in range(num_processes)]
        self.vc_columns: list[list[tuple[int, ...]]] = [
            [(0,) * num_processes] for _ in range(num_processes)
        ]
        self.local_vcs = self.vc_columns[process]
        #: the components a visit advances: this process's, then all others'
        self._serve_order = (process, *(j for j in range(num_processes) if j != process))
        #: final event count of each process, once known
        self.terminated: dict[int, int | None] = dict.fromkeys(range(num_processes))

        self.views: list[GlobalView] = []
        self.final_views: list[GlobalView] = []
        #: birth signatures of the views created, less those an eviction gave up
        self._born: set[tuple[int, tuple[int, ...]]] = set()
        self.waiting_tokens: list[Token] = []
        #: what the running callback sends: (target, message) in send order
        self._outbox: list[tuple[int, Token | TerminationNotice]] = []
        #: how often ``_absorb_runs`` grew a foreign column, and each waiting
        #: token's wake record (:meth:`_park`) — by the token object: copies
        #: share a ``token_id``
        self._absorbed = 0
        self._parked_at: dict[int, tuple[int | None, set, tuple]] = {}
        self._outstanding: dict[int, GlobalView] = {}  # token_id -> waiting view
        self._checked = -1  # declared_bits | heard when _settle last ran

        #: the declarations, kept once: the conclusive states declared, as a
        #: bitset, and their verdicts in the order first declared
        self.declared_bits = 0
        self.verdict_log: list[Verdict] = []
        #: conclusive states declared elsewhere, as messages tell (settling reads it)
        self.heard = 0

        view = GlobalView(
            cut=[0] * num_processes,
            state=self._compiled.step(automaton.initial_state, self._mask_at([0] * num_processes)),
        )
        self.metrics.views_created += 1
        self._born |= view.born
        self.views.append(view)
        if automaton.is_final(view.state):
            self._retire(view)
        self.metrics.max_active_views = len(self.views)
        self._started = False

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _mask_at(self, cut: Sequence[int]) -> int:
        """The global letter mask at *cut*, off the mask columns."""
        mask = 0
        for column, at in zip(self.mask_columns, cut):
            mask |= column[at]
        return mask

    def _append_masks(self, j: int, fresh: Iterable[int]) -> None:
        """Append *fresh* masks to mask column *j* and index the segments
        they open (the one place a mask column grows)."""
        masks, starts = self.mask_columns[j], self.seg_starts[j]
        for mask in fresh:
            if mask != masks[-1]:
                starts.append(len(masks))
            masks.append(mask)

    def _searches_at(self, key: int) -> tuple[list, list]:
        """Search-table miss: the searches a step from *key* —
        ``global letter mask << num_states | state`` — issues, as ``(row,
        satisfied)`` pairs in row order: those of a step before this process
        terminated, and every row whose own conjunct holds and that has a
        remote one.  Exact per global mask because the ``(care, want)`` bits
        of process ``j`` cover only atoms ``j`` owns, and column ``j`` holds
        only their bits."""
        mine, mask = self.process, key >> self._num_states
        ordinary: list[tuple[tuple, list[bool]]] = []
        every: list[tuple[tuple, list[bool]]] = []
        for transition_id, bits, guard in self._rows[key & ((1 << self._num_states) - 1)]:
            care, want = bits[mine]
            remote = tuple(j for j, pair in enumerate(bits) if pair[0] and j != mine)
            if mask & care != want or not remote:
                # this process forbids the transition at its frontier, or its
                # guard is purely *local*: a later local event re-evaluates it
                continue
            satisfied = [mask & care == want for care, want in bits]
            every.append(((transition_id, bits, remote, guard), satisfied))
            if not all(satisfied):
                ordinary.append(every[-1])
        found = ordinary, every
        if len(self._searches) < _IMAGE_CACHE_LIMIT:
            self._searches[key] = found
        return found

    def _image(self, key: int) -> int:
        """Image-cache miss: step every state of a state set through a letter.

        *key* is ``letter_mask << num_states | state_bits``; the result is
        the bitset of successor states.
        """
        mask = key >> self._num_states
        image = 0
        for state in _states_of(key & ((1 << self._num_states) - 1)):
            image |= 1 << self._compiled.step(state, mask)
        if len(self._image_cache) < _IMAGE_CACHE_LIMIT:
            self._image_cache[key] = image
        return image

    @property
    def declared_verdicts(self) -> set[Verdict]:
        """The conclusive verdicts declared so far (read off ``verdict_log``)."""
        return set(self.verdict_log)

    def _declare_reached(self, states: int) -> None:
        """Declare the conclusive states of a bitset, in ascending order
        (declaring a state again changes nothing)."""
        fresh = states & self._final_bits & ~self.declared_bits
        self.declared_bits |= fresh
        for state in _states_of(fresh):
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
            self._advance_views(self._explore_outgoing(view))
        self._merge_views()
        self._flush()

    def local_event(self, event: Event) -> None:
        """Handle one event read from the attached program process."""
        if event.process != self.process:
            raise ValueError(f"monitor {self.process} received event of process {event.process}")
        if event.sn != len(self.local_vcs):
            raise ValueError(
                f"monitor {self.process} expected event {len(self.local_vcs)}, "
                f"got event {event.sn}"
            )
        if not self._started:
            self.start()
        self.metrics.events_processed += 1
        mask = sum(bit for bit, holds in self._own_atoms if holds(event.state))
        self._append_masks(self.process, (mask,))
        self.local_vcs.append(tuple(event.vc))

        if any(view.is_waiting() for view in self.views):
            self.metrics.delayed_events += 1

        self._retry_waiting_tokens(own_event=True)
        if self._advance_views(self.views):
            # else the views are what the last merge left: it would do nothing
            self._merge_views()
        if self._outbox:
            self._flush()

    def local_termination(self) -> None:
        """Handle the termination signal of the attached program process."""
        if not self._started:
            self.start()
        last = self.terminated[self.process] = len(self.local_vcs) - 1
        notice = TerminationNotice(self.process, last, self.declared_bits | self.heard)
        self._outbox += [(j, notice) for j in self.routing.termination_recipients(self.process)]
        # my process will contribute no further events: views whose guards are
        # currently satisfied can now only fire through remote events.
        for view in list(self.views):  # the unblocked ones
            self._advance_views(self._explore_outgoing(view, include_currently_satisfied=True))
        self._retry_waiting_tokens()
        self._merge_views()
        self._flush()

    def receive_message(self, message: object) -> None:
        """Handle a message from another monitor, or a frame (a tuple) of them:
        a part that does not fit refuses the whole frame — a token fits when
        ``num_processes`` wide, a notice when it ends another process no earlier
        than the events held of it and as any earlier notice did — the parts
        are handled in order, and what they send leaves once."""
        n, told = self.num_processes, dict(self.terminated)
        parts = message if isinstance(message, tuple) else (message,)
        for part in parts:
            if isinstance(part, Token):
                vectors = [(e.bits, e.start_cut, e.cut, e.depend, e.min_positions, e.satisfied)
                           for e in part.entries]  # fmt: skip
                widths = {len(part.known), *[len(v) for six in vectors for v in six]}
                if widths != {n}:
                    raise ValueError(f"a token {sorted(widths)} wide for a monitor of {n} processes")
            elif not isinstance(part, TerminationNotice):
                raise TypeError(f"unexpected monitor message {part!r}")
            elif not 0 <= (j := part.process) < n or j == self.process:
                raise ValueError(f"a termination notice of process {j} of {n} to {self.process}")
            else:
                held, last = len(self.vc_columns[j]) - 1, part.final_event_sn
                if last < held or told[j] not in (None, last):
                    raise ValueError(f"process {j} ends at {last}: {held} held, {told[j]} told")
                told[j] = last
        for part in parts:
            self._receive(part)
        self._flush()

    def _receive(self, message: Token | TerminationNotice) -> None:
        """One message of :meth:`receive_message`; news of declarations settles first."""
        if message.declared & self._final_bits & ~(self.declared_bits | self.heard):
            self.heard |= message.declared & self._final_bits
            self._settle()
        if isinstance(message, TerminationNotice):
            self.terminated[message.process] = message.final_event_sn
            self._retry_waiting_tokens()
            self._merge_views()
            return
        self._absorb_runs(message)  # whoever's token it is
        if self._ends_here(message):
            # the token is merely returning home: the parent consumes
            # (or swallows) it, it does not serve a hop
            self._token_returned(message)
        else:
            message.hops += 1
            self.metrics.token_hops_served += 1
            self._serve_token(message)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def is_quiescent(self) -> bool:
        """No outstanding work besides possibly waiting on other monitors."""
        return not self.waiting_tokens and not self._outstanding

    def reported_verdicts(self) -> set[Verdict]:
        """Verdicts this monitor reports at the end of the run: those it
        declared, and ``?`` if some view was still inconclusive when the
        monitor stopped exploring — a live view at the end of the run, or a
        view retired when the monitor settled (:meth:`_settle`)."""
        live = {self.automaton.verdict(view.state) for view in self.views}
        if self.metrics.views_settled:
            live.add(Verdict.INCONCLUSIVE)
        return self.declared_verdicts | live

    # ------------------------------------------------------------------
    # view advancement on local events
    # ------------------------------------------------------------------
    def _advance_views(self, views: Iterable[GlobalView]) -> bool:
        """Apply pending local events (from history) to the unblocked *views*;
        returns whether a view stepped.

        Views forked by searches answered at home are advanced from the same
        worklist: nesting one call per answer would exhaust the stack.  On entry
        and before every step, :meth:`_settle` runs if a state was declared or
        heard since it last ran: once the monitor is settled no view steps.
        """
        mine, last = self.process, len(self.local_vcs) - 1
        work, stepped = list(views)[::-1], False
        while (self.declared_bits | self.heard == self._checked or not self._settle()) and work:
            view = work.pop()
            if view.status == ViewStatus.UNBLOCKED and view.cut[mine] < last:
                stepped = True
                work += reversed(self._step_view(view, view.cut[mine] + 1))
                work.append(view)  # stepped on before the views it forked
        return stepped

    def _step_view(self, view: GlobalView, sn: int) -> Sequence[GlobalView]:
        """Advance *view* by local event *sn* (PROCESSEVENT); returns the
        views forked from it by what was answered at home."""
        mine = self.process
        past = list(map(max, view.cut, self.local_vcs[sn]))
        past[mine] = view.cut[mine]
        if past != view.cut:
            # out of order: a search without a guard pulls the view up to its
            # cut joined with the event's causal past; answered here when the
            # columns reach that far (the view is retired, its forks returned)
            return self._issue_token(view, [(self._repair_row, [True] * len(past), past)])

        view.cut[mine] = sn
        view.state = new_state = self._compiled.step(view.state, self._mask_at(view.cut))
        if self.automaton.is_final(new_state):
            self._retire(view)
            return ()
        return self._explore_outgoing(view)

    def _retire(self, view: GlobalView) -> None:
        """Take *view* out of the live views: repaired, or conclusive (declared)."""
        view.status = ViewStatus.FINAL
        if view in self.views:
            self.views.remove(view)
        if self.automaton.is_final(view.state):
            self._declare_reached(1 << view.state)
            self.final_views.append(view)

    # ------------------------------------------------------------------
    # token creation (CHECKOUTGOINGTRANSITIONS)
    # ------------------------------------------------------------------
    def _explore_outgoing(
        self, view: GlobalView, include_currently_satisfied: bool = False
    ) -> Sequence[GlobalView]:
        """Search for possibly-enabled outgoing transitions; returns the
        views forked if every search was answered at home.

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
        cut = view.cut
        key = self._mask_at(cut) << self._num_states | view.state
        ordinary, every = self._searches.get(key) or self._searches_at(key)
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
        return self._issue_token(view, searches) if searches else ()

    def _issue_token(self, view: GlobalView, searches: list[Search]) -> Sequence[GlobalView]:
        """Serve the *searches* from the columns; a token leaves only with
        what they could not decide.  Answered at home, the view never waits
        and its forks are returned (to the caller's worklist, not consumed here).

        A guard's least cut above a floor is its least cut above every floor
        between the two, and none above a floor is none above a larger: what
        ``_least`` covers is not walked, what the view holds dead not even
        looked up (:meth:`_remember`), and neither gets an entry — unless a
        token leaves: an entry per search, the remembered walked last."""
        self.metrics.entries_created += len(searches)
        least, cut = self._least, view.cut
        answers: list[tuple[int, ...] | None] = [None] * len(searches)  # per search: its target
        hits, walked = [], []  # searches answered from memory; walked, with their index
        for at, (row, satisfied, floor) in enumerate(searches):
            if view.dead >> row[3] & 1:
                hits.append(at)
                continue
            known = None if row[0] is None else least.get(row[1])  # a repair: never
            if known and all(map(le, known[0], floor)) and (
                known[1] is None or all(map(le, floor, known[1]))
            ):
                hits.append(at)
                answers[at] = known[1]
                if known[1] is None and floor is cut:
                    view.dead |= 1 << row[3]
            else:
                walked.append((at, self._make_entry(view, row, satisfied, floor)))
        pending = self._serve_entries([entry for _, entry in walked]) if walked else []
        for at, entry in walked:
            if entry.eval is not None and not entry.is_repair:  # whose floor never recurs
                self._remember(view, searches[at], entry)
            if entry.eval:
                answers[at] = tuple(entry.cut)
        if not pending:
            self.metrics.least_cuts_remembered += len(hits)
            self.metrics.answered_at_home += 1
            repair = any(entry.is_repair for _, entry in walked)  # issued alone
            return self._forks_of(view, [target for target in answers if target], repair)
        built = dict(walked) | {at: self._make_entry(view, *searches[at]) for at in hits}
        pending += self._serve_entries([built[at] for at in hits]) if hits else []
        token = Token(
            parent_process=self.process,
            entries=[built[at] for at in range(len(searches))],
            known=[len(column) - 1 for column in self.vc_columns],
        )
        self.metrics.tokens_created += 1
        view.status = ViewStatus.WAITING
        view.outstanding_token = token.token_id
        self._outstanding[token.token_id] = view
        self._route_token(token, pending)
        return ()

    def _remember(self, view: GlobalView, search: Search, entry: TokenEntry) -> None:
        """Write what the walk of *search* decided into ``_least``; a guard
        stays dead for a view (``GlobalView.dead``) while ``_least`` holds
        ``(floor, None)`` for it with the floor at or below the view's cut."""
        (_, bits, _, guard), _, floor = search
        answer = tuple(entry.cut) if entry.eval else None
        self._least[bits] = (tuple(floor), answer)
        bit = 1 << guard
        for other in self.views:
            if other.dead & bit and (answer or not all(map(le, floor, other.cut))):
                other.dead &= ~bit
        if answer is None and floor is view.cut:
            view.dead |= bit

    def _make_entry(
        self, view: GlobalView, row: tuple, satisfied: list[bool], min_positions: list[int]
    ) -> TokenEntry:
        """A search from the view's cut, for the transition of guard-table
        *row* (the guardless row: a repair)."""
        cut, floor = view.cut, list(min_positions)
        return TokenEntry(row[0], row[1], list(cut), list(cut), list(cut), floor, list(satisfied))

    # ------------------------------------------------------------------
    # token service and routing (PROCESSTOKEN / EVALUATETOKEN / SENDTONEXTPROCESS)
    # ------------------------------------------------------------------
    def _ends_here(self, token: Token) -> bool:
        """Whether the token is at home with nothing left to do: decided, or
        an orphan — its view was retired, ``_outstanding`` no longer lists it."""
        return token.parent_process == self.process and (
            token.token_id not in self._outstanding or token.all_decided()
        )

    def _serve_token(self, token: Token) -> None:
        """Serve the token's undecided entries from the columns, route it.

        At home the token is refreshed first: its runs, absorbed on arrival,
        are dropped and ``known`` restarts at the column ends.
        """
        if token.parent_process == self.process:
            token.runs.clear()
            token.known = [len(column) - 1 for column in self.vc_columns]
        undecided = token.undecided_entries()
        self._route_token(token, self._serve_entries(undecided) if undecided else [])

    def _serve_entries(self, entries: list[TokenEntry]) -> list[tuple[TokenEntry, list[int]]]:
        """Serve undecided *entries* (at least one); returns those still
        undecided, each with the processes it needs."""
        pending: list[tuple[TokenEntry, list[int]]] = []
        # processes known to have terminated are worth a (final) visit
        ended = {k for k, final in self.terminated.items() if final is not None} - {self.process}
        ends = self._live_ends()
        for entry in entries:
            entry.waiting_for -= ended
            lagging = self._serve_entry(entry, ends)
            if entry.eval is None:
                if lagging:
                    pending.append((entry, lagging))
                else:
                    entry.eval = True
        return pending

    def _live_ends(self) -> list[int]:
        """Per process, the position :meth:`_serve_entry` does not visit a
        component at: the column's end for a live foreign process (a visit
        there changes nothing: only ``M_j`` can tell more), none (-1) for this
        process and for those known to have ended."""
        return [
            len(column) - 1 if j != self.process and self.terminated[j] is None else -1
            for j, column in enumerate(self.mask_columns)
        ]

    def _serve_entry(self, entry: TokenEntry, ends: list[int]) -> list[int]:
        """Advance every component of the entry that needs it over the columns
        held here: own first, then the others, until nothing moves (a scanned
        clock can lift another component's ``depend``).  A component at its
        position in *ends* (:meth:`_live_ends`) is not visited.  The events
        walked are put on the token when it leaves (:meth:`_extend_run`).
        Returns those that need it still, as the last pass (it moved nothing) saw.
        """
        cut, depend, floor = entry.cut, entry.depend, entry.min_positions
        bits, satisfied = entry.bits, entry.satisfied
        while entry.eval is None:
            moved, lagging = False, []
            for j in self._serve_order:
                at = cut[j]
                care, want = bits[j]
                if at < depend[j] or at < floor[j] or (care and not satisfied[j]):
                    lagging.append(j)
                    if at != ends[j]:
                        self._serve_component(entry, j, care, want)
                        moved = moved or cut[j] > at
            if not moved:
                return lagging
        return []

    def _serve_component(self, entry: TokenEntry, j: int, care: int, want: int) -> None:
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
        masks = self.mask_columns[j]
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
            entry.record_scan(self.vc_columns[j][end])
            entry.cut[j] = end
            entry.satisfied[j] = masks[end] & care == want
            if own:  # news from here: the others are worth revisiting
                entry.waiting_for.intersection_update({j})
            else:
                entry.waiting_for.discard(j)

    def _retry_waiting_tokens(self, own_event: bool = False) -> None:
        """Re-examine parked tokens after a new own event or a termination.

        After an own event a token sleeps — stays parked, unserved, with the
        wake record it was parked with — if the event leaves it as it is
        (:meth:`_sleeps`).  Terminations wake every token, and an orphan is
        swallowed either way.
        """
        tokens, self.waiting_tokens = self.waiting_tokens, []
        for token in tokens:
            if self._ends_here(token):
                del self._parked_at[id(token)]
                self._token_returned(token)  # orphaned while it waited at home
            elif own_event and self._sleeps(token):
                self.metrics.parked_tokens_slept += 1
                self.waiting_tokens.append(token)
            else:
                del self._parked_at[id(token)]
                self._serve_token(token)

    def _sleeps(self, token: Token) -> bool:
        """Whether the newest own event leaves the parked *token* as it is,
        by its wake record (:meth:`_park`): no foreign column grew since it
        was parked, the event's mask satisfies no conjunct recorded and its
        clock exceeds no limit recorded."""
        absorbed, pairs, limits = self._parked_at[id(token)]
        mask, vc = self.mask_columns[self.process][-1], self.local_vcs[-1]
        return (
            absorbed == self._absorbed
            and all(mask & care != want for care, want in pairs)
            and all(vc[k] <= limit for k, limit in limits)
        )

    def _park(self, token: Token) -> None:
        """Keep *token* here until an own event or a termination notice, with
        its wake record.  Only an undecided entry parked on this process can
        move on an own event: when the event's mask satisfies its conjunct
        (the record keeps those ``(care, want)`` bits), when it marks another
        process in ``waiting_for`` (the first own move clears those marks; the
        record's absorption count is then ``None``: never asleep), or when
        the clock exceeds its ``depend[k]`` for a peer ``k`` a serve here could
        move: column ``k`` holds events past its cut, or ``k`` has ended (the
        record keeps the least such ``depend[k]`` per ``k``).  Otherwise a
        serve would only walk the own component on and park again, and the
        one-shot walk at the wake does what one per event would.  The record
        holds while the token is parked: nothing touches its entries, and the
        ends (:meth:`_live_ends`) move only when a column grows (so does
        ``_absorbed``) or a process ends (every token wakes)."""
        mine, others, ends = self.process, self._serve_order[1:], self._live_ends()
        absorbed, pairs, limits = self._absorbed, set(), {}
        for entry in token.entries:
            if entry.eval is None and entry.parked_on == mine:
                if not entry.waiting_for <= {mine}:
                    absorbed = None
                    break
                pairs.add(entry.bits[mine])
                for k in others:
                    if entry.cut[k] < ends[k] or ends[k] < 0:
                        limits[k] = min(limits.get(k, entry.depend[k]), entry.depend[k])
        self.waiting_tokens.append(token)
        self._parked_at[id(token)] = absorbed, pairs, tuple(limits.items())

    def _route_token(
        self, token: Token, pending: list[tuple[TokenEntry, list[int]]]
    ) -> None:
        """Decide where the token goes next (SENDTONEXTPROCESS).

        *pending* pairs each still-undecided entry with the processes it
        needs (empty once every entry is decided), derived once per hop by
        whoever served the token.
        """
        mine = self.process
        if not pending:
            if token.parent_process == mine:
                self._token_returned(token)
            else:
                self._send_token(token, token.parent_process)
            return
        targets: set[int] = set()
        parked: set[int] = set()  # known to have nothing for this token yet
        live: set[int] = set()
        for entry, lagging in pending:
            targets.update(lagging)
            parked.update(entry.waiting_for)
            # park, don't bounce: an entry blocked on this process's next
            # event gains nothing elsewhere — unless a process it needs is
            # known to have terminated, which may settle it (False) at once
            if entry.parked_on != mine or any(
                self.terminated[k] is not None for k in lagging
            ):
                live.update(lagging)
        # prefer a process with actionable work that is not this monitor;
        # failing that wait here if this process is needed (for its future
        # events or termination), else at a process the token is parked on
        elsewhere = live - parked - {mine}
        if not elsewhere and mine not in targets:
            elsewhere = parked - {mine}
        if elsewhere:
            target = self.routing.pick_target(mine, sorted(elsewhere), token)
            self._send_token(token, target)
        else:
            # nothing actionable anywhere else: keep the token until a local
            # event or a termination notice changes the situation
            self._park(token)

    def _send_token(self, token: Token, target: int) -> None:
        token.declared = self.declared_bits | self.heard
        self._extend_run(token)
        self._outbox.append((self.routing.next_hop(self.process, target), token))

    def _flush(self) -> None:
        """Send what the callback queued, at its end: one transport message
        per target, in first-send order — the message alone, or a frame (a
        tuple) of them in send order.  A frame holding a token counts as a
        token message, one of notices only as a termination message."""
        frames: dict[int, list[Token | TerminationNotice]] = {}
        for target, message in self._outbox:
            frames.setdefault(target, []).append(message)
        self._outbox = []
        for target, messages in frames.items():
            tokens = Token in map(type, messages)
            self.metrics.token_messages_sent += tokens
            self.metrics.termination_messages_sent += not tokens
            frame = messages[0] if len(messages) == 1 else tuple(messages)
            self.transport.send(self.process, target, frame)

    def _extend_run(self, token: Token) -> None:
        """Put on a leaving token the events its entries reached here.

        The token's run of process ``j`` covers ``known[j] + 1 …`` and, on
        arrival, reached the furthest cut of any entry; whatever lies beyond
        now was served from column ``j`` here and is appended from it — by
        nothing where the parent already held that prefix.
        """
        reaches = map(max, zip(*(entry.cut for entry in token.entries)))
        for j, (known, column, reach) in enumerate(zip(token.known, self.vc_columns, reaches)):
            run = token.runs.get(j)
            held = known + (len(run[1]) if run else 0)
            fresh = column[held + 1 : reach + 1] if reach > held else None
            if fresh:
                masks, vcs = run or token.runs.setdefault(j, ([], []))
                masks += self.mask_columns[j][held + 1 : reach + 1]
                vcs += fresh
                self.metrics.events_shipped += len(fresh)

    # ------------------------------------------------------------------
    # token return (RECEIVETOKEN at the parent)
    # ------------------------------------------------------------------
    def _token_returned(self, token: Token) -> None:
        """The parent takes its token back: the one place foreign cuts come in,
        so a stale or forged entry is left out here (the columns lack its box)."""
        self.metrics.token_hops_max = max(self.metrics.token_hops_max, token.hops)
        view = self._outstanding.pop(token.token_id, None)
        if view is None:
            # orphan: its view was retired (evicted); keep the events, drop it
            self.metrics.orphan_tokens_swallowed += 1
            return
        view.status = ViewStatus.UNBLOCKED
        view.outstanding_token = None
        targets = [
            tuple(entry.cut) for entry in token.entries if entry.eval is True
            and all(b <= at < len(c) for b, at, c in zip(view.cut, entry.cut, self.vc_columns))
        ]  # fmt: skip
        repair = any(entry.is_repair for entry in token.entries)
        self._advance_views((*self._forks_of(view, targets, repair), view))
        self._merge_views()

    def _forks_of(self, view: GlobalView, cuts: list[tuple], repair: bool) -> list[GlobalView]:
        """The views forked from *view* at the target *cuts* of its decided
        transition searches, or of one repair: one box search for the step,
        then target by target.

        A target in ``view.searched`` is left out while ``_born`` holds every
        pivot state found there: the view has moved along one path since, so a
        search from here would reach a subset of those, and fork none.
        """
        if repair:
            self._retire(view)  # first, so that the stale view cannot cover its own forks
        last, born, state = {} if repair else view.searched, self._born, view.state
        view.searched = {}  # what is left out, and what the search below finds
        pivots, fresh = ~(self._final_bits | 1 << state), []
        for cut in cuts:
            found = last.get((state, cut))
            if found is None or not all((s, cut) in born for s in _states_of(found & pivots)):
                fresh.append(cut)
            else:
                view.searched[state, cut] = found
        self.metrics.boxes_remembered += len(cuts) - len(fresh)
        forked: list[GlobalView] = []
        for cut, reached in zip(fresh, self._box_reachable(view, fresh) if fresh else ()):
            forked.extend(self._fork_from_entry(view, cut, reached, repair))
        return forked

    def _absorb_runs(self, token: Token) -> None:
        """Append to the columns what a token's runs add to them.

        A run starts at ``known[j] + 1``; the part the column already holds
        is skipped, the rest appended.  A run that would leave a gap, holds
        a mask outside the automaton's alphabet or appends a clock of another
        width (only a stale or forged token carries any) is ignored, so
        columns stay gapless prefixes of true masks and clocks whatever
        arrives, in whatever order, however often (a token whose ``known``
        is of another width never gets here: :meth:`receive_message`).
        """
        n, limit = self.num_processes, self._compiled.n_letters
        for j, (masks, vcs) in token.runs.items():
            if not 0 <= j < n or j == self.process or len(masks) != len(vcs):
                continue
            skip = len(self.vc_columns[j]) - 1 - token.known[j]
            fresh = vcs[skip:] if 0 <= skip < len(vcs) else ()
            if fresh and 0 <= min(masks) and max(masks) < limit and {*map(len, fresh)} == {n}:
                self._append_masks(j, masks[skip:])
                self.vc_columns[j] += fresh
                self._absorbed += 1

    def _fork_from_entry(
        self, view: GlobalView, cut: tuple[int, ...], reached: int, repair: bool
    ) -> list[GlobalView]:
        """Fork one view per automaton state of the bitset *reached* — the
        states reachable at the target *cut* inside its box.

        Only *pivot* states are forked: a reachable state equal to the parent
        view's own state adds no information (the parent keeps covering that
        state from its smaller cut), and forking it would duplicate the
        parent's exploration — this mirrors the paper's rule of only
        exploring global states that change the automaton state.  A
        *repair* forks every reachable state because the parent view has been
        retired.  A fork inherits the parent's dead guards: its cut lies above.
        """
        children: list[GlobalView] = []
        for state in _states_of(reached & ~self._final_bits):  # those, the search declared
            if state == view.state and not repair:
                continue
            if self._covered_by_existing_view(state, cut):
                self.metrics.views_merged += 1
                continue
            child = GlobalView(cut=list(cut), state=state, dead=view.dead)
            self.metrics.views_created += 1
            self._born |= child.born
            self.views.append(child)
            children.append(child)
        self.metrics.max_active_views = max(self.metrics.max_active_views, len(self.views))
        return children

    def _covered_by_existing_view(self, state: int, cut: tuple[int, ...]) -> bool:
        """Whether a candidate fork would only duplicate exploration.

        A live view with the same automaton state whose cut is componentwise
        below (or equal to) the candidate's will reach every cut the
        candidate could — waiting views too, once their token returns.  And a
        view created here at exactly this state and cut (and not evicted)
        has walked, or is walking, the very chain the candidate would.
        """
        return (state, cut) in self._born or any(
            other.state == state and all(map(le, other.cut, cut)) for other in self.views
        )

    def _box_reachable(self, view: GlobalView, cuts: Sequence[tuple[int, ...]]) -> list[int]:
        """Per target cut, the bitset of states reachable there from the view
        over all interleavings of the events inside ``[view.cut, cut]``.
        Conclusive states reached anywhere inside are declared at once: those
        partial paths are real executions.

        A target is answered without a search when its letter sends every
        state the view can still reach (``MonitorAutomaton.reach_bits``) to
        one state, no other conclusive state is among those, and the target
        lies above the view's cut and is consistent: every path into it ends
        in that state (``docs/architecture.md``, Targets the letter decides).
        The others go to :meth:`_box_search`.
        """
        self.metrics.box_queries += len(cuts)
        base, vc_columns = tuple(view.cut), self.vc_columns
        reach = self._reach[view.state]
        others = reach & self._final_bits  # the conclusive states still in reach
        shift, image = self._num_states, self._image_cache
        reached = [0] * len(cuts)
        for e, cut in enumerate(cuts):
            key = self._mask_at(cut) << shift | reach
            one = image.get(key) or self._image(key)
            if (
                one & (one - 1) == 0
                and not others & ~one
                and cut != base
                and all(all(map(le, vc_columns[j][at], cut)) for j, at in enumerate(cut))
            ):
                self._declare_reached(one)
                reached[e] = view.searched[view.state, cut] = one
        if not any(reached):
            return self._box_search(view, cuts)
        searched = [cut for cut, one in zip(cuts, reached) if not one]
        self.metrics.boxes_by_letter += len(cuts) - len(searched)
        found = iter(self._box_search(view, searched) if searched else ())
        return [one or next(found) for one in reached]

    def _box_search(self, view: GlobalView, cuts: Sequence[tuple[int, ...]]) -> list[int]:
        """:meth:`_box_reachable` by one search over the union of the target
        *cuts*' boxes (every target of a step lies above the view's cut).

        The search runs over the quotient by *segments* — per process, the
        maximal runs of events with one letter mask, read off ``seg_starts``
        — because an automaton that is ``stutter_closed`` and sits at a fixed
        point of the view's own letter does not move while the global letter
        repeats.  When either condition fails every event is its own segment
        (nothing is bisected).  Which processes the union moves is read off
        the join before anything else.  When at most one moves the cells are
        a line: a segment's cell holds a consistent cut exactly when the one
        before does and its opener's clock fits under the join elsewhere, so
        the search takes one image per segment and stops at the first that
        does not fit (none moving: every target is the view's own cell, whose
        states are the view's).  Otherwise a *cell* holds a segment index,
        counted from the view's, per process moved — only those are set up:
        the letters of the others are one fixed mask.  What the search finds
        at a target's cell is left in ``view.searched``."""
        n, base, columns = self.num_processes, view.cut, self.mask_columns
        shift, image = self._num_states, self._image_cache
        start = 1 << view.state
        hi = list(map(max, base, *cuts))  # the join searched
        collapse, first, top = False, base, hi
        if hi != base and self.automaton.stutter_closed:
            key = self._mask_at(base) << shift | start
            collapse = (image.get(key) or self._image(key)) == start
        if collapse:  # cells count segments past the view's, off the index; else events
            index = self.seg_starts
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
            line, vcs, column = [start], self.vc_columns[j], columns[j]
            for o in opens:
                if not all(map(le, vcs[o], roof)):
                    break  # not inhabited, nor is any cell past it
                key = (fixed | column[o]) << shift | line[-1]
                line.append(image.get(key) or self._image(key))
                self._declare_reached(line[-1])
            self.metrics.box_cells_visited += len(line)
            reached = [0] * len(cuts)
            for e, cut in enumerate(cuts):
                g = bisect_right(index[j], cut[j]) - first[j] if collapse else cut[j] - base[j]
                if g < len(line):
                    reached[e] = view.searched[view.state, cut] = line[g]
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

    # ------------------------------------------------------------------
    # merging (MERGESIMILARGLOBALVIEWS)
    # ------------------------------------------------------------------
    def _merge_views(self) -> None:
        """MERGESIMILARGLOBALVIEWS.

        Among unblocked views (views waiting for a token are left alone) one
        whose cut componentwise dominates — or equals — that of another view
        with the same automaton state is merged into it: the smaller view
        subsumes its exploration (it will reach every cut the larger one can
        reach), which is the slice-based merging of Section 4.3 and keeps
        the number of live views bounded by the number of automaton states
        in the common case.
        """
        # per automaton state keep the minimal antichain (the sort is stable:
        # of exact duplicates the first stays); waiting views come first
        by_state: dict[int, list[GlobalView]] = {}
        kept: list[GlobalView] = []
        for view in self.views:
            (kept if view.is_waiting() else by_state.setdefault(view.state, [])).append(view)
        for state_views in by_state.values():
            minimal: list[GlobalView] = []
            for view in sorted(state_views, key=lambda v: sum(v.cut)):
                for other in minimal:
                    if all(small <= big for small, big in zip(other.cut, view.cut)):
                        self.metrics.views_merged += 1
                        other.born |= view.born  # given up with *other*, if it is evicted
                        break
                else:
                    minimal.append(view)
            kept.extend(minimal)

        self.views = kept
        self._enforce_view_budget()
        self._settle()

    def _enforce_view_budget(self) -> None:
        """Apply the optional per-state bound on live views.

        When the bound is exceeded the views with the largest cuts are
        dropped (the remaining smaller-cut views re-cover their exploration
        space); outstanding tokens of dropped views are disowned, so they are
        swallowed on their next pass through this monitor (``_ends_here``).
        A dropped view's exploration is given up: its ``born`` signatures are forgotten.
        """
        if self.max_views_per_state is None:
            return
        by_state: dict[int, list[GlobalView]] = {}
        for view in self.views:
            by_state.setdefault(view.state, []).append(view)
        kept: list[GlobalView] = []
        for state_views in by_state.values():
            state_views.sort(key=lambda v: (sum(v.cut), tuple(v.cut)))
            kept.extend(state_views[: self.max_views_per_state])
            for dropped in state_views[self.max_views_per_state :]:
                self.metrics.views_evicted += 1
                self._born -= dropped.born
                self._outstanding.pop(dropped.outstanding_token, None)
        self.views = kept

    def _settle(self) -> bool:
        """Retire every live view once this monitor is *settled*: each
        conclusive state its views (waiting ones too) can still reach is
        declared, here or — as ``heard`` tells — by another monitor.
        Conclusive states are traps and views fork only into states their own
        can reach, so no search could add to the session's declarations
        (``docs/architecture.md``, Settled monitors).  Their outstanding
        tokens are disowned, as an evicted view's are; the monitor still
        appends its events, absorbs runs and serves the others' tokens.
        Returns whether it retired them; runs after every merge, before steps
        (:meth:`_advance_views`) and on news (:meth:`receive_message`)."""
        self._checked = self.declared_bits | self.heard
        undeclared = self._final_bits & ~self._checked
        if any(self._reach[view.state] & undeclared for view in self.views):
            return False
        self.metrics.views_settled += len(self.views)
        own = self._final_bits & ~self.declared_bits
        if any(self._reach[view.state] & own for view in self.views):
            self.metrics.settled_on_news += len(self.views)
        for view in self.views:
            view.status = ViewStatus.FINAL  # no step, no search: a retired view is refused
            self._outstanding.pop(view.outstanding_token, None)
        self.views = []
        return True
