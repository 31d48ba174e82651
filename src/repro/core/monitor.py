"""The decentralized LTL3 monitoring algorithm (the paper's contribution).

Each program process ``P_i`` is composed with a monitor process ``M_i`` that

* reads the local events of ``P_i`` as they occur (:meth:`DecentralizedMonitor.local_event`);
* maintains a set of **global views** — lattice paths it is tracing, each
  with a consistent cut, the letters of all processes at that cut and the
  LTL3 monitor automaton state reached (:mod:`repro.core.global_view`);
* when a transition of the automaton might be enabled by states of other
  processes, runs a least-consistent-cut search (:mod:`repro.core.messages`)
  over the columns of events it holds, and emits a **token** that carries
  the search on to other monitors only for the events it lacks;
* forks new global views from decided searches, merges duplicate views, and
  declares ⊤/⊥ verdicts as soon as a traced path reaches a conclusive
  automaton state.

Where this departs from the thesis pseudo-code (implicit pending queue, box
replay on token return, every component of a search answered from the shared
columns, no ``(state, cut)`` explored twice) and how the two hot loops —
token serving and box search — are built is described in
``docs/architecture.md``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from dataclasses import dataclass
from itertools import compress
from operator import ne

from ..coordination import CoordinationTopology, RoundRobinToken
from ..distributed.events import Event
from ..ltl.monitor import MonitorAutomaton, Transition
from ..ltl.predicates import PropositionRegistry
from ..ltl.verdict import Verdict
from .global_view import GlobalView, ViewStatus
from .messages import TerminationNotice, Token, TokenEntry, VerdictAnnouncement
from .transport import Transport

__all__ = ["MonitorMetrics", "DecentralizedMonitor", "verdict_divergence"]

Letter = frozenset[str]


def verdict_divergence(
    decentralized: Iterable[Verdict], centralized: Iterable[Verdict]
) -> frozenset[Verdict]:
    """The soundness comparison seam: decentralized verdicts the oracle denies.

    The paper's soundness claim is that every conclusive verdict a
    decentralized monitor declares corresponds to a real execution path —
    i.e. is also declared by the centralized reference monitor, which
    explores every reachable consistent cut
    (``decentralized ⊆ centralized``).  This helper returns the violating
    verdicts (empty = sound).  The reverse direction is *not* checked:
    decentralized monitors may legitimately declare fewer verdicts
    (bounded exploration, crashes, message loss all cost completeness,
    never soundness).  The fault-fuzzing harness and the adversarial tests
    both classify runs through this one function.
    """
    return frozenset(decentralized) - frozenset(centralized)

#: Maximum number of cells searched exactly inside a token's box — tuples of
#: letter-run segments, see ``_box_reachable`` — before the monitor falls
#: back to a single topologically-sorted interleaving.
_BOX_CELL_LIMIT = 20_000

#: bound on a monitor's (state set, letter) -> state set image cache
_IMAGE_CACHE_LIMIT = 1 << 16


@dataclass
class MonitorMetrics:
    """Per-monitor counters reported by the experiments of Chapter 5."""

    events_processed: int = 0
    tokens_created: int = 0
    entries_created: int = 0
    token_messages_sent: int = 0
    termination_messages_sent: int = 0
    #: topology digest traffic: forwarded termination notices and verdict
    #: announcements (gossip/tree flooding); zero under round-robin-token
    digest_messages_sent: int = 0
    views_created: int = 0
    views_merged: int = 0
    max_active_views: int = 0
    delayed_events: int = 0
    token_hops_served: int = 0
    #: boxes replayed for returned entries, and how many of them exceeded
    #: ``_BOX_CELL_LIMIT`` and were replayed along one linearisation only
    #: (sound, but verdicts reachable on other interleavings are missed)
    box_queries: int = 0
    box_linear_fallbacks: int = 0
    #: cells the exact box searches created: tuples of letter-run segments,
    #: not of events (see ``_box_reachable``)
    box_cells_visited: int = 0
    #: views dropped by the per-state budget (not counted in ``views_merged``)
    views_evicted: int = 0
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

    @property
    def messages_sent(self) -> int:
        """Total monitoring messages this monitor put on the network.

        Decomposes exactly as token + termination + digest messages; the
        network-level counter of a reliable transport must agree with the
        sum of this property across monitors.
        """
        return (
            self.token_messages_sent
            + self.termination_messages_sent
            + self.digest_messages_sent
        )


def _satisfies(letter: Letter, conjunct: Mapping[str, bool]) -> bool:
    """Whether a per-process letter satisfies a per-process conjunct."""
    for atom, required in conjunct.items():
        if (atom in letter) != required:
            return False
    return True


def _states_of(bits: int) -> Iterator[int]:
    """The members of a state bitset, in ascending order."""
    state = 0
    while bits:
        if bits & 1:
            yield state
        bits >>= 1
        state += 1


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
        views.
    topology:
        The :class:`repro.coordination.CoordinationTopology` routing policy
        shared by every monitor of the run.  ``None`` (default) builds the
        ``round-robin-token`` policy.  The monitor owns all mutable
        protocol state (duplicate suppression for flooded digests); the
        topology object itself is stateless and may be shared.
    """

    def __init__(
        self,
        process: int,
        num_processes: int,
        automaton: MonitorAutomaton,
        registry: PropositionRegistry,
        initial_letters: Sequence[Letter],
        transport: Transport,
        max_views_per_state: int | None = None,
        topology: CoordinationTopology | None = None,
    ) -> None:
        self.process = process
        self.num_processes = num_processes
        self.automaton = automaton
        self.registry = registry
        self.initial_letters: list[Letter] = [frozenset(l) for l in initial_letters]
        self.transport = transport
        self.max_views_per_state = max_views_per_state
        self.topology: CoordinationTopology = (
            topology if topology is not None else RoundRobinToken(num_processes)
        )
        #: letters are integer bitmasks over the automaton's own atoms only:
        #: propositions it does not read are projected away, so events that
        #: change only those repeat the mask
        self._compiled = automaton.compiled
        self._mask_cache: dict[Letter, int] = {}
        #: a conjunct's items -> the (care, want) bits a letter mask must show
        self._conjunct_bits: dict[tuple[tuple[str, bool], ...], tuple[int, int]] = {}
        #: ``letter_mask << num_states | state_bits`` -> successor state bits
        self._image_cache: dict[int, int] = {}
        self._num_states = automaton.num_states
        self._final_bits = sum(
            1 << state for state in automaton.states if automaton.is_final(state)
        )
        self.metrics = MonitorMetrics()
        #: duplicate suppression for flooded digests (tree/gossip forwarding)
        self._seen_notices: set[TerminationNotice] = set()
        self._seen_announcements: set[VerdictAnnouncement] = set()

        #: per process, the events of that process this monitor holds, as
        #: columns indexed by sequence number (position 0 is the initial
        #: state): letter, letter bitmask and vector clock.  A column is
        #: always a gapless prefix of the process's events and only grows —
        #: its own process's from ``local_event``, the others' from the runs
        #: of every token that passes.  Invariant: every view of this monitor
        #: has ``cut[j] < len(column j)``: cuts only move to the cut of an
        #: entry answered here, or returned after its runs were absorbed.
        self.letter_columns: list[list[Letter]] = [
            [letter] for letter in self.initial_letters
        ]
        self.mask_columns: list[list[int]] = [
            [self._mask_of(letter)] for letter in self.initial_letters
        ]
        self.vc_columns: list[list[tuple[int, ...]]] = [
            [(0,) * num_processes] for _ in range(num_processes)
        ]
        self.local_letters = self.letter_columns[process]
        self.local_vcs = self.vc_columns[process]
        self._serve_order = (process, *(j for j in range(num_processes) if j != process))
        self.last_local_sn = 0
        self.local_terminated = False
        #: final event count of each process, once known
        self.terminated: dict[int, int | None] = {
            j: None for j in range(num_processes)
        }

        self.views: list[GlobalView] = []
        self.final_views: list[GlobalView] = []
        #: birth signatures of the views created, less those an eviction gave up
        self._born: set[tuple[int, tuple[int, ...]]] = set()
        self.waiting_tokens: list[Token] = []
        self._outstanding: dict[int, GlobalView] = {}  # token_id -> waiting view

        self.declared_verdicts: set[Verdict] = set()
        self.declared_states: set[int] = set()
        #: conclusive verdicts in declaration order (first occurrence only);
        #: the ordered counterpart of ``declared_verdicts``, used by the
        #: fleet layer's byte-identical verdict-sequence comparisons
        self.verdict_log: list[Verdict] = []

        initial_mask = 0
        for column in self.mask_columns:
            initial_mask |= column[0]
        initial_state = self._step_mask(automaton.initial_state, initial_mask)
        view = GlobalView(
            cut=[0] * num_processes,
            state=initial_state,
            letters=list(self.initial_letters),
        )
        self.metrics.views_created += 1
        self._born |= view.born
        if automaton.is_final(initial_state):
            self._declare(initial_state)
            view.status = ViewStatus.FINAL
            self.final_views.append(view)
        else:
            self.views.append(view)
        self.metrics.max_active_views = len(self.views)
        self._started = False

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _mask_of(self, letter: Letter) -> int:
        """Bitmask of a per-process letter.

        Masks of letters seen are cached (bounded, mirroring the projection
        cache of :meth:`repro.ltl.dfa.MooreMachine.step`) so the hot path is
        one dictionary lookup per per-process letter.
        """
        mask = self._mask_cache.get(letter)
        if mask is None:
            mask = self._compiled.encode(letter)
            if len(self._mask_cache) < 4096:
                self._mask_cache[letter] = mask
        return mask

    def _step_mask(self, state: int, mask: int) -> int:
        """Successor of *state* on a global letter bitmask: one table load."""
        return self._compiled.step(state, mask)

    def _image(self, key: int) -> int:
        """Image-cache miss: step every state of a state set through a letter.

        *key* is ``letter_mask << num_states | state_bits``; the result is
        the bitset of successor states.
        """
        mask = key >> self._num_states
        image = 0
        for state in _states_of(key & ((1 << self._num_states) - 1)):
            image |= 1 << self._step_mask(state, mask)
        if len(self._image_cache) < _IMAGE_CACHE_LIMIT:
            self._image_cache[key] = image
        return image

    def _declare_reached(self, states: int) -> None:
        """Declare the conclusive states of a bitset, in ascending order."""
        for state in _states_of(states & self._final_bits):
            if state not in self.declared_states:
                self._declare(state)

    def _declare(self, state: int) -> None:
        verdict = self.automaton.verdict(state)
        if verdict.is_final:
            self.declared_states.add(state)
            if verdict not in self.declared_verdicts:
                self.declared_verdicts.add(verdict)
                self.verdict_log.append(verdict)
                self._announce_verdict(verdict)

    def _announce_verdict(self, verdict: Verdict) -> None:
        """Gossip a first-time conclusive verdict, if the topology does."""
        recipients = self.topology.verdict_recipients(self.process)
        if not recipients:
            return
        announcement = VerdictAnnouncement(self.process, str(verdict))
        self._seen_announcements.add(announcement)
        for target in recipients:
            if target != self.process:
                self.transport.send(self.process, target, announcement)
                self.metrics.digest_messages_sent += 1

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

    def local_event(self, event: Event) -> None:
        """Handle one event read from the attached program process."""
        if event.process != self.process:
            raise ValueError(
                f"monitor {self.process} received event of process {event.process}"
            )
        if event.sn != len(self.local_letters):
            raise ValueError(
                f"monitor {self.process} expected event {len(self.local_letters)}, "
                f"got event {event.sn}"
            )
        if not self._started:
            self.start()
        self.metrics.events_processed += 1
        letter = self.registry.local_letter(self.process, event.state)
        self.local_letters.append(letter)
        self.mask_columns[self.process].append(self._mask_of(letter))
        self.local_vcs.append(tuple(event.vc))
        self.last_local_sn = event.sn

        if any(view.is_waiting() for view in self.views):
            self.metrics.delayed_events += 1

        self._retry_waiting_tokens()
        self._advance_views(self.views)
        self._merge_views()

    def local_termination(self) -> None:
        """Handle the termination signal of the attached program process."""
        if not self._started:
            self.start()
        self.local_terminated = True
        self.terminated[self.process] = self.last_local_sn
        notice = TerminationNotice(self.process, self.last_local_sn)
        self._seen_notices.add(notice)
        for other in self.topology.termination_recipients(self.process):
            if other != self.process:
                self.transport.send(self.process, other, notice)
                self.metrics.termination_messages_sent += 1
        # my process will contribute no further events: views whose guards are
        # currently satisfied can now only fire through remote events.
        for view in list(self.views):  # the unblocked ones
            self._advance_views(self._explore_outgoing(view, include_currently_satisfied=True))
        self._retry_waiting_tokens()
        self._merge_views()

    def receive_message(self, message: object) -> None:
        """Handle a message from another monitor process."""
        if isinstance(message, TerminationNotice):
            forward = self.topology.forward_termination(
                self.process, message.process
            )
            if forward:
                # flooding topology: suppress duplicates, spread first-seen
                # notices one more wave (broadcast topologies forward nothing
                # and keep the original reprocess-every-copy behaviour)
                if message in self._seen_notices:
                    return
                self._seen_notices.add(message)
                for target in forward:
                    if target != self.process:
                        self.transport.send(self.process, target, message)
                        self.metrics.digest_messages_sent += 1
            self.terminated[message.process] = message.final_event_sn
            self._retry_waiting_tokens()
            self._merge_views()
            return
        if isinstance(message, VerdictAnnouncement):
            if message in self._seen_announcements:
                return
            self._seen_announcements.add(message)
            verdict = Verdict(message.verdict)
            if verdict.is_final and verdict not in self.declared_verdicts:
                self.declared_verdicts.add(verdict)
                self.verdict_log.append(verdict)
            for target in self.topology.forward_verdict(
                self.process, message.origin
            ):
                if target != self.process:
                    self.transport.send(self.process, target, message)
                    self.metrics.digest_messages_sent += 1
            return
        if isinstance(message, Token):
            self._absorb_runs(message)  # whoever's token it is
            if self._ends_here(message):
                # the token is merely returning home: the parent consumes
                # (or swallows) it, it does not serve a hop
                self._token_returned(message)
            else:
                message.hops += 1
                self.metrics.token_hops_served += 1
                self._serve_token(message)
            return
        raise TypeError(f"unexpected monitor message {message!r}")

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def is_quiescent(self) -> bool:
        """No outstanding work besides possibly waiting on other monitors."""
        return not self.waiting_tokens and not self._outstanding

    def active_views(self) -> list[GlobalView]:
        """Snapshot of the currently active global views."""
        return list(self.views)

    def reported_verdicts(self) -> set[Verdict]:
        """Verdicts this monitor reports at the end of the run."""
        verdicts = set(self.declared_verdicts)
        for view in self.views:
            verdicts.add(self.automaton.verdict(view.state))
        return verdicts

    # ------------------------------------------------------------------
    # view advancement on local events
    # ------------------------------------------------------------------
    def _advance_views(self, views: Iterable[GlobalView]) -> None:
        """Apply pending local events (from history) to the unblocked *views*.

        Views forked by searches answered at home are advanced from the same
        worklist: nesting one call per answer would exhaust the stack.
        """
        mine = self.process
        work = list(views)[::-1]
        while work:
            view = work.pop()
            while view.status == ViewStatus.UNBLOCKED and view.cut[mine] < self.last_local_sn:
                work.extend(reversed(self._step_view(view, view.cut[mine] + 1)))

    def _step_view(self, view: GlobalView, sn: int) -> Sequence[GlobalView]:
        """Advance *view* by local event *sn* (PROCESSEVENT); returns the
        views forked from it by what was answered at home."""
        mine = self.process
        past = [max(pair) for pair in zip(view.cut, self.local_vcs[sn])]
        past[mine] = view.cut[mine]
        if past != view.cut:
            # out of order: a search without a guard pulls the view up to its
            # cut joined with the event's causal past; answered here when the
            # columns reach that far (the view is retired, its forks returned)
            n = self.num_processes
            entry = self._make_entry(view, None, [{}] * n, [True] * n, past)
            return self._issue_token(view, sn, [entry])

        letter_local = self.local_letters[sn]
        mask_of = self._mask_of
        mask = mask_of(letter_local)
        for j, letter in enumerate(view.letters):
            if j != mine:
                mask |= mask_of(letter)
        new_state = self._step_mask(view.state, mask)
        view.cut[mine] = sn
        view.letters[mine] = letter_local
        view.state = new_state
        if self.automaton.is_final(new_state):
            self._declare(new_state)
            self._finalize_view(view)
            return ()
        return self._explore_outgoing(view)

    def _finalize_view(self, view: GlobalView) -> None:
        view.status = ViewStatus.FINAL
        if view in self.views:
            self.views.remove(view)
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
        longer trigger the transition itself.
        """
        if view.status != ViewStatus.UNBLOCKED:
            return ()
        entries: list[TokenEntry] = []
        for transition in self.automaton.outgoing_transitions(view.state):
            conjuncts = self.registry.conjuncts_by_process(
                transition.guard, self.num_processes
            )
            mine = conjuncts[self.process]
            if mine and not _satisfies(view.letters[self.process], mine):
                continue  # this process forbids the transition at its frontier
            satisfied_now = list(map(_satisfies, view.letters, conjuncts))
            remote_participants = [
                j for j, conjunct in enumerate(conjuncts) if conjunct and j != self.process
            ]
            if all(satisfied_now):
                if not include_currently_satisfied or not remote_participants:
                    continue
                # require at least one participating remote process to move
                for j in remote_participants:
                    bumped = list(view.cut)
                    bumped[j] += 1
                    entries.append(
                        self._make_entry(view, transition, conjuncts, satisfied_now, bumped)
                    )
                continue
            if not remote_participants:
                # unsatisfied purely because of a *local* proposition that is
                # currently false at this frontier: a later local event will
                # re-evaluate it, no communication needed.
                continue
            entries.append(
                self._make_entry(view, transition, conjuncts, satisfied_now, list(view.cut))
            )
        return self._issue_token(view, view.cut[self.process], entries) if entries else ()

    def _issue_token(
        self, view: GlobalView, parent_event_sn: int, entries: list[TokenEntry]
    ) -> Sequence[GlobalView]:
        """Serve *entries* from the columns; a token leaves only with what
        they could not decide.  Answered at home, the view never waits and
        its forks are returned (to the caller's worklist, not consumed here).
        """
        self.metrics.entries_created += len(entries)
        pending = self._serve_entries(entries)
        if not pending:
            self.metrics.answered_at_home += 1
            return self._forks_of(view, entries)
        token = Token(
            parent_process=self.process,
            parent_view=view.view_id,
            parent_event_sn=parent_event_sn,
            entries=entries,
            known=[len(column) - 1 for column in self.vc_columns],
        )
        self.metrics.tokens_created += 1
        view.status = ViewStatus.WAITING
        view.outstanding_token = token.token_id
        self._outstanding[token.token_id] = view
        self._route_token(token, pending)
        return ()

    def _make_entry(
        self,
        view: GlobalView,
        transition: Transition | None,
        conjuncts: Sequence[Mapping[str, bool]],
        satisfied: list[bool],
        min_positions: list[int],
    ) -> TokenEntry:
        """A search from the view's cut: for *transition*, or (``None``) a repair."""
        return TokenEntry(
            transition_id=transition.transition_id if transition else None,
            guard=dict(transition.guard) if transition else {},
            conjuncts=[dict(c) for c in conjuncts],
            start_cut=list(view.cut),
            cut=list(view.cut),
            depend=list(view.cut),
            min_positions=min_positions,
            satisfied=list(satisfied),
            letters=dict(enumerate(view.letters)),
        )

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
        self._route_token(token, self._serve_entries(token.undecided_entries()))

    def _serve_entries(self, entries: list[TokenEntry]) -> list[tuple[TokenEntry, list[int]]]:
        """Serve undecided *entries*; returns those still undecided, each
        with the processes it needs."""
        pending: list[tuple[TokenEntry, list[int]]] = []
        # processes known to have terminated are worth a (final) visit
        ended = {k for k, final in self.terminated.items() if final is not None} - {self.process}
        for entry in entries:
            entry.waiting_for -= ended
            self._serve_entry(entry)
            if entry.eval is None:
                lagging = entry.lagging_processes()
                if lagging:
                    pending.append((entry, lagging))
                else:
                    entry.eval = True
        return pending

    def _served_components(self) -> Sequence[int]:
        """The components a visit advances: this process's, then all others'."""
        return self._serve_order

    def _serve_entry(self, entry: TokenEntry) -> bool:
        """Advance every component of the entry over the columns held here:
        own first, then the others, until nothing moves (a scanned clock can
        lift another component's ``depend``).  Returns whether this process's
        own component needed serving.  The events walked are put on the
        token when it leaves (:meth:`_extend_run`).
        """
        order = self._served_components()
        cut = entry.cut
        served = False
        moved = True
        while moved and entry.eval is None:
            moved = False
            for j in order:
                at = cut[j]
                if self._serve_component(entry, j):
                    served = served or j == self.process
                    moved = moved or cut[j] > at
        return served

    def _serve_component(self, entry: TokenEntry, j: int) -> bool:
        """Advance component *j* of the entry over column *j*, in one shot.

        Returns ``False`` (entry untouched) when the entry needs nothing of
        process *j*.  Event ``sn`` of *j* carries ``vc[j] == sn``, so scanning
        never lifts ``depend[j]`` above the position reached: the position
        bound is fixed for the visit, and past it only letter masks are
        walked until the conjunct holds or the column runs out.  A foreign
        column is a prefix of ``M_j``'s, so the answer is the one ``M_j``
        gave when it held that prefix — but only ``M_j`` knows it has nothing
        more: running off a foreign column parks nothing and leaves *j*
        lagging, unless *j* is known to have ended by then.
        """
        cut = entry.cut[j]
        conjunct = entry.conjuncts[j]
        end = max(cut, entry.depend[j], entry.min_positions[j])
        if end == cut and (not conjunct or entry.satisfied[j]):
            return False
        own = j == self.process
        if own:
            entry.waiting_for.discard(j)
        masks = self.mask_columns[j]
        last = len(masks) - 1
        care = want = 0
        if conjunct:
            key = tuple(conjunct.items())
            bits = self._conjunct_bits.get(key)
            if bits is None:
                encode = self._compiled.encode
                bits = self._conjunct_bits[key] = (
                    encode(conjunct), encode(atom for atom in conjunct if conjunct[atom])
                )
            care, want = bits
            # at end == cut the conjunct is known not to hold (guard above)
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
            foreign_ended = final is not None and max(cut, last) >= final
            if self.local_terminated if own else foreign_ended:
                entry.eval = False
                entry.parked_on = None
            elif own:
                entry.parked_on = j
                entry.waiting_for.add(j)
        if end > cut:
            entry.record_scan(self.vc_columns[j][end])
            entry.cut[j] = end
            entry.letters[j] = self.letter_columns[j][end]
            entry.satisfied[j] = masks[end] & care == want
            if own:  # news from here: the others are worth revisiting
                entry.waiting_for.intersection_update({j})
            else:
                entry.waiting_for.discard(j)
        return True

    def _retry_waiting_tokens(self) -> None:
        """Re-examine parked tokens after new local events or terminations."""
        tokens, self.waiting_tokens = self.waiting_tokens, []
        for token in tokens:
            if self._ends_here(token):
                self._token_returned(token)  # orphaned while it waited at home
            else:
                self._serve_token(token)

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
            target = self.topology.pick_target(mine, sorted(elsewhere), token)
            self._send_token(token, target)
        else:
            # nothing actionable anywhere else: keep the token until a local
            # event or a termination notice changes the situation
            self.waiting_tokens.append(token)

    def _send_token(self, token: Token, target: int) -> None:
        # multi-hop topologies relay through a neighbour; the intermediate
        # monitor re-serves and re-routes, converging on the destination
        hop = self.topology.next_hop(self.process, target)
        self.metrics.token_messages_sent += 1
        self._extend_run(token)
        self.transport.send(self.process, hop, token)

    def _extend_run(self, token: Token) -> None:
        """Put on a leaving token the events its entries reached here.

        The token's run of process ``j`` covers ``known[j] + 1 …`` and, on
        arrival, reached the furthest cut of any entry; whatever lies beyond
        now was served from column ``j`` here and is appended from it — by
        nothing where the parent already held that prefix.
        """
        for j, (known, column) in enumerate(zip(token.known, self.vc_columns)):
            run = token.runs.get(j)
            held = known + (len(run[1]) if run else 0)
            reach = max((entry.cut[j] for entry in token.entries), default=0)
            fresh = column[held + 1 : reach + 1] if reach > held else None
            if fresh:
                letters, vcs = run or token.runs.setdefault(j, ([], []))
                letters += self.letter_columns[j][held + 1 : reach + 1]
                vcs += fresh
                self.metrics.events_shipped += len(fresh)

    # ------------------------------------------------------------------
    # token return (RECEIVETOKEN at the parent)
    # ------------------------------------------------------------------
    def _token_returned(self, token: Token) -> None:
        self.metrics.token_hops_max = max(self.metrics.token_hops_max, token.hops)
        view = self._outstanding.pop(token.token_id, None)
        if view is None:
            # orphan: its view was retired (evicted); keep the events, drop it
            self.metrics.orphan_tokens_swallowed += 1
            return
        view.status = ViewStatus.UNBLOCKED
        view.outstanding_token = None
        self._advance_views((*self._forks_of(view, token.entries), view))
        self._merge_views()

    def _forks_of(self, view: GlobalView, entries: list[TokenEntry]) -> list[GlobalView]:
        """The views forked from *view* by decided transition entries, or one repair entry."""
        forked: list[GlobalView] = []
        for entry in entries:
            if entry.is_repair:
                forked.extend(self._repair_view(view, entry))
            elif entry.eval is True:
                forked.extend(self._fork_from_entry(view, entry))
        return forked

    def _repair_view(self, view: GlobalView, entry: TokenEntry) -> list[GlobalView]:
        """Retire the stale *view* — first, so that it cannot cover its own
        forks — and fork its successors at the repaired cut."""
        if view in self.views:
            self.views.remove(view)
        view.status = ViewStatus.FINAL  # retired, not counted as a result
        return self._fork_from_entry(view, entry) if entry.eval is True else []

    def _absorb_runs(self, token: Token) -> None:
        """Append to the columns what a token's runs add to them.

        A run starts at ``known[j] + 1``; the part the column already holds
        is skipped, the rest appended.  A run that would leave a gap (only a
        stale or forged token carries one) is ignored, so columns stay
        gapless prefixes whatever arrives, in whatever order, however often.
        """
        n = self.num_processes
        if len(token.known) != n:
            return
        for j, (letters, vcs) in token.runs.items():
            if not 0 <= j < n or j == self.process or len(letters) != len(vcs):
                continue
            skip = len(self.vc_columns[j]) - 1 - token.known[j]
            if 0 <= skip < len(vcs):
                fresh = letters[skip:]
                self.letter_columns[j] += fresh
                self.mask_columns[j] += map(self._mask_of, fresh)
                self.vc_columns[j] += vcs[skip:]

    def _fork_from_entry(self, view: GlobalView, entry: TokenEntry) -> list[GlobalView]:
        """Fork one view per automaton state reachable inside the entry's box.

        Only *pivot* states are forked: a reachable state equal to the parent
        view's own state adds no information (the parent keeps covering that
        state from its smaller cut), and forking it would duplicate the
        parent's exploration — this mirrors the paper's rule of only
        exploring global states that change the automaton state.  Repair
        entries fork every reachable state because the parent view has been
        retired.
        """
        target_cut = list(entry.cut)
        if len(target_cut) != self.num_processes or not all(
            base <= target < len(column)
            for base, target, column in zip(view.cut, target_cut, self.vc_columns)
        ):
            return []  # a stale or forged entry: the columns do not hold its box
        reachable, letters_at_target = self._box_reachable(view, entry)
        children: list[GlobalView] = []
        for state in sorted(reachable):
            if self.automaton.is_final(state):
                self._declare(state)
                continue
            if state == view.state and not entry.is_repair:
                continue
            if self._covered_by_existing_view(state, target_cut):
                self.metrics.views_merged += 1
                continue
            child = GlobalView(
                cut=list(target_cut),
                state=state,
                letters=list(letters_at_target),
                forked_from=view.view_id,
            )
            self.metrics.views_created += 1
            self._born |= child.born
            self.views.append(child)
            children.append(child)
        self.metrics.max_active_views = max(
            self.metrics.max_active_views, len(self.views)
        )
        return children

    def _covered_by_existing_view(self, state: int, cut: list[int]) -> bool:
        """Whether a candidate fork would only duplicate exploration.

        A live view with the same automaton state whose cut is componentwise
        below (or equal to) the candidate's will reach every cut the
        candidate could — waiting views too, once their token returns.  And a
        view created here at exactly this state and cut (and not evicted)
        has walked, or is walking, the very chain the candidate would.
        """
        return (state, tuple(cut)) in self._born or any(
            other.state == state and all(o <= c for o, c in zip(other.cut, cut))
            for other in self.views
        )

    def _box_reachable(
        self, view: GlobalView, entry: TokenEntry
    ) -> tuple[set[int], list[Letter]]:
        """States reachable at ``entry.cut`` from the view, over all
        interleavings of the events inside ``[view.cut, entry.cut]``.

        Conclusive states reached anywhere inside the box are declared
        immediately (those partial paths are real executions).

        The search runs over the box's quotient by *segments* — per process,
        the maximal runs of events with one letter mask — because an
        automaton that is ``stutter_closed`` and sits at a fixed point of the
        view's own letter does not move while the global letter repeats.
        When either condition fails every event is its own segment and the
        quotient is the box.
        """
        n = self.num_processes
        base = view.cut
        target = entry.cut
        letters_at_target = [
            column[target[j]] for j, column in enumerate(self.letter_columns)
        ]
        self.metrics.box_queries += 1
        shift = self._num_states
        image = self._image_cache
        start = 1 << view.state

        collapse = False
        if self.automaton.stutter_closed:
            mask = 0
            for j, column in enumerate(self.mask_columns):
                mask |= column[base[j]]
            key = mask << shift | start
            collapse = (image.get(key) or self._image(key)) == start

        # per process: the offsets into the box (offset 0 is the view's own
        # letter) of the events that open segments 1, 2, …, and per segment
        # its letter mask and the offset of its last event
        opens: list[list[int]] = []
        seg_masks: list[list[int]] = []
        seg_ends: list[list[int]] = []
        for j, column in enumerate(self.mask_columns):
            run = column[base[j] : target[j] + 1]
            offsets = range(1, len(run))
            starts = (
                list(compress(offsets, map(ne, run, run[1:]))) if collapse else list(offsets)
            )
            opens.append(starts)
            seg_masks.append([run[0], *[run[o] for o in starts]])
            seg_ends.append([*[o - 1 for o in starts], len(run) - 1])

        # the limit bounds search work: the cells the search would visit
        ranges = [len(starts) for starts in opens]
        cells = 1
        for r in ranges:
            cells *= r + 1
        if cells > _BOX_CELL_LIMIT:
            self.metrics.box_linear_fallbacks += 1
            return self._box_reachable_linear(view, opens, seg_masks), letters_at_target

        # A cell is a tuple of segment indices, held as a mixed-radix integer
        # (advancing process j adds strides[j]); a set of automaton states is
        # a bitmask.  needs[j][g] lists what the event that opens segment
        # g + 1 of process j requires of the other processes, as (process,
        # least offset) pairs relative to the base.
        active = [j for j in range(n) if ranges[j] > 0]
        strides = [1] * n
        for j in range(1, n):
            strides[j] = strides[j - 1] * (ranges[j - 1] + 1)
        goal = sum(r * stride for r, stride in zip(ranges, strides))
        needs: list[list[list[tuple[int, int]]]] = [[] for _ in range(n)]
        for j in active:
            vcs = self.vc_columns[j]
            for offset in opens[j]:
                vc = vcs[base[j] + offset]
                needs[j].append(
                    [(k, vc[k] - base[k]) for k in range(n) if k != j and vc[k] > base[k]]
                )
        n_range = range(n)

        # Level-synchronous BFS over the *inhabited* cells — those holding a
        # consistent cut (all predecessors of a cell sit exactly one level
        # below it, so each level is complete before it is expanded).  A
        # cell's slot is [state bits, segment indices, letter mask << shift].
        reached = start if goal == 0 else 0
        visited = 1
        current = {0: [start, [0] * n, 0]}
        while current:
            nxt: dict[int, list] = {}
            for cell, (states, segments, _) in current.items():
                for j in active:
                    gj = segments[j]
                    if gj == ranges[j]:
                        continue
                    succ = cell + strides[j]
                    slot = nxt.get(succ)
                    if slot is None:
                        # the predecessor is inhabited, so the successor is
                        # iff the clock of the one event that opens the new
                        # segment fits inside the cell: each process it
                        # needs can get there before its segment ends
                        # (a plain loop: any() over a generator here costs a
                        # third of the whole search)
                        for k, least in needs[j][gj]:
                            if seg_ends[k][segments[k]] < least:
                                break
                        else:
                            at = segments.copy()
                            at[j] = gj + 1
                            mask = 0
                            for i in n_range:
                                mask |= seg_masks[i][at[i]]
                            slot = nxt[succ] = [0, at, mask << shift]
                    if slot is not None:
                        key = slot[2] | states
                        slot[0] |= image.get(key) or self._image(key)
            level = 0
            for slot in nxt.values():
                level |= slot[0]
            self._declare_reached(level)
            if goal in nxt:
                reached = nxt[goal][0]
            visited += len(nxt)
            current = nxt
        self.metrics.box_cells_visited += visited
        return set(_states_of(reached)), letters_at_target

    def _box_reachable_linear(
        self, view: GlobalView, opens: list[list[int]], seg_masks: list[list[int]]
    ) -> set[int]:
        """Fallback for oversized boxes: replay one causally-consistent
        linearisation of the box events (sound, possibly incomplete).

        Only the events that open a segment are ordered and stepped; the
        ones in between repeat the global letter.
        """
        base = view.cut
        # ordered by (clock sum, clock, process): a linear extension of
        # happened-before
        events = []
        for j, starts in enumerate(opens):
            vcs = self.vc_columns[j]
            for segment, offset in enumerate(starts, start=1):
                vc = vcs[base[j] + offset]
                events.append((sum(vc), vc, j, offset, seg_masks[j][segment]))
        events.sort()
        masks = [column[0] for column in seg_masks]
        shift = self._num_states
        image = self._image_cache
        final_bits = self._final_bits
        states = 1 << view.state
        for _, _, j, _, opened in events:
            masks[j] = opened
            mask = 0
            for m in masks:
                mask |= m
            key = mask << shift | states
            states = image.get(key) or self._image(key)
            if states & final_bits:
                self._declare_reached(states)
        return set(_states_of(states))

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
        waiting = [view for view in self.views if view.is_waiting()]

        # per automaton state keep the minimal antichain (the sort is stable:
        # of exact duplicates the first stays)
        by_state: dict[int, list[GlobalView]] = {}
        for view in self.views:
            if not view.is_waiting():
                by_state.setdefault(view.state, []).append(view)
        kept: list[GlobalView] = []
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

        self.views = waiting + kept
        self._enforce_view_budget()
        self.metrics.max_active_views = max(
            self.metrics.max_active_views, len(self.views)
        )

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
                if dropped.outstanding_token is not None:
                    self._outstanding.pop(dropped.outstanding_token, None)
        self.views = kept

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecentralizedMonitor(process={self.process}, views={len(self.views)}, "
            f"declared={sorted(str(v) for v in self.declared_verdicts)})"
        )
