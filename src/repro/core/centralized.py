"""Centralized online monitoring baseline (Section 1.2.2 / Chapter 6).

In the centralized configuration every process ships every event to a single
monitor, which must order the events, (incrementally) reconstruct the set of
possible global-state traces and evaluate the LTL3 monitor.  The baseline is
included to compare message counts and memory against the decentralized
algorithm: it sends exactly one monitoring message per program event, but its
memory (tracked global states) grows with the full lattice frontier.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..distributed.computation import Computation, Cut
from ..distributed.events import Event
from ..ltl.monitor import MonitorAutomaton
from ..ltl.predicates import PropositionRegistry
from ..ltl.verdict import Verdict

__all__ = ["CentralizedMonitor", "CentralizedResult"]

Letter = frozenset[str]


@dataclass
class CentralizedResult:
    """Outcome of a centralized monitoring run.

    ``messages`` counts process→central observation deliveries (exactly one
    per program event) and is kept for backward compatibility;
    ``verdict_broadcast_messages`` counts the central→process fan-out of
    each newly conclusive verdict.  :attr:`total_messages` is the baseline
    comparable to a decentralized run's total.
    """

    final_states: frozenset[int]
    verdicts: frozenset[Verdict]
    messages: int
    max_tracked_cuts: int
    total_tracked_cuts: int
    verdict_broadcast_messages: int = 0

    @property
    def observation_messages(self) -> int:
        """Process→central observation deliveries (alias of ``messages``)."""
        return self.messages

    @property
    def total_messages(self) -> int:
        """All communication of the centralized configuration.

        Observation deliveries plus verdict broadcasts — the centralized row
        of :func:`repro.experiments.harness.run_message_baseline`.
        """
        return self.messages + self.verdict_broadcast_messages


class CentralizedMonitor:
    """A single monitor receiving every event of every process.

    The monitor maintains, for each *reachable consistent cut* built from the
    events received so far, the set of automaton states reachable over paths
    — i.e. it performs the oracle's dynamic program online.  Events may
    arrive in any order consistent with per-process FIFO delivery.
    """

    def __init__(
        self,
        num_processes: int,
        automaton: MonitorAutomaton,
        registry: PropositionRegistry,
        initial_letters: list[Letter],
    ) -> None:
        self.num_processes = num_processes
        self.automaton = automaton
        self.registry = registry
        self.initial_letters = list(initial_letters)
        self._compiled = automaton.compiled
        self._mask_cache: dict[Letter, int] = {}
        self._events: list[dict[int, Event]] = [dict() for _ in range(num_processes)]
        bottom: Cut = (0,) * num_processes
        initial_state = self._compiled.table[
            automaton.initial_state * self._compiled.n_letters + self._mask_of_cut(bottom)
        ]
        self._reachable: dict[Cut, set[int]] = {bottom: {initial_state}}
        self.messages = 0
        #: central→process verdict fan-out: each first-time conclusive
        #: verdict is announced to every process (``num_processes`` sends)
        self.verdict_broadcast_messages = 0
        self.max_tracked_cuts = 1
        self.total_tracked_cuts = 1
        self.declared: set[Verdict] = set()
        if automaton.verdict(initial_state).is_final:
            self._declare(automaton.verdict(initial_state))

    # ------------------------------------------------------------------
    def _declare(self, verdict: Verdict) -> None:
        """Record a conclusive verdict; broadcast it on first declaration."""
        if verdict not in self.declared:
            self.declared.add(verdict)
            self.verdict_broadcast_messages += self.num_processes

    def _mask_of(self, letter: Letter) -> int:
        """Bitmask of a per-process letter under the compiled machine."""
        mask = self._mask_cache.get(letter)
        if mask is None:
            mask = self._compiled.encode(letter)
            if len(self._mask_cache) < 4096:
                self._mask_cache[letter] = mask
        return mask

    def _mask_of_cut(self, cut: Cut) -> int:
        """Combined letter bitmask of the global state at *cut*."""
        mask = 0
        for process in range(self.num_processes):
            count = cut[process]
            if count == 0:
                letter = self.initial_letters[process]
            else:
                event = self._events[process][count]
                letter = self.registry.local_letter(process, event.state)
            mask |= self._mask_of(letter)
        return mask

    def _cut_consistent(self, cut: Cut) -> bool:
        for process in range(self.num_processes):
            count = cut[process]
            if count == 0:
                continue
            event = self._events[process].get(count)
            if event is None:
                return False
            for other in range(self.num_processes):
                if event.vc[other] > cut[other]:
                    return False
        return True

    # ------------------------------------------------------------------
    def receive_event(self, event: Event) -> None:
        """Process one event shipped from a program process (one message)."""
        self.messages += 1
        self._events[event.process][event.sn] = event
        self._extend_frontier()

    def _extend_frontier(self) -> None:
        """Propagate reachable states to all newly-completable cuts."""
        compiled = self._compiled
        changed = True
        while changed:
            changed = False
            for cut, states in list(self._reachable.items()):
                for process in range(self.num_processes):
                    next_sn = cut[process] + 1
                    if next_sn not in self._events[process]:
                        continue
                    successor = tuple(
                        c + 1 if j == process else c for j, c in enumerate(cut)
                    )
                    if not self._cut_consistent(successor):
                        continue
                    target = self._reachable.setdefault(successor, set())
                    before = len(target)
                    mask = self._mask_of_cut(successor)
                    table = compiled.table
                    n_letters = compiled.n_letters
                    for state in states:
                        new_state = table[state * n_letters + mask]
                        target.add(new_state)
                        if compiled.final_flags[new_state]:
                            self._declare(self.automaton.verdict(new_state))
                    if len(target) != before:
                        changed = True
            self.max_tracked_cuts = max(self.max_tracked_cuts, len(self._reachable))
        self.total_tracked_cuts = len(self._reachable)

    # ------------------------------------------------------------------
    def result(self) -> CentralizedResult:
        """Final verdicts at the largest cut processed."""
        top = max(self._reachable, key=sum)
        final_states = frozenset(self._reachable[top])
        verdicts = frozenset(self.automaton.verdict(s) for s in final_states)
        return CentralizedResult(
            final_states=final_states,
            verdicts=verdicts,
            messages=self.messages,
            max_tracked_cuts=self.max_tracked_cuts,
            total_tracked_cuts=self.total_tracked_cuts,
            verdict_broadcast_messages=self.verdict_broadcast_messages,
        )

    # ------------------------------------------------------------------
    @classmethod
    def _replay(
        cls,
        computation: Computation,
        automaton: MonitorAutomaton,
        registry: PropositionRegistry,
    ) -> CentralizedMonitor:
        """A monitor that has received every event of *computation*."""
        initial_letters = [
            registry.local_letter(i, computation.initial_states[i])
            for i in range(computation.num_processes)
        ]
        monitor = cls(computation.num_processes, automaton, registry, initial_letters)
        events = sorted(computation.all_events(), key=lambda e: (e.timestamp, e.process, e.sn))
        for event in events:
            monitor.receive_event(event)
        return monitor

    @classmethod
    def monitor_computation(
        cls,
        computation: Computation,
        automaton: MonitorAutomaton,
        registry: PropositionRegistry,
    ) -> CentralizedResult:
        """Replay a finished computation through a centralized monitor."""
        return cls._replay(computation, automaton, registry).result()

    @classmethod
    def monitor_computation_declared(
        cls,
        computation: Computation,
        automaton: MonitorAutomaton,
        registry: PropositionRegistry,
    ) -> frozenset[Verdict]:
        """Every conclusive verdict the oracle declares anywhere on the lattice.

        Unlike :meth:`monitor_computation` (which reports the verdicts at the
        final cut only), this accumulates each final verdict reached at *any*
        consistent cut — the reference set for the soundness check: a
        decentralized run is sound iff its declared verdicts are a subset.
        """
        return frozenset(cls._replay(computation, automaton, registry).declared)
