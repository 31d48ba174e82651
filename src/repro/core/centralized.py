"""Centralized monitoring baseline (Section 1.2.2 / Chapter 6).

In the centralized configuration every process ships every event to a single
monitor, which evaluates the LTL3 monitor on every possible global-state
trace: the lattice oracle's evaluation, so its verdicts are the oracle's.
The baseline compares message counts and memory against the decentralized
algorithm: one monitoring message per program event, but a state set for
every consistent cut.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..distributed.computation import Computation
from ..ltl.monitor import MonitorAutomaton
from ..ltl.predicates import PropositionRegistry
from ..ltl.verdict import Verdict
from .oracle import LatticeOracle

__all__ = ["CentralizedMonitor", "CentralizedResult"]


@dataclass
class CentralizedResult:
    """Outcome of a centralized monitoring run."""

    final_states: frozenset[int]
    verdicts: frozenset[Verdict]
    #: process→central observation deliveries, one per program event
    messages: int
    #: the consistent cuts the monitor tracks a state set for
    tracked_cuts: int
    #: central→process fan-out, one per process per conclusive verdict
    verdict_broadcast_messages: int = 0

    @property
    def total_messages(self) -> int:
        """All communication of the centralized configuration.

        Observation deliveries plus verdict broadcasts — the centralized row
        of :func:`repro.experiments.harness.run_message_baseline`.
        """
        return self.messages + self.verdict_broadcast_messages


class CentralizedMonitor:
    """A single monitor receiving every event of every process."""

    @classmethod
    def monitor_computation(
        cls,
        computation: Computation,
        automaton: MonitorAutomaton,
        registry: PropositionRegistry,
    ) -> CentralizedResult:
        """The centralized monitor's result, with the verdicts at the final cut."""
        oracle = LatticeOracle(computation, automaton, registry).evaluate()
        return CentralizedResult(
            final_states=oracle.final_states,
            verdicts=oracle.verdicts,
            messages=computation.num_events,
            tracked_cuts=oracle.num_cuts,
            verdict_broadcast_messages=computation.num_processes
            * len(oracle.conclusive_verdicts),
        )

    @classmethod
    def monitor_computation_declared(
        cls,
        computation: Computation,
        automaton: MonitorAutomaton,
        registry: PropositionRegistry,
    ) -> frozenset[Verdict]:
        """Every conclusive verdict the oracle declares anywhere on the lattice.

        The reference set of the soundness check (a decentralized run is
        sound iff its declared verdicts are a subset) and of the
        completeness check.
        """
        return LatticeOracle(computation, automaton, registry).evaluate().conclusive_verdicts
