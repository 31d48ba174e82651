"""Convenience runner: replay a finished computation through the monitors.

:func:`run_decentralized` wires one :class:`DecentralizedMonitor` per process
to a :class:`LoopbackNetwork`, feeds the computation's events in timestamp
order, delivers monitoring messages, signals termination and returns an
aggregated :class:`DecentralizedResult`.  This is the API used by the library
examples and the correctness tests; the experiment harness uses the
discrete-event simulator of :mod:`repro.sim` instead, which adds network
latency and time-based metrics.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..coordination import build_topology
from ..distributed.computation import Computation
from ..ltl.monitor import MonitorAutomaton, build_monitor
from ..ltl.parser import parse
from ..ltl.predicates import PropositionRegistry
from ..ltl.verdict import Verdict
from .monitor import DecentralizedMonitor, MonitorMetrics
from .transport import LoopbackNetwork, Transport

__all__ = ["DecentralizedResult", "monitor_factory", "run_decentralized"]


def monitor_factory(
    computation: Computation,
    automaton: MonitorAutomaton,
    registry: PropositionRegistry,
    transport: Transport,
    *,
    max_views_per_state: int | None,
    compiled_kernel: bool,
    topology: str,
) -> Callable[[int], DecentralizedMonitor]:
    """The per-process monitor constructor of one run.

    The only place a :class:`DecentralizedMonitor` is constructed: the
    initial letters and the :mod:`repro.coordination` routing policy named
    *topology* are computed once and shared by every monitor the returned
    ``factory(process)`` builds (fault proxies call it again to rebuild a
    crashed monitor).  The policy is deterministic in ``(name, n, formula
    ownership)``, so processes building from the same inputs — cluster
    workers — make identical routing decisions.
    """
    n = computation.num_processes
    initial_letters = [
        registry.local_letter(i, computation.initial_states[i]) for i in range(n)
    ]
    route = build_topology(topology, n, registry=registry)

    def make_monitor(process: int) -> DecentralizedMonitor:
        return DecentralizedMonitor(
            process=process,
            num_processes=n,
            automaton=automaton,
            registry=registry,
            initial_letters=initial_letters,
            transport=transport,
            max_views_per_state=max_views_per_state,
            use_compiled_kernel=compiled_kernel,
            topology=route,
        )

    return make_monitor


@dataclass
class DecentralizedResult:
    """Aggregated outcome of a decentralized monitoring run."""

    monitors: list[DecentralizedMonitor]
    network: LoopbackNetwork

    # -- verdicts --------------------------------------------------------
    @property
    def declared_verdicts(self) -> frozenset[Verdict]:
        """Conclusive verdicts (⊤/⊥) declared by any monitor."""
        verdicts: set[Verdict] = set()
        for monitor in self.monitors:
            verdicts |= monitor.declared_verdicts
        return frozenset(verdicts)

    @property
    def reported_verdicts(self) -> frozenset[Verdict]:
        """All verdicts reported by any monitor (declared + live views)."""
        verdicts: set[Verdict] = set()
        for monitor in self.monitors:
            verdicts |= monitor.reported_verdicts()
        return frozenset(verdicts)

    @property
    def declared_states(self) -> frozenset[int]:
        """Automaton states any monitor declared a conclusive verdict from."""
        states: set[int] = set()
        for monitor in self.monitors:
            states |= monitor.declared_states
        return frozenset(states)

    # -- metrics -----------------------------------------------------------
    #
    # One consistent counter set.  ``total_messages`` is the network-level
    # count; it equals ``total_monitor_messages`` (the sum of every monitor's
    # ``MonitorMetrics.messages_sent``) on the reliable loopback transport,
    # and decomposes exactly into token + termination (+ digest) messages.
    # The consistency is pinned by a regression test so the topology
    # frontier's denominators can never silently disagree.
    @property
    def total_messages(self) -> int:
        """Monitoring messages put on the network (all kinds).

        Equals :attr:`total_monitor_messages` on the reliable loopback
        network, and decomposes as ``total_token_messages +
        total_termination_messages + total_digest_messages``.
        """
        return self.network.messages_sent

    @property
    def total_monitor_messages(self) -> int:
        """Sum of every monitor's ``MonitorMetrics.messages_sent``."""
        return sum(m.metrics.messages_sent for m in self.monitors)

    @property
    def total_token_messages(self) -> int:
        """Token messages sent across every monitor."""
        return sum(m.metrics.token_messages_sent for m in self.monitors)

    @property
    def total_termination_messages(self) -> int:
        """Termination notices sent across every monitor."""
        return sum(m.metrics.termination_messages_sent for m in self.monitors)

    @property
    def total_digest_messages(self) -> int:
        """Topology digest messages (gossip forwards/announcements) sent."""
        return sum(m.metrics.digest_messages_sent for m in self.monitors)

    @property
    def total_views_created(self) -> int:
        """Global views created across every monitor."""
        return sum(m.metrics.views_created for m in self.monitors)

    @property
    def total_delayed_events(self) -> int:
        """Events whose processing waited on remote state, summed."""
        return sum(m.metrics.delayed_events for m in self.monitors)

    @property
    def metrics_by_monitor(self) -> list[MonitorMetrics]:
        """Per-monitor counter snapshots, indexed by process."""
        return [m.metrics for m in self.monitors]

    def is_quiescent(self) -> bool:
        """No in-flight messages and no parked tokens anywhere."""
        return self.network.pending == 0 and all(
            not m.waiting_tokens for m in self.monitors
        )

    def summary(self) -> dict[str, object]:
        """Flat run summary (verdicts and headline counters)."""
        return {
            "verdicts": sorted(str(v) for v in self.reported_verdicts),
            "declared": sorted(str(v) for v in self.declared_verdicts),
            "messages": self.total_messages,
            "token_messages": self.total_token_messages,
            "termination_messages": self.total_termination_messages,
            "digest_messages": self.total_digest_messages,
            "views_created": self.total_views_created,
            "delayed_events": self.total_delayed_events,
        }


def run_decentralized(
    computation: Computation,
    property_or_automaton: MonitorAutomaton | str,
    registry: PropositionRegistry,
    deliver_after_each_event: bool = True,
    max_views_per_state: int | None = None,
    compiled_kernel: bool = True,
    topology: str = "round-robin-token",
) -> DecentralizedResult:
    """Monitor a finished computation with the decentralized algorithm.

    Parameters
    ----------
    computation:
        The distributed execution to monitor (events already carry vector
        clocks and timestamps).
    property_or_automaton:
        Either a ready-made :class:`MonitorAutomaton` or an LTL formula
        string, which is compiled with the registry's propositions as the
        alphabet.
    registry:
        The proposition registry binding atoms to processes.
    deliver_after_each_event:
        When ``True`` (default) monitoring messages are delivered eagerly
        after every program event — the "fast network" regime.  When
        ``False`` all program events are fed first and monitoring messages
        are only exchanged afterwards, maximising monitor-side queuing.
    max_views_per_state:
        Optional exploration budget forwarded to every monitor (see
        :class:`repro.core.monitor.DecentralizedMonitor`).
    compiled_kernel:
        Forwarded to every monitor as ``use_compiled_kernel`` (bitmask/dense
        table stepping, default on).
    topology:
        Name of the :mod:`repro.coordination` routing policy shared by the
        run's monitors (default ``round-robin-token``, the pre-refactor
        behaviour).
    """
    if isinstance(property_or_automaton, str):
        automaton = build_monitor(
            parse(property_or_automaton), atoms=registry.names
        )
    else:
        automaton = property_or_automaton

    n = computation.num_processes
    network = LoopbackNetwork()
    make_monitor = monitor_factory(
        computation,
        automaton,
        registry,
        network,
        max_views_per_state=max_views_per_state,
        compiled_kernel=compiled_kernel,
        topology=topology,
    )
    monitors = [make_monitor(i) for i in range(n)]
    for i, monitor in enumerate(monitors):
        network.register(i, monitor)
    for monitor in monitors:
        monitor.start()
    network.deliver_all()

    events = sorted(
        computation.all_events(), key=lambda e: (e.timestamp, e.process, e.sn)
    )
    for event in events:
        monitors[event.process].local_event(event)
        if deliver_after_each_event:
            network.deliver_all()
    network.deliver_all()

    for monitor in monitors:
        monitor.local_termination()
    network.deliver_all()
    # termination may release parked tokens that in turn spawn new messages
    for _ in range(n + 1):
        if network.pending == 0:
            break
        network.deliver_all()

    return DecentralizedResult(monitors=monitors, network=network)
