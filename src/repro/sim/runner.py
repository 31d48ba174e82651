"""Simulated monitored runs: programs + monitors + network, with time.

:func:`simulate_monitored_run` plays a finished computation on the
discrete-event simulator: each program event fires at its recorded timestamp
and is handed to the local monitor, monitoring messages travel through a
:class:`SimulatedNetwork` (or any network built by the *network* factory —
see :mod:`repro.scenarios.network` for the lossy/partition/bursty models),
and termination signals are issued when each process produces its last
event.  The returned
:class:`SimulationReport` carries exactly the metrics reported in Chapter 5:

* total monitoring messages (Figures 5.4, 5.5, 5.9a);
* delay-time percentage per global state (Figure 5.6);
* delayed (queued) events (Figure 5.7);
* total global views created (Figure 5.8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from ..coordination import build_topology
from ..core.monitor import DecentralizedMonitor
from ..distributed.computation import Computation
from ..faults import FaultPlan, apply_clock_skew, unwrap_monitor, wrap_monitors
from ..ltl.monitor import MonitorAutomaton
from ..ltl.predicates import PropositionRegistry
from ..ltl.verdict import Verdict
from .engine import Simulator
from .network import SimulatedNetwork

__all__ = ["NetworkFactory", "SimulationReport", "simulate_monitored_run"]


class NetworkFactory(Protocol):
    """Anything that can build a simulated network for one run.

    The declarative network models of :mod:`repro.scenarios.network` satisfy
    this protocol; :func:`simulate_monitored_run` only needs ``build``.
    """

    def build(self, simulator: Simulator, seed: int | None) -> SimulatedNetwork:
        """Construct the network for *simulator*, seeded with *seed*."""


@dataclass
class SimulationReport:
    """Metrics and outcomes of one simulated monitored run."""

    num_processes: int
    total_events: int
    monitor_messages: int
    token_messages: int
    termination_messages: int
    digest_messages: int
    total_global_views: int
    delayed_events: int
    program_end_time: float
    monitor_end_time: float
    reported_verdicts: frozenset[Verdict]
    declared_verdicts: frozenset[Verdict]
    monitors: list[DecentralizedMonitor]
    #: behaviour-specific counters of the network model (retransmissions,
    #: held messages, bursts, ...); empty for the plain reliable network
    network_stats: dict[str, float] = field(default_factory=dict)
    #: ``fault_*`` counters of the fault plan (crashes, restarts, held
    #: messages, replayed events, ...); empty for fault-free runs
    fault_stats: dict[str, float] = field(default_factory=dict)
    #: boxes the monitors replayed for returned token entries, and how many
    #: of them were too large for the exact search and were replayed along a
    #: single linearisation (sound, but verdicts may be missed)
    box_queries: int = 0
    box_linear_fallbacks: int = 0
    #: cells the exact box searches created (tuples of letter-run segments),
    #: and views the per-state budget dropped
    box_cells_visited: int = 0
    views_evicted: int = 0
    #: events the monitors appended to the runs of outgoing tokens: copies
    #: of program events that travelled between monitors
    events_shipped: int = 0

    @property
    def monitor_extra_time(self) -> float:
        """Time the monitors kept working after the program finished."""
        return max(0.0, self.monitor_end_time - self.program_end_time)

    @property
    def delay_time_percentage_per_view(self) -> float:
        """The normalised delay metric of Fig. 5.6:
        ``((MonitorExtraTime / ProgramTime) * 100) / TotalGlobalViews``."""
        if self.program_end_time <= 0 or self.total_global_views == 0:
            return 0.0
        percentage = (self.monitor_extra_time / self.program_end_time) * 100.0
        return percentage / self.total_global_views

    @property
    def box_linear_fallback_share(self) -> float:
        """Share of box queries answered by the incomplete linear replay."""
        if self.box_queries == 0:
            return 0.0
        return self.box_linear_fallbacks / self.box_queries

    @property
    def events_shipped_per_event(self) -> float:
        """Copies of events put on tokens, per program event."""
        if self.total_events == 0:
            return 0.0
        return self.events_shipped / self.total_events

    @property
    def average_delayed_events(self) -> float:
        """Average number of delayed events per monitor (Fig. 5.7)."""
        if self.num_processes == 0:
            return 0.0
        return self.delayed_events / self.num_processes

    def as_dict(self) -> dict[str, object]:
        return {
            "processes": self.num_processes,
            "events": self.total_events,
            "messages": self.monitor_messages,
            "token_messages": self.token_messages,
            "global_views": self.total_global_views,
            "delayed_events": self.delayed_events,
            "delay_time_pct_per_view": self.delay_time_percentage_per_view,
            "program_time": self.program_end_time,
            "monitor_extra_time": self.monitor_extra_time,
            "verdicts": sorted(str(v) for v in self.reported_verdicts),
            **self.network_stats,
            **self.fault_stats,
        }


def simulate_monitored_run(
    computation: Computation,
    automaton: MonitorAutomaton,
    registry: PropositionRegistry,
    message_latency: float = 0.05,
    latency_jitter: float = 0.01,
    seed: int | None = None,
    max_views_per_state: int | None = None,
    network: NetworkFactory | None = None,
    faults: FaultPlan | None = None,
    compiled_kernel: bool = True,
    max_sim_events: int | None = None,
    topology: str = "round-robin-token",
) -> SimulationReport:
    """Replay *computation* under decentralized monitoring with network latency.

    With *network* set (any :class:`NetworkFactory`, e.g. a scenario network
    model) the monitors communicate over the network it builds; otherwise a
    plain reliable :class:`SimulatedNetwork` with *message_latency* /
    *latency_jitter* is used, as in the paper's testbed.  With *faults* set
    (a :class:`repro.faults.FaultPlan`) monitors named by the plan are
    wrapped in crash/restart proxies; a no-op plan takes the exact fault-free
    code path, so its outputs are byte-identical to ``faults=None``.  With
    *compiled_kernel* (default on) monitors step the compiled bitmask/dense
    table form of the automaton; the interpreted path is step-for-step
    equivalent and reports identical results.  With *max_sim_events* set,
    the simulator raises :class:`repro.sim.SimulationBudgetExceeded` after
    that many scheduled callbacks — the guard the fuzzing harness uses to
    bound message-amplification storms under adversarial plans.  *topology*
    names the :mod:`repro.coordination` routing policy shared by the run's
    monitors (default ``round-robin-token``, the pre-refactor behaviour).
    """
    n = computation.num_processes
    skew_stats: dict[str, float] = {}
    if faults is not None and faults.clock_skew is not None:
        # clock skew perturbs the monitored trace itself, before any monitor
        # runs — every backend applies the identical deterministic transform
        computation, skew_stats = apply_clock_skew(computation, faults.clock_skew)
    simulator = Simulator()
    if network is not None:
        built_network = network.build(simulator, seed)
    else:
        built_network = SimulatedNetwork(
            simulator, latency=message_latency, jitter=latency_jitter, seed=seed
        )
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
            transport=built_network,
            max_views_per_state=max_views_per_state,
            use_compiled_kernel=compiled_kernel,
            topology=route,
        )

    monitors, injector = wrap_monitors(faults, n, make_monitor)
    for i, monitor in enumerate(monitors):
        built_network.register(i, monitor)

    # schedule program events at their recorded timestamps
    last_time_per_process = [0.0] * n
    program_end = 0.0
    for event in computation.all_events():
        last_time_per_process[event.process] = max(
            last_time_per_process[event.process], event.timestamp
        )
        program_end = max(program_end, event.timestamp)

        def fire(event=event) -> None:
            monitors[event.process].local_event(event)

        simulator.schedule_at(event.timestamp, fire)

    # start monitors at time zero, terminate each process just after its last event
    for i, monitor in enumerate(monitors):
        simulator.schedule_at(0.0, monitor.start)

        def terminate(monitor=monitors[i]) -> None:
            monitor.local_termination()

        simulator.schedule_at(last_time_per_process[i] + 1e-6, terminate)

    if max_sim_events is not None:
        simulator.run(max_events=max_sim_events)
    else:
        simulator.run()

    monitor_end = max(built_network.last_delivery_time, program_end)
    total_views = sum(m.metrics.views_created for m in monitors)
    delayed = sum(m.metrics.delayed_events for m in monitors)
    reported: set[Verdict] = set()
    declared: set[Verdict] = set()
    for monitor in monitors:
        reported |= monitor.reported_verdicts()
        declared |= monitor.declared_verdicts
    return SimulationReport(
        num_processes=n,
        total_events=computation.num_events,
        monitor_messages=built_network.messages_sent,
        token_messages=sum(m.metrics.token_messages_sent for m in monitors),
        termination_messages=sum(
            m.metrics.termination_messages_sent for m in monitors
        ),
        digest_messages=sum(m.metrics.digest_messages_sent for m in monitors),
        total_global_views=total_views,
        delayed_events=delayed,
        program_end_time=program_end,
        monitor_end_time=monitor_end,
        reported_verdicts=frozenset(reported),
        declared_verdicts=frozenset(declared),
        monitors=[unwrap_monitor(monitor) for monitor in monitors],
        network_stats=built_network.extra_stats(),
        fault_stats={
            **(injector.fault_stats() if injector is not None else {}),
            **skew_stats,
        },
        box_queries=sum(m.metrics.box_queries for m in monitors),
        box_linear_fallbacks=sum(m.metrics.box_linear_fallbacks for m in monitors),
        box_cells_visited=sum(m.metrics.box_cells_visited for m in monitors),
        views_evicted=sum(m.metrics.views_evicted for m in monitors),
        events_shipped=sum(m.metrics.events_shipped for m in monitors),
    )
