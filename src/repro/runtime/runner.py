"""Streaming monitored runs: monitors as concurrent asyncio tasks.

:func:`stream_monitored_run` is the asyncio counterpart of
:func:`repro.sim.runner.simulate_monitored_run`: it replays a finished
computation with one :class:`repro.runtime.node.StreamMonitorNode` per
process — each wrapping the *unchanged*
:class:`repro.core.monitor.DecentralizedMonitor` — exchanging the
:mod:`repro.core.messages` wire messages through a streaming transport
(in-process queues or real TCP sockets).  Events are fed in global timestamp
order against a :class:`~repro.runtime.transport.RuntimeClock`; termination
signals interleave exactly where the simulator schedules them (just after
each process's last event).

Because every transport delivers reliably and in FIFO order per channel, the
conclusive (⊤/⊥) verdicts of a run are independent of task interleavings —
the same invariant the simulated network family is property-tested for — so
for a fixed seed the streaming backend declares exactly the verdicts the
discrete-event backend does, while timing/queuing metrics naturally reflect
the live execution instead of a simulated schedule.

:func:`run_streaming` is the synchronous convenience wrapper used by the
experiment engine (``run --backend asyncio``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from ..coordination import build_topology
from ..core.delays import DelayModel
from ..core.monitor import DecentralizedMonitor
from ..distributed.computation import Computation
from ..faults import FaultPlan, apply_clock_skew, unwrap_monitor, wrap_monitors
from ..ltl.monitor import MonitorAutomaton
from ..ltl.predicates import PropositionRegistry
from ..ltl.verdict import Verdict
from .node import StreamMonitorNode
from .transport import InMemoryStreamTransport, RuntimeClock, StreamTransport, TcpStreamTransport

__all__ = ["RuntimeReport", "stream_monitored_run", "run_streaming", "TRANSPORTS"]

#: the streaming transports selectable by name (CLI ``--stream-transport``)
TRANSPORTS = ("memory", "tcp")

#: gap between a process's last event and its termination signal — the same
#: epsilon the discrete-event runner uses, so schedules line up
_TERMINATION_EPSILON = 1e-6


@dataclass
class RuntimeReport:
    """Metrics and outcomes of one streaming monitored run.

    Field-compatible with :class:`repro.sim.runner.SimulationReport` for
    everything the experiment engine consumes, so sweep cells are
    backend-agnostic; times are in virtual seconds (the computation's time
    base), with the real elapsed wall clock in ``wall_seconds``.
    """

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
    #: behaviour-specific counters of the delay model (retransmissions,
    #: held messages, bursts, ...); empty for undelayed transports
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
    #: which streaming transport carried the messages ("memory" or "tcp")
    transport: str = "memory"
    #: real wall-clock seconds the streaming run took end to end
    wall_seconds: float = 0.0
    #: bytes of all frames written to sockets; zero on the memory transport,
    #: which encodes nothing
    wire_bytes: int = 0

    @property
    def monitor_extra_time(self) -> float:
        """Virtual time the monitors kept working after the program finished."""
        return max(0.0, self.monitor_end_time - self.program_end_time)

    @property
    def delay_time_percentage_per_view(self) -> float:
        """The normalised delay metric of Fig. 5.6 (virtual-time based)."""
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

    def verdict_sequence(self) -> tuple[str, ...]:
        """The run's canonical per-monitor verdict declaration order.

        One entry per monitor process, each the space-joined conclusive
        verdicts in the order that monitor first declared them (empty string
        for a monitor that never reached a conclusive state).  This is the
        byte-comparable rendering the fleet layer's equivalence anchor is
        property-tested on: a tenant run inside :func:`repro.fleet.run_fleet`
        must produce exactly this tuple for the same (formula, stream) seed.
        """
        return tuple(
            " ".join(str(verdict) for verdict in monitor.verdict_log)
            for monitor in self.monitors
        )

    def as_dict(self) -> dict[str, object]:
        """Flat summary row, shaped like the simulator report's."""
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
            "transport": self.transport,
            **self.network_stats,
            **self.fault_stats,
        }


def _build_transport(
    transport: str, clock: RuntimeClock, delay: DelayModel | None
) -> StreamTransport:
    """Instantiate the named streaming transport."""
    if transport == "memory":
        return InMemoryStreamTransport(clock=clock, delay=delay)
    if transport == "tcp":
        return TcpStreamTransport(clock=clock, delay=delay)
    raise ValueError(f"unknown streaming transport {transport!r} (known: {TRANSPORTS})")


async def stream_monitored_run(
    computation: Computation,
    automaton: MonitorAutomaton,
    registry: PropositionRegistry,
    *,
    delay: DelayModel | None = None,
    max_views_per_state: int | None = None,
    transport: str = "memory",
    time_scale: float = 0.0,
    quiesce_timeout: float = 120.0,
    faults: FaultPlan | None = None,
    compiled_kernel: bool = True,
    topology: str = "round-robin-token",
) -> RuntimeReport:
    """Stream *computation* through concurrent monitor tasks.

    Parameters
    ----------
    computation:
        The distributed execution to monitor (events already carry vector
        clocks and timestamps).
    automaton / registry:
        The replicated LTL3 monitor automaton and its proposition binding.
    delay:
        Optional :class:`repro.core.delays.DelayModel` shaping message
        latency — the same model values the simulated networks use, so
        scenario network conditions mean the same thing on this backend.
        ``None`` delivers as fast as the channel pumps run.
    max_views_per_state:
        Optional per-monitor exploration budget (see
        :class:`repro.core.monitor.DecentralizedMonitor`).
    transport:
        ``"memory"`` (in-process queues) or ``"tcp"`` (real loopback
        sockets with pickled, length-prefixed frames).
    time_scale:
        Wall-clock seconds per virtual second when pacing the replay; the
        default ``0.0`` runs as fast as possible.
    quiesce_timeout:
        Real-time bound on the post-termination drain.
    faults:
        Optional :class:`repro.faults.FaultPlan`; monitors named by the
        plan are wrapped in the same crash/restart proxies the simulator
        uses, so a fault schedule means the same thing on both backends.
    compiled_kernel:
        Forwarded to every monitor as ``use_compiled_kernel`` (bitmask/dense
        table stepping, default on); verdicts and metrics are identical
        either way.
    topology:
        Name of the :mod:`repro.coordination` routing policy shared by the
        run's monitors.  Deterministic in ``(name, num_processes)`` — the
        streaming backend has no run seed, and none is needed.
    """
    started = time.perf_counter()
    n = computation.num_processes
    skew_stats: dict[str, float] = {}
    if faults is not None and faults.clock_skew is not None:
        # same deterministic pre-run transform the simulator applies, so
        # both backends monitor the identical skewed trace
        computation, skew_stats = apply_clock_skew(computation, faults.clock_skew)
    clock = RuntimeClock(time_scale)
    net = _build_transport(transport, clock, delay)
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
            transport=net,
            max_views_per_state=max_views_per_state,
            use_compiled_kernel=compiled_kernel,
            topology=route,
        )

    monitors, injector = wrap_monitors(faults, n, make_monitor)
    nodes = [StreamMonitorNode(monitor, net) for monitor in monitors]
    for node in nodes:
        net.register(node.process, node)
    await net.start()
    tasks = [node.start_task() for node in nodes]

    try:
        # INIT: every monitor processes the initial global state once all
        # endpoints are registered (outgoing tokens already flow streamed)
        for monitor in monitors:
            monitor.start()

        # one merged schedule: events at their timestamps, termination of
        # each process just after its last event — as the simulator does
        last_time = [0.0] * n
        program_end = 0.0
        schedule: list[tuple[float, int, int, object]] = []
        for event in computation.all_events():
            last_time[event.process] = max(last_time[event.process], event.timestamp)
            program_end = max(program_end, event.timestamp)
            schedule.append((event.timestamp, 0, event.process, event))
        for process in range(n):
            schedule.append(
                (last_time[process] + _TERMINATION_EPSILON, 1, process, None)
            )
        schedule.sort(key=lambda item: (item[0], item[1], item[2]))

        for instant, kind, process, payload in schedule:
            await clock.sleep_until(instant)
            if kind == 0:
                nodes[process].enqueue_event(payload)
            else:
                nodes[process].enqueue_termination()

        await net.wait_quiescent(timeout=quiesce_timeout)
    finally:
        for node in nodes:
            node.enqueue_stop()
        await asyncio.gather(*tasks, return_exceptions=True)
        await net.aclose()
    # surface node-task failures (monitor bugs) instead of hanging reports
    for task in tasks:
        if task.done() and not task.cancelled() and task.exception() is not None:
            raise task.exception()

    reported: set[Verdict] = set()
    declared: set[Verdict] = set()
    for monitor in monitors:
        reported |= monitor.reported_verdicts()
        declared |= monitor.declared_verdicts
    return RuntimeReport(
        num_processes=n,
        total_events=computation.num_events,
        monitor_messages=net.messages_sent,
        token_messages=sum(m.metrics.token_messages_sent for m in monitors),
        termination_messages=sum(
            m.metrics.termination_messages_sent for m in monitors
        ),
        digest_messages=sum(m.metrics.digest_messages_sent for m in monitors),
        total_global_views=sum(m.metrics.views_created for m in monitors),
        delayed_events=sum(m.metrics.delayed_events for m in monitors),
        program_end_time=program_end,
        monitor_end_time=max(net.last_delivery_time, program_end),
        reported_verdicts=frozenset(reported),
        declared_verdicts=frozenset(declared),
        monitors=[unwrap_monitor(monitor) for monitor in monitors],
        network_stats=net.extra_stats(),
        fault_stats={
            **(injector.fault_stats() if injector is not None else {}),
            **skew_stats,
        },
        box_queries=sum(m.metrics.box_queries for m in monitors),
        box_linear_fallbacks=sum(m.metrics.box_linear_fallbacks for m in monitors),
        box_cells_visited=sum(m.metrics.box_cells_visited for m in monitors),
        views_evicted=sum(m.metrics.views_evicted for m in monitors),
        events_shipped=sum(m.metrics.events_shipped for m in monitors),
        transport=transport,
        wall_seconds=time.perf_counter() - started,
        wire_bytes=net.wire_bytes_sent,
    )


def run_streaming(
    computation: Computation,
    automaton: MonitorAutomaton,
    registry: PropositionRegistry,
    *,
    delay: DelayModel | None = None,
    max_views_per_state: int | None = None,
    transport: str = "memory",
    time_scale: float = 0.0,
    quiesce_timeout: float = 120.0,
    faults: FaultPlan | None = None,
    compiled_kernel: bool = True,
    topology: str = "round-robin-token",
) -> RuntimeReport:
    """Synchronous wrapper: run :func:`stream_monitored_run` to completion.

    Spins up a fresh event loop per call (``asyncio.run``), which keeps the
    backend usable from the sharded sweep engine's worker processes.
    """
    return asyncio.run(
        stream_monitored_run(
            computation,
            automaton,
            registry,
            delay=delay,
            max_views_per_state=max_views_per_state,
            transport=transport,
            time_scale=time_scale,
            quiesce_timeout=quiesce_timeout,
            faults=faults,
            compiled_kernel=compiled_kernel,
            topology=topology,
        )
    )
