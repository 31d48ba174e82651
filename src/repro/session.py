"""One monitored session and its one run report, shared by every backend.

The paper has one algorithm — a :class:`~repro.core.monitor.DecentralizedMonitor`
per process, fed its local events and a termination signal.  Everything a
*run* of that algorithm needs besides a way to move time and messages lives
here, once:

* :class:`MonitorSession` applies the fault plan's clock skew to the
  computation, builds the monitor endpoints (through
  :func:`monitor_factory` and :func:`repro.faults.wrap_monitors`), produces
  the merged event/termination :meth:`~MonitorSession.schedule`, and folds
  the counters of a finished run into a :class:`RunReport`.
* :class:`RunReport` is the single report type: the discrete-event
  simulator, the asyncio runtime, the cluster coordinator and (through
  ``TenantResult.from_report``) the fleet all return it.

A backend is then only its *driver*: it owns the transport it hands to the
session, registers the endpoints, calls ``start()`` on each, feeds the
schedule against its own notion of time and waits for quiescence.  There are
three: ``repro.sim`` (in process; over a zero-latency
``ReliableNetwork(latency=0.0, jitter=0.0)`` it is the untimed run),
``repro.runtime`` (whose ``drive_session`` the fleet reuses) and the
``repro.cluster`` worker.  The module sits above
:mod:`repro.core` and :mod:`repro.faults` (the
fault injector imports the monitor, so the session cannot live inside
``core``) and below every backend package.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from .core.monitor import DecentralizedMonitor, MonitorMetrics
from .core.transport import MonitorNode, Transport
from .distributed.computation import Computation
from .distributed.events import Event
from .faults import FaultPlan, apply_clock_skew, unwrap_monitor, wrap_monitors
from .ltl.monitor import MonitorAutomaton
from .ltl.predicates import PropositionRegistry
from .ltl.verdict import Verdict

__all__ = [
    "EVENT",
    "TERMINATION",
    "MonitorSession",
    "RunReport",
    "ScheduleItem",
    "monitor_factory",
]

#: gap between a process's last event and its termination signal
_TERMINATION_EPSILON = 1e-6

#: the ``kind`` of a schedule item; events sort before terminations
EVENT, TERMINATION = 0, 1

#: ``(time, kind, process, event)``; *event* is ``None`` for a termination
ScheduleItem = tuple[float, int, int, Event | None]


@dataclass
class RunReport:
    """Metrics and outcomes of one monitored run, on any backend.

    The counters are the metrics reported in Chapter 5 — total monitoring
    messages (Figures 5.4, 5.5, 5.9a), delay-time percentage per global
    state (5.6), delayed events (5.7), global views created (5.8) — read off
    ``metrics``, the monitors' counter records folded into one, which also
    holds every always-on diagnostic counter of the monitors.  Times are in
    virtual seconds (the computation's time base).  Fields a backend has no
    value for keep their neutral default: the simulator has no
    ``transport`` / ``wall_seconds`` / ``wire_bytes``; the cluster has no
    shared clock and no monitor objects (zero end times, empty
    ``monitors``), but keeps its workers' replies in ``worker_results``.
    """

    num_processes: int
    total_events: int
    monitor_messages: int
    reported_verdicts: frozenset[Verdict]
    declared_verdicts: frozenset[Verdict]
    #: the monitors' counters, summed (two maxima) by :meth:`MonitorMetrics.fold`
    metrics: MonitorMetrics
    program_end_time: float = 0.0
    monitor_end_time: float = 0.0
    monitors: list[DecentralizedMonitor] = field(default_factory=list)
    #: behaviour-specific counters of the network run (retransmissions,
    #: held messages, bursts, ...); empty for plain reliable links
    network_stats: dict[str, float] = field(default_factory=dict)
    #: ``fault_*`` counters of the fault plan (crashes, restarts, held
    #: messages, replayed events, ...); empty for fault-free runs
    fault_stats: dict[str, float] = field(default_factory=dict)
    #: which streaming transport carried the messages ("memory" or "tcp");
    #: empty on the simulator and the cluster
    transport: str = ""
    #: real wall-clock seconds the run took end to end (zero on the simulator)
    wall_seconds: float = 0.0
    #: bytes of all monitoring frames written to sockets; zero where nothing
    #: is encoded (simulator, memory transport)
    wire_bytes: int = 0
    #: cluster only: the untouched per-worker ``collect`` replies
    worker_results: list[dict[str, object]] = field(default_factory=list)

    @classmethod
    def fold(
        cls,
        metrics: Sequence[MonitorMetrics],
        reported: Iterable[Verdict],
        declared: Iterable[Verdict],
        **fields: object,
    ) -> RunReport:
        """Fold per-monitor counter records into one report.

        *metrics* holds one record per monitor of the run (in-process: the
        endpoints' own; cluster: rebuilt from the workers' replies);
        *fields* are the report fields that do not come from the monitors
        (event totals, transport counters, end times, stats dictionaries).
        """
        return cls(
            num_processes=len(metrics),
            metrics=MonitorMetrics.fold(metrics),
            reported_verdicts=frozenset(reported),
            declared_verdicts=frozenset(declared),
            **fields,
        )

    @property
    def token_messages(self) -> int:
        """Token messages the monitors sent."""
        return self.metrics.token_messages_sent

    @property
    def termination_messages(self) -> int:
        """Termination notices the monitors sent."""
        return self.metrics.termination_messages_sent

    @property
    def total_global_views(self) -> int:
        """Global views the monitors created (Fig. 5.8)."""
        return self.metrics.views_created

    @property
    def delayed_events(self) -> int:
        """Events the monitors had to delay (Fig. 5.7)."""
        return self.metrics.delayed_events

    @property
    def digest_messages(self) -> int:
        """Always 0: ``monitor_messages`` is token + termination messages."""
        return 0

    @property
    def monitor_extra_time(self) -> float:
        """Virtual time the monitors kept working after the program finished."""
        return max(0.0, self.monitor_end_time - self.program_end_time)

    @property
    def delay_time_percentage_per_view(self) -> float:
        """The normalised delay metric of Fig. 5.6, the paper's definition.

        ``((MonitorExtraTime / ProgramTime) * 100) / TotalGlobalViews``;
        zero by construction on the cluster, which has no shared clock.
        """
        if self.program_end_time <= 0 or self.total_global_views == 0:
            return 0.0
        percentage = (self.monitor_extra_time / self.program_end_time) * 100.0
        return percentage / self.total_global_views

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
        """Flat summary row; ``transport`` appears only where one was named."""
        row: dict[str, object] = {
            "processes": self.num_processes,
            "events": self.total_events,
            "messages": self.monitor_messages,
            "token_messages": self.token_messages,
            "global_views": self.total_global_views,
            "delayed_events": self.delayed_events,
            "delay_time_pct_per_view": self.delay_time_percentage_per_view,
            "monitor_extra_time": self.monitor_extra_time,
            "program_time": self.program_end_time,
            "verdicts": sorted(str(v) for v in self.reported_verdicts),
        }
        if self.transport:
            row["transport"] = self.transport
        return {**row, **self.network_stats, **self.fault_stats}


def monitor_factory(
    computation: Computation,
    automaton: MonitorAutomaton,
    registry: PropositionRegistry,
    transport: Transport,
    *,
    max_views_per_state: int | None,
) -> Callable[[int], DecentralizedMonitor]:
    """The per-process monitor constructor of one run.

    The only place a :class:`DecentralizedMonitor` is constructed: the
    initial letters are computed once and shared by every monitor the
    returned ``factory(process)`` builds (fault proxies call it again to
    rebuild a crashed monitor).
    """
    n = computation.num_processes
    initial_letters = [
        registry.local_letter(i, computation.initial_states[i]) for i in range(n)
    ]

    def make_monitor(process: int) -> DecentralizedMonitor:
        return DecentralizedMonitor(
            process=process,
            num_processes=n,
            automaton=automaton,
            registry=registry,
            initial_letters=initial_letters,
            transport=transport,
            max_views_per_state=max_views_per_state,
        )

    return make_monitor


class MonitorSession:
    """The monitors, schedule and report of one run over a given transport.

    Parameters
    ----------
    computation:
        The distributed execution to monitor (events already carry vector
        clocks and timestamps).
    automaton, registry:
        The replicated LTL3 monitor automaton and its proposition binding.
    transport:
        What the monitors send through; built and driven by the backend.
    faults:
        Optional :class:`repro.faults.FaultPlan`.  Its clock skew perturbs
        the monitored trace itself, before any monitor runs (the identical
        deterministic transform on every backend and every cluster worker);
        monitors it names are wrapped in crash/restart proxies.  A no-op
        plan takes the exact fault-free code path.
    max_views_per_state:
        Forwarded to every monitor (see
        :class:`repro.core.monitor.DecentralizedMonitor`).
    hosted:
        The processes whose monitors this session builds and schedules —
        all of them by default, its own one in a cluster worker.
    """

    def __init__(
        self,
        computation: Computation,
        automaton: MonitorAutomaton,
        registry: PropositionRegistry,
        transport: Transport,
        *,
        faults: FaultPlan | None = None,
        max_views_per_state: int | None = None,
        hosted: Sequence[int] | None = None,
    ) -> None:
        self.computation, self.skew_stats = apply_clock_skew(
            computation, faults.clock_skew if faults is not None else None
        )
        n = self.computation.num_processes
        self.transport = transport
        self.hosted = tuple(range(n)) if hosted is None else tuple(hosted)
        #: one endpoint (bare monitor or fault proxy) per hosted process
        self.endpoints: list[MonitorNode]
        self.endpoints, self.injector = wrap_monitors(
            faults,
            n,
            monitor_factory(
                self.computation,
                automaton,
                registry,
                transport,
                max_views_per_state=max_views_per_state,
            ),
            self.hosted,
        )
        #: timestamp of the program's last event
        self.program_end = max(
            (event.timestamp for event in self.computation.all_events()), default=0.0
        )

    def schedule(self) -> list[ScheduleItem]:
        """What to feed the hosted monitors, in feeding order.

        Every hosted process's events at their recorded timestamps and its
        termination signal just after its last event, sorted by ``(time,
        kind, process)``.  The sort is stable and
        :meth:`~repro.distributed.computation.Computation.all_events` is
        grouped by process in sequence-number order, so equal-time events
        keep ``(process, sn)`` order and terminations follow the events of
        their instant — the order the simulator's insertion-order tie-break
        has always produced, which the round-robin fixtures pin.
        """
        hosted = set(self.hosted)
        last_time = dict.fromkeys(self.hosted, 0.0)
        items: list[ScheduleItem] = []
        for event in self.computation.all_events():
            if event.process in hosted:
                last_time[event.process] = max(last_time[event.process], event.timestamp)
                items.append((event.timestamp, EVENT, event.process, event))
        for process, instant in last_time.items():
            items.append((instant + _TERMINATION_EPSILON, TERMINATION, process, None))
        items.sort(key=lambda item: item[:3])
        return items

    def fault_stats(self) -> dict[str, float]:
        """The run's ``fault_*`` counters: injector stats, then skew stats."""
        injected = self.injector.fault_stats() if self.injector is not None else {}
        return {**injected, **self.skew_stats}

    def report(self, *, transport: str = "", wall_seconds: float = 0.0) -> RunReport:
        """Fold the finished run into a :class:`RunReport`.

        Reads the monitors' counters and verdicts and the transport's
        ``messages_sent`` / ``last_delivery_time`` / ``extra_stats()`` /
        ``wire_bytes_sent``; *transport* and *wall_seconds* are the two
        values only a live backend has.
        """
        net = self.transport
        reported: set[Verdict] = set()
        declared: set[Verdict] = set()
        for endpoint in self.endpoints:
            reported |= endpoint.reported_verdicts()
            declared |= endpoint.declared_verdicts
        return RunReport.fold(
            [endpoint.metrics for endpoint in self.endpoints],
            reported,
            declared,
            total_events=self.computation.num_events,
            monitor_messages=net.messages_sent,
            program_end_time=self.program_end,
            monitor_end_time=max(net.last_delivery_time, self.program_end),
            monitors=[unwrap_monitor(endpoint) for endpoint in self.endpoints],
            network_stats=net.extra_stats(),
            fault_stats=self.fault_stats(),
            transport=transport,
            wall_seconds=wall_seconds,
            wire_bytes=net.wire_bytes_sent,
        )

