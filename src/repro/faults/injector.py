"""Backend-agnostic crash/restart injection around the shared monitor.

The whole stack drives monitors exclusively through the
:class:`repro.core.transport.MonitorNode` entry points, so fault injection
needs exactly one mechanism for every backend: :class:`MonitorFaultProxy`
wraps a :class:`repro.core.monitor.DecentralizedMonitor` (or any other
``MonitorNode``) and interposes on the same four entry points.  The
discrete-event simulator registers proxies with its
:class:`~repro.sim.network.SimulatedNetwork`; the asyncio runtime hands them
to :class:`~repro.runtime.node.StreamMonitorNode` — neither backend contains
any fault logic of its own.

Crash triggers count *processed local events* (see
:mod:`repro.faults.plan` for why that makes plans deterministic across
backends).  While down, the proxy buffers local events, holds inbound
messages and, at restart, applies the spec's recovery policy before draining
both queues (held messages first — they are older — then buffered events,
preserving per-channel FIFO and local order).  A termination signal arriving
during downtime force-restarts the monitor so a crash can never swallow the
end of a run.

``rejoin`` recovery rebuilds the monitor through the factory supplied by the
runner: the fresh incarnation inherits only the durable facts (its
declarations, peer-termination knowledge), replays the retained local event log
and re-explores from there (``heard`` is soft state: it restarts at 0, which
only delays settling).  Tokens created by the old incarnation are
silently dropped when they return (the fresh monitor does not know them),
which is exactly the cost the fault scenarios measure.

The same proxy hosts the adversarial :class:`~repro.faults.plan.ByzantineSpec`
behaviours: inbound behaviours (duplication, progression-state corruption,
stale-token replay) interpose on ``receive_message`` counting the monitor's
inbound monitoring messages (those of a frame one by one), while drop-on-send
wraps the inner monitor's ``transport`` attribute — the single outbound seam
every backend shares — and drops whole frames.
Byzantine counters land in ``FaultStats.extra`` (as ``fault_byz_*``), so
crash-only runs keep their historical counter shape.
"""

from __future__ import annotations

import copy
from collections.abc import Callable, Iterable
from functools import partial

from ..core.messages import Token
from ..core.monitor import DecentralizedMonitor, MonitorMetrics
from .plan import RECOVERY_REJOIN, ByzantineSpec, CrashSpec, FaultPlan, FaultStats

__all__ = ["MonitorFaultProxy", "FaultInjector", "unwrap_monitor", "wrap_monitors"]


class _DropOnSendTransport:
    """Transport facade that silently drops every k-th outbound send (a frame).

    Installed as the inner monitor's ``transport`` attribute by its fault
    proxy, so the drop happens *before* the real transport sees the frame —
    neither backend counts a dropped message as sent or in flight, which
    keeps quiescence detection honest while the receiver simply never
    learns the message existed (the reliable-channel assumption broken in
    the most literal way).
    """

    def __init__(self, inner: object, proxy: "MonitorFaultProxy") -> None:
        self._inner = inner
        self._proxy = proxy
        self._sends = 0

    def send(self, sender: int, target: int, message: object) -> None:
        """Forward to the real transport, swallowing every k-th frame."""
        self._sends += 1
        byzantine = self._proxy.byzantine
        assert byzantine is not None and byzantine.drop_every
        if self._sends % byzantine.drop_every == 0:
            self._proxy.stats.extra["fault_byz_dropped"] += 1.0
            return
        self._inner.send(sender, target, message)  # type: ignore[attr-defined]

    def __getattr__(self, name: str) -> object:
        return getattr(self._inner, name)


class MonitorFaultProxy:
    """A :class:`MonitorNode` that crashes and restarts its inner monitor.

    The proxy is a plain synchronous wrapper: it never spawns tasks or
    schedules callbacks, so it behaves identically under the discrete-event
    simulator and the asyncio runtime.  All mutable fault state
    (down/up, buffers, the durable local log) lives here; the inner monitor
    is replaced wholesale on ``rejoin`` recoveries.
    """

    def __init__(
        self,
        factory: Callable[[], DecentralizedMonitor],
        specs: tuple[CrashSpec, ...],
        stats: FaultStats,
        byzantine: ByzantineSpec | None = None,
    ) -> None:
        self._factory = factory
        self._specs = list(specs)
        self.stats = stats
        self.byzantine = byzantine
        self.monitor = factory()
        self._down = False
        self._active_spec: CrashSpec | None = None
        self._events_processed = 0
        self._inbound_messages = 0
        self._stale_token: Token | None = None
        self._log: list[object] = []
        self._buffered_events: list[object] = []
        self._held_messages: list[object] = []
        self._retired_metrics: list[MonitorMetrics] = []
        self._install_interceptor()

    # -- MonitorNode protocol -------------------------------------------
    @property
    def process(self) -> int:
        """Index of the program process the wrapped monitor serves."""
        return self.monitor.process

    @property
    def is_down(self) -> bool:
        """Whether the monitor is currently crashed."""
        return self._down

    def start(self) -> None:
        """Process the initial global state (delegated)."""
        self.monitor.start()

    def local_event(self, event: object) -> None:
        """Feed one local program event, buffering it during downtime."""
        if self._down:
            self._buffered_events.append(event)
            self.stats.buffered_events += 1
            assert self._active_spec is not None
            if len(self._buffered_events) > self._active_spec.down_events:
                self._restart()
        else:
            self._process_event(event)

    def local_termination(self) -> None:
        """Handle the termination signal, force-restarting a down monitor."""
        if self._down:
            self._restart(forced=True)
        self.monitor.local_termination()

    def receive_message(self, message: object) -> None:
        """Deliver a monitoring message, holding it during downtime."""
        if self._down:
            self._held_messages.append(message)
            self.stats.held_messages += 1
        else:
            self._deliver(message)

    # -- verdicts and metrics -------------------------------------------
    @property
    def declared_verdicts(self) -> set:
        """Conclusive verdicts declared so far (durable across crashes)."""
        return self.monitor.declared_verdicts

    def reported_verdicts(self) -> set:
        """Verdicts reported at the end of the run (delegated)."""
        return self.monitor.reported_verdicts()

    @property
    def metrics(self) -> MonitorMetrics:
        """Counters merged across every incarnation of the monitor."""
        return MonitorMetrics.fold([*self._retired_metrics, self.monitor.metrics])

    # -- Byzantine behaviours -------------------------------------------
    def _install_interceptor(self) -> None:
        """Wrap the inner monitor's outbound seam when drop-on-send is armed.

        Re-invoked after ``rejoin`` recoveries: the fresh incarnation gets
        its own interceptor (its send counter restarts, like the rest of
        its volatile state).
        """
        if self.byzantine is not None and self.byzantine.drop_every:
            self.monitor.transport = _DropOnSendTransport(self.monitor.transport, self)

    def _deliver(self, message: object) -> None:
        """Hand one inbound message or frame to the monitor, applying behaviours.

        Inbound behaviours trigger on every k-th *delivered* message, each of
        a frame on its own (held messages count when drained, keeping one
        deterministic stream per backend), and what they add follows its
        message in the frame the monitor receives.  The duplicate and the
        stale replay are deep copies, as re-sent messages would be; corruption
        forges a deep copy and leaves the original untouched, so in-process
        backends never see shared mutated state.
        """
        byzantine = self.byzantine
        if byzantine is None:
            self.monitor.receive_message(message)
            return
        inbound: list[object] = []
        for part in message if isinstance(message, tuple) else (message,):
            self._inbound_messages += 1
            count = self._inbound_messages
            if byzantine.corrupt_every and count % byzantine.corrupt_every == 0:
                part = self._corrupt(part) or part
            if self._stale_token is None and isinstance(part, Token):
                # remember the first token this monitor ever saw, for replays
                self._stale_token = copy.deepcopy(part)
            inbound.append(part)
            if byzantine.duplicate_every and count % byzantine.duplicate_every == 0:
                self.stats.extra["fault_byz_duplicated"] += 1.0
                inbound.append(copy.deepcopy(part))
            if byzantine.replay_every and count % byzantine.replay_every == 0 and self._stale_token:
                self.stats.extra["fault_byz_replayed"] += 1.0
                inbound.append(copy.deepcopy(self._stale_token))
        self.monitor.receive_message(inbound[0] if len(inbound) == 1 else tuple(inbound))

    def _corrupt(self, message: object) -> Token | None:
        """A forged copy of *message*, or ``None`` when nothing to forge.

        Corruption marks every undecided entry of a token conclusively
        evaluated (``eval=True``) without its guard ever having been
        checked — the receiving parent will fork global views for
        transitions no real execution took, which is exactly the forged
        progression state the soundness oracle must catch.  Only positions
        the token genuinely scanned are touched downstream (the box replay
        reads the parent's columns, which the token's runs fill up to every
        entry's cut), so the attack perturbs verdicts, not the monitor's
        internal invariants.
        """
        if not isinstance(message, Token) or all(e.eval is not None for e in message.entries):
            return None
        forged = copy.deepcopy(message)
        for entry in forged.entries:
            if entry.eval is None:
                entry.eval = True
        self.stats.extra["fault_byz_corrupted"] += 1.0
        return forged

    # -- crash / restart machinery --------------------------------------
    def _process_event(self, event: object) -> None:
        """Run one live local event through the monitor, then check triggers."""
        self._log.append(event)
        self.monitor.local_event(event)
        self._events_processed += 1
        if self._specs and self._specs[0].after_events == self._events_processed:
            self._crash(self._specs.pop(0))

    def _crash(self, spec: CrashSpec) -> None:
        # a zero-length outage (down_events == 0) restarts on the very next
        # local item; the recovery policy (state loss under rejoin) applies
        self._down = True
        self._active_spec = spec
        self.stats.crashes += 1

    def _restart(self, forced: bool = False) -> None:
        """Bring the monitor back up: recover state, then drain the queues."""
        spec = self._active_spec
        assert spec is not None
        self._down = False
        self._active_spec = None
        self.stats.restarts += 1
        if forced:
            self.stats.forced_restarts += 1
        if spec.recovery == RECOVERY_REJOIN:
            self._rejoin_from_scratch()
        held, self._held_messages = self._held_messages, []
        for message in held:
            self._deliver(message)
        buffered, self._buffered_events = self._buffered_events, []
        for event in buffered:
            self._process_event(event)

    def _rejoin_from_scratch(self) -> None:
        """Replace the monitor with a fresh incarnation and replay the log.

        Durable facts carried over: the declarations — declared states and
        the verdict log (already announced, cannot be retracted; the fresh
        incarnation's own start declared only what the old one's did) — and
        peer-termination knowledge (stable).  The
        volatile exploration state — views, outstanding and parked tokens —
        is rebuilt by replaying the local event log; re-exploration traffic
        is the measurable cost of this policy.
        """
        old = self.monitor
        self._retired_metrics.append(old.metrics)
        fresh = self._factory()
        fresh.declared_bits |= old.declared_bits
        fresh.verdict_log = list(old.verdict_log)
        for peer, final_sn in old.terminated.items():
            if final_sn is not None and peer != old.process:
                fresh.terminated[peer] = final_sn
        self.monitor = fresh
        self._install_interceptor()
        fresh.start()
        for event in self._log:
            fresh.local_event(event)
        self.stats.replayed_events += len(self._log)


class FaultInjector:
    """Per-run coordinator building fault proxies from a plan.

    One injector exists per monitored run; it owns the shared
    :class:`FaultStats` the run report exposes and decides which monitors
    need wrapping at all (monitors without crash cycles stay unwrapped, so
    a no-op plan leaves the run byte-identical).
    """

    def __init__(self, plan: FaultPlan, num_processes: int) -> None:
        self.plan = plan
        self.num_processes = num_processes
        self.stats = FaultStats()
        # pre-seed the counter of every armed Byzantine behaviour so a dead
        # injection path shows up as an explicit 0.0 in sweep rows (the
        # mutation-style observability tests assert on these keys)
        for spec in plan.byzantine:
            if spec.process >= num_processes or spec.is_noop:
                continue
            if spec.duplicate_every:
                self.stats.extra.setdefault("fault_byz_duplicated", 0.0)
            if spec.corrupt_every:
                self.stats.extra.setdefault("fault_byz_corrupted", 0.0)
            if spec.replay_every:
                self.stats.extra.setdefault("fault_byz_replayed", 0.0)
            if spec.drop_every:
                self.stats.extra.setdefault("fault_byz_dropped", 0.0)

    def wrap(
        self, process: int, factory: Callable[[], DecentralizedMonitor]
    ) -> DecentralizedMonitor | MonitorFaultProxy:
        """The endpoint for *process*: a fault proxy or the bare monitor."""
        specs = self.plan.specs_for(process)
        byzantine = self.plan.byzantine_for(process)
        if not specs and byzantine is None:
            return factory()
        return MonitorFaultProxy(factory, specs, self.stats, byzantine=byzantine)

    def fault_stats(self) -> dict[str, float]:
        """Flat ``fault_*`` counters for the run report."""
        return self.stats.as_dict()


def unwrap_monitor(endpoint: object) -> DecentralizedMonitor:
    """The current inner monitor of an endpoint (proxy or bare monitor)."""
    if isinstance(endpoint, MonitorFaultProxy):
        return endpoint.monitor
    return endpoint


def wrap_monitors(
    plan: FaultPlan | None,
    num_processes: int,
    factory: Callable[[int], DecentralizedMonitor],
    hosted: Iterable[int],
) -> tuple[list, FaultInjector | None]:
    """Build the monitor endpoints of the *hosted* processes under *plan*.

    The single entry point every backend uses (through
    :class:`repro.session.MonitorSession`): returns one endpoint per hosted
    process — all of them in-process, a cluster worker's own one — plus the
    run's :class:`FaultInjector`, or ``None`` when *plan* is absent or a
    no-op, in which case every endpoint is a bare monitor and the run takes
    the exact fault-free code path (byte-identical outputs).
    """
    if plan is None or plan.is_noop(num_processes):
        return [factory(i) for i in hosted], None
    injector = FaultInjector(plan, num_processes)
    return [injector.wrap(i, partial(factory, i)) for i in hosted], injector
