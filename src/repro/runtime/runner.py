"""Streaming monitored runs: monitors as concurrent asyncio tasks.

:func:`stream_monitored_run` is the asyncio driver of a
:class:`repro.session.MonitorSession` (the counterpart of
:func:`repro.sim.runner.simulate_monitored_run`): it replays a finished
computation with one :class:`repro.runtime.node.StreamMonitorNode` per
process — each wrapping the *unchanged*
:class:`repro.core.monitor.DecentralizedMonitor` — exchanging the
:mod:`repro.core.messages` wire messages through a streaming transport
(in-process queues or real TCP sockets).  The session's schedule is fed
against the transport's virtual time (``StreamTransport.now``), as fast as
the event loop runs; termination signals interleave exactly where the
simulator schedules them (just after each process's last event).

Because every transport delivers reliably and in FIFO order per channel, the
conclusive (⊤/⊥) verdicts of a run are independent of task interleavings —
the same invariant the network conditions are property-tested for — so for a fixed
seed the streaming backend declares exactly the verdicts the discrete-event
backend does, while timing/queuing metrics naturally reflect the live
execution instead of a simulated schedule.

:func:`run_streaming` is the synchronous convenience wrapper used by the
experiment engine (``run --backend asyncio``).
"""

from __future__ import annotations

import asyncio
import time
from collections.abc import Awaitable, Callable

from ..core.delays import DelayModel
from ..distributed.computation import Computation
from ..faults import FaultPlan
from ..ltl.monitor import MonitorAutomaton
from ..ltl.predicates import PropositionRegistry
from ..session import EVENT, MonitorSession, RunReport
from .node import StreamMonitorNode
from .transport import InMemoryStreamTransport, StreamTransport, TcpStreamTransport

__all__ = ["stream_monitored_run", "run_streaming", "drive_session", "TRANSPORTS"]

_TRANSPORT_CLASSES = {"memory": InMemoryStreamTransport, "tcp": TcpStreamTransport}

#: the streaming transports selectable by name (CLI ``--stream-transport``)
TRANSPORTS = tuple(_TRANSPORT_CLASSES)

#: decides, just before a program event of *process* is enqueued, whether it
#: is fed (it may wait first); sees the run's nodes to measure their load
Admission = Callable[[list[StreamMonitorNode], int], Awaitable[bool]]


async def drive_session(
    session: MonitorSession, quiesce_timeout: float, admit: Admission | None = None
) -> None:
    """Run *session* to quiescence on the current event loop.

    The one asyncio run loop, over the :class:`StreamTransport` the session
    was built on: wrap every endpoint in a node task, start the monitors
    (INIT — outgoing tokens already flow streamed), feed the session's
    schedule against the transport's virtual time, wait for quiescence, and
    in any case stop the nodes and close the transport; a node task that
    died of a monitor bug is re-raised instead of leaving a hung report.

    *admit* is the fleet's bounded-inbox seam and nothing else's (standalone
    runs pass none): it is awaited before each program event and a ``False``
    leaves the event out.  Termination signals are never gated.
    """
    net: StreamTransport = session.transport
    nodes = [StreamMonitorNode(endpoint, net) for endpoint in session.endpoints]
    for node in nodes:
        net.register(node.process, node)
    await net.start()
    tasks = [node.start_task() for node in nodes]
    try:
        for endpoint in session.endpoints:
            endpoint.start()
        for instant, kind, process, event in session.schedule():
            await net.advance_to(instant)
            if kind != EVENT:
                nodes[process].enqueue_termination()
            elif admit is None or await admit(nodes, process):
                nodes[process].enqueue_event(event)
        await net.wait_quiescent(timeout=quiesce_timeout)
    finally:
        for node in nodes:
            node.enqueue_stop()
        await asyncio.gather(*tasks, return_exceptions=True)
        await net.aclose()
    for task in tasks:
        if task.done() and not task.cancelled() and task.exception() is not None:
            raise task.exception()


async def stream_monitored_run(
    computation: Computation,
    automaton: MonitorAutomaton,
    registry: PropositionRegistry,
    *,
    delay: DelayModel | None = None,
    max_views_per_state: int | None = None,
    transport: str = "memory",
    quiesce_timeout: float = 120.0,
    faults: FaultPlan | None = None,
) -> RunReport:
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
        latency — the same model values the simulated network uses, so
        scenario network conditions mean the same thing on this backend.
        ``None`` delivers as fast as the channel pumps run.
    max_views_per_state:
        Optional per-monitor exploration budget (see
        :class:`repro.core.monitor.DecentralizedMonitor`).
    transport:
        ``"memory"`` (in-process queues) or ``"tcp"`` (real loopback
        sockets carrying the binary frames of :mod:`repro.cluster.codec`).
    quiesce_timeout:
        Real-time bound on the post-termination drain.
    faults:
        Optional :class:`repro.faults.FaultPlan`; monitors named by the
        plan are wrapped in the same crash/restart proxies the simulator
        uses, so a fault schedule means the same thing on both backends.
    """
    started = time.perf_counter()
    if transport not in _TRANSPORT_CLASSES:
        raise ValueError(f"unknown streaming transport {transport!r} (known: {TRANSPORTS})")
    net = _TRANSPORT_CLASSES[transport](delay=delay)
    session = MonitorSession(
        computation,
        automaton,
        registry,
        net,
        faults=faults,
        max_views_per_state=max_views_per_state,
    )
    await drive_session(session, quiesce_timeout)
    return session.report(transport=transport, wall_seconds=time.perf_counter() - started)


def run_streaming(*args: object, **kwargs: object) -> RunReport:
    """Synchronous wrapper: run :func:`stream_monitored_run` to completion.

    Takes exactly its parameters.  Spins up a fresh event loop per call
    (``asyncio.run``), which keeps the backend usable from the sharded sweep
    engine's worker processes.
    """
    return asyncio.run(stream_monitored_run(*args, **kwargs))
