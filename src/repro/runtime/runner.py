"""Streaming monitored runs: monitors on an asyncio event loop.

:func:`stream_monitored_run` is the asyncio driver of a
:class:`repro.session.MonitorSession` (the counterpart of
:func:`repro.sim.runner.simulate_monitored_run`): it replays a finished
computation with one :class:`repro.runtime.node.StreamMonitorNode` per
process, exchanging the :mod:`repro.core.messages` wire messages through a
streaming transport (in-process lines or real TCP sockets), and feeds the
session's schedule against the transport's virtual time as fast as the loop
runs.  Every transport delivers reliably and in FIFO order per channel, so
the conclusive (⊤/⊥) verdicts do not depend on the interleaving: for a fixed
seed this backend declares exactly what the discrete-event one does.
:func:`run_streaming` is the synchronous wrapper the experiment engine uses
(``run --backend asyncio``).
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
    was built on: wrap every endpoint in a node, start the monitors (INIT —
    outgoing tokens already flow streamed), feed the session's schedule
    against the transport's virtual time, wait for quiescence, and in any
    case stop the nodes and close the transport; a node stopped by a
    monitor bug re-raises it instead of leaving a hung report.

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
    """Stream *computation* through concurrent monitors.

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
        ``None`` delivers as fast as the channels run.
    max_views_per_state:
        Optional per-monitor exploration budget (see
        :class:`repro.core.monitor.DecentralizedMonitor`).
    transport:
        ``"memory"`` (in-process lines) or ``"tcp"`` (real loopback
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
