"""Async/streaming monitoring backend: monitors on an asyncio event loop.

The live counterpart of the discrete-event simulator (:mod:`repro.sim`):
the same decentralized monitors (:class:`repro.core.monitor.DecentralizedMonitor`,
through the :class:`repro.core.transport.MonitorNode` protocol) are fed by
loop callbacks and exchange the :mod:`repro.core.messages` wire messages
over a streaming transport — in-process lines for tests and fast sweeps, or
real TCP sockets.  Network conditions are the simulator's
:mod:`repro.core.delays` classes (``delay=condition.delay_model(seed)``), so
every registered scenario runs on either backend
(``repro-experiments run --backend {sim,asyncio}``).

Public API: :func:`stream_monitored_run` / :func:`run_streaming` (replay a
finished computation; return a :class:`repro.session.RunReport`),
:class:`InMemoryStreamTransport` / :class:`TcpStreamTransport`
(:data:`TRANSPORTS` names them for CLIs) and :class:`StreamMonitorNode`
(one monitor over a serial inbox).
"""

from .node import StreamMonitorNode
from .runner import TRANSPORTS, run_streaming, stream_monitored_run
from .transport import InMemoryStreamTransport, StreamTransport, TcpStreamTransport

__all__ = [
    "run_streaming",
    "stream_monitored_run",
    "TRANSPORTS",
    "StreamMonitorNode",
    "StreamTransport",
    "InMemoryStreamTransport",
    "TcpStreamTransport",
]
