"""Async/streaming monitoring backend: monitors as asyncio tasks over sockets.

This package is the live counterpart of the discrete-event simulator
(:mod:`repro.sim`): the same decentralized monitors
(:class:`repro.core.monitor.DecentralizedMonitor`, reused unchanged through
the :class:`repro.core.transport.MonitorNode` protocol) run as concurrent
asyncio tasks and exchange the :mod:`repro.core.messages` wire messages over
a streaming transport — in-process queues for tests and fast sweeps, or real
TCP sockets for the deployment style the paper's monitors assume.  Network
conditions are the same :mod:`repro.core.delays` classes the simulator
uses — ``run_streaming(..., delay=condition.delay_model(seed))`` — so every
registered scenario runs on either backend
(``repro-experiments run --backend {sim,asyncio}``).

Public API
----------
* :func:`stream_monitored_run` / :func:`run_streaming` — replay a finished
  computation through concurrent monitor tasks; returns the same
  :class:`repro.session.RunReport` every backend does.
* :class:`InMemoryStreamTransport` / :class:`TcpStreamTransport` — the
  streaming transports; :data:`TRANSPORTS` names them for CLIs.
* :class:`StreamMonitorNode` — one monitor as an asyncio task.
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
