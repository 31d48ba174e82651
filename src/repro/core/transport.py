"""Transport abstraction connecting decentralized monitor processes.

The monitoring algorithm only ever calls :meth:`Transport.send`; how and when
messages are delivered is the transport's business.  Implementations:

* :class:`LoopbackNetwork` — an in-process FIFO network used by the loopback
  driver (:func:`repro.session.run_decentralized`) and the tests.  Messages
  are queued and delivered when the caller pumps the network, which models
  an asynchronous but reliable network with no notion of time.
* ``repro.sim.network.SimulatedNetwork`` — the discrete-event network,
  timed by one run of a :mod:`repro.core.delays` network condition
  (reliable, lossy-with-retransmit, partition/heal, bursty, ...), used by the
  scenario engine and the experiment harness.
* ``repro.runtime.transport`` — asyncio streaming transports (in-process
  queues and real TCP sockets) where each monitor runs as a concurrent task.

The flip side of :class:`Transport` is :class:`MonitorNode`: the endpoint
interface every backend drives.  :class:`repro.core.monitor.DecentralizedMonitor`
is the single implementation, shared unchanged by the four drivers over
:class:`repro.session.MonitorSession` (loopback, discrete-event simulator,
asyncio runtime, cluster worker) — backends differ only in *when* they
invoke the node's entry points and how its outgoing :meth:`Transport.send`
calls travel.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol, runtime_checkable

__all__ = ["Transport", "MonitorNode", "LoopbackNetwork"]


class Transport(Protocol):
    """Minimal interface required by :class:`DecentralizedMonitor`."""

    def send(self, sender: int, target: int, message: object) -> None:
        """Deliver *message* from monitor *sender* to monitor *target*."""


@runtime_checkable
class MonitorNode(Protocol):
    """The backend-agnostic endpoint interface of one monitor process.

    Every monitoring backend — the loopback driver, the discrete-event
    simulator, the asyncio streaming runtime and the cluster worker — drives
    its monitors exclusively through these entry points, so a single monitor
    implementation (:class:`repro.core.monitor.DecentralizedMonitor`)
    serves all of them.  Events and messages are typed loosely
    (``object``) to keep this protocol free of upward imports; concrete
    nodes receive :class:`repro.distributed.events.Event` values and the
    wire messages of :mod:`repro.core.messages`.
    """

    process: int

    def start(self) -> None:
        """Process the initial global state (the paper's INIT step)."""

    def local_event(self, event: object) -> None:
        """Handle one event read from the attached program process."""

    def local_termination(self) -> None:
        """Handle the termination signal of the attached program process."""

    def receive_message(self, message: object) -> None:
        """Handle a monitoring message delivered by the transport."""


class LoopbackNetwork:
    """A reliable FIFO in-process network between registered monitors.

    Messages are buffered and delivered in FIFO order per ``pump`` call,
    which keeps the executions deterministic and lets tests interleave
    program events and monitor messages explicitly.
    """

    #: what :meth:`repro.session.MonitorSession.report` reads off a transport
    #: besides ``messages_sent``: the loopback has no clock and no wire
    last_delivery_time = 0.0
    wire_bytes_sent = 0

    def __init__(self) -> None:
        self._monitors: dict[int, MonitorNode] = {}
        self._queue: deque[tuple[int, int, object]] = deque()
        self.messages_sent = 0

    def extra_stats(self) -> dict[str, float]:
        """Network-behaviour counters: none, the loopback is a plain link."""
        return {}

    def register(self, process: int, monitor: MonitorNode) -> None:
        """Attach *monitor* as the endpoint for *process*."""
        self._monitors[process] = monitor

    # ------------------------------------------------------------------
    def send(self, sender: int, target: int, message: object) -> None:
        """Queue *message* for FIFO delivery to *target*."""
        if target not in self._monitors:
            raise ValueError(f"no monitor registered for process {target}")
        self.messages_sent += 1
        self._queue.append((sender, target, message))

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Messages queued but not yet delivered."""
        return len(self._queue)

    def deliver_one(self) -> bool:
        """Deliver the oldest in-flight message; returns False when idle."""
        if not self._queue:
            return False
        _, target, message = self._queue.popleft()
        self._monitors[target].receive_message(message)
        return True

    def deliver_all(self, max_messages: int = 1_000_000) -> int:
        """Deliver messages until the network is quiescent.

        Delivering a message may cause new messages to be sent; the loop
        continues until the queue drains.  ``max_messages`` guards against
        routing bugs that would otherwise loop forever.
        """
        delivered = 0
        while self._queue:
            self.deliver_one()
            delivered += 1
            if delivered > max_messages:
                raise RuntimeError(
                    "network did not quiesce; possible token routing loop"
                )
        return delivered
