"""Transport abstraction connecting decentralized monitor processes.

The monitoring algorithm only ever calls :meth:`Transport.send`; how and when
messages are delivered is the transport's business.  Implementations:

* ``repro.sim.network.SimulatedNetwork`` — the discrete-event network,
  timed by one run of a :mod:`repro.core.delays` network condition
  (reliable, lossy-with-retransmit, partition/heal, bursty, ...), used by the
  scenario engine, the experiment harness, the examples and the tests (over
  a zero-latency ``ReliableNetwork`` it is the untimed in-process run).
* ``repro.runtime.transport`` — asyncio streaming transports (in-process
  queues and real TCP sockets) where each monitor runs as a concurrent task.

The flip side of :class:`Transport` is :class:`MonitorNode`: the endpoint
interface every backend drives.  :class:`repro.core.monitor.DecentralizedMonitor`
is the single implementation, shared unchanged by the three drivers over
:class:`repro.session.MonitorSession` (discrete-event simulator, asyncio
runtime, cluster worker) — backends differ only in *when* they invoke the
node's entry points and how its outgoing :meth:`Transport.send` calls
travel.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = ["Transport", "MonitorNode"]


class Transport(Protocol):
    """Minimal interface required by :class:`DecentralizedMonitor`."""

    def send(self, sender: int, target: int, message: object) -> None:
        """Deliver *message* from monitor *sender* to monitor *target*."""


@runtime_checkable
class MonitorNode(Protocol):
    """The backend-agnostic endpoint interface of one monitor process.

    Every monitoring backend — the discrete-event simulator, the asyncio
    streaming runtime and the cluster worker — drives its monitors
    exclusively through these entry points, so a single monitor
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

