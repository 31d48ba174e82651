"""The simulated asynchronous network for monitor-to-monitor messages.

Implements the :class:`repro.core.transport.Transport` protocol on top of
the discrete-event simulator: every message is delivered after a (possibly
random) latency, FIFO order is preserved per sender/receiver pair (reliable
FIFO channels, as assumed by the paper), and message counts are recorded for
the communication-overhead figures.

The latency semantics live in the network conditions of
:mod:`repro.core.delays` — the same conditions the asyncio streaming runtime
(:mod:`repro.runtime`) consumes, so a condition (reliable, lossy with
retransmission, partition/heal, bursty, asymmetric, multi-partition) is
defined once and means the same thing on both backends.  Every condition
*keeps delivery reliable* (the paper's algorithm assumes reliable FIFO
channels, so degraded conditions defer — never drop — messages), and all
randomness comes from the run's seeded :class:`random.Random`, so a run is
deterministic for a fixed seed.  The run's delivery instants are FIFO per
channel already (:meth:`repro.core.delays.NetworkRun.delivery_time`), and the
simulator delivers in instant order; accounting stays here.
"""

from __future__ import annotations

from ..core.delays import DelayModel
from ..core.transport import MonitorNode
from .engine import Simulator

__all__ = ["SimulatedNetwork"]


class SimulatedNetwork:
    """Reliable FIFO message-passing network over one run of a condition."""

    #: the simulator hands message objects over and encodes nothing
    wire_bytes_sent = 0

    def __init__(self, simulator: Simulator, delay: DelayModel) -> None:
        self.simulator = simulator
        #: the backend-agnostic latency semantics (:mod:`repro.core.delays`)
        self.delay = delay
        self._monitors: dict[int, MonitorNode] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.last_delivery_time: float = 0.0

    def register(self, process: int, monitor: MonitorNode) -> None:
        """Attach *monitor* as the endpoint for *process*."""
        self._monitors[process] = monitor

    def extra_stats(self) -> dict[str, float]:
        """Behaviour-specific counters merged into the run report."""
        return self.delay.extra_stats()

    def send(self, sender: int, target: int, message: object) -> None:
        """Schedule *message* for FIFO delivery to *target* after its delay."""
        if target not in self._monitors:
            raise ValueError(f"no monitor registered for process {target}")
        self.messages_sent += 1
        delivery = self.delay.delivery_time(self.simulator.now, sender, target)

        def deliver(
            message: object = message, target: int = target, delivery: float = delivery
        ) -> None:
            self.messages_delivered += 1
            self.last_delivery_time = max(self.last_delivery_time, delivery)
            self._monitors[target].receive_message(message)

        self.simulator.schedule_at(delivery, deliver)

    @property
    def pending(self) -> int:
        """Messages sent but not yet delivered."""
        return self.messages_sent - self.messages_delivered
