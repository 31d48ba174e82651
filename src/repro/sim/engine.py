"""A minimal discrete-event simulation kernel.

The experiments of Chapter 5 ran on a WiFi network of iOS devices; this
simulator replaces that testbed.  It provides a priority queue of timed
callbacks — program events, message deliveries and termination signals are
all scheduled on it — and tracks the current simulated time, which the
metrics module uses to compute the paper's delay figures.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable

__all__ = ["SimulationBudgetExceeded", "Simulator"]


class SimulationBudgetExceeded(RuntimeError):
    """The run scheduled more events than its ``max_events`` budget allows.

    Distinguishable from other runtime failures so harnesses that bound
    runaway executions (message-amplification storms under adversarial
    fault plans) can classify budget exhaustion as its own outcome.
    """


class Simulator:
    """Priority-queue driven discrete-event simulator."""

    def __init__(self) -> None:
        #: ``(time, sequence, callback)``: sequences are unique, so no
        #: comparison reaches a callback
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self.now: float = 0.0
        self.events_executed: int = 0

    #: relative tolerance for the "scheduling at the current instant" check:
    #: times within one part in 10^12 of ``now`` (well above the float64
    #: rounding error accumulated by summing delays) are clamped to ``now``.
    _TIME_EPSILON = 1e-12

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule *callback* at absolute simulated time *time*.

        Scheduling at exactly ``self.now`` is allowed — in particular from
        within a callback executing at ``now`` — and runs *after* the
        currently executing callback, in FIFO order with other work scheduled
        for the same instant.  Because absolute times are often reconstructed
        by summing float delays, a *time* that undershoots ``now`` by no more
        than a relative ``_TIME_EPSILON`` is treated as "now" rather than
        rejected; anything earlier raises :class:`ValueError`.
        """
        if time < self.now:
            if self.now - time <= self._TIME_EPSILON * max(1.0, abs(self.now)):
                time = self.now
            else:
                raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        heapq.heappush(self._queue, (time, next(self._sequence), callback))

    @property
    def pending(self) -> int:
        """Callbacks scheduled and not yet executed."""
        return len(self._queue)

    def run(self, max_events: int = 10_000_000) -> float:
        """Run until the queue is empty, popping and calling each callback;
        returns the simulated time at which the run stopped.  At most
        *max_events* (at least 0) callbacks run: a run with work still due
        after that raises :class:`SimulationBudgetExceeded`."""
        if max_events < 0:
            raise ValueError(f"max_events must be at least 0 (got {max_events})")
        queue, pop, stop = self._queue, heapq.heappop, self.events_executed + max_events
        while queue:
            if self.events_executed == stop:
                raise SimulationBudgetExceeded(
                    f"simulation exceeded the maximum event budget ({max_events})"
                )
            self.now, _, callback = pop(queue)
            callback()
            self.events_executed += 1
        return self.now
