"""One monitor fed by loop callbacks: the streaming runtime's unit of concurrency.

A :class:`StreamMonitorNode` wraps the *unchanged*
:class:`repro.core.monitor.DecentralizedMonitor` (any
:class:`repro.core.transport.MonitorNode` implementation works) and feeds it
one serial inbox of program events, monitoring messages and control items,
so exactly one callback ever touches a monitor's state — the per-process
monitor of the paper, free of locks — while different nodes interleave on
the event loop.  An item reaching an idle node schedules one drain with
``call_soon``, the slot in which a task waiting on an ``asyncio.Queue`` was
woken, and the drain runs items until the inbox is empty, as that task did
between two waits: every monitor gets the calls it got under one task per
node, in the same order, with less scheduling.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import TYPE_CHECKING

from ..core.transport import MonitorNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .transport import StreamTransport

__all__ = ["StreamMonitorNode"]

#: inbox item tags, in the order a run produces them
_MESSAGE, _EVENT, _TERMINATE, _STOP = "message", "event", "terminate", "stop"


class StreamMonitorNode:
    """Runs one monitor over a serial inbox drained by loop callbacks.

    The runner enqueues program events and the termination signal, the
    transport monitoring messages as they arrive.
    """

    def __init__(self, monitor: MonitorNode, transport: StreamTransport) -> None:
        self.monitor = monitor
        self.transport = transport
        self.inbox: deque[tuple[str, float, object]] = deque()
        #: items enqueued and not yet fully processed (quiescence accounting)
        self.pending_items = 0
        #: whether an item must schedule a drain (never before the start)
        self._idle = False
        self._done: asyncio.Future[None] | None = None

    @property
    def process(self) -> int:
        """Index of the program process this node monitors."""
        return self.monitor.process

    # -- producers ------------------------------------------------------
    def _put(self, item: tuple[str, float, object]) -> None:
        self.pending_items += 1
        self.inbox.append(item)
        if self._idle:
            self._idle = False
            self._loop.call_soon(self._drain)

    def enqueue_message(self, due: float, message: object) -> None:
        """Deliver one monitoring message into the inbox (transport side)."""
        self._put((_MESSAGE, due, message))

    def enqueue_event(self, event: object) -> None:
        """Feed one local program event into the inbox (runner side)."""
        self._put((_EVENT, 0.0, event))

    def enqueue_termination(self) -> None:
        """Signal that the attached program process produced its last event."""
        self._put((_TERMINATE, 0.0, None))

    def enqueue_stop(self) -> None:
        """Ask the node to finish once it has run everything before this."""
        self._put((_STOP, 0.0, None))

    # -- the consumer ---------------------------------------------------
    def start_task(self) -> asyncio.Future[None]:
        """Start consuming on the running loop; the future resolves at the
        stop item, or holds the exception a monitor call raised."""
        if self._done is None:
            self._loop = asyncio.get_running_loop()
            self._done = self._loop.create_future()
            self._loop.call_soon(self._drain)
        return self._done

    def failure(self) -> BaseException | None:
        """The exception a monitor call raised, which stopped the node; polled
        by the quiescence wait so a monitor bug surfaces at once."""
        done = self._done
        if done is not None and done.done() and not done.cancelled():
            return done.exception()
        return None

    def _drain(self) -> None:
        """Run inbox items until it is empty or a stop item arrives.

        Sends triggered by processing bump the transport's in-flight counter
        before the consumed message is accounted done.  After a stop or a
        failure nothing is consumed.
        """
        inbox, monitor, done = self.inbox, self.monitor, self._done
        while inbox:
            kind, due, payload = inbox.popleft()
            try:
                if kind == _MESSAGE:
                    monitor.receive_message(payload)
                    self.transport.message_done(due)
                elif kind == _EVENT:
                    monitor.local_event(payload)
                elif kind == _TERMINATE:
                    monitor.local_termination()
                else:
                    done.set_result(None)
                    return
            except Exception as error:  # noqa: BLE001 - surfaced by failure()
                done.set_exception(error)
                return
            finally:
                self.pending_items -= 1
        self._idle = True
