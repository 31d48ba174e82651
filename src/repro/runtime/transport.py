"""Asyncio streaming transports: monitors exchanging messages for real.

The :class:`repro.core.transport.Transport` protocol on asyncio, the
deployment style the paper's monitors assume: messages travel through an
actual asynchronous medium instead of a simulated priority queue.

* :class:`InMemoryStreamTransport` — per-channel lines inside one event
  loop, drained by loop callbacks.  Fast and used by the test-suite and the
  default CLI backend.
* :class:`TcpStreamTransport` — every monitor node it hosts listens on a
  real TCP socket and the :mod:`repro.core.messages` wire messages travel
  as wire protocol v8 binary frames (:mod:`repro.cluster.codec`), written
  by one pump task per channel.  The asyncio backend hosts every monitor on
  loopback, a cluster worker (:mod:`repro.cluster.worker`) one, reaching
  the rest at manifest addresses.

Both transports preserve **FIFO order per (sender, receiver) channel** (the
algorithm's reliable-FIFO-channel assumption): a channel delivers one
message after the other, at delivery instants that are monotone per channel
already.  An in-memory channel takes the ready-queue slots a pump task
would: one to take a message off, one (where the pump yielded in
:meth:`StreamTransport.advance_to`) to deliver it.  Latency/loss semantics
and that FIFO clamp come from the simulator's network conditions (one
:class:`repro.core.delays.DelayModel` per run; without one, a zero-latency
:class:`~repro.core.delays.ReliableNetwork` run), evaluated against the
transport's :attr:`StreamTransport.now` (virtual seconds, advanced as fast
as the event loop runs).

Quiescence — "no message is in flight anywhere and no node has unprocessed
inbox items" — is detected with a simple conservative counter:
``in_flight`` is incremented at :meth:`StreamTransport.send` and only
decremented after the receiving node has *finished processing* the message,
so ``in_flight == 0`` together with empty node inboxes implies the whole
system is idle (sends triggered by processing a message increment the
counter before the decrement for the consumed message happens).
"""

from __future__ import annotations

import asyncio
import types
from collections import deque
from collections.abc import Generator, Mapping
from typing import TYPE_CHECKING

from ..cluster import codec
from ..cluster.manifest import Endpoint
from ..cluster.transport import dial
from ..core.delays import DelayModel, ReliableNetwork

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .node import StreamMonitorNode

__all__ = [
    "StreamTransport",
    "InMemoryStreamTransport",
    "TcpStreamTransport",
]

#: the network of a transport given no delay model: instant, FIFO links
_UNDELAYED = ReliableNetwork(latency=0.0, jitter=0.0)


class StreamTransport:
    """Base streaming transport: delay evaluation and in-flight accounting.

    Subclasses supply the channels (:meth:`_post`) and the async lifecycle
    hooks; monitor code and metrics collection see only the
    :class:`repro.core.transport.Transport` protocol.
    """

    def __init__(self, delay: DelayModel | None = None) -> None:
        self.delay = delay or _UNDELAYED.delay_model(None)
        #: virtual time: the largest instant a channel or the feed reached,
        #: the delay models' send-time base
        self.now: float = 0.0
        self._nodes: dict[int, StreamMonitorNode] = {}
        #: a fatal transport-level failure (e.g. a peer disconnecting
        #: mid-frame on TCP); surfaced by :meth:`wait_quiescent` instead of
        #: letting the run time out or lose messages silently
        self.fatal_error: Exception | None = None
        #: messages sent but not yet fully processed by their receiver
        self.in_flight = 0
        self.messages_sent = 0
        self.messages_delivered = 0
        #: bytes of every frame written to a socket, headers included (stays
        #: zero on a transport that delivers objects and encodes nothing)
        self.wire_bytes_sent = 0
        self.last_delivery_time: float = 0.0

    # -- transport ------------------------------------------------------
    def register(self, process: int, node: StreamMonitorNode) -> None:
        """Attach *node* as the endpoint for *process*."""
        self._nodes[process] = node

    def send(self, sender: int, target: int, message: object) -> None:
        """Queue *message* for delivery; called synchronously by monitors."""
        if target not in self._nodes and not self._addressed(target):
            raise ValueError(f"no monitor node registered for process {target}")
        self.messages_sent += 1
        # delivery instants are monotone per channel, and the channel
        # realises them in order
        due = self.delay.delivery_time(self.now, sender, target)
        self.in_flight += 1
        self._post((sender, target), (due, target, message))

    def _post(self, channel: tuple[int, int], item: tuple[float, int, object]) -> None:
        """Put ``(due, target, message)`` on *channel* (subclass hook)."""
        raise NotImplementedError

    def _addressed(self, target: int) -> bool:
        """Whether *target* is a remote peer this transport can reach."""
        return False

    @types.coroutine
    def advance_to(self, instant: float) -> Generator[None, None, None]:
        """Advance :attr:`now` to *instant* after one bare yield to the loop
        (the suspension of ``asyncio.sleep(0)``), which lets channels and
        nodes interleave with the feed; ``now`` keeps the largest instant."""
        yield
        self.now = max(self.now, instant)

    def message_done(self, due: float) -> None:
        """Record that a receiver finished processing one message."""
        self.in_flight -= 1
        self.messages_delivered += 1
        self.last_delivery_time = max(self.last_delivery_time, due)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bring the transport up; all nodes must already be registered."""

    async def aclose(self) -> None:
        """Tear the transport down (the base transport holds nothing)."""

    # -- quiescence -----------------------------------------------------
    def _idle(self) -> bool:
        return self.in_flight == 0 and all(
            node.pending_items == 0 for node in self._nodes.values()
        )

    def raise_failure(self) -> None:
        """Re-raise what keeps the run from ever draining, if anything does:
        a failed channel (:attr:`fatal_error`) or a node whose monitor raised."""
        if self.fatal_error is not None:
            raise self.fatal_error
        for node in self._nodes.values():
            error = node.failure()
            if error is not None:
                raise error

    async def wait_quiescent(self, timeout: float = 120.0) -> None:
        """Block until no work is pending anywhere (or raise on *timeout*).

        The conservative idle check (see the module docstring) must hold
        across a few consecutive yields before the wait returns; a failure
        (:meth:`raise_failure`) is re-raised at once instead of timing out.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        stable = 0
        spins = 0
        while True:
            self.raise_failure()
            if self._idle():
                stable += 1
                if stable >= 3:
                    return
            else:
                stable = 0
            if loop.time() > deadline:
                raise RuntimeError(
                    f"streaming run did not quiesce within {timeout}s "
                    f"(in_flight={self.in_flight})"
                )
            spins += 1
            # yield hot at first (in-memory work progresses per yield), back
            # off to real sleeps for socket I/O latencies
            await asyncio.sleep(0 if spins < 1000 else 0.001)

    def extra_stats(self) -> dict[str, float]:
        """Behaviour-specific counters of the installed network run."""
        return self.delay.extra_stats()


class _Line(deque[tuple[float, int, object]]):
    """One in-memory channel's FIFO line, drained by loop callbacks: :meth:`_get`
    runs where a pump task took its next message (its first step, or its
    wake-up when a message reached it waiting), :meth:`_deliver` where it
    resumed after its :meth:`StreamTransport.advance_to` yield."""

    def __init__(self, transport: StreamTransport) -> None:
        super().__init__()
        self.transport, self.waiting = transport, False
        self.call_soon = asyncio.get_running_loop().call_soon
        self.call_soon(self._get)

    def _put(self, item: tuple[float, int, object]) -> None:
        self.append(item)
        if self.waiting:
            self.waiting = False
            self.call_soon(self._get)

    def _get(self) -> None:
        if self:
            self.call_soon(self._deliver, self.popleft())
        else:
            self.waiting = True

    def _deliver(self, item: tuple[float, int, object]) -> None:
        due, target, message = item
        transport = self.transport
        transport.now = max(transport.now, due)
        transport._nodes[target].enqueue_message(due, message)
        self._get()


class InMemoryStreamTransport(StreamTransport):
    """Streaming transport delivering into in-process node inboxes."""

    def __init__(self, delay: DelayModel | None = None) -> None:
        super().__init__(delay=delay)
        self._lines: dict[tuple[int, int], _Line] = {}

    def _post(self, channel: tuple[int, int], item: tuple[float, int, object]) -> None:
        line = self._lines.get(channel)
        if line is None:
            line = self._lines[channel] = _Line(self)
        line._put(item)


class TcpStreamTransport(StreamTransport):
    """Streaming transport exchanging messages over real TCP sockets.

    *endpoints* maps monitor ids to addresses.  :meth:`start` gives every
    registered node its own ``asyncio.start_server`` at its endpoint
    (``127.0.0.1`` with an ephemeral port when it has none) and writes the
    bound address back into :attr:`endpoints`; every other id there is a
    remote peer.  One pump task per (sender, target) channel, started on
    its first send, lazily dials its client connection with
    :func:`repro.cluster.transport.dial`'s bounded backoff — peers may
    start listening in any order — and writes wire protocol v8 frames
    (:mod:`repro.cluster.codec`).  A failed write re-dials and re-sends the
    same frame (a peer restarted mid-run), and the one pump keeps the
    channel FIFO.  The receiving server decodes each
    frame and enqueues it into the target node's inbox, so from the
    monitors' point of view nothing changes — only the medium does.
    """

    def __init__(
        self,
        delay: DelayModel | None = None,
        endpoints: Mapping[int, Endpoint] | None = None,
    ) -> None:
        super().__init__(delay=delay)
        #: where every monitor listens; hosted entries get their bound port
        self.endpoints: dict[int, Endpoint] = dict(endpoints or {})
        self._servers: dict[int, asyncio.AbstractServer] = {}
        self._writers: dict[tuple[int, int], asyncio.StreamWriter] = {}
        #: inbound connections and their handler tasks, so ``aclose`` can
        #: feed them EOF instead of leaving the tasks to die with the loop
        self._inbound: dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._queues: dict[tuple[int, int], asyncio.Queue] = {}
        self._pumps: list[asyncio.Task] = []

    def _addressed(self, target: int) -> bool:
        return target in self.endpoints

    async def start(self) -> None:
        """Start one TCP server per registered node and record its address."""
        await super().start()
        for process, node in self._nodes.items():
            endpoint = self.endpoints.get(process, Endpoint("127.0.0.1", 0))
            server = await asyncio.start_server(
                lambda reader, writer, node=node: self._serve(node, reader, writer),
                endpoint.host,
                endpoint.port,
            )
            self._servers[process] = server
            port = server.sockets[0].getsockname()[1]
            self.endpoints[process] = Endpoint(endpoint.host, port)

    async def aclose(self) -> None:
        """Stop the pumps, then close client connections, servers and inbound ones.

        Pumps must die before the sockets do: a pump woken mid-delivery
        would otherwise write to a closed writer and replace the original
        diagnostic with a teardown ConnectionError.
        """
        for pump in self._pumps:
            pump.cancel()
        await asyncio.gather(*self._pumps, return_exceptions=True)
        self._pumps.clear()
        for writer in self._writers.values():
            writer.close()
        for writer in self._writers.values():
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass
        self._writers.clear()
        for server in self._servers.values():
            server.close()
        for writer in list(self._inbound):
            writer.close()
        await asyncio.gather(*self._inbound.values(), return_exceptions=True)
        for server in self._servers.values():
            await server.wait_closed()
        self._servers.clear()

    def _post(self, channel: tuple[int, int], item: tuple[float, int, object]) -> None:
        queue = self._queues.get(channel)
        if queue is None:
            queue = self._queues[channel] = asyncio.Queue()
            self._pumps.append(asyncio.get_running_loop().create_task(self._pump(channel, queue)))
        queue.put_nowait(item)

    async def _pump(self, channel: tuple[int, int], queue: asyncio.Queue) -> None:
        """Drain one channel: realise each delivery instant, write the frame.

        A failed write re-dials and re-sends the same frame (the peer went
        away mid-run: nothing acknowledged it at the application level, and
        this one pump keeps FIFO).  A message the channel cannot deliver — the
        dial's bounded backoff gave up — would stall quiescence forever, so
        its failure becomes :attr:`fatal_error` (the first one wins).
        """
        sender, target = channel
        try:
            while True:
                due, _, message = await queue.get()
                await self.advance_to(due)
                frame = codec.encode_wire(due, message)
                self.wire_bytes_sent += len(frame)
                while True:
                    writer = self._writers.get(channel)
                    if writer is None:
                        route = f"monitor {sender} cannot reach monitor {target}"
                        _, writer = await dial(self.endpoints[target], route)
                        self._writers[channel] = writer
                    try:
                        writer.write(frame)
                        await writer.drain()
                        break
                    except (ConnectionError, OSError):
                        del self._writers[channel]
                        writer.close()
        except Exception as error:  # noqa: BLE001 - re-raised by wait_quiescent
            if self.fatal_error is None:
                self.fatal_error = error

    async def _serve(
        self,
        node: StreamMonitorNode,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Read frames from one inbound connection into the node's inbox.

        Frames come through the wire's one reader,
        :func:`repro.cluster.codec.read_frame_async`.  A clean EOF or a reset
        *between* frames is a normal peer close.  A disconnect
        *mid-frame* (a truncated header or payload) means a monitoring
        message was lost on the wire; because the protocol has no
        retransmission, that run can never quiesce, so the truncation is
        recorded as :attr:`StreamTransport.fatal_error` with a precise
        diagnostic instead of surfacing later as a bare ``EOFError`` or a
        bogus quiescence timeout.  Undecodable frames — bad magic, a wire
        protocol version this node does not speak, corrupt payloads — are
        reported the same way.
        """
        self._inbound[writer] = asyncio.current_task()
        peer = f"peer of monitor {node.process}"
        try:
            while True:
                frame = await codec.read_frame_async(reader, peer)
                if frame is None:
                    return  # clean close between frames
                due, message = codec.decode_wire(*frame)
                node.enqueue_message(due, message)
        except Exception as error:  # noqa: BLE001 - recorded, then re-raised by wait_quiescent
            if self.fatal_error is None:
                self.fatal_error = error
        finally:
            del self._inbound[writer]
            writer.close()
