"""Asyncio streaming transports: monitors as concurrent tasks, for real.

This module implements the :class:`repro.core.transport.Transport`
protocol on top of asyncio, the deployment style the paper's decentralized
monitors assume — each monitor is a concurrent process and messages travel
through an actual asynchronous medium instead of a simulated priority queue.
Two transports are provided:

* :class:`InMemoryStreamTransport` — per-channel asyncio queues inside one
  event loop.  Fast and used by the test-suite and the default CLI backend.
* :class:`TcpStreamTransport` — every monitor node it hosts listens on a
  real TCP socket and the :mod:`repro.core.messages` wire messages travel
  as wire protocol v8 binary frames (:mod:`repro.cluster.codec`).  The
  asyncio backend hosts every monitor on loopback, a cluster worker
  (:mod:`repro.cluster.worker`) one, reaching the rest at manifest addresses.

Both transports preserve **FIFO order per (sender, receiver) channel** (the
algorithm's reliable-FIFO-channel assumption): every channel has its own
queue drained by a dedicated pump task, and the delivery instants it is given
are monotone per channel already.  Latency/loss semantics and that FIFO clamp
come from the same network conditions the simulator uses (one
:class:`repro.core.delays.DelayModel` per run; without one, a zero-latency
:class:`~repro.core.delays.ReliableNetwork` run), evaluated against the
transport's :attr:`StreamTransport.now` (virtual seconds, advanced as fast as
the event loop runs).

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
from collections.abc import Mapping
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
    """Base streaming transport: channel pumps + in-flight accounting.

    Subclasses customise only :meth:`_forward` (how a due message reaches
    the target node) and the async lifecycle hooks; delay evaluation and
    quiescence tracking live here.  Implements the
    :class:`repro.core.transport.Transport` protocol, so monitor code and
    metrics collection are oblivious to which backend is underneath.
    """

    def __init__(self, delay: DelayModel | None = None) -> None:
        self.delay = delay or _UNDELAYED.delay_model(None)
        #: virtual time: the largest instant any task advanced to so far,
        #: which is exactly what the delay models need as a send-time base
        self.now: float = 0.0
        self._nodes: dict[int, StreamMonitorNode] = {}
        self._channel_queues: dict[tuple[int, int], asyncio.Queue] = {}
        self._pumps: list[asyncio.Task] = []
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
        # delivery instants are monotone per channel, and the channel's pump
        # realises them in order
        due = self.delay.delivery_time(self.now, sender, target)
        self.in_flight += 1
        self._channel_queue((sender, target)).put_nowait((due, target, message))

    def _addressed(self, target: int) -> bool:
        """Whether *target* is a remote peer this transport can reach."""
        return False

    @property
    def pending(self) -> int:
        """Number of sent-but-not-fully-processed messages."""
        return self.in_flight

    async def advance_to(self, instant: float) -> None:
        """Advance :attr:`now` to *instant* after one yield to the other tasks.

        The replay runs as fast as the event loop allows, so nothing sleeps
        for real, but the yield lets pumps and nodes interleave with the
        feed; concurrent callers leave ``now`` at the largest instant.
        """
        await asyncio.sleep(0)
        self.now = max(self.now, instant)

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bring the transport up; all nodes must already be registered.

        Channel queues and their pump tasks are created lazily on first
        send, so the base transport has nothing to do here.
        """

    async def aclose(self) -> None:
        """Tear the transport down, cancelling the channel pumps."""
        for pump in self._pumps:
            pump.cancel()
        for pump in self._pumps:
            try:
                await pump
            except asyncio.CancelledError:
                pass
        self._pumps.clear()

    # -- internals ------------------------------------------------------
    def _channel_queue(self, channel: tuple[int, int]) -> asyncio.Queue:
        queue = self._channel_queues.get(channel)
        if queue is None:
            queue = asyncio.Queue()
            self._channel_queues[channel] = queue
            self._pumps.append(
                asyncio.get_running_loop().create_task(self._pump(channel, queue))
            )
        return queue

    async def _pump(self, channel: tuple[int, int], queue: asyncio.Queue) -> None:
        """Drain one channel sequentially, realising delivery instants.

        A message the channel cannot deliver would stall quiescence forever,
        so its failure becomes :attr:`fatal_error` (the first one wins).
        """
        while True:
            due, target, message = await queue.get()
            await self.advance_to(due)
            try:
                await self._forward(channel, due, target, message)
            except Exception as error:  # noqa: BLE001 - re-raised by wait_quiescent
                if self.fatal_error is None:
                    self.fatal_error = error
                return

    async def _forward(
        self, channel: tuple[int, int], due: float, target: int, message: object
    ) -> None:
        """Hand one due message to the target node (subclass hook)."""
        raise NotImplementedError

    def message_done(self, due: float) -> None:
        """Record that a receiver finished processing one message."""
        self.in_flight -= 1
        self.messages_delivered += 1
        self.last_delivery_time = max(self.last_delivery_time, due)

    # -- quiescence -----------------------------------------------------
    def _idle(self) -> bool:
        return self.in_flight == 0 and all(
            node.pending_items == 0 for node in self._nodes.values()
        )

    async def wait_quiescent(self, timeout: float = 120.0) -> None:
        """Block until no work is pending anywhere (or raise on *timeout*).

        The check is conservative (see the module docstring), but a freshly
        observed idle state could still be a scheduling artefact on exotic
        transports, so the condition must hold across a few consecutive
        yields before the wait returns.  A node task that died abnormally
        can never drain its share of the in-flight work, so its exception
        is re-raised here immediately instead of timing out.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        stable = 0
        spins = 0
        while True:
            if self.fatal_error is not None:
                raise self.fatal_error
            for node in self._nodes.values():
                error = node.failure()
                if error is not None:
                    raise error
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


class InMemoryStreamTransport(StreamTransport):
    """Streaming transport delivering through in-process inbox queues."""

    async def _forward(
        self, channel: tuple[int, int], due: float, target: int, message: object
    ) -> None:
        self._nodes[target].enqueue_message(due, message)


class TcpStreamTransport(StreamTransport):
    """Streaming transport exchanging messages over real TCP sockets.

    *endpoints* maps monitor ids to addresses.  :meth:`start` gives every
    registered node its own ``asyncio.start_server`` at its endpoint
    (``127.0.0.1`` with an ephemeral port when it has none) and writes the
    bound address back into :attr:`endpoints`; every other id there is a
    remote peer.  Channel pumps lazily dial one client connection per
    (sender, target) pair with :func:`repro.cluster.transport.dial`'s
    bounded backoff — peers may start listening in any order — and write
    wire protocol v8 frames (:mod:`repro.cluster.codec`).  A failed write
    re-dials and re-sends the same frame (a peer restarted mid-run), and
    one pump per channel keeps FIFO.  The receiving server decodes each
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
        await super().aclose()
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

    async def _forward(
        self, channel: tuple[int, int], due: float, target: int, message: object
    ) -> None:
        frame = codec.encode_wire(due, message)
        self.wire_bytes_sent += len(frame)
        while True:
            writer = self._writers.get(channel)
            if writer is None:
                # raises once the bounded backoff gives up
                _, writer = await dial(
                    self.endpoints[target],
                    f"monitor {channel[0]} cannot reach monitor {target}",
                )
                self._writers[channel] = writer
            try:
                writer.write(frame)
                await writer.drain()
                return
            except (ConnectionError, OSError):
                # the peer went away mid-run: re-send this frame on a fresh
                # connection (nothing acknowledged it at the application
                # level, and this channel's one pump keeps FIFO)
                del self._writers[channel]
                writer.close()

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
