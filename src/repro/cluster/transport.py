"""The worker-side cluster transport: one local monitor, remote peers.

Where the loopback :class:`repro.runtime.transport.TcpStreamTransport` owns
*every* node of a run inside one event loop, the cluster transport owns
exactly one — the monitor its worker process hosts — and resolves every
other monitor id to a remote address through the cluster manifest.  Messages
leave as wire protocol v5 frames (:mod:`repro.cluster.codec`) over one
persistent TCP connection per peer, opened lazily and re-opened with bounded
exponential backoff, so workers may start in any order and short peer
outages (process churn during crash/restart fault plans) do not lose the
frames queued behind the outage.

Per-channel FIFO — the algorithm's channel assumption — holds structurally:
each peer has a single outbox drained by a single writer task over a single
TCP connection, and TCP preserves byte order.

Quiescence cannot be decided locally (a frame may be in flight towards this
worker while it looks idle), so the transport only exposes monotone
counters — frames sent and messages fully processed — and the coordinator
runs a double-count termination check across all workers: the cluster is
quiescent when every worker has fed its schedule, global sent equals global
processed, every inbox and outbox is empty, and the counter totals did not
change between two consecutive polls.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from . import codec
from .manifest import ClusterManifest, Endpoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..runtime.node import StreamMonitorNode

__all__ = ["WorkerTransport", "dial", "read_control_async"]

#: first reconnect delay, doubled per attempt up to :data:`BACKOFF_CAP`
BACKOFF_INITIAL = 0.05
#: upper bound on the delay between reconnect attempts (seconds)
BACKOFF_CAP = 1.0
#: give up dialing a peer after this many consecutive failures
BACKOFF_ATTEMPTS = 40


async def dial(
    endpoint: Endpoint, route: str
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Connect to *endpoint* with bounded exponential backoff.

    Workers start in any order and fault plans churn processes, so the
    first frames of a run routinely race the peer's ``bind``; retrying
    with a capped backoff absorbs that without any coordination.  *route*
    names who is reaching whom in the error of a dial that gave up.
    """
    delay = BACKOFF_INITIAL
    for attempt in range(BACKOFF_ATTEMPTS):
        try:
            return await asyncio.open_connection(endpoint.host, endpoint.port)
        except OSError as error:
            if attempt == BACKOFF_ATTEMPTS - 1:
                raise ConnectionError(
                    f"{route} at {endpoint} after {BACKOFF_ATTEMPTS} attempts: {error}"
                ) from error
            await asyncio.sleep(delay)
            delay = min(delay * 2, BACKOFF_CAP)
    raise AssertionError("unreachable")  # pragma: no cover


async def read_control_async(
    reader: asyncio.StreamReader,
) -> dict[str, object] | None:
    """Read one control mapping from *reader*; ``None`` on a clean close."""
    frame = await codec.read_frame_async(reader)
    if frame is None:
        return None
    type_tag, payload = frame
    if type_tag != codec.TYPE_CONTROL:
        raise codec.CorruptFrameError(
            f"expected a control frame on the control channel, "
            f"got message type 0x{type_tag:02x}"
        )
    return codec.decode_control(payload)


class WorkerTransport:
    """:class:`repro.core.transport.Transport` over manifest-resolved peers.

    The local :class:`~repro.runtime.node.StreamMonitorNode` is attached
    with :meth:`attach`; sends to the local monitor id short-circuit into
    its inbox (with the same sent/processed accounting as remote frames, so
    the coordinator's double count stays balanced).
    """

    def __init__(self, manifest: ClusterManifest, process: int) -> None:
        self.manifest = manifest
        self.process = process
        self.node: StreamMonitorNode | None = None
        self._server: asyncio.AbstractServer | None = None
        self._outboxes: dict[int, asyncio.Queue] = {}
        self._writers: list[asyncio.Task] = []
        #: inbound peer connections, so ``aclose`` can end them gracefully
        #: instead of leaving their handler tasks to die with the event loop
        self._peer_tasks: set[asyncio.Task] = set()
        self._peer_writers: set[asyncio.StreamWriter] = set()
        #: frames handed to :meth:`send` and not yet written to a socket
        self.out_pending = 0
        #: monotone counter of messages sent (remote frames + local loops)
        self.sent_count = 0
        #: bytes of every frame queued for a peer, headers included
        self.wire_bytes_sent = 0
        #: monotone counter of messages the local node finished processing
        self.processed_count = 0
        #: first unrecoverable transport failure, surfaced to the main task
        self.fatal_error: Exception | None = None
        self.last_delivery_time = 0.0

    # -- Transport protocol ---------------------------------------------
    def send(self, sender: int, target: int, message: object) -> None:
        """Queue one monitoring message for *target* (monitor-facing API)."""
        if target >= self.manifest.num_workers:
            raise ValueError(
                f"no worker in the manifest for monitor {target} "
                f"(workers 0..{self.manifest.num_workers - 1})"
            )
        self.sent_count += 1
        if target == self.process:
            assert self.node is not None
            self.node.enqueue_message(0.0, message)
            return
        self.out_pending += 1
        frame = codec.encode_wire(0.0, message)
        self.wire_bytes_sent += len(frame)
        self._outbox(target).put_nowait(frame)

    def message_done(self, due: float) -> None:
        """Record that the local node finished processing one message."""
        self.processed_count += 1
        self.last_delivery_time = max(self.last_delivery_time, due)

    # -- lifecycle ------------------------------------------------------
    def attach(self, node: StreamMonitorNode) -> None:
        """Install the worker's single local node."""
        self.node = node

    async def start(self) -> None:
        """Bind this worker's listening socket at its manifest address."""
        endpoint = self.manifest.worker(self.process)
        self._server = await asyncio.start_server(
            self._serve, endpoint.host, endpoint.port
        )

    async def aclose(self) -> None:
        """Cancel the writer tasks and close the listening socket."""
        for task in self._writers:
            task.cancel()
        for task in self._writers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._writers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # feed EOF to every inbound peer handler and wait for it to return,
        # so no handler task is still pending when the event loop shuts down
        for peer_writer in list(self._peer_writers):
            peer_writer.close()
        if self._peer_tasks:
            await asyncio.gather(*self._peer_tasks, return_exceptions=True)

    # -- status for the coordinator's termination check ------------------
    def status(self) -> dict[str, int]:
        """The counters the coordinator's double-count check sums up."""
        inbox = self.node.pending_items if self.node is not None else 0
        return {
            "sent": self.sent_count,
            "processed": self.processed_count,
            "inbox": inbox,
            "out_pending": self.out_pending,
        }

    # -- internals ------------------------------------------------------
    def _outbox(self, target: int) -> asyncio.Queue:
        outbox = self._outboxes.get(target)
        if outbox is None:
            outbox = asyncio.Queue()
            self._outboxes[target] = outbox
            self._writers.append(
                asyncio.get_running_loop().create_task(self._write_loop(target, outbox))
            )
        return outbox

    async def _write_loop(self, target: int, outbox: asyncio.Queue) -> None:
        """Drain one peer's outbox over a lazily-(re)dialed connection."""
        writer: asyncio.StreamWriter | None = None
        try:
            while True:
                frame = await outbox.get()
                while True:
                    try:
                        if writer is None:
                            _, writer = await dial(
                                self.manifest.worker(target),
                                f"worker {self.process} cannot reach peer {target}",
                            )
                        writer.write(frame)
                        await writer.drain()
                        break
                    except (ConnectionError, OSError):
                        # peer restarted mid-run: drop the dead connection
                        # and re-send this frame on a fresh one (the frame
                        # was not acknowledged at the application level, so
                        # resending preserves at-least-once hand-off and
                        # the single-writer loop preserves FIFO)
                        if writer is not None:
                            writer.close()
                            writer = None
                self.out_pending -= 1
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - surfaced via fatal_error
            if self.fatal_error is None:
                self.fatal_error = error
        finally:
            if writer is not None:
                writer.close()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Decode inbound frames from one peer into the local node's inbox."""
        task = asyncio.current_task()
        if task is not None:
            self._peer_tasks.add(task)
        self._peer_writers.add(writer)
        try:
            while True:
                frame = await codec.read_frame_async(reader)
                if frame is None:
                    return
                due, message = codec.decode_wire(*frame)
                assert self.node is not None
                self.node.enqueue_message(due, message)
        except Exception as error:  # noqa: BLE001 - surfaced via fatal_error
            if self.fatal_error is None:
                self.fatal_error = error
        finally:
            self._peer_writers.discard(writer)
            if task is not None:
                self._peer_tasks.discard(task)
            writer.close()
