"""Dialing and control-channel reads shared by cluster workers and coordinator.

A cluster worker hosts one monitor on the same
:class:`repro.runtime.transport.TcpStreamTransport` the asyncio backend
uses, given the manifest's addresses: its own node listens at its manifest
entry and every other monitor id is a remote peer.  This module keeps what
the sockets of a deployment share:

* :func:`dial` — connect with bounded exponential backoff, so workers may
  start in any order and short peer outages (process churn during
  crash/restart fault plans) do not fail a run.  The transport's channel
  pumps and the worker's control channel both dial through it.
* :func:`read_control_async` — read one control mapping from the
  coordinator's lockstep channel.

Quiescence cannot be decided inside one worker (a frame may be in flight
towards it while it looks idle), so each worker reports its transport's
monotone counters — messages sent and messages fully processed — and the
coordinator runs a double-count termination check across all workers: the
cluster is quiescent when every worker has fed its schedule, global sent
equals global processed, every inbox is empty, and the counter totals did
not change between two consecutive polls.
"""

from __future__ import annotations

import asyncio

from . import codec
from .manifest import Endpoint

__all__ = ["dial", "read_control_async"]

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
