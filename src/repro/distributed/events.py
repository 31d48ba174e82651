"""Events of an asynchronous message-passing computation.

Following Chapter 2 of the paper, an event of process ``P_i`` is either an
*internal* event (a local state change), a *send* or a *receive*.  Send and
receive events do not change the local state (they are modelled as
self-loops on the local state), but they do advance the vector clock and —
for receives — merge the sender's clock.

Every event records the full valuation of its process's local variables
*after* the event, its vector clock and its per-process sequence number,
exactly the tuple ``e = 〈T, D, VC, sn〉`` used by the monitoring algorithm.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field

from .clocks import VectorClock

__all__ = ["EventKind", "Event"]


class EventKind(enum.Enum):
    """The type ``T`` of an event."""

    INTERNAL = "internal"
    SEND = "send"
    RECEIVE = "receive"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Event:
    """A single event of one process.

    Attributes
    ----------
    process:
        Index of the process the event belongss to.
    sn:
        Sequence number of the event within its process (the first event has
        ``sn == 1``; ``sn == 0`` is reserved for the initial state).
    kind:
        Internal, send or receive.
    vc:
        The process's vector clock immediately after the event.
    state:
        Valuation of the process's local variables after the event.
    peer:
        For send events the destination process, for receive events the
        sender; ``None`` for internal events.
    message_id:
        Correlates a send event with its matching receive event.
    timestamp:
        Physical/simulated occurrence time (used by the metrics of
        Chapter 5); ``0.0`` when not simulated.
    """

    process: int
    sn: int
    kind: EventKind
    vc: VectorClock
    state: Mapping[str, object] = field(default_factory=dict)
    peer: int | None = None
    message_id: int | None = None
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if self.sn < 0:
            raise ValueError("sequence numbers must be non-negative")
        if self.kind in (EventKind.SEND, EventKind.RECEIVE) and self.peer is None:
            raise ValueError(f"{self.kind} events require a peer process")
        if not 0 <= self.process < len(self.vc) or self.vc[self.process] != self.sn:
            raise ValueError(
                "vector clock local component must equal the sequence number "
                f"(got VC={self.vc!r}, sn={self.sn}, process={self.process})"
            )

    # -- ordering helpers --------------------------------------------------
    def happened_before(self, other: "Event") -> bool:
        """Lamport's happened-before, decided via vector clocks."""
        return self.vc < other.vc

    def concurrent_with(self, other: "Event") -> bool:
        """Whether this event and *other* are causally unordered."""
        return self.vc.concurrent_with(other.vc)

    @property
    def is_internal(self) -> bool:
        """Whether this is an internal (non-communication) event."""
        return self.kind is EventKind.INTERNAL

    def __str__(self) -> str:
        return f"e{self.process}_{self.sn}({self.kind})"
