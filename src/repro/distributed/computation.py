"""Distributed computations: partially ordered sets of process events.

A :class:`Computation` is the *finished* record of one execution of a
distributed program — for every process its initial state and the ordered
list of events it produced, with vector clocks already assigned.  It is the
structure the lattice (:mod:`repro.distributed.lattice`) and the oracle
monitor reason about, and the simulation layer (:mod:`repro.sim`) produces
computations as a by-product of running programs.

:class:`ComputationBuilder` provides a convenient, correct-by-construction
way to write small computations by hand (used by the running example of
Fig. 2.1 and throughout the tests): it assigns sequence numbers and vector
clocks and checks FIFO consistency of message matching.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from dataclasses import dataclass

from .clocks import VectorClock
from .events import Event, EventKind

__all__ = ["Cut", "Computation", "ComputationBuilder"]

#: A cut is identified by how many events of each process it contains.
Cut = tuple[int, ...]


@dataclass
class Computation:
    """A complete asynchronous computation of ``n`` processes."""

    initial_states: list[dict[str, object]]
    events: list[list[Event]]

    def __post_init__(self) -> None:
        if len(self.initial_states) != len(self.events):
            raise ValueError("one initial state per process is required")
        width = len(self.events)
        for process, process_events in enumerate(self.events):
            for position, event in enumerate(process_events, start=1):
                if event.process != process:
                    raise ValueError(f"event {event} stored under process {process}")
                if event.sn != position:
                    raise ValueError(f"event {event} has sn {event.sn}, expected {position}")
                if len(event.vc) != width:
                    raise ValueError(
                        f"event {event.sn} of process {process} has a clock "
                        f"{len(event.vc)} wide in a computation of {width} processes"
                    )

    # -- basic accessors -----------------------------------------------------
    @property
    def num_processes(self) -> int:
        """How many processes the computation spans."""
        return len(self.events)

    @property
    def num_events(self) -> int:
        """Total event count across every process."""
        return sum(len(evts) for evts in self.events)

    def events_of(self, process: int) -> list[Event]:
        """The local event sequence of *process*, in sequence-number order."""
        return self.events[process]

    def event(self, process: int, sn: int) -> Event:
        """The ``sn``-th event of *process* (1-based)."""
        return self.events[process][sn - 1]

    def all_events(self) -> Iterable[Event]:
        """Every event, grouped by process and ordered locally by sn."""
        for process_events in self.events:
            yield from process_events

    def final_cut(self) -> Cut:
        """The cut containing every event."""
        return tuple(len(evts) for evts in self.events)

    # -- states ----------------------------------------------------------------
    def local_state(self, process: int, count: int) -> dict[str, object]:
        """Local state of *process* after its first *count* events."""
        if count == 0:
            return dict(self.initial_states[process])
        return dict(self.events[process][count - 1].state)

    def global_state(self, cut: Cut) -> list[dict[str, object]]:
        """The global state corresponding to a cut (one local state each)."""
        if len(cut) != self.num_processes:
            raise ValueError("cut arity must equal the number of processes")
        return [self.local_state(i, cut[i]) for i in range(self.num_processes)]

    # -- order ------------------------------------------------------------------
    def happened_before(self, first: Event, second: Event) -> bool:
        """Whether *first* happened-before *second* (vector-clock order)."""
        return first.happened_before(second)

    def is_consistent_cut(self, cut: Cut) -> bool:
        """Definition 4: a cut is consistent when it is closed under
        happened-before — each included event's vector clock is dominated by
        the cut."""
        if len(cut) != self.num_processes:
            raise ValueError("cut arity must equal the number of processes")
        for process, count in enumerate(cut):
            if count < 0 or count > len(self.events[process]):
                raise ValueError(f"cut {cut} out of range for process {process}")
            if count == 0:
                continue
            clock = self.events[process][count - 1].vc
            for other in range(self.num_processes):
                if clock[other] > cut[other]:
                    return False
        return True

    def consistent_cuts(self) -> list[Cut]:
        """All consistent cuts (the vertex set of the computation lattice)."""
        from .lattice import ComputationLattice  # local import to avoid a cycle

        return ComputationLattice.from_computation(self).cuts()

    def __repr__(self) -> str:
        return (
            f"Computation(processes={self.num_processes}, events={self.num_events})"
        )


class ComputationBuilder:
    """Incrementally construct a :class:`Computation` with correct clocks.

    Example — the running example of Fig. 2.1::

        builder = ComputationBuilder([{"x1": 0}, {"x2": 0}])
        builder.send(0, to=1, message_id=1)      # e1_1: send "hello"
        builder.internal(0, {"x1": 5})           # e1_2
        builder.internal(0, {"x1": 10})          # e1_3
        builder.receive(1, frm=0, message_id=1)  # e2_1: recv "hello"
        builder.internal(1, {"x2": 15})          # e2_2
        builder.internal(1, {"x2": 20})          # e2_3
        builder.send(1, to=0, message_id=2)      # e2_4: send "world"
        builder.receive(0, frm=1, message_id=2)  # e1_4: recv "world"
        computation = builder.build()
    """

    def __init__(self, initial_states: Sequence[Mapping[str, object]]) -> None:
        if not initial_states:
            raise ValueError("at least one process is required")
        self._initial = [dict(s) for s in initial_states]
        self._n = len(self._initial)
        self._events: list[list[Event]] = [[] for _ in range(self._n)]
        self._clocks = [VectorClock.zero(self._n) for _ in range(self._n)]
        self._states = [dict(s) for s in self._initial]
        self._pending_messages: dict[int, VectorClock] = {}
        self._message_sender: dict[int, int] = {}
        self._time = 0.0

    def _next_timestamp(self, timestamp: float | None) -> float:
        if timestamp is None:
            self._time += 1.0
            return self._time
        self._time = max(self._time, timestamp)
        return timestamp

    def _append(self, process: int, event: Event) -> Event:
        self._events[process].append(event)
        return event

    # -- event constructors -------------------------------------------------
    def internal(
        self,
        process: int,
        updates: Mapping[str, object],
        timestamp: float | None = None,
    ) -> Event:
        """An internal event applying *updates* to the local state."""
        clock = self._clocks[process].increment(process)
        self._clocks[process] = clock
        self._states[process] = {**self._states[process], **updates}
        return self._append(
            process,
            Event(
                process=process,
                sn=clock[process],
                kind=EventKind.INTERNAL,
                vc=clock,
                state=dict(self._states[process]),
                timestamp=self._next_timestamp(timestamp),
            ),
        )

    def send(
        self,
        process: int,
        to: int,
        message_id: int,
        timestamp: float | None = None,
    ) -> Event:
        """A send event to process *to* with a fresh *message_id*."""
        if message_id in self._message_sender:
            raise ValueError(f"message id {message_id} already used")
        if to == process or not (0 <= to < self._n):
            raise ValueError(f"invalid destination process {to}")
        clock = self._clocks[process].increment(process)
        self._clocks[process] = clock
        self._pending_messages[message_id] = clock
        self._message_sender[message_id] = process
        return self._append(
            process,
            Event(
                process=process,
                sn=clock[process],
                kind=EventKind.SEND,
                vc=clock,
                state=dict(self._states[process]),
                peer=to,
                message_id=message_id,
                timestamp=self._next_timestamp(timestamp),
            ),
        )

    def receive(
        self,
        process: int,
        frm: int,
        message_id: int,
        timestamp: float | None = None,
    ) -> Event:
        """A receive event consuming *message_id* previously sent by *frm*."""
        if message_id not in self._pending_messages:
            raise ValueError(f"message id {message_id} was never sent")
        if self._message_sender[message_id] != frm:
            raise ValueError(
                f"message id {message_id} was sent by process "
                f"{self._message_sender[message_id]}, not {frm}"
            )
        sender_clock = self._pending_messages.pop(message_id)
        clock = self._clocks[process].merge(sender_clock).increment(process)
        self._clocks[process] = clock
        return self._append(
            process,
            Event(
                process=process,
                sn=clock[process],
                kind=EventKind.RECEIVE,
                vc=clock,
                state=dict(self._states[process]),
                peer=frm,
                message_id=message_id,
                timestamp=self._next_timestamp(timestamp),
            ),
        )

    # -- result ------------------------------------------------------------------
    def build(self, allow_in_flight: bool = True) -> Computation:
        """Finish and return the computation.

        With ``allow_in_flight=False`` a pending (sent but unreceived)
        message raises, which is convenient to catch incomplete test set-ups.
        """
        if not allow_in_flight and self._pending_messages:
            raise ValueError(
                f"messages never received: {sorted(self._pending_messages)}"
            )
        return Computation(
            initial_states=[dict(s) for s in self._initial],
            events=[list(evts) for evts in self._events],
        )
