"""Network conditions: one frozen class per condition, shared by every backend.

The discrete-event simulator (:mod:`repro.sim.network`) and the asyncio
streaming runtime (:mod:`repro.runtime.transport`) deliver monitor messages
through very different machinery, but the *latency semantics* of a network
condition (when a message sent "now" arrives) are the same on both and live
here: :class:`ReliableNetwork` (the paper's testbed; zero jitter gives
constant-latency links), :class:`LossyNetwork`, :class:`PartitionNetwork`,
:class:`BurstyNetwork`, :class:`AsymmetricNetwork` and
:class:`MultiPartitionNetwork`.

A condition is a frozen dataclass of plain values: its constructor checks
them, :meth:`~NetworkModel.describe` renders them into the JSON
metadata, and its ``arrival`` rule maps a send instant to a delivery instant.
One instance is shared by every run and every shard of a sweep, so it holds
no run state: :meth:`~NetworkModel.delay_model` returns a :class:`NetworkRun`,
the :class:`DelayModel` of one run, which holds what that run mutates (its
seeded :class:`random.Random`, its counters, its partition phases).  A fixed
seed thus yields the same delays whichever backend consumes them.

Every condition delivers every message eventually (the algorithm assumes
reliable FIFO channels), so verdicts do not depend on it.  FIFO order per
(sender, receiver) channel is kept once, by :meth:`NetworkRun.delivery_time`:
no delivery instant falls before the channel's previous one, so conditions
never see ordering and backends deliver in instant order.  Counters
(retransmissions, held messages, bursts) reach the run reports through
:meth:`DelayModel.extra_stats`.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import ClassVar, Protocol, runtime_checkable

__all__ = [
    "DelayModel",
    "NetworkModel",
    "NetworkRun",
    "ReliableNetwork",
    "LossyNetwork",
    "PartitionNetwork",
    "BurstyNetwork",
    "AsymmetricNetwork",
    "MultiPartitionNetwork",
]

#: a partition schedule: ordered ``(start, end, groups)`` phases where
#: ``groups`` is a tuple of disjoint process-id tuples; processes not listed
#: in any group of a phase share one implicit "rest" group
PartitionPhase = tuple[float, float, tuple[tuple[int, ...], ...]]


@runtime_checkable
class DelayModel(Protocol):
    """Maps a send instant to a delivery instant, for any backend."""

    def delivery_time(self, now: float, sender: int, target: int) -> float:
        """Absolute arrival time of a message sent at *now*."""

    def extra_stats(self) -> dict[str, float]:
        """Behaviour-specific counters merged into run reports."""


@runtime_checkable
class NetworkModel(Protocol):
    """Declarative description of a monitor network condition."""

    def delay_model(self, seed: int | None) -> DelayModel:
        """The condition's latency/loss semantics, seeded for one run."""

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and the CLI)."""


def _check_latency(latency: float, jitter: float) -> None:
    if latency < 0 or jitter < 0:
        raise ValueError("latency and jitter must be non-negative")


class NetworkRun:
    """One run of a condition (its :class:`DelayModel`): all the run mutates.

    That is the seeded RNG, the counters, the burst tick, the phases and the
    last delivery instant of each (sender, receiver) channel.
    """

    def __init__(self, condition: _Condition, seed: int | None) -> None:
        self.condition = condition
        self.rng = random.Random(seed)
        #: the partition phases in force for this run, sorted by start
        self.schedule = condition.phases(seed)
        self.retransmissions = 0
        self.held_messages = 0
        self.bursts_used = 0
        self.burst_tick = -1
        self.channel_clock: dict[tuple[int, int], float] = {}

    def sample(self, latency: float, jitter: float) -> float:
        """One latency: *latency* itself without jitter, else a gaussian draw."""
        if jitter <= 0:
            return latency
        return max(0.0, self.rng.gauss(latency, jitter))

    def delivery_time(self, now: float, sender: int, target: int) -> float:
        """Absolute arrival time of a message sent at *now*: the condition's
        arrival, clamped so that the channel stays FIFO."""
        due = self.condition.arrival(self, now, sender, target)
        due = self.channel_clock[sender, target] = max(
            due, self.channel_clock.get((sender, target), 0.0)
        )
        return due

    def extra_stats(self) -> dict[str, float]:
        """The condition's counters, as floats."""
        return {name: float(getattr(self, name)) for name in self.condition.counters}


@dataclass(frozen=True)
class _Condition:
    """What every condition shares: metadata and the per-run object."""

    kind: ClassVar[str]
    #: the :class:`NetworkRun` counters :meth:`NetworkRun.extra_stats` reports
    counters: ClassVar[tuple[str, ...]] = ()

    def delay_model(self, seed: int | None) -> NetworkRun:
        """The condition's delays for one run, seeded by *seed*."""
        return NetworkRun(self, seed)

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and the CLI)."""
        return {"kind": self.kind, **asdict(self)}

    def phases(self, seed: int | None) -> tuple[PartitionPhase, ...]:
        """The partition phases of a run seeded by *seed* (none by default)."""
        return ()

    def arrival(self, run: NetworkRun, now: float, sender: int, target: int) -> float:
        """The arrival rule: delivery instant of a message sent at *now*."""
        raise NotImplementedError


@dataclass(frozen=True)
class ReliableNetwork(_Condition):
    """The paper's reliable WiFi testbed: gaussian latency with jitter.

    With ``jitter == 0`` no random numbers are drawn at all, giving
    deterministic constant-latency links.
    """

    kind: ClassVar[str] = "reliable"

    latency: float = 0.05
    jitter: float = 0.01

    def __post_init__(self) -> None:
        _check_latency(self.latency, self.jitter)

    def arrival(self, run: NetworkRun, now: float, sender: int, target: int) -> float:
        """Deliver after one latency sample."""
        return now + run.sample(self.latency, self.jitter)


@dataclass(frozen=True)
class LossyNetwork(_Condition):
    """Lossy links with stop-and-wait retransmission (reliable overall).

    Each transmission attempt is dropped with ``loss_probability``; the
    sender retransmits after ``retransmit_timeout``.  ``max_retransmits``
    bounds the retries so delivery stays guaranteed (the final attempt always
    goes through), matching the algorithm's reliable-channel assumption while
    modelling the cost of loss as added delay and retransmission traffic.
    """

    kind: ClassVar[str] = "lossy-retransmit"
    counters: ClassVar[tuple[str, ...]] = ("retransmissions",)

    latency: float = 0.05
    jitter: float = 0.01
    loss_probability: float = 0.2
    retransmit_timeout: float = 0.25
    max_retransmits: int = 25

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if self.retransmit_timeout < 0:
            raise ValueError("retransmit_timeout must be non-negative")
        _check_latency(self.latency, self.jitter)

    def arrival(self, run: NetworkRun, now: float, sender: int, target: int) -> float:
        """Deliver after the lost attempts' timeouts plus one latency."""
        time = now
        attempts = 0
        while attempts < self.max_retransmits and run.rng.random() < self.loss_probability:
            attempts += 1
            time += self.retransmit_timeout
        run.retransmissions += attempts
        return time + run.sample(self.latency, self.jitter)


@dataclass(frozen=True)
class PartitionNetwork(_Condition):
    """Partition/heal cycles between round-robin process groups.

    Processes are assigned round-robin to ``num_groups`` groups
    (``process % num_groups``).  While a window ``(start, end)`` is open,
    messages *between different groups* whose arrival would land inside the
    window are held and delivered only after the partition heals at ``end``;
    intra-group traffic is unaffected.
    """

    kind: ClassVar[str] = "partition-heal"
    counters: ClassVar[tuple[str, ...]] = ("held_messages",)

    latency: float = 0.05
    jitter: float = 0.01
    windows: tuple[tuple[float, float], ...] = ((2.0, 8.0),)
    num_groups: int = 2

    def __post_init__(self) -> None:
        for start, end in self.windows:
            if end <= start or start < 0:
                raise ValueError(f"invalid partition window ({start}, {end})")
        if self.num_groups < 2:
            raise ValueError("a partition needs at least two groups")
        _check_latency(self.latency, self.jitter)

    def phases(self, seed: int | None) -> tuple[PartitionPhase, ...]:
        """The windows in order, as phases whose groups are round-robin."""
        return tuple((start, end, ()) for start, end in sorted(self.windows))

    def arrival(self, run: NetworkRun, now: float, sender: int, target: int) -> float:
        """Hold cross-group messages landing in an open window until heal."""
        sample = run.sample(self.latency, self.jitter)
        tentative = now + sample
        if sender % self.num_groups == target % self.num_groups:
            return tentative
        for start, end, _ in run.schedule:
            if start <= tentative < end:
                run.held_messages += 1
                return end + sample
        return tentative


@dataclass(frozen=True)
class BurstyNetwork(_Condition):
    """Duty-cycled medium flushing messages only at periodic burst instants.

    A message sent at time ``t`` reaches the air interface after the base
    latency and is then delivered at the next multiple of ``period`` — the
    medium wakes up every ``period`` seconds and transmits everything queued
    since the previous burst.
    """

    kind: ClassVar[str] = "bursty"
    counters: ClassVar[tuple[str, ...]] = ("bursts_used",)

    latency: float = 0.01
    jitter: float = 0.0
    period: float = 0.75

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("burst period must be positive")
        _check_latency(self.latency, self.jitter)

    def arrival(self, run: NetworkRun, now: float, sender: int, target: int) -> float:
        """Quantize delivery up to the next burst instant of the medium."""
        ready = now + run.sample(self.latency, self.jitter)
        tick = math.ceil(ready / self.period)
        if tick != run.burst_tick:
            run.burst_tick = tick
            run.bursts_used += 1
        return tick * self.period


@dataclass(frozen=True)
class AsymmetricNetwork(_Condition):
    """Per-ordered-pair latencies: A→B need not behave like B→A.

    The effective base latency of the ordered pair ``(sender, target)`` is
    either an explicit ``((sender, target), latency)`` entry of ``pairs`` or
    derived from the direction-sensitive ring formula::

        base_latency * (1 + skew * ((target - sender) % ring) / ring)

    ``(target - sender) % ring`` differs from ``(sender - target) % ring``
    for every non-opposite pair, so any positive ``skew`` makes the matrix
    genuinely asymmetric without having to know the process count up front.
    Jitter (when non-zero) is gaussian around the pair's base latency.
    """

    kind: ClassVar[str] = "asymmetric"

    base_latency: float = 0.05
    jitter: float = 0.01
    skew: float = 1.5
    ring: int = 8
    pairs: tuple[tuple[tuple[int, int], float], ...] = ()

    def __post_init__(self) -> None:
        if self.base_latency < 0 or self.skew < 0:
            raise ValueError("base_latency and skew must be non-negative")
        if self.ring < 2:
            raise ValueError("ring must be at least 2")
        _check_latency(self.base_latency, self.jitter)
        for pair, value in self.pairs:
            if value < 0:
                raise ValueError(f"negative latency for pair {pair}")

    def latency_for(self, sender: int, target: int) -> float:
        """The deterministic base latency of the ordered pair."""
        explicit = dict(self.pairs).get((sender, target))
        if explicit is not None:
            return explicit
        step = (target - sender) % self.ring
        return self.base_latency * (1.0 + self.skew * step / self.ring)

    def arrival(self, run: NetworkRun, now: float, sender: int, target: int) -> float:
        """Deliver after the ordered pair's latency (plus jitter, if any)."""
        return now + run.sample(self.latency_for(sender, target), self.jitter)


@dataclass(frozen=True)
class MultiPartitionNetwork(_Condition):
    """A timed sequence of partition phases with per-phase groupings.

    Generalizes :class:`PartitionNetwork`: instead of one round-robin
    grouping shared by every window, each ``(start, end, groups)`` phase of
    ``schedule`` carries its own partition sets.  A message between
    processes separated by an open phase is held until that phase heals; the
    healed arrival may fall into a *later* phase, in which case it is held
    again (the schedule is walked in order).  Processes not named by any
    group of a phase share one implicit "rest" group, so schedules stay valid
    for any process count.

    ``seed_phase_jitter`` derives a per-seed variant of the schedule for
    every run (:meth:`derive_schedule`): each phase keeps its duration and
    groups but its start shifts by up to that fraction of the duration,
    deterministically from the run seed — so replications sweep the
    partition timing instead of replaying identical wall-clock phases.
    ``0.0`` pins the schedule exactly as written.
    """

    kind: ClassVar[str] = "multi-partition"
    counters: ClassVar[tuple[str, ...]] = ("held_messages",)

    latency: float = 0.05
    jitter: float = 0.01
    schedule: tuple[PartitionPhase, ...] = (
        (1.5, 4.5, ((0, 1),)),
        (6.0, 9.0, ((0, 2), (1,))),
    )
    seed_phase_jitter: float = 0.25

    def __post_init__(self) -> None:
        previous_end = 0.0
        for start, end, groups in sorted(self.schedule, key=lambda phase: phase[0]):
            if start < 0 or end <= start:
                raise ValueError(f"invalid partition phase window ({start}, {end})")
            if start < previous_end:
                raise ValueError("partition phases must not overlap")
            previous_end = end
            named: set[int] = set()
            for group in groups:
                if not group:
                    raise ValueError("partition groups must be non-empty")
                if named & set(group):
                    raise ValueError("partition groups must be disjoint")
                named |= set(group)
        _check_latency(self.latency, self.jitter)

    @staticmethod
    def derive_schedule(
        schedule: tuple[PartitionPhase, ...], seed: int | None, jitter: float = 0.25
    ) -> tuple[PartitionPhase, ...]:
        """Derive a per-seed variant of *schedule* with shifted phase starts.

        Each phase keeps its duration and groups; its start shifts by a
        uniform offset in ``±jitter * duration`` drawn from a
        :class:`random.Random` keyed on *seed*, clamped so phases stay
        non-negative, ordered and non-overlapping (each moves within half the
        gap to its neighbours).  ``seed=None`` or a non-positive *jitter*
        returns the schedule unchanged.
        """
        if seed is None or jitter <= 0 or not schedule:
            return tuple(schedule)
        phases = tuple(sorted(schedule, key=lambda phase: phase[0]))
        rng = random.Random(f"multi-partition-schedule:{seed}")
        derived: list[PartitionPhase] = []
        previous_end = 0.0
        for index, (start, end, groups) in enumerate(phases):
            duration = end - start
            next_start = phases[index + 1][0] if index + 1 < len(phases) else math.inf
            # half the gap to each neighbour is this phase's movement slack
            low = max(-jitter * duration, (previous_end - start) / 2.0, -start)
            high = min(jitter * duration, (next_start - end) / 2.0)
            shift = rng.uniform(low, high) if high > low else 0.0
            derived.append((start + shift, end + shift, groups))
            previous_end = end + shift
        return tuple(derived)

    def phases(self, seed: int | None) -> tuple[PartitionPhase, ...]:
        """The schedule derived for *seed* (so one per seed on both backends)."""
        derived = self.derive_schedule(self.schedule, seed, self.seed_phase_jitter)
        return tuple(sorted(derived, key=lambda phase: phase[0]))

    def arrival(self, run: NetworkRun, now: float, sender: int, target: int) -> float:
        """Walk the phase schedule, holding at every separating phase hit."""
        sample = run.sample(self.latency, self.jitter)
        tentative = now + sample
        for start, end, groups in run.schedule:
            if start <= tentative < end and _group_of(sender, groups) != _group_of(target, groups):
                run.held_messages += 1
                tentative = end + sample
        return tentative


def _group_of(process: int, groups: tuple[tuple[int, ...], ...]) -> int:
    """The phase-local group index of *process* (-1 = the rest group)."""
    for index, group in enumerate(groups):
        if process in group:
            return index
    return -1
