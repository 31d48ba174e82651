"""Declarative network models: the pluggable conditions of a scenario.

A :class:`NetworkModel` is a small frozen dataclass describing *how* the
monitors' network behaves, independently of the backend that realises it:
:meth:`~NetworkModel.delay_model` maps its latency/loss parameters onto a
backend-agnostic :class:`repro.core.delays.DelayModel` for one run seed.
The discrete-event driver wraps that model in a
:class:`repro.sim.network.SimulatedNetwork`, the asyncio streaming runtime
(:mod:`repro.runtime`) plugs it into its transports — one definition per
condition, so every named scenario runs identically-shaped on both backends
(``run --backend {sim,asyncio}``).

Models are plain picklable values, so scenarios can be shipped to worker
processes by the sharded sweep engine, and :meth:`~NetworkModel.describe`
renders them into the BENCH/JSON metadata.

Seven conditions are provided:

===================  ======================================================
model                behaviour
===================  ======================================================
:class:`ReliableNetwork`       the paper's testbed: gaussian latency+jitter
:class:`FixedLatencyNetwork`   deterministic constant latency (no jitter)
:class:`LossyNetwork`          drops + stop-and-wait retransmission
:class:`PartitionNetwork`      partition windows between process groups,
                               healed when each window closes
:class:`BurstyNetwork`         duty-cycled medium flushing at burst instants
:class:`AsymmetricNetwork`     per-ordered-pair latency matrix (A→B ≠ B→A)
:class:`MultiPartitionNetwork` timed sequence of partition sets, each phase
                               with its own explicit process grouping
===================  ======================================================

All of them deliver every message eventually (the monitoring algorithm
assumes reliable FIFO channels), so verdicts are independent of the model —
only the timing, queuing and message-overhead metrics change.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Protocol, runtime_checkable

from ..core.delays import (
    AsymmetricLatencyMatrix,
    BurstyDelay,
    DelayModel,
    GaussianDelay,
    LossyRetransmitDelay,
    MultiPartitionDelay,
    PartitionDelay,
    PartitionPhase,
)

__all__ = [
    "NetworkModel",
    "ReliableNetwork",
    "FixedLatencyNetwork",
    "LossyNetwork",
    "PartitionNetwork",
    "BurstyNetwork",
    "AsymmetricNetwork",
    "MultiPartitionNetwork",
]


@runtime_checkable
class NetworkModel(Protocol):
    """Declarative description of a monitor network condition."""

    def delay_model(self, seed: int | None) -> DelayModel:
        """The condition's latency/loss semantics, seeded for one run."""

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for BENCH documents and the CLI)."""


def _describe(kind: str, model: object) -> dict[str, object]:
    """Render *model* as a ``{"kind": ..., **fields}`` metadata dictionary."""
    description: dict[str, object] = {"kind": kind}
    description.update(asdict(model))
    return description


@dataclass(frozen=True)
class ReliableNetwork:
    """The paper's reliable WiFi testbed: gaussian latency with jitter."""

    latency: float = 0.05
    jitter: float = 0.01

    def delay_model(self, seed: int | None) -> GaussianDelay:
        """Gaussian latency+jitter."""
        return GaussianDelay(latency=self.latency, jitter=self.jitter, seed=seed)

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for BENCH documents and the CLI)."""
        return _describe("reliable", self)


@dataclass(frozen=True)
class FixedLatencyNetwork:
    """Deterministic constant-latency links (no jitter at all)."""

    latency: float = 0.05

    def delay_model(self, seed: int | None) -> GaussianDelay:
        """Constant latency (zero jitter draws no randomness at all)."""
        return GaussianDelay(latency=self.latency, jitter=0.0, seed=seed)

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for BENCH documents and the CLI)."""
        return _describe("fixed-latency", self)


@dataclass(frozen=True)
class LossyNetwork:
    """Lossy links with stop-and-wait retransmission (reliable overall)."""

    latency: float = 0.05
    jitter: float = 0.01
    loss_probability: float = 0.2
    retransmit_timeout: float = 0.25
    max_retransmits: int = 25

    def delay_model(self, seed: int | None) -> LossyRetransmitDelay:
        """Stop-and-wait retransmission delays."""
        return LossyRetransmitDelay(
            latency=self.latency,
            jitter=self.jitter,
            seed=seed,
            loss_probability=self.loss_probability,
            retransmit_timeout=self.retransmit_timeout,
            max_retransmits=self.max_retransmits,
        )

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for BENCH documents and the CLI)."""
        return _describe("lossy-retransmit", self)


@dataclass(frozen=True)
class PartitionNetwork:
    """Partition/heal cycles between round-robin process groups."""

    latency: float = 0.05
    jitter: float = 0.01
    windows: tuple[tuple[float, float], ...] = ((2.0, 8.0),)
    num_groups: int = 2

    def delay_model(self, seed: int | None) -> PartitionDelay:
        """Partition-window holding delays."""
        return PartitionDelay(
            latency=self.latency,
            jitter=self.jitter,
            seed=seed,
            windows=self.windows,
            num_groups=self.num_groups,
        )

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for BENCH documents and the CLI)."""
        return _describe("partition-heal", self)


@dataclass(frozen=True)
class BurstyNetwork:
    """Duty-cycled medium that only transmits at periodic burst instants."""

    latency: float = 0.01
    jitter: float = 0.0
    period: float = 0.75

    def delay_model(self, seed: int | None) -> BurstyDelay:
        """Burst-instant quantised delays."""
        return BurstyDelay(
            latency=self.latency, jitter=self.jitter, seed=seed, period=self.period
        )

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for BENCH documents and the CLI)."""
        return _describe("bursty", self)


@dataclass(frozen=True)
class AsymmetricNetwork:
    """Asymmetric per-link latency matrix: A→B need not equal B→A.

    ``pairs`` lists explicit ``((sender, target), latency)`` overrides; all
    other ordered pairs fall back to the direction-sensitive ring formula of
    :class:`repro.core.delays.AsymmetricLatencyMatrix` parameterised by
    ``skew`` and ``ring``.
    """

    base_latency: float = 0.05
    jitter: float = 0.01
    skew: float = 1.5
    ring: int = 8
    pairs: tuple[tuple[tuple[int, int], float], ...] = ()

    def delay_model(self, seed: int | None) -> AsymmetricLatencyMatrix:
        """The per-ordered-pair latency matrix."""
        return AsymmetricLatencyMatrix(
            base_latency=self.base_latency,
            jitter=self.jitter,
            seed=seed,
            skew=self.skew,
            ring=self.ring,
            pair_latencies=dict(self.pairs),
        )

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for BENCH documents and the CLI)."""
        return _describe("asymmetric", self)


@dataclass(frozen=True)
class MultiPartitionNetwork:
    """A timed sequence of partition phases with per-phase groupings.

    Generalizes :class:`PartitionNetwork`: each ``(start, end, groups)``
    phase of ``schedule`` partitions the processes into its own explicit
    groups (unlisted processes share an implicit rest group), so a run can
    pass through several differently-shaped partitions that each heal.

    ``seed_phase_jitter`` derives a per-seed variant of the schedule for
    every run (:meth:`repro.core.delays.MultiPartitionDelay.derive_schedule`):
    each phase keeps its duration and groups but its start shifts by up to
    that fraction of the duration, deterministically from the run seed — so
    replications sweep the partition timing instead of replaying identical
    wall-clock phases.  ``0.0`` pins the schedule exactly as written.
    """

    latency: float = 0.05
    jitter: float = 0.01
    schedule: tuple[PartitionPhase, ...] = (
        (1.5, 4.5, ((0, 1),)),
        (6.0, 9.0, ((0, 2), (1,))),
    )
    seed_phase_jitter: float = 0.25

    def delay_model(self, seed: int | None) -> MultiPartitionDelay:
        """Phase-holding delays over the schedule derived for *seed*.

        Both backends call this one constructor, so the per-seed derived
        schedule is identical on either backend for the same run seed.
        """
        return MultiPartitionDelay(
            latency=self.latency,
            jitter=self.jitter,
            seed=seed,
            schedule=MultiPartitionDelay.derive_schedule(
                self.schedule, seed, self.seed_phase_jitter
            ),
        )

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for BENCH documents and the CLI)."""
        return _describe("multi-partition", self)
