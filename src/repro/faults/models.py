"""Declarative fault models: per-seed crash schedules for scenarios.

A :class:`FaultModel` is the fault-injection counterpart of
:class:`repro.scenarios.NetworkModel`: a small frozen dataclass a
:class:`~repro.scenarios.Scenario` carries in its ``faults`` field, turned
into a concrete :class:`~repro.faults.plan.FaultPlan` per sweep cell by
:meth:`~FaultModel.build`.  Models derive everything random (which monitor
crashes, when) from the cell's seed, so schedules are deterministic per
seed, shard cleanly into worker processes and are identical on both
monitoring backends.

Five models are provided here; a literal :class:`~repro.faults.plan.FaultPlan`
is a sixth (its ``build`` returns the plan unchanged, so a scenario can
carry a fixed plan; the CLI's ``run --fault-plan`` override does not go
through a model: it sets ``ExecutionConfig.fault_plan`` directly):

* :class:`SingleCrashFaults` — one seed-chosen monitor crashes once at a
  seed-chosen point of its trace.
* :class:`RollingCrashFaults` — every monitor crashes once, at staggered
  seed-chosen points (a rolling outage across the whole system).
* :class:`ChurnFaults` — mid-run node churn: seed-chosen monitors leave
  (long rejoin-from-scratch outages) and rejoin as fresh incarnations.
* :class:`ByzantineFaults` — a seed-chosen subset of monitors turns
  adversarial (duplicating / corrupting / replaying / dropping messages).
* :class:`ClockSkewFaults` — perturbs the computation's vector clocks
  (soundly or, explicitly flagged, unsoundly).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Protocol, runtime_checkable

from .plan import (
    RECOVERY_REJOIN,
    RECOVERY_REPLAY,
    SKEW_SOUND,
    ByzantineSpec,
    ClockSkewSpec,
    CrashSpec,
    FaultPlan,
)

__all__ = [
    "FaultModel",
    "SingleCrashFaults",
    "RollingCrashFaults",
    "ChurnFaults",
    "ByzantineFaults",
    "ClockSkewFaults",
]

#: mixed into cell seeds so fault schedules draw from their own RNG stream,
#: independent of the workload/network randomness of the same cell
_FAULT_SEED_SALT = 0x5EEDFA17


def _fault_rng(seed: int | None) -> random.Random:
    """The dedicated fault-schedule RNG for one cell seed."""
    return random.Random((seed or 0) ^ _FAULT_SEED_SALT)


@runtime_checkable
class FaultModel(Protocol):
    """Declarative description of monitor faults, buildable per sweep cell."""

    def build(
        self, num_processes: int, events_per_process: int, seed: int | None
    ) -> FaultPlan:
        """The concrete crash schedule for one run at this system size."""

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and the CLI)."""


def _describe(kind: str, model: object) -> dict[str, object]:
    """Render *model* as a ``{"kind": ..., **fields}`` metadata dictionary."""
    description: dict[str, object] = {"kind": kind}
    description.update(asdict(model))
    return description


@dataclass(frozen=True)
class SingleCrashFaults:
    """One seed-chosen monitor crashes once mid-trace."""

    down_events: int = 1
    recovery: str = RECOVERY_REPLAY

    def build(
        self, num_processes: int, events_per_process: int, seed: int | None
    ) -> FaultPlan:
        """Pick the crashing monitor and its trigger point from the seed."""
        rng = _fault_rng(seed)
        process = rng.randrange(num_processes)
        after_events = rng.randint(1, max(1, events_per_process - 1))
        return FaultPlan(
            (
                CrashSpec(
                    process=process,
                    after_events=after_events,
                    down_events=self.down_events,
                    recovery=self.recovery,
                ),
            )
        )

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and the CLI)."""
        return _describe("single-crash", self)


@dataclass(frozen=True)
class RollingCrashFaults:
    """Every monitor crashes once, at staggered seed-chosen points."""

    down_events: int = 1
    recovery: str = RECOVERY_REPLAY

    def build(
        self, num_processes: int, events_per_process: int, seed: int | None
    ) -> FaultPlan:
        """One seed-derived crash cycle per monitor."""
        rng = _fault_rng(seed)
        specs = tuple(
            CrashSpec(
                process=process,
                after_events=rng.randint(1, max(1, events_per_process - 1)),
                down_events=self.down_events,
                recovery=self.recovery,
            )
            for process in range(num_processes)
        )
        return FaultPlan(specs)

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and the CLI)."""
        return _describe("rolling-crash", self)


@dataclass(frozen=True)
class ChurnFaults:
    """Mid-run node churn: monitors leave and rejoin as fresh incarnations.

    A seed-chosen subset of monitors (``leave_fraction`` of the system,
    at least one) *leaves* early in its trace — a long outage of at least
    ``min_down_events`` buffered events — and later *rejoins from scratch*,
    inheriting only durable facts and replaying its local log.  An outage
    reaching past the end of the trace models a node that rejoins only at
    shutdown (the termination signal force-restarts it, so the run still
    concludes).  Triggers live in local-event space, so churn is
    deterministic across all backends.
    """

    leave_fraction: float = 0.5
    min_down_events: int = 2

    def build(
        self, num_processes: int, events_per_process: int, seed: int | None
    ) -> FaultPlan:
        """Pick the leaving monitors and their outage windows from the seed."""
        rng = _fault_rng(seed)
        leavers = max(1, round(num_processes * self.leave_fraction))
        leavers = min(leavers, num_processes)
        chosen = sorted(rng.sample(range(num_processes), leavers))
        specs = []
        for process in chosen:
            after_events = rng.randint(1, max(1, events_per_process // 2))
            down_events = rng.randint(
                self.min_down_events, max(self.min_down_events, events_per_process)
            )
            specs.append(
                CrashSpec(
                    process=process,
                    after_events=after_events,
                    down_events=down_events,
                    recovery=RECOVERY_REJOIN,
                )
            )
        return FaultPlan(tuple(specs))

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and the CLI)."""
        return _describe("churn", self)


@dataclass(frozen=True)
class ByzantineFaults:
    """A seed-chosen subset of monitors turns adversarial.

    Every chosen monitor gets the same behaviour cadence (the ``*_every``
    fields, 0 disabling a behaviour); which monitors are adversarial is
    drawn from the cell seed.  Message-space triggers are deterministic
    per backend but not across backends (arrival orders differ), so
    Byzantine scenarios are exercised on the simulator and compared
    against the centralized oracle rather than across backends.
    """

    duplicate_every: int = 0
    corrupt_every: int = 0
    replay_every: int = 0
    drop_every: int = 0
    num_adversaries: int = 1

    def build(
        self, num_processes: int, events_per_process: int, seed: int | None
    ) -> FaultPlan:
        """Pick the adversarial monitors from the seed."""
        rng = _fault_rng(seed)
        count = max(1, min(self.num_adversaries, num_processes))
        chosen = sorted(rng.sample(range(num_processes), count))
        specs = tuple(
            ByzantineSpec(
                process=process,
                duplicate_every=self.duplicate_every,
                corrupt_every=self.corrupt_every,
                replay_every=self.replay_every,
                drop_every=self.drop_every,
            )
            for process in chosen
        )
        return FaultPlan(byzantine=specs)

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and the CLI)."""
        return _describe("byzantine", self)


@dataclass(frozen=True)
class ClockSkewFaults:
    """Perturbs the monitored computation's vector-clock assignment.

    The skew seed is derived from the cell seed through the dedicated
    fault salt, so the perturbation is deterministic per cell and — since
    it transforms the computation *before* any monitor runs — identical
    on every backend (see :mod:`repro.faults.skew`).
    """

    mode: str = SKEW_SOUND
    rate: float = 0.25
    magnitude: int = 1

    def build(
        self, num_processes: int, events_per_process: int, seed: int | None
    ) -> FaultPlan:
        """Derive the concrete skew spec for one cell."""
        return FaultPlan(
            clock_skew=ClockSkewSpec(
                mode=self.mode,
                rate=self.rate,
                magnitude=self.magnitude,
                seed=(seed or 0) ^ _FAULT_SEED_SALT,
            )
        )

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and the CLI)."""
        return _describe("clock-skew", self)
