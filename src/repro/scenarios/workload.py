"""Declarative workload models: the trace shapes of a scenario.

A :class:`WorkloadModel` turns the per-point sweep parameters (process count,
events per process, distribution parameters, trace design) into a concrete
:class:`repro.sim.workload.WorkloadConfig`, which the engine feeds to
:func:`repro.sim.workload.generate_computation`.  Three shapes are provided:

* :class:`PaperWorkload` — the unmodified trace model of Section 5.2
  (normal-distributed internal/communication wait times).
* :class:`HotPropositionWorkload` — hot-proposition skew: one or more "hot"
  processes flip their propositions at a multiple of the base event rate,
  optionally with their own truth probability; the rest of the system is
  unchanged.  Stresses per-process monitor queues asymmetrically.
* :class:`BurstyCommWorkload` — comm-heavy bursts: every communication slot
  fires a burst of broadcast rounds instead of a single one, multiplying
  program messages (and therefore receive events) without touching the
  internal-event schedule.

Models are frozen dataclasses — picklable, hashable, self-describing — so
they ride along inside :class:`repro.scenarios.Scenario` values across
process boundaries.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Protocol, runtime_checkable

from ..sim.workload import WorkloadConfig

__all__ = [
    "WorkloadModel",
    "PaperWorkload",
    "HotPropositionWorkload",
    "BurstyCommWorkload",
]


@runtime_checkable
class WorkloadModel(Protocol):
    """Declarative description of a trace shape, instantiated per sweep cell."""

    def build_config(
        self,
        *,
        num_processes: int,
        events_per_process: int,
        evt_mu: float,
        evt_sigma: float,
        comm_mu: float | None,
        comm_sigma: float,
        truth_probability: float,
        initial_valuation: dict[str, bool],
        seed: int,
    ) -> WorkloadConfig:
        """The concrete workload configuration for one simulated run."""

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and the CLI)."""


def _describe(kind: str, model: object) -> dict[str, object]:
    """Render *model* as a ``{"kind": ..., **fields}`` metadata dictionary."""
    description: dict[str, object] = {"kind": kind}
    description.update(asdict(model))
    return description


@dataclass(frozen=True)
class PaperWorkload:
    """The unmodified case-study trace model of Section 5.2."""

    def build_config(
        self,
        *,
        num_processes: int,
        events_per_process: int,
        evt_mu: float,
        evt_sigma: float,
        comm_mu: float | None,
        comm_sigma: float,
        truth_probability: float,
        initial_valuation: dict[str, bool],
        seed: int,
    ) -> WorkloadConfig:
        """Materialise the unmodified Section-5.2 workload configuration."""
        return WorkloadConfig(
            num_processes=num_processes,
            events_per_process=events_per_process,
            evt_mu=evt_mu,
            evt_sigma=evt_sigma,
            comm_mu=comm_mu,
            comm_sigma=comm_sigma,
            truth_probability=truth_probability,
            initial_valuation=initial_valuation,
            seed=seed,
        )

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and the CLI)."""
        return _describe("paper", self)


@dataclass(frozen=True)
class HotPropositionWorkload:
    """Hot-proposition skew: selected processes churn their propositions.

    ``hot_processes`` names the skewed processes; each produces
    ``event_factor ×`` as many internal events at ``event_factor ×`` the
    rate (same wall-clock horizon) and, when ``hot_truth_probability`` is
    set, flips its propositions with that probability instead of the trace
    design's global one.
    """

    hot_processes: tuple[int, ...] = (0,)
    event_factor: float = 3.0
    hot_truth_probability: float | None = 0.5

    def build_config(
        self,
        *,
        num_processes: int,
        events_per_process: int,
        evt_mu: float,
        evt_sigma: float,
        comm_mu: float | None,
        comm_sigma: float,
        truth_probability: float,
        initial_valuation: dict[str, bool],
        seed: int,
    ) -> WorkloadConfig:
        """Materialise the skewed configuration (hot processes clipped to *num_processes*)."""
        hot = tuple(p for p in self.hot_processes if p < num_processes)
        return WorkloadConfig(
            num_processes=num_processes,
            events_per_process=events_per_process,
            evt_mu=evt_mu,
            evt_sigma=evt_sigma,
            comm_mu=comm_mu,
            comm_sigma=comm_sigma,
            truth_probability=truth_probability,
            initial_valuation=initial_valuation,
            seed=seed,
            hot_processes=hot,
            hot_event_factor=self.event_factor,
            hot_truth_probability=self.hot_truth_probability,
        )

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and the CLI)."""
        return _describe("hot-proposition", self)


@dataclass(frozen=True)
class BurstyCommWorkload:
    """Comm-heavy bursts: each communication slot fires several rounds."""

    burst_size: int = 3
    burst_gap: float = 0.15

    def build_config(
        self,
        *,
        num_processes: int,
        events_per_process: int,
        evt_mu: float,
        evt_sigma: float,
        comm_mu: float | None,
        comm_sigma: float,
        truth_probability: float,
        initial_valuation: dict[str, bool],
        seed: int,
    ) -> WorkloadConfig:
        """Materialise the burst-amplified communication configuration."""
        return WorkloadConfig(
            num_processes=num_processes,
            events_per_process=events_per_process,
            evt_mu=evt_mu,
            evt_sigma=evt_sigma,
            comm_mu=comm_mu,
            comm_sigma=comm_sigma,
            truth_probability=truth_probability,
            initial_valuation=initial_valuation,
            seed=seed,
            comm_burst_size=self.burst_size,
            comm_burst_gap=self.burst_gap,
        )

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and the CLI)."""
        return _describe("bursty-comm", self)
