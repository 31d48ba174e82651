"""The trace shape of a scenario: one frozen class over the Section-5.2 model.

A :class:`Workload` holds the five shape fields of
:class:`repro.sim.workload.WorkloadConfig` — same names, same defaults — and
turns the per-point sweep parameters (process count, events per process,
distribution parameters, trace design) into the concrete configuration
:func:`repro.sim.workload.generate_computation` runs.  ``Workload()`` is the
unmodified paper model; the shape fields add hot-proposition skew
(``hot_processes`` churn their propositions at ``hot_event_factor ×`` the
base rate, optionally with their own ``hot_truth_probability``) and
comm-heavy bursts (each communication slot fires ``comm_burst_size``
broadcast rounds ``comm_burst_gap`` seconds apart).  The configuration
checks the values; this class only carries them.

Workloads are frozen dataclasses — picklable, hashable, self-describing —
so they ride along inside :class:`repro.scenarios.Scenario` values across
process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..sim.workload import WorkloadConfig

__all__ = ["Workload"]


@dataclass(frozen=True)
class Workload:
    """A trace shape: the paper's model plus optional skew and bursts."""

    hot_processes: tuple[int, ...] = WorkloadConfig.hot_processes
    hot_event_factor: float = WorkloadConfig.hot_event_factor
    hot_truth_probability: float | None = WorkloadConfig.hot_truth_probability
    comm_burst_size: int = WorkloadConfig.comm_burst_size
    comm_burst_gap: float = WorkloadConfig.comm_burst_gap

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
        """The configuration of one run (hot processes clipped to *num_processes*)."""
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
            hot_processes=tuple(p for p in self.hot_processes if p < num_processes),
            hot_event_factor=self.hot_event_factor,
            hot_truth_probability=self.hot_truth_probability,
            comm_burst_size=self.comm_burst_size,
            comm_burst_gap=self.comm_burst_gap,
        )

    def describe(self) -> dict[str, object]:
        """``{"kind": "paper"}`` plus the fields that differ from the paper model."""
        description: dict[str, object] = {"kind": "paper"}
        for field in fields(self):
            value = getattr(self, field.name)
            if value != field.default:
                description[field.name] = value
        return description
