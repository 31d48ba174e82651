"""Pluggable experiment scenarios: workload models x network models x grids.

This package opens the evaluation beyond the paper's single fixed condition
(normal-distributed traces over a reliable WiFi testbed).  A
:class:`Scenario` is a declarative value — a :class:`WorkloadModel` (trace
shape), a :class:`NetworkModel` (communication conditions) and a
:class:`SweepGrid` (which points to run) — executed by the generic sharded
sweep engine in :mod:`repro.experiments.engine`.

Public API
----------
* :class:`Scenario` / :class:`SweepGrid` / :class:`GridPoint` — declarative
  experiment descriptions.
* :class:`NetworkModel` protocol with :class:`ReliableNetwork`,
  :class:`LossyNetwork`, :class:`PartitionNetwork`, :class:`BurstyNetwork`,
  :class:`AsymmetricNetwork` and :class:`MultiPartitionNetwork` — one
  frozen class per condition, defined in :mod:`repro.core.delays` so both
  timed backends reach them without an upward import.
* :class:`WorkloadModel` protocol with :class:`PaperWorkload`,
  :class:`HotPropositionWorkload` and :class:`BurstyCommWorkload`.
* :class:`repro.faults.FaultModel` (re-exported with
  :class:`ExplicitFaults`, :class:`SingleCrashFaults` and
  :class:`RollingCrashFaults`) — the optional ``faults`` condition of a
  scenario.
* :func:`register_scenario` / :func:`get_scenario` / :func:`list_scenarios`
  / :func:`scenario_names` — the registry (built-ins register on import).
"""

from ..core.delays import (
    AsymmetricNetwork,
    BurstyNetwork,
    LossyNetwork,
    MultiPartitionNetwork,
    NetworkModel,
    PartitionNetwork,
    ReliableNetwork,
)
from ..faults import (
    ExplicitFaults,
    FaultModel,
    RollingCrashFaults,
    SingleCrashFaults,
)
from .registry import (
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from .scenario import GridPoint, Scenario, SweepGrid
from .workload import (
    BurstyCommWorkload,
    HotPropositionWorkload,
    PaperWorkload,
    WorkloadModel,
)

__all__ = [
    "Scenario",
    "SweepGrid",
    "GridPoint",
    "NetworkModel",
    "ReliableNetwork",
    "LossyNetwork",
    "PartitionNetwork",
    "BurstyNetwork",
    "AsymmetricNetwork",
    "MultiPartitionNetwork",
    "FaultModel",
    "ExplicitFaults",
    "SingleCrashFaults",
    "RollingCrashFaults",
    "WorkloadModel",
    "PaperWorkload",
    "HotPropositionWorkload",
    "BurstyCommWorkload",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
]
