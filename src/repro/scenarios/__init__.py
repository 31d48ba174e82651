"""Pluggable experiment scenarios: workload models x network models x grids.

This package opens the evaluation beyond the paper's single fixed condition
(normal-distributed traces over a reliable WiFi testbed).  A
:class:`Scenario` is a declarative value — a :class:`Workload` (trace
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
* :class:`Workload` — the trace shape: the paper's model, optionally with
  hot-proposition skew or comm-heavy bursts.
* :class:`repro.faults.FaultModel` (re-exported with
  :class:`SingleCrashFaults` and :class:`RollingCrashFaults`; a literal
  :class:`repro.faults.FaultPlan` is a model too) — the optional ``faults``
  condition of a scenario.
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
from ..faults import FaultModel, RollingCrashFaults, SingleCrashFaults
from .registry import (
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from .scenario import GridPoint, Scenario, SweepGrid
from .workload import Workload

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
    "SingleCrashFaults",
    "RollingCrashFaults",
    "Workload",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
]
