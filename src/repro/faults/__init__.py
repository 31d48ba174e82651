"""Fault injection: crash/restart, Byzantine monitors, clock skew.

The paper evaluates the decentralized monitoring protocol only under
well-behaved nodes; this package asks what happens when monitors actually
fail — or lie.  It provides:

* :class:`FaultPlan` / :class:`CrashSpec` — declarative crash/restart
  schedules in local-event space (deterministic across backends; see
  :mod:`repro.faults.plan` for the design rationale).
* :class:`ByzantineSpec` — adversarial monitor behaviours (message
  duplication, progression-state corruption, stale-token replay,
  drop-on-send) attacking the paper's soundness claims at their boundary.
* :class:`ClockSkewSpec` / :func:`apply_clock_skew` — deterministic
  perturbation of the monitored computation's vector clocks, within
  (``sound``) or beyond (``unsound``, explicitly flagged) happened-before
  consistency.
* :class:`MonitorFaultProxy` / :class:`FaultInjector` — the single
  backend-agnostic injection mechanism, wrapping the shared
  :class:`repro.core.monitor.DecentralizedMonitor` behind the
  :class:`repro.core.transport.MonitorNode` protocol.
* :class:`FaultModel` implementations (:class:`SingleCrashFaults`,
  :class:`RollingCrashFaults`, :class:`ChurnFaults`,
  :class:`ByzantineFaults`, :class:`ClockSkewFaults`, and a literal
  :class:`FaultPlan` itself) — per-seed schedule generators scenarios
  carry in their ``faults`` field.
* :func:`parse_fault_plan` / :func:`format_fault_plan` — the compact
  ``run --fault-plan`` grammar.

Network-level fault conditions (asymmetric per-link latency matrices,
multi-partition schedules) are network conditions like the others: one
frozen class each in :mod:`repro.core.delays`, exported by
:mod:`repro.scenarios`.
"""

from .injector import FaultInjector, MonitorFaultProxy, unwrap_monitor, wrap_monitors
from .models import (
    ByzantineFaults,
    ChurnFaults,
    ClockSkewFaults,
    FaultModel,
    RollingCrashFaults,
    SingleCrashFaults,
)
from .plan import (
    RECOVERY_POLICIES,
    RECOVERY_REJOIN,
    RECOVERY_REPLAY,
    SKEW_MODES,
    SKEW_SOUND,
    SKEW_UNSOUND,
    ByzantineSpec,
    ClockSkewSpec,
    CrashSpec,
    FaultPlan,
    FaultStats,
    format_fault_plan,
    parse_fault_plan,
)
from .skew import apply_clock_skew

__all__ = [
    "RECOVERY_POLICIES",
    "RECOVERY_REPLAY",
    "RECOVERY_REJOIN",
    "SKEW_MODES",
    "SKEW_SOUND",
    "SKEW_UNSOUND",
    "CrashSpec",
    "ByzantineSpec",
    "ClockSkewSpec",
    "FaultPlan",
    "FaultStats",
    "parse_fault_plan",
    "format_fault_plan",
    "apply_clock_skew",
    "MonitorFaultProxy",
    "FaultInjector",
    "unwrap_monitor",
    "wrap_monitors",
    "FaultModel",
    "SingleCrashFaults",
    "RollingCrashFaults",
    "ChurnFaults",
    "ByzantineFaults",
    "ClockSkewFaults",
]
