"""The supported public API of the repro package, in one curated module.

Everything a user of this reproduction needs — compiling LTL3 monitors,
running registered scenarios on any backend, deploying the cluster runtime,
describing faults and network conditions — is re-exported here under one
stable namespace::

    import repro.api as repro_api

    automaton = repro_api.compile_formula("F(P0.p & P1.q)", atoms=["P0.p", "P1.q"])
    rows = repro_api.run_scenario("paper-default", repro_api.ExperimentScale())
    rows = repro_api.run_cluster("paper-default", repro_api.ExperimentScale(
        process_counts=(3,), events_per_process=4, replications=1))

``repro.api.__all__`` *is* the compatibility contract: names listed here
keep working across releases, while deeper module paths may move.  Every
backend returns one report type, :class:`repro.session.RunReport`;
``RuntimeReport`` and ``ClusterReport`` are two names of that class.  The
generated reference in ``docs/api.md`` is checked against ``__all__`` by the
documentation tests, so surface and docs cannot drift apart.
"""

from __future__ import annotations

from .cluster.coordinator import ClusterError, cluster_monitored_run
from .cluster.manifest import ClusterManifest, Endpoint, load_manifest, loopback_manifest
from .cluster.spec import RunSpec
from .experiments.engine import BACKENDS, ExecutionConfig, run_scenario
from .experiments.harness import DEFAULT_SCALE, ExperimentScale
from .experiments.properties import PROPERTY_NAMES, case_study_monitor, property_formula
from .faults import CrashSpec, FaultPlan, format_fault_plan, parse_fault_plan
from .fleet import FleetConfig, FleetReport, TenantSpec, run_fleet, synthetic_fleet
from .ltl import build_monitor
from .ltl.monitor import MonitorAutomaton
from .ltl.verdict import Verdict
from .runtime.runner import TRANSPORTS, run_streaming  # noqa: F401 - importable, not in __all__
from .scenarios import (
    GridPoint,
    Scenario,
    SweepGrid,
    get_scenario,
    list_scenarios,
    scenario_names,
)
from .session import RunReport

#: the names the per-backend report classes had before they became one
RuntimeReport = ClusterReport = RunReport

__all__ = [
    # monitor synthesis
    "compile_formula",
    "MonitorAutomaton",
    "Verdict",
    "PROPERTY_NAMES",
    "property_formula",
    "case_study_monitor",
    # scenario catalogue
    "Scenario",
    "SweepGrid",
    "GridPoint",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    # execution
    "BACKENDS",
    "TRANSPORTS",
    "ExecutionConfig",
    "ExperimentScale",
    "DEFAULT_SCALE",
    "run_scenario",
    "run_cluster",
    "RuntimeReport",
    # fleet
    "TenantSpec",
    "FleetConfig",
    "FleetReport",
    "run_fleet",
    "synthetic_fleet",
    # faults
    "FaultPlan",
    "CrashSpec",
    "parse_fault_plan",
    "format_fault_plan",
    # cluster deployment
    "ClusterManifest",
    "Endpoint",
    "load_manifest",
    "loopback_manifest",
    "RunSpec",
    "ClusterReport",
    "ClusterError",
    "cluster_monitored_run",
]


def compile_formula(
    formula: object,
    atoms: list[str] | None = None,
    *,
    minimize: bool = True,
) -> MonitorAutomaton:
    """Compile an LTL formula (text or AST) into an LTL3 monitor automaton.

    The stable name for :func:`repro.ltl.build_monitor`: parses *formula*
    if it is a string, closes the alphabet over *atoms* (default: the
    propositions occurring in the formula) and synthesises the three-valued
    monitor (⊤ / ⊥ / ?) by formula progression, Moore-minimised unless
    *minimize* is false.
    """
    return build_monitor(formula, atoms, minimize=minimize)


def run_cluster(
    scenario: Scenario | str,
    scale: ExperimentScale,
    grid: SweepGrid | None = None,
    *,
    manifest: ClusterManifest | str | None = None,
    fault_plan: FaultPlan | None = None,
) -> list[dict[str, float]]:
    """Run a registered scenario on the multi-process cluster backend.

    Shorthand for :func:`run_scenario` with
    ``config=ExecutionConfig(backend="cluster", ...)``: every cell spawns
    one OS process per monitor (addresses from *manifest*, or freshly
    allocated loopback ports), distributes the run spec, and collects the
    verdicts and metrics back through the coordinator.
    """
    config = ExecutionConfig(
        backend="cluster", manifest=manifest, fault_plan=fault_plan
    )
    return run_scenario(scenario, scale, grid=grid, config=config)

