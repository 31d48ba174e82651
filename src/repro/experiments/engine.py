"""The generic scenario-sweep engine: one executor for every experiment.

Every ``run_*`` artefact of the harness is now a thin declaration — a
:class:`~repro.scenarios.Scenario` plus a :class:`~repro.scenarios.SweepGrid`
— executed here.  The engine expands the grid into ordered sweep points,
multiplies them by the replication count, derives one RNG seed per cell as a
pure function of ``(base_seed, replication, point.seed_offset)``, and shards
the **full (point × replication) product** across a process pool.  Because
cell seeds are derived (never drawn) and aggregation walks cells in list
order, serial and sharded executions are byte-identical.

Cells are backend-agnostic, selected by an :class:`ExecutionConfig`:
``backend="sim"`` (the default) replays each cell on the discrete-event
simulator, ``backend="asyncio"`` on the streaming runtime of
:mod:`repro.runtime`, where monitors run concurrently on an event loop
(over in-process lines or real TCP sockets, see ``stream_transport``), and
``backend="cluster"`` on the multi-process cluster runtime of
:mod:`repro.cluster`, where every monitor is its own OS process exchanging
wire protocol v8 frames.  All backends share one monitor implementation and
deliver reliably, so a cell's conclusive verdicts are identical for a fixed
seed — only timing/queuing metrics reflect the backend's nature.

The per-cell task function is a module-level callable fed plain picklable
values (the scenario itself is a frozen dataclass of frozen dataclasses), so
it works under both fork and spawn start methods; monitor automata are
rebuilt lazily per worker through the ``case_study_monitor`` cache, and
asyncio cells spin a fresh event loop inside the worker.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..distributed.computation import Computation
from ..faults import FaultPlan, format_fault_plan
from ..ltl.monitor import MonitorAutomaton
from ..ltl.predicates import PropositionRegistry
from ..scenarios import GridPoint, Scenario, SweepGrid, Workload, get_scenario
from ..session import RunReport
from ..sim.runner import simulate_monitored_run
from ..sim.workload import generate_computation
from .properties import PROPERTY_NAMES, case_study_monitor, case_study_registry

if TYPE_CHECKING:  # pragma: no cover - harness imports this module
    from .harness import ExperimentScale

__all__ = [
    "BACKENDS",
    "ExecutionConfig",
    "trace_design",
    "cell_computation",
    "cell_inputs",
    "run_scenario_cell",
    "execute_points",
    "execute_sweep",
    "run_scenario",
]

#: the monitoring backends a sweep cell can execute on
BACKENDS = ("sim", "asyncio", "cluster")


@dataclass(frozen=True)
class ExecutionConfig:
    """How sweep cells execute: backend, transport, faults, cluster layout.

    One frozen, picklable value threaded through every engine entrypoint
    (and across the sharding process pool) instead of loose keyword
    arguments.  Fields irrelevant to the chosen backend are ignored:
    ``stream_transport`` only matters to ``backend="asyncio"`` and
    ``manifest`` only to ``backend="cluster"``.

    Attributes
    ----------
    backend:
        ``"sim"``, ``"asyncio"`` or ``"cluster"`` (see :data:`BACKENDS`).
    stream_transport:
        Streaming medium of the asyncio backend: ``"memory"`` (in-process
        queues) or ``"tcp"`` (real loopback sockets).
    fault_plan:
        Optional :class:`repro.faults.FaultPlan` overriding the scenario's
        own fault model for every cell.
    manifest:
        Cluster backend only: a :class:`repro.cluster.ClusterManifest` or a
        manifest file path; ``None`` auto-allocates loopback workers.
    """

    backend: str = "sim"
    stream_transport: str = "memory"
    fault_plan: FaultPlan | None = None
    manifest: object | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r} (known: {BACKENDS})"
            )


def trace_design(property_name: str) -> tuple[dict[str, bool], float]:
    """The paper's trace design for one property (Section 5.1).

    Traces keep the property "alive" for most of the run and reach a
    conclusive state near the end.  For the ``G(… U …)`` properties (A, C,
    D, F) the initial valuation satisfies the obligations and propositions
    are mostly true; for the ``F(…)`` properties (B, E) the target
    conjunction is rare until the forced all-true final events.
    """
    if property_name.upper() in ("B", "E"):
        return {"p": False, "q": False}, 0.3
    return {"p": True, "q": True}, 0.85


def cell_computation(
    workload: Workload,
    property_name: str,
    *,
    num_processes: int,
    events_per_process: int,
    evt_mu: float,
    evt_sigma: float,
    comm_mu: float | None,
    comm_sigma: float,
    seed: int,
) -> Computation:
    """Generate the computation of one cell: *workload* under the trace design.

    The one place the paper's per-property trace design meets a workload
    model; sweep cells, cluster workers, the message baseline and the
    fleet's synthetic source all generate their traces here, so the same
    parameters give the same computation everywhere.
    """
    initial_valuation, truth_probability = trace_design(property_name)
    return generate_computation(
        workload.build_config(
            num_processes=num_processes,
            events_per_process=events_per_process,
            evt_mu=evt_mu,
            evt_sigma=evt_sigma,
            comm_mu=comm_mu,
            comm_sigma=comm_sigma,
            truth_probability=truth_probability,
            initial_valuation=dict(initial_valuation),
            seed=seed,
        )
    )


def cell_inputs(
    scenario: Scenario, property_name: str, num_processes: int, **trace: object
) -> tuple[Computation, MonitorAutomaton, PropositionRegistry]:
    """The ``(computation, automaton, registry)`` a cell of *scenario* monitors.

    *trace* holds the remaining :func:`cell_computation` parameters.  A pure
    function of its arguments: in-process cells and every cluster worker
    (which resolves the scenario by name first) build identical inputs.
    """
    computation = cell_computation(
        scenario.workload, property_name, num_processes=num_processes, **trace
    )
    return (
        computation,
        case_study_monitor(property_name, num_processes),
        case_study_registry(num_processes),
    )


def run_scenario_cell(
    scenario: Scenario,
    point: GridPoint,
    scale: ExperimentScale,
    seed: int,
    *,
    config: ExecutionConfig | None = None,
) -> dict[str, float]:
    """Run one (sweep-point, replication) cell and return its slim metrics.

    ``config.backend`` selects the executor: ``"sim"`` replays the cell on
    the discrete-event simulator, ``"asyncio"`` streams it through
    concurrent monitors (:func:`repro.runtime.runner.run_streaming`)
    over ``config.stream_transport``, with the scenario's network condition
    mapped onto the streaming transport via
    :meth:`repro.scenarios.NetworkModel.delay_model`, and ``"cluster"``
    runs it across one OS process per monitor via
    :func:`repro.cluster.cluster_monitored_run` (the scenario must be a
    registered one, since workers resolve it by name).

    Monitor faults come from ``config.fault_plan`` when given (the CLI's
    ``run --fault-plan`` override), otherwise from the scenario's own
    :class:`~repro.faults.FaultModel`, which derives one deterministic
    crash schedule per cell from the cell's seed.
    """
    config = config if config is not None else ExecutionConfig()
    # the one set of trace parameters both the cluster spec and the
    # in-process inputs are built from
    trace = {
        "events_per_process": scale.events_per_process,
        "evt_mu": scale.evt_mu,
        "evt_sigma": scale.evt_sigma,
        "comm_mu": scale.comm_mu if point.comm_mu == "default" else point.comm_mu,
        "comm_sigma": scale.comm_sigma,
        "seed": seed,
    }
    faults = config.fault_plan
    if faults is None and scenario.faults is not None:
        faults = scenario.faults.build(
            point.num_processes, scale.events_per_process, seed
        )
    if config.backend == "cluster":
        from ..cluster.coordinator import cluster_monitored_run
        from ..cluster.spec import RunSpec

        try:
            registered = get_scenario(scenario.name)
        except KeyError:
            raise ValueError(
                f"the cluster backend needs a registered scenario (workers "
                f"resolve it by name), but {scenario.name!r} is not in the "
                f"registry"
            ) from None
        if registered != scenario:
            raise ValueError(
                f"scenario {scenario.name!r} differs from the registered "
                f"scenario of that name; the cluster backend distributes "
                f"scenarios by name, so register your variant first"
            )
        armed = faults is not None and not faults.is_noop(point.num_processes)
        spec = RunSpec(
            scenario=scenario.name,
            property_name=point.property_name,
            num_processes=point.num_processes,
            max_views_per_state=scale.max_views_per_state,
            fault_plan=format_fault_plan(faults) if armed else None,
            **trace,
        )
        report = cluster_monitored_run(spec, manifest=config.manifest)
        return _cell_metrics(report)
    computation, automaton, registry = cell_inputs(
        scenario, point.property_name, point.num_processes, **trace
    )
    monitoring = {
        "max_views_per_state": scale.max_views_per_state,
        "faults": faults,
    }
    if config.backend == "sim":
        report = simulate_monitored_run(
            computation, automaton, registry, seed=seed, network=scenario.network, **monitoring
        )
    else:  # "asyncio" — ExecutionConfig validated the backend already
        from ..runtime.runner import run_streaming

        report = run_streaming(
            computation,
            automaton,
            registry,
            delay=scenario.network.delay_model(seed),
            transport=config.stream_transport,
            **monitoring,
        )
    return _cell_metrics(report)


def _cell_metrics(report: RunReport) -> dict[str, float]:
    """Extract the slim backend-agnostic metrics row of one cell report."""
    metrics = {
        "events": float(report.total_events),
        "messages": float(report.monitor_messages),
        "token_messages": float(report.token_messages),
        "termination_messages": float(report.termination_messages),
        "entries_created": float(report.metrics.entries_created),
        "global_views": float(report.total_global_views),
        "delayed_events": float(report.delayed_events),
        "delay_time_pct_per_view": report.delay_time_percentage_per_view,
        "monitor_extra_time": report.monitor_extra_time,
    }
    metrics.update(report.network_stats)
    metrics.update(report.fault_stats)
    return metrics


def _run_cell(
    task: tuple[Scenario | str, GridPoint, ExperimentScale, int, ExecutionConfig],
) -> dict[str, float]:
    """Process-pool task: resolve the scenario (by value or name) and run."""
    scenario, point, scale, seed, config = task
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    return run_scenario_cell(scenario, point, scale, seed, config=config)


def _aggregate(point: GridPoint, cells: Sequence[dict[str, float]]) -> dict[str, float]:
    """Average the replications of one point into a result row."""
    keys: list[str] = []
    for cell in cells:
        for key in cell:
            if key not in keys:
                keys.append(key)
    row: dict[str, float] = {
        "property": point.property_name,
        "processes": point.num_processes,
    }
    for key in keys:
        row[key] = statistics.fmean(cell[key] for cell in cells if key in cell)  # never empty
    row["log_events"] = math.log10(max(1.0, row.get("events", 0.0)))
    row["log_messages"] = math.log10(max(1.0, row.get("messages", 0.0)))
    if point.comm_mu != "default":
        row["comm_mu"] = point.comm_mu if point.comm_mu is not None else "no-comm"
    return row


def execute_points(
    scenario: Scenario,
    points: Sequence[GridPoint],
    scale: ExperimentScale,
    *,
    config: ExecutionConfig | None = None,
) -> list[dict[str, float]]:
    """Run every (point × replication) cell of *scenario* and aggregate.

    This is the sharding heart of the engine: with ``scale.workers > 1`` the
    full cell product — not just the replications of one point — is mapped
    over one process pool, so a sweep with P points and R replications keeps
    ``min(P*R, workers)`` workers busy.  Cell seeds are
    ``base_seed + 31*replication + point.seed_offset`` (the scheme the
    pre-scenario harness used), so results are byte-identical to a serial
    run and to earlier releases.  *config* selects the per-cell
    executor — see :func:`run_scenario_cell`.
    """
    config = config if config is not None else ExecutionConfig()
    replications = max(1, scale.replications)
    cells = [
        (
            scenario,
            point,
            scale,
            scale.base_seed + 31 * rep + point.seed_offset,
            config,
        )
        for point in points
        for rep in range(replications)
    ]
    if scale.workers > 1 and len(cells) > 1:
        workers = min(scale.workers, len(cells))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, cells))
    else:
        results = [_run_cell(cell) for cell in cells]
    return [
        _aggregate(point, results[i * replications : (i + 1) * replications])
        for i, point in enumerate(points)
    ]


def execute_sweep(
    scenario: Scenario,
    scale: ExperimentScale,
    grid: SweepGrid | None = None,
    *,
    config: ExecutionConfig | None = None,
) -> list[dict[str, float]]:
    """Expand *grid* (default: the scenario's own) and run every cell."""
    grid = grid if grid is not None else scenario.grid
    points = grid.points(PROPERTY_NAMES, scale.process_counts)
    return execute_points(scenario, points, scale, config=config)


def run_scenario(
    scenario: Scenario | str,
    scale: ExperimentScale,
    grid: SweepGrid | None = None,
    *,
    config: ExecutionConfig | None = None,
) -> list[dict[str, float]]:
    """Run a scenario (by value or registered name) over its sweep grid."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    return execute_sweep(scenario, scale, grid=grid, config=config)
