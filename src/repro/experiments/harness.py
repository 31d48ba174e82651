"""Experiment harness regenerating every table and figure of Chapter 5.

Each ``run_*`` function reproduces one artefact of the paper's evaluation and
returns plain Python data (lists of dict rows / series) so that the benchmark
targets in ``benchmarks/`` can check their shapes and
``tools/gen_results_report.py`` can print them into ``docs/results.md``.  Since the
scenario-engine refactor every simulated artefact is a *declaration* — the
``paper-default`` :class:`~repro.scenarios.Scenario` plus a
:class:`~repro.scenarios.SweepGrid` — executed by the generic sharded engine
of :mod:`repro.experiments.engine`; other conditions (lossy links,
partitions, bursty traffic, hot-proposition skew) are one
:func:`~repro.experiments.engine.run_scenario` call away.

The default experiment scale (events per process, replications) is reduced
with respect to the iOS testbed so that the full suite runs in seconds on a
laptop; the scale can be raised through :class:`ExperimentScale` without
touching the harness logic.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..scenarios import GridPoint, SweepGrid, get_scenario
from .engine import execute_points, execute_sweep, run_scenario
from .properties import PROPERTY_NAMES, case_study_monitor

__all__ = [
    "ExperimentScale",
    "FIGURE_SCALE",
    "run_table_5_1",
    "run_fig_5_1",
    "run_fig_5_2_5_3",
    "run_monitoring_experiment",
    "run_fig_5_4_5_5",
    "run_fig_5_9",
    "run_message_baseline",
    "run_scenario",
    "format_table",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling how heavy the simulated experiments are."""

    process_counts: tuple[int, ...] = (2, 3, 4, 5)
    events_per_process: int = 6
    replications: int = 2
    evt_mu: float = 3.0
    evt_sigma: float = 1.0
    comm_mu: float | None = 3.0
    comm_sigma: float = 1.0
    base_seed: int = 2015
    #: per-state exploration budget of each monitor; the bounded setting
    #: reproduces the paper's lightweight behaviour on long workloads (the
    #: unbounded setting is used by the correctness test-suite instead).
    max_views_per_state: int | None = 2
    #: worker processes used to shard sweep execution.  ``1`` (the default)
    #: runs everything in-process; any higher value fans the full
    #: (sweep-point × replication) cell product out to a
    #: :class:`concurrent.futures.ProcessPoolExecutor`.  Every cell derives
    #: its own RNG seed from ``base_seed``, so results are byte-identical
    #: regardless of the worker count.
    workers: int = 1


DEFAULT_SCALE = ExperimentScale()

#: The scale of the figures as this repository reports them: the benchmark
#: suite's sweeps, ``docs/results.md`` and the CLI's defaults.  Large enough
#: to show the paper's trends, small enough to run in seconds.
FIGURE_SCALE = ExperimentScale(process_counts=(2, 3, 4))


# ---------------------------------------------------------------------------
# Table 5.1 and Fig 5.1: automaton transition counts
# ---------------------------------------------------------------------------
def run_table_5_1(
    process_counts: Sequence[int] = (2, 3, 4, 5),
    properties: Sequence[str] = PROPERTY_NAMES,
) -> list[dict[str, object]]:
    """Number of transitions per automaton (Table 5.1)."""
    rows: list[dict[str, object]] = []
    for name in properties:
        for n in process_counts:
            monitor = case_study_monitor(name, n)
            counts = monitor.transition_counts()
            rows.append(
                {
                    "property": name,
                    "processes": n,
                    "states": monitor.num_states,
                    "total": counts["total"],
                    "outgoing": counts["outgoing"],
                    "self_loops": counts["self_loops"],
                }
            )
    return rows


def run_fig_5_1(
    process_counts: Sequence[int] = (2, 3, 4, 5),
    properties: Sequence[str] = PROPERTY_NAMES,
) -> dict[str, dict[str, list[int]]]:
    """Series for Fig 5.1a (all transitions) and Fig 5.1b (outgoing only)."""
    table = run_table_5_1(process_counts, properties)
    all_series: dict[str, list[int]] = {name: [] for name in properties}
    outgoing_series: dict[str, list[int]] = {name: [] for name in properties}
    for row in table:
        all_series[row["property"]].append(row["total"])
        outgoing_series[row["property"]].append(row["outgoing"])
    return {"all_transitions": all_series, "outgoing_transitions": outgoing_series}


def run_fig_5_2_5_3(num_processes: int = 2) -> dict[str, str]:
    """Textual rendering of the monitor automata shown in Figures 5.2/5.3."""
    return {
        name: case_study_monitor(name, num_processes).describe()
        for name in ("A", "B", "D", "E", "F")
    }


# ---------------------------------------------------------------------------
# Simulated monitoring experiments (Figures 5.4 – 5.9)
# ---------------------------------------------------------------------------
def run_monitoring_experiment(
    property_name: str,
    num_processes: int,
    scale: ExperimentScale = DEFAULT_SCALE,
    comm_mu: float | None | str = "default",
    seed_offset: int = 0,
    scenario: str = "paper-default",
) -> dict[str, float]:
    """Run the monitored workload for one (property, process-count) point.

    Replicates the experiment ``scale.replications`` times with different
    trace seeds (as in Section 5.3, which averages three replications) and
    returns the averaged metrics.  A thin wrapper over the scenario engine:
    the point runs under *scenario* (default: the paper's own condition) and
    with ``scale.workers > 1`` its replications shard over a process pool,
    byte-identically to a serial run.
    """
    point = GridPoint(property_name, num_processes, comm_mu, seed_offset)
    return execute_points(get_scenario(scenario), [point], scale)[0]


def run_fig_5_4_5_5(
    properties: Sequence[str] = PROPERTY_NAMES,
    scale: ExperimentScale = DEFAULT_SCALE,
) -> list[dict[str, float]]:
    """Messages overhead vs. number of processes for all properties.

    Figure 5.4 plots properties A–C, Figure 5.5 properties D–F; both use the
    same experiment, so a single sweep covers them.  Figures 5.6–5.8 are
    columns of the same rows (the paper's ``delay_time_pct_per_view`` and
    ``monitor_extra_time``, ``delayed_events``, ``global_views``).  With
    ``scale.workers > 1`` the engine shards the full
    (property × process-count × replication) cell product across one process
    pool, keeping every worker busy for the whole sweep.
    """
    grid = SweepGrid(properties=tuple(properties))
    return execute_sweep(get_scenario("paper-default"), scale, grid=grid)


def run_fig_5_9(
    comm_mus: Sequence[float | None] = (3.0, 6.0, 9.0, 15.0, None),
    num_processes: int = 4,
    property_name: str = "C",
    scale: ExperimentScale = DEFAULT_SCALE,
) -> list[dict[str, float]]:
    """Effect of the communication frequency (Fig 5.9).

    Runs property C with 4 processes while varying ``Commμ``; ``None`` is the
    no-communication configuration.  Declared as a one-property grid with a
    ``comm_mus`` axis, so the engine shards its (Commμ × replication) cells
    just like any other sweep.
    """
    grid = SweepGrid(
        properties=(property_name,),
        process_counts=(num_processes,),
        comm_mus=tuple(comm_mus),
    )
    return execute_sweep(get_scenario("paper-default"), scale, grid=grid)


# ---------------------------------------------------------------------------
# Message baseline: the decentralized monitors against one central monitor
# ---------------------------------------------------------------------------
def run_message_baseline(
    properties: Sequence[str] = ("B", "C"),
    num_processes: int = 4,
    scale: ExperimentScale = DEFAULT_SCALE,
) -> list[dict[str, object]]:
    """Monitor messages of the decentralized run and of the centralized baseline.

    Replays the paper-default workload at one system size and returns, per
    property, a ``decentralized`` row (the simulated run's averaged token
    and termination messages) and a ``centralized`` row (one observation per
    program event plus the oracle's verdict broadcast, all in ``messages``),
    each with the verdicts declared over the replications.  Seeds follow the
    engine's scheme (``base_seed + 31*replication``), so rows are
    deterministic; ``docs/results.md`` prints them.
    """
    from ..core.centralized import CentralizedMonitor
    from ..sim.runner import simulate_monitored_run
    from .engine import cell_inputs

    scenario = get_scenario("paper-default")
    rows: list[dict[str, object]] = []
    for property_name in properties:
        cells = [
            cell_inputs(
                scenario,
                property_name,
                num_processes,
                events_per_process=scale.events_per_process,
                evt_mu=scale.evt_mu,
                evt_sigma=scale.evt_sigma,
                comm_mu=scale.comm_mu,
                comm_sigma=scale.comm_sigma,
                seed=scale.base_seed + 31 * rep,
            )
            for rep in range(max(1, scale.replications))
        ]
        reports = [
            simulate_monitored_run(
                computation,
                automaton,
                registry,
                seed=scale.base_seed + 31 * rep,
                max_views_per_state=scale.max_views_per_state,
                network=scenario.network,
            )
            for rep, (computation, automaton, registry) in enumerate(cells)
        ]
        results = [CentralizedMonitor.monitor_computation(*cell) for cell in cells]
        rows += [
            {
                "monitor": "decentralized",
                "property": property_name,
                "processes": num_processes,
                "messages": _avg(r.monitor_messages for r in reports),
                "token_messages": _avg(r.token_messages for r in reports),
                "termination_messages": _avg(r.termination_messages for r in reports),
                "declared": _verdicts(r.declared_verdicts for r in reports),
            },
            {
                "monitor": "centralized",
                "property": property_name,
                "processes": num_processes,
                "messages": _avg(r.total_messages for r in results),
                "token_messages": 0.0,
                "termination_messages": 0.0,
                "declared": _verdicts(r.verdicts for r in results),
            },
        ]
    return rows


def _verdicts(sets: Iterable[Iterable[object]]) -> str:
    """The verdicts of any of *sets*, sorted and joined (``-``: none)."""
    return "".join(sorted({str(v) for verdicts in sets for v in verdicts})) or "-"


def _avg(values: Iterable[float]) -> float:
    """Arithmetic mean of an iterable of numbers (0.0 when empty)."""
    items = list(values)
    return sum(items) / len(items) if items else 0.0


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------
def format_table(
    rows: Sequence[dict[str, object]], columns: Sequence[str] | None = None
) -> str:
    """Render a list of row dictionaries as an aligned text table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "  ".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(
            "  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
