"""The six workloads: their pinned inputs and how one pass over them runs.

Every workload is a fixed list of monitored sessions.  The *traces* are part
of the workload's definition — each was chosen for the layer it stresses (see
``perf/README.md``) and cost per event varies 100x between trace seeds, so a
trace drawn from ``--seed`` would turn every metric into a property of the
draw.  What ``--seed`` draws is the run's own randomness: the network's
latency jitter on the four workloads that have a network model, and the order
in which the tenants are admitted on the two fleet workloads (their standalone
reference path exposes no delay model).

All sessions use ``max_views_per_state=2``, the ``round-robin-token``
topology, the compiled kernel and ``ExperimentScale``'s default rates, like
every experiment of the repository.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import random
import time
from dataclasses import dataclass, field

from repro.experiments.engine import trace_design
from repro.experiments.harness import ExperimentScale
from repro.experiments.properties import case_study_monitor, case_study_registry
from repro.fleet import FleetConfig, TenantSpec, run_fleet, synthetic_fleet
from repro.fleet.engine import shard_of, standalone_tenant_result
from repro.fleet.sources import computation_to_records
from repro.runtime.runner import run_streaming
from repro.scenarios import get_scenario
from repro.sim.runner import simulate_monitored_run
from repro.sim.workload import generate_computation

from . import spec

__all__ = [
    "Cell",
    "CELLS",
    "TENANTS",
    "SHARDS",
    "Session",
    "Prepared",
    "Outcome",
    "fingerprint",
    "prepare",
    "run_pass",
    "shard_skew",
]

_SCALE = ExperimentScale()
_MAX_VIEWS = 2
_QUIESCE_TIMEOUT_S = 60.0

#: tenants of the two fleet workloads (``synthetic_fleet`` at seed 2015)
TENANTS = 24
#: shards of ``fleet-mux`` = cores of the reference box
SHARDS = 2


@dataclass(frozen=True)
class Cell:
    """One pinned trace: a case-study property at a size and trace seed."""

    property_name: str
    num_processes: int
    events_per_process: int
    trace_seed: int = spec.DEFAULT_SEED


#: workload -> (runner, pinned traces); the fleet workloads derive theirs
CELLS: dict[str, tuple[str, tuple[Cell, ...]]] = {
    "token-heavy": ("sim", (Cell("C", 4, 20),)),
    "box-heavy": ("sim", (Cell("F", 4, 4), Cell("F", 4, 4, 2046), Cell("F", 4, 5))),
    "long-trace": ("sim", (Cell("B", 5, 40),)),
    "wire-tcp": ("tcp", (Cell("B", 4, 18),)),
    "short-sessions": ("standalone", ()),
    "fleet-mux": ("fleet", ()),
}


@dataclass
class Session:
    """One prepared session: its identity, its input and the input's hash."""

    session_id: str
    property_name: str
    num_processes: int
    events: int
    fingerprint: str
    #: sim / tcp sessions replay this; tenants regenerate theirs from the spec
    computation: object = None
    tenant: TenantSpec | None = None


@dataclass
class Prepared:
    """Everything set-up produces: the inputs of one run, ready to replay."""

    workload: str
    runner: str
    seed: int
    sessions: list[Session]
    #: seconds and sizes of the set-up steps (per-layer ``ltl.*`` / ``sim.workload.*``)
    setup: dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one session execution reported, reduced to what the checks need."""

    session_id: str
    events: int
    messages: int
    views: int
    #: sorted conclusive verdicts the monitors declared
    declared: tuple[str, ...]
    #: everything that must repeat exactly when the same session runs again
    key: tuple
    wall_s: float
    #: non-empty when the session itself broke (raised, evicted, not quiescent ...)
    error: str = ""
    #: virtual program time and monitor extra time (simulated sessions only)
    program_s: float = 0.0
    extra_s: float = 0.0


def fingerprint(computation) -> str:
    """SHA-256 of the computation's canonical event-log records."""
    records = computation_to_records(computation)
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _generate(cell: Cell):
    scenario = get_scenario("paper-default")
    initial_valuation, truth_probability = trace_design(cell.property_name)
    config = scenario.workload.build_config(
        num_processes=cell.num_processes,
        events_per_process=cell.events_per_process,
        evt_mu=_SCALE.evt_mu,
        evt_sigma=_SCALE.evt_sigma,
        comm_mu=_SCALE.comm_mu,
        comm_sigma=_SCALE.comm_sigma,
        truth_probability=truth_probability,
        initial_valuation=dict(initial_valuation),
        seed=cell.trace_seed,
    )
    return generate_computation(config)


def prepare(workload: str, seed: int, tenants: int = TENANTS) -> Prepared:
    """Synthesize and compile the monitors and generate every session's input."""
    runner, cells = CELLS[workload]
    setup = {"synthesis_s": 0.0, "compile_s": 0.0, "generate_s": 0.0}
    automata: dict[tuple[str, int], object] = {}

    def automaton_for(property_name: str, n: int) -> None:
        if (property_name, n) in automata:
            return
        started = time.perf_counter()
        automaton = case_study_monitor(property_name, n)
        synthesized = time.perf_counter()
        automaton.compiled  # noqa: B018 - the lazy property compiles the machine
        setup["synthesis_s"] += synthesized - started
        setup["compile_s"] += time.perf_counter() - synthesized
        automata[(property_name, n)] = automaton

    sessions: list[Session] = []

    def add(session_id: str, property_name: str, n: int, generate, tenant=None) -> None:
        automaton_for(property_name, n)
        started = time.perf_counter()
        computation = generate()
        setup["generate_s"] += time.perf_counter() - started
        sessions.append(
            Session(
                session_id=session_id,
                property_name=property_name,
                num_processes=n,
                events=computation.num_events,
                fingerprint=fingerprint(computation),
                computation=computation,
                tenant=tenant,
            )
        )

    for cell in cells:
        add(
            f"{cell.property_name}-n{cell.num_processes}"
            f"-epp{cell.events_per_process}-trace{cell.trace_seed}",
            cell.property_name,
            cell.num_processes,
            lambda cell=cell: _generate(cell),
        )
    if not cells:
        fleet = [
            dataclasses.replace(tenant, max_views_per_state=_MAX_VIEWS)
            for tenant in synthetic_fleet(
                tenants, num_processes=3, events_per_process=4, base_seed=spec.DEFAULT_SEED
            )
        ]
        random.Random(seed).shuffle(fleet)
        for tenant in fleet:
            add(
                f"{tenant.tenant_id}-{tenant.property_name}-seed{tenant.seed}",
                tenant.property_name,
                tenant.num_processes,
                lambda tenant=tenant: asyncio.run(
                    tenant.source.load(
                        num_processes=tenant.num_processes,
                        events_per_process=tenant.events_per_process,
                        property_name=tenant.property_name,
                        seed=tenant.seed,
                    )
                ),
                tenant,
            )
    events = sum(session.events for session in sessions)
    communications = sum(
        1
        for session in sessions
        for event in session.computation.all_events()
        if not event.is_internal
    )
    setup["states"] = float(sum(a.num_states for a in automata.values()))
    setup["table_entries"] = float(sum(len(a.compiled.table) for a in automata.values()))
    setup["events"] = float(events)
    setup["comm_share"] = communications / events
    return Prepared(workload, runner, seed, sessions, setup)


def _declared(verdicts) -> tuple[str, ...]:
    return tuple(sorted(str(verdict) for verdict in verdicts))


def _report_outcome(session: Session, report, wall_s: float) -> Outcome:
    """Reduce a simulation / runtime report and check its own invariants."""
    error = ""
    parts = report.token_messages + report.termination_messages + report.digest_messages
    if report.monitor_messages != parts:
        error = f"monitor_messages {report.monitor_messages} != token+termination+digest {parts}"
    elif not all(monitor.is_quiescent for monitor in report.monitors):
        error = "ended non-quiescent"
    declared = _declared(report.declared_verdicts)
    return Outcome(
        session_id=session.session_id,
        events=report.total_events,
        messages=report.monitor_messages,
        views=report.total_global_views,
        declared=declared,
        key=(report.total_events, report.monitor_messages, report.total_global_views, declared),
        wall_s=wall_s,
        error=error,
        program_s=report.program_end_time,
        extra_s=report.monitor_extra_time,
    )


def _tenant_outcome(session: Session, result) -> Outcome:
    """Reduce a fleet ``TenantResult`` (standalone or multiplexed)."""
    declared = tuple(sorted({v for seq in result.verdict_sequence for v in seq.split()}))
    return Outcome(
        session_id=session.session_id,
        events=result.events,
        messages=result.monitor_messages,
        views=result.global_views,
        declared=declared,
        key=result.equivalence_key(),
        wall_s=result.latency_seconds,
        error=result.error,
    )


def _failed(session: Session, error: BaseException, wall_s: float) -> Outcome:
    return Outcome(
        session_id=session.session_id,
        events=session.events,
        messages=0,
        views=0,
        declared=(),
        key=("raised",),
        wall_s=wall_s,
        error=f"{type(error).__name__}: {error}",
    )


def run_pass(prepared: Prepared, runner: str | None = None) -> tuple[list[Outcome], dict]:
    """Run every session of the workload once, in order; never raises.

    *runner* overrides the workload's own (``fleet-mux`` replays its tenants
    through ``"standalone"`` to obtain its reference results).  Returns the
    outcomes and the runner's own counters (the fleet report's, else empty).
    """
    runner = runner or prepared.runner
    network = get_scenario("paper-default").network
    outcomes: list[Outcome] = []
    extras: dict[str, float] = {}
    if runner == "fleet":
        config = FleetConfig(
            tenants=tuple(session.tenant for session in prepared.sessions),
            shards=SHARDS,
            quiesce_timeout=_QUIESCE_TIMEOUT_S,
        )
        started = time.perf_counter()
        try:
            report = run_fleet(config)
        except Exception as error:  # noqa: BLE001 - a failed pass is a result
            wall = time.perf_counter() - started
            return [_failed(session, error, wall) for session in prepared.sessions], extras
        by_id = {result.tenant_id: result for result in report.results}
        outcomes = [
            _tenant_outcome(session, by_id[session.tenant.tenant_id])
            for session in prepared.sessions
        ]
        extras = {
            "events_blocked": float(report.events_blocked),
            "events_dropped": float(report.events_dropped),
            "tenants_evicted": float(report.tenants_evicted),
        }
        return outcomes, extras
    for index, session in enumerate(prepared.sessions):
        net_seed = prepared.seed + 31 * index
        started = time.perf_counter()
        try:
            if runner == "standalone":
                result = standalone_tenant_result(
                    session.tenant, quiesce_timeout=_QUIESCE_TIMEOUT_S
                )
                outcomes.append(_tenant_outcome(session, result))
                continue
            automaton = case_study_monitor(session.property_name, session.num_processes)
            registry = case_study_registry(session.num_processes)
            if runner == "sim":
                report = simulate_monitored_run(
                    session.computation,
                    automaton,
                    registry,
                    seed=net_seed,
                    max_views_per_state=_MAX_VIEWS,
                    network=network,
                )
            else:
                report = run_streaming(
                    session.computation,
                    automaton,
                    registry,
                    delay=network.delay_model(net_seed),
                    max_views_per_state=_MAX_VIEWS,
                    transport="tcp",
                    quiesce_timeout=_QUIESCE_TIMEOUT_S,
                )
            outcomes.append(
                _report_outcome(session, report, time.perf_counter() - started)
            )
        except Exception as error:  # noqa: BLE001 - a failed session is a result
            outcomes.append(_failed(session, error, time.perf_counter() - started))
    return outcomes, extras


def shard_skew(prepared: Prepared) -> float:
    """Busiest shard's events over the mean shard's, minus one (0 = even)."""
    loads = [0] * SHARDS
    for session in prepared.sessions:
        loads[shard_of(session.tenant.tenant_id, SHARDS)] += session.events
    return max(loads) / (sum(loads) / SHARDS) - 1.0
