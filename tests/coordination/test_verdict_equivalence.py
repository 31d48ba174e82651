"""Verdict equivalence across backends, with and without faults.

For fixed seeds the monitors must

1. declare only verdicts the centralized lattice oracle confirms
   (soundness, per backend),
2. declare the same verdicts on the simulator, the asyncio streaming
   runtime and the cluster backend with real worker processes (backend
   agreement),

including under a crash/restart fault plan and an armed Byzantine
duplication plan (both injected through ``MonitorFaultProxy``).
"""

import pytest

from repro.api import cluster_monitored_run, run_streaming
from repro.cluster.spec import RunSpec, build_cell_inputs
from repro.core.centralized import CentralizedMonitor
from repro.faults import ByzantineSpec, FaultPlan, parse_fault_plan
from repro.scenarios import get_scenario
from repro.sim import simulate_monitored_run

PROPERTIES = ("B", "C")


def _spec(property_name, seed=2015):
    return RunSpec(
        scenario="paper-default",
        property_name=property_name,
        num_processes=3,
        events_per_process=4,
        evt_mu=3.0,
        evt_sigma=1.0,
        comm_mu=3.0,
        comm_sigma=1.0,
        seed=seed,
        max_views_per_state=2,
    )


def _simulate(cell, seed=2015, faults=None):
    computation, automaton, registry = cell
    return simulate_monitored_run(
        computation,
        automaton,
        registry,
        seed=seed,
        network=get_scenario("paper-default").network,
        max_views_per_state=2,
        faults=faults,
    )


def _oracle(cell):
    computation, automaton, registry = cell
    return CentralizedMonitor.monitor_computation_declared(
        computation, automaton, registry
    )


@pytest.mark.parametrize("property_name", PROPERTIES)
def test_sim_asyncio_and_cluster_declare_identical_sound_verdicts(property_name):
    spec = _spec(property_name)
    cell = build_cell_inputs(spec)
    simulated = _simulate(cell)
    streamed = run_streaming(*cell, max_views_per_state=2)
    clustered = cluster_monitored_run(spec)
    assert simulated.declared_verdicts <= _oracle(cell), (
        f"unsound verdict on {property_name}"
    )
    assert streamed.declared_verdicts == simulated.declared_verdicts, (
        f"asyncio diverged from sim on {property_name}"
    )
    assert clustered.declared_verdicts == simulated.declared_verdicts, (
        f"cluster diverged from sim on {property_name}"
    )


@pytest.mark.parametrize("property_name", PROPERTIES)
def test_crash_restart_plan_preserves_backend_agreement(property_name):
    plan = parse_fault_plan("0@2+1:rejoin")
    cell = build_cell_inputs(_spec(property_name))
    simulated = _simulate(cell, faults=plan)
    streamed = run_streaming(*cell, max_views_per_state=2, faults=plan)
    assert simulated.fault_stats["fault_crashes"] >= 1
    assert simulated.declared_verdicts <= _oracle(cell)
    assert streamed.declared_verdicts == simulated.declared_verdicts
    assert streamed.fault_stats["fault_crashes"] == (
        simulated.fault_stats["fault_crashes"]
    )


@pytest.mark.parametrize("process", [0, 1, 2])
def test_byzantine_duplication_stays_sound(process):
    # every other inbound frame of one monitor arrives twice: duplicated
    # termination notices and tokens must never change what gets declared
    plan = FaultPlan(byzantine=(ByzantineSpec(process=process, duplicate_every=2),))
    cell = build_cell_inputs(_spec("B"))
    report = _simulate(cell, faults=plan)
    assert report.fault_stats["fault_byz_duplicated"] >= 1
    assert report.declared_verdicts <= _oracle(cell)
