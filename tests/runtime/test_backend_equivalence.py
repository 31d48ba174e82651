"""Cross-backend equivalence: sim and asyncio backends agree on verdicts.

The acceptance criterion of the streaming backend: for fixed seeds, running
a registered scenario on ``--backend asyncio`` produces verdicts identical
to the discrete-event simulator.  Both backends share one monitor
implementation and deliver reliably in FIFO order per channel, so the
conclusive (⊤/⊥) verdicts must coincide — only timing/queuing metrics may
differ.  These tests exercise the full scenario path (workload model →
computation, network model → delay shaping) on three registered scenarios
plus the engine- and CLI-level integration.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import BACKENDS, ExecutionConfig, ExperimentScale, run_streaming
from repro.experiments.engine import (
    execute_points,
    run_scenario,
    run_scenario_cell,
    trace_design,
)
from repro.experiments.properties import case_study_monitor, case_study_registry
from repro.scenarios import GridPoint, get_scenario
from repro.sim import generate_computation, simulate_monitored_run

REPO_ROOT = Path(__file__).resolve().parents[2]

#: the three registered scenarios the acceptance criterion is checked on,
#: covering the paper baseline, a deterministic network and a degraded one
EQUIVALENCE_SCENARIOS = ("paper-default", "fixed-latency", "lossy-retransmit")

SMALL_SCALE = ExperimentScale(
    process_counts=(2, 3),
    events_per_process=4,
    replications=2,
    max_views_per_state=2,
)


def _scenario_computation(scenario, property_name, num_processes, seed):
    """Build the exact computation a sweep cell would monitor."""
    initial_valuation, truth_probability = trace_design(property_name)
    config = scenario.workload.build_config(
        num_processes=num_processes,
        events_per_process=5,
        evt_mu=3.0,
        evt_sigma=1.0,
        comm_mu=3.0,
        comm_sigma=1.0,
        truth_probability=truth_probability,
        initial_valuation=dict(initial_valuation),
        seed=seed,
    )
    return generate_computation(config)


class TestVerdictEquivalence:
    @pytest.mark.parametrize("scenario_name", EQUIVALENCE_SCENARIOS)
    @pytest.mark.parametrize("seed", [2015, 77])
    @pytest.mark.parametrize("property_name", ["B", "C"])
    def test_backends_declare_identical_verdicts(
        self, scenario_name, seed, property_name
    ):
        scenario = get_scenario(scenario_name)
        num_processes = 3
        computation = _scenario_computation(
            scenario, property_name, num_processes, seed
        )
        registry = case_study_registry(num_processes)
        automaton = case_study_monitor(property_name, num_processes)
        simulated = simulate_monitored_run(
            computation,
            automaton,
            registry,
            seed=seed,
            network=scenario.network,
        )
        streamed = run_streaming(
            computation,
            automaton,
            registry,
            delay=scenario.network.delay_model(seed),
        )
        assert streamed.declared_verdicts == simulated.declared_verdicts, (
            f"backends diverged for {scenario_name}, seed {seed}, "
            f"property {property_name}"
        )

    def test_hot_spot_workload_equivalent_on_both_backends(self):
        # a fourth scenario with a non-paper workload shape
        scenario = get_scenario("hot-spot")
        computation = _scenario_computation(scenario, "B", 3, seed=5)
        registry = case_study_registry(3)
        automaton = case_study_monitor("B", 3)
        simulated = simulate_monitored_run(
            computation, automaton, registry, seed=5, network=scenario.network
        )
        streamed = run_streaming(
            computation, automaton, registry, delay=scenario.network.delay_model(5)
        )
        assert streamed.declared_verdicts == simulated.declared_verdicts


class TestEngineBackends:
    def test_backends_constant_names_all_executable(self):
        assert BACKENDS == ("sim", "asyncio", "cluster")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionConfig(backend="quantum")

    def test_asyncio_cells_produce_sweep_metrics(self):
        scenario = get_scenario("lossy-retransmit")
        cell = run_scenario_cell(
            scenario,
            GridPoint("B", 2),
            SMALL_SCALE,
            seed=2015,
            config=ExecutionConfig(backend="asyncio"),
        )
        for key in (
            "events",
            "messages",
            "token_messages",
            "global_views",
            "delayed_events",
            "delay_time_pct_per_view",
            "retransmissions",
        ):
            assert key in cell
        # both backends monitor the identical generated trace
        sim_cell = run_scenario_cell(
            scenario, GridPoint("B", 2), SMALL_SCALE, seed=2015
        )
        assert cell["events"] == sim_cell["events"]

    def test_asyncio_rows_have_sim_row_shape(self):
        rows_sim = run_scenario("paper-default", SMALL_SCALE)
        rows_asyncio = run_scenario(
            "paper-default", SMALL_SCALE, config=ExecutionConfig(backend="asyncio")
        )
        assert len(rows_sim) == len(rows_asyncio)
        for sim_row, asyncio_row in zip(rows_sim, rows_asyncio):
            assert set(sim_row) == set(asyncio_row)
            assert sim_row["property"] == asyncio_row["property"]
            assert sim_row["processes"] == asyncio_row["processes"]
            assert sim_row["events"] == asyncio_row["events"]

    def test_asyncio_backend_runs_sharded(self):
        scenario = get_scenario("paper-default")
        points = [GridPoint("B", 2), GridPoint("E", 2)]
        sharded_scale = ExperimentScale(
            process_counts=(2,),
            events_per_process=4,
            replications=2,
            max_views_per_state=2,
            workers=2,
        )
        rows = execute_points(
            scenario,
            points,
            sharded_scale,
            config=ExecutionConfig(backend="asyncio"),
        )
        assert len(rows) == 2
        assert all(row["events"] > 0 for row in rows)


class TestCliBackendFlag:
    def _run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", *argv],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )

    def test_run_backend_asyncio_smoke(self):
        result = self._run_cli(
            "run",
            "--scenario",
            "fixed-latency",
            "--backend",
            "asyncio",
            "--processes",
            "2",
            "--events",
            "3",
            "--replications",
            "1",
        )
        assert result.returncode == 0, result.stderr
        assert "backend asyncio" in result.stdout
        assert "fixed-latency" in result.stdout
