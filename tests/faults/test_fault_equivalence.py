"""The fault-injection acceptance properties, engine and CLI integration.

Two properties gate this subsystem (both hypothesis-tested here):

1. **Fault-free plans are invisible**: running with ``faults=None``, an empty
   :class:`FaultPlan` or a plan naming only out-of-range monitors produces
   byte-identical reports — the no-op path never wraps a monitor.
2. **Backends agree under faults**: for a fixed seed and fault schedule, the
   discrete-event simulator and the asyncio streaming runtime declare the
   same verdicts — crash triggers live in local-event space, so a plan means
   the same thing on both.
"""

import json
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionConfig, ExperimentScale, run_scenario, run_streaming
from repro.experiments.engine import cell_inputs, run_scenario_cell
from repro.experiments.properties import case_study_registry
from repro.faults import CrashSpec, FaultPlan, MonitorFaultProxy, parse_fault_plan
from repro.ltl import Verdict, build_monitor
from repro.scenarios import GridPoint, get_scenario, list_scenarios
from repro.sim import random_computation, simulate_monitored_run

REPO_ROOT = Path(__file__).resolve().parents[2]

FORMULAS = ["F(P0.p & P1.p)", "G(P0.p U P1.q)", "G(!(P0.p & P1.q))"]

SMALL_SCALE = ExperimentScale(
    process_counts=(2, 3),
    events_per_process=4,
    replications=2,
    max_views_per_state=2,
)

#: the registered scenarios whose ``faults`` field is set
FAULT_SCENARIOS = (
    "crash-restart-replay",
    "crash-restart-rejoin",
    "crash-storm",
    "partitioned-crash",
)


def _case(num_processes, events, seed, formula_index):
    registry = case_study_registry(num_processes)
    automaton = build_monitor(FORMULAS[formula_index], atoms=registry.names)
    computation = random_computation(num_processes, events, seed=seed)
    return computation, automaton, registry


def crash_specs(num_processes):
    """Strategy for one valid crash cycle inside a *num_processes* system."""
    return st.builds(
        CrashSpec,
        process=st.integers(min_value=0, max_value=num_processes - 1),
        after_events=st.integers(min_value=1, max_value=6),
        down_events=st.integers(min_value=0, max_value=4),
        recovery=st.sampled_from(["replay", "rejoin"]),
    )


class TestFaultFreePlansAreByteIdentical:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        formula_index=st.integers(min_value=0, max_value=2),
        noop_faults=st.sampled_from(["none", "empty", "out-of-range"]),
    )
    def test_sim_reports_byte_identical(self, seed, formula_index, noop_faults):
        computation, automaton, registry = _case(3, 20, seed, formula_index)
        faults = {
            "none": None,
            "empty": FaultPlan(),
            "out-of-range": FaultPlan((CrashSpec(process=9, after_events=1),)),
        }[noop_faults]
        baseline = simulate_monitored_run(computation, automaton, registry, seed=seed)
        report = simulate_monitored_run(
            computation, automaton, registry, seed=seed, faults=faults
        )
        assert json.dumps(report.as_dict(), sort_keys=True) == json.dumps(
            baseline.as_dict(), sort_keys=True
        )

    def test_streaming_report_row_identical_for_noop_plan(self):
        computation, automaton, registry = _case(3, 15, seed=5, formula_index=0)
        baseline = run_streaming(computation, automaton, registry)
        report = run_streaming(computation, automaton, registry, faults=FaultPlan())
        base_row, row = baseline.as_dict(), report.as_dict()
        # wall-clock timing is the only legitimately nondeterministic column
        for entry in (base_row, row):
            entry.pop("wall_seconds", None)
        assert json.dumps(row, sort_keys=True) == json.dumps(base_row, sort_keys=True)

    def test_engine_cell_byte_identical_under_noop_override(self):
        scenario = get_scenario("paper-default")
        point = GridPoint("B", 3)
        baseline = run_scenario_cell(scenario, point, SMALL_SCALE, seed=2015)
        cell = run_scenario_cell(
            scenario,
            point,
            SMALL_SCALE,
            seed=2015,
            config=ExecutionConfig(fault_plan=FaultPlan()),
        )
        assert json.dumps(cell, sort_keys=True) == json.dumps(baseline, sort_keys=True)


class TestBackendsAgreeUnderFaults:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        formula_index=st.integers(min_value=0, max_value=2),
        specs=st.lists(crash_specs(3), min_size=1, max_size=3),
    )
    def test_sim_and_asyncio_declare_identical_verdicts(
        self, seed, formula_index, specs
    ):
        try:
            plan = FaultPlan(tuple(specs))
        except ValueError:
            return  # overlapping cycles: not a valid plan, nothing to compare
        computation, automaton, registry = _case(3, 20, seed, formula_index)
        simulated = simulate_monitored_run(
            computation, automaton, registry, seed=seed, faults=plan
        )
        streamed = run_streaming(computation, automaton, registry, faults=plan)
        assert streamed.declared_verdicts == simulated.declared_verdicts, (
            f"backends diverged for seed {seed}, plan {plan}"
        )
        # the plan triggered identically too: local-event space is shared
        assert streamed.fault_stats["fault_crashes"] == (
            simulated.fault_stats["fault_crashes"]
        )
        assert streamed.fault_stats["fault_restarts"] == (
            simulated.fault_stats["fault_restarts"]
        )

    def test_crashes_preserve_verdicts_against_fault_free_run(self):
        # crashing monitors delays verdicts but must never change them:
        # channels stay reliable and recovery policies preserve soundness
        computation, automaton, registry = _case(3, 30, seed=42, formula_index=0)
        baseline = simulate_monitored_run(computation, automaton, registry, seed=42)
        for recovery in ("replay", "rejoin"):
            plan = FaultPlan(
                (
                    CrashSpec(1, after_events=2, down_events=2, recovery=recovery),
                    CrashSpec(0, after_events=3, down_events=1, recovery=recovery),
                )
            )
            report = simulate_monitored_run(
                computation, automaton, registry, seed=42, faults=plan
            )
            assert report.declared_verdicts == baseline.declared_verdicts
            assert report.fault_stats["fault_crashes"] > 0

    def test_fault_schedule_agrees_on_tcp_transport_too(self):
        computation, automaton, registry = _case(3, 15, seed=23, formula_index=0)
        plan = FaultPlan((CrashSpec(0, after_events=2, down_events=2),))
        memory = run_streaming(computation, automaton, registry, faults=plan)
        tcp = run_streaming(
            computation, automaton, registry, faults=plan, transport="tcp"
        )
        assert tcp.declared_verdicts == memory.declared_verdicts
        assert tcp.fault_stats["fault_crashes"] == memory.fault_stats["fault_crashes"]


def _paper_default_inputs(property_name, num_processes, seed):
    return cell_inputs(
        get_scenario("paper-default"),
        property_name,
        num_processes,
        events_per_process=6,
        evt_mu=3,
        evt_sigma=1,
        comm_mu=3,
        comm_sigma=1,
        seed=seed,
    )


def _verdicts_of_declared_states(monitor):
    bits = monitor.declared_bits
    return {monitor.automaton.verdict(q) for q in range(bits.bit_length()) if bits >> q & 1}


class TestRejoinKeepsTheDeclarations:
    """A fresh incarnation inherits its predecessor's verdict log with its
    declared states, so the report's verdict sequence keeps what the monitor
    declared before it crashed."""

    @pytest.mark.parametrize("backend", ["sim", "asyncio"])
    def test_the_verdict_sequence_survives_a_rejoin(self, backend, monkeypatch):
        # B n=2 seed 2021: monitor 0 declares ⊤ before its crash on both
        # backends (seed 2016 stopped exercising that once monitors settle on
        # the declarations they hear: its ⊤ reached a monitor as news)
        rejoin, crashed_with = MonitorFaultProxy._rejoin_from_scratch, []
        monkeypatch.setattr(
            MonitorFaultProxy, "_rejoin_from_scratch",
            lambda proxy: crashed_with.append(list(proxy.monitor.verdict_log)) or rejoin(proxy),
        )
        inputs = _paper_default_inputs("B", 2, 2021)
        plan = parse_fault_plan("0@6+1:rejoin")
        if backend == "sim":
            network = get_scenario("paper-default").network
            report = simulate_monitored_run(
                *inputs, seed=2021, max_views_per_state=2, network=network, faults=plan
            )
        else:
            report = run_streaming(*inputs, max_views_per_state=2, faults=plan)
        assert report.fault_stats["fault_restarts"] == 1
        assert crashed_with == [[Verdict.TOP]]
        assert report.verdict_sequence() == ("⊤", "⊤")
        for monitor in report.monitors:
            assert set(monitor.verdict_log) == monitor.declared_verdicts
            assert monitor.declared_verdicts == _verdicts_of_declared_states(monitor)

    @pytest.mark.parametrize("property_name", "ABCDEF")
    def test_every_declared_state_has_its_verdict_logged(self, property_name):
        network = get_scenario("paper-default").network
        for n, seed, after in product((2, 3), range(2015, 2025), (2, 4, 6)):
            plan = parse_fault_plan(f"0@{after}+1:rejoin")
            report = simulate_monitored_run(
                *_paper_default_inputs(property_name, n, seed),
                seed=seed, max_views_per_state=2, network=network, faults=plan,
            )
            for monitor in report.monitors:
                logged = set(monitor.verdict_log)
                assert logged == _verdicts_of_declared_states(monitor), (n, seed, after)


class TestFaultScenarios:
    def test_at_least_four_fault_scenarios_registered(self):
        with_faults = [s.name for s in list_scenarios() if s.faults is not None]
        assert len(with_faults) >= 4
        for name in FAULT_SCENARIOS:
            assert name in with_faults

    @pytest.mark.parametrize("name", FAULT_SCENARIOS)
    def test_fault_scenarios_execute_and_report_fault_columns(self, name):
        scale = ExperimentScale(
            process_counts=(3,),
            events_per_process=4,
            replications=2,
            max_views_per_state=2,
        )
        rows = run_scenario(name, scale)
        assert rows
        for row in rows:
            assert "fault_crashes" in row
            assert "fault_restarts" in row
        # the plans actually fired somewhere across the sweep
        assert any(row["fault_crashes"] > 0 for row in rows)

    def test_fault_scenarios_shard_identically(self):
        serial = ExperimentScale(
            process_counts=(3,), events_per_process=4, replications=2,
            max_views_per_state=2, workers=1,
        )
        sharded = ExperimentScale(
            process_counts=(3,), events_per_process=4, replications=2,
            max_views_per_state=2, workers=2,
        )
        rows_serial = run_scenario("crash-restart-replay", serial)
        rows_sharded = run_scenario("crash-restart-replay", sharded)
        assert json.dumps(rows_serial, sort_keys=True) == json.dumps(
            rows_sharded, sort_keys=True
        )

    def test_describe_embeds_fault_metadata(self):
        description = get_scenario("crash-restart-rejoin").describe()
        assert description["faults"]["kind"] == "single-crash"
        assert description["faults"]["recovery"] == "rejoin"
        assert get_scenario("paper-default").describe()["faults"] is None

    def test_explicit_fault_plan_overrides_scenario_model(self):
        scenario = get_scenario("crash-storm")
        point = GridPoint("B", 3)
        override = FaultPlan((CrashSpec(process=9, after_events=1),))  # no-op
        baseline = run_scenario_cell(
            get_scenario("paper-default"), point, SMALL_SCALE, seed=7
        )
        cell = run_scenario_cell(
            scenario,
            point,
            SMALL_SCALE,
            seed=7,
            config=ExecutionConfig(fault_plan=override),
        )
        # the override silenced the storm: identical to the fault-free cell
        assert json.dumps(cell, sort_keys=True) == json.dumps(baseline, sort_keys=True)


class TestCliFaultPlan:
    def _run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", *argv],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )

    def test_run_fault_plan_smoke(self):
        result = self._run_cli(
            "run",
            "--scenario",
            "paper-default",
            "--fault-plan",
            "0@2+1:rejoin",
            "--processes",
            "3",
            "--events",
            "4",
            "--replications",
            "1",
        )
        assert result.returncode == 0, result.stderr
        assert "fault plan override: 0@2+1:rejoin" in result.stdout

    def test_run_fault_scenario_smoke(self):
        result = self._run_cli(
            "run",
            "--scenario",
            "crash-restart-replay",
            "--processes",
            "3",
            "--events",
            "4",
            "--replications",
            "1",
        )
        assert result.returncode == 0, result.stderr
        assert "crash-restart-replay" in result.stdout

    def test_invalid_fault_plan_rejected(self):
        result = self._run_cli(
            "run", "--scenario", "paper-default", "--fault-plan", "nonsense"
        )
        assert result.returncode != 0
        assert "invalid fault spec" in result.stderr

    def test_list_scenarios_shows_fault_columns(self):
        result = self._run_cli("list-scenarios")
        assert result.returncode == 0, result.stderr
        header = result.stdout.splitlines()[1]
        assert "faults" in header
        assert "recovery" in header
        assert "single-crash" in result.stdout
        assert "rolling-crash" in result.stdout
        assert "rejoin" in result.stdout

    def test_parse_fault_plan_matches_cli_grammar_documentation(self):
        # the help text advertises this exact example
        plan = parse_fault_plan("1@4+2:rejoin")
        (spec,) = plan.crashes
        assert (spec.process, spec.after_events, spec.down_events) == (1, 4, 2)
