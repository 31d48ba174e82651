"""The one session seam: schedule order, one report, one of each in ``src``.

* the schedule a :class:`MonitorSession` produces, fired in order on a
  :class:`Simulator`, visits events and terminations exactly as the
  simulator runner's insertion-order tie-break always did (the reference
  below is that runner's scheduling loop, kept here);
* a sim run and an asyncio run of the same cell return the same
  :class:`RunReport` on everything a schedule cannot change, and differ only
  in the documented backend fields;
* the simulator over zero-latency links (the untimed run) fills that report
  with what the round-robin fixture's runner half pins;
* structurally, ``src/repro`` has one monitor constructor call, one clock
  skew call, one termination epsilon, one class with the report's derived
  properties, no kernel knob, no second in-memory runner, sessions built
  only by the three drivers and the fleet, and no numpy.
"""

import ast
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_streaming
from repro.cluster.spec import RunSpec, build_cell_inputs
from repro.core.monitor import MonitorMetrics
from repro.distributed.computation import ComputationBuilder
from repro.ltl import build_monitor
from repro.ltl.predicates import PropositionRegistry
from repro.scenarios import ReliableNetwork, get_scenario
from repro.session import EVENT, MonitorSession, RunReport
from repro.sim import Simulator, simulate_monitored_run

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
sys.path.insert(0, str(REPO_ROOT / "tools"))

from capture_topology_fixtures import (  # noqa: E402
    CELLS,
    FIXTURE_PATH,
    build_cell_inputs as fixture_cell_inputs,
    declared_states,
)

#: few distinct instants, two of them one termination-epsilon apart, so
#: events tie with events and with other processes' terminations
_INSTANTS = (1.0, 1.0 + 1e-6, 2.0, 2.0 + 1e-6, 3.0)


class _NullTransport:
    def send(self, sender, target, message):
        raise AssertionError("nothing is started, so nothing may be sent")


def _head_order(computation):
    """What the pre-session simulator runner fired, in firing order."""
    simulator = Simulator()
    fired = []
    n = computation.num_processes
    last_time = [0.0] * n
    for event in computation.all_events():
        last_time[event.process] = max(last_time[event.process], event.timestamp)
        simulator.schedule_at(
            event.timestamp,
            lambda e=event: fired.append((simulator.now, "event", e.process, e.sn)),
        )
    for i in range(n):
        simulator.schedule_at(0.0, lambda i=i: fired.append((0.0, "start", i, 0)))
        simulator.schedule_at(
            last_time[i] + 1e-6,
            lambda i=i: fired.append((simulator.now, "termination", i, 0)),
        )
    simulator.run()
    return fired


def _session_order(session):
    """What the sim driver fires: every start, then the schedule in order."""
    simulator = Simulator()
    fired = []
    for process in session.hosted:
        simulator.schedule_at(0.0, lambda p=process: fired.append((0.0, "start", p, 0)))
    for instant, kind, process, event in session.schedule():
        label = "event" if kind == EVENT else "termination"
        sn = event.sn if kind == EVENT else 0
        simulator.schedule_at(
            instant,
            lambda label=label, p=process, sn=sn: fired.append((simulator.now, label, p, sn)),
        )
    simulator.run()
    return fired


class TestScheduleOrder:
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4),
        steps=st.lists(
            st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from(_INSTANTS)),
            max_size=14,
        ),
    )
    def test_schedule_fires_in_the_simulators_insertion_order(self, n, steps):
        builder = ComputationBuilder([{"p": False} for _ in range(n)])
        clock = [0.0] * n  # timestamps are non-decreasing per process
        for process, instant in steps:
            process %= n
            clock[process] = max(clock[process], instant)
            builder.internal(process, {"p": True}, timestamp=clock[process])
        computation = builder.build()
        registry = PropositionRegistry.boolean_grid(n, variables=("p",))
        session = MonitorSession(
            computation,
            build_monitor("F(P0.p)", atoms=registry.names),
            registry,
            _NullTransport(),
        )
        assert _session_order(session) == _head_order(computation)
        assert session.program_end == max(clock)

    def test_a_worker_session_schedules_its_own_process_only(self):
        spec = _spec()
        computation, automaton, registry = build_cell_inputs(spec)
        whole = MonitorSession(computation, automaton, registry, _NullTransport())
        own = MonitorSession(computation, automaton, registry, _NullTransport(), hosted=[1])
        assert [endpoint.process for endpoint in own.endpoints] == [1]
        assert own.schedule() == [item for item in whole.schedule() if item[2] == 1]
        assert own.program_end == whole.program_end


def _spec(**overrides):
    fields = dict(
        scenario="lossy-retransmit",
        property_name="C",
        num_processes=3,
        events_per_process=5,
        evt_mu=3.0,
        evt_sigma=1.0,
        comm_mu=3.0,
        comm_sigma=1.0,
        seed=2015,
        max_views_per_state=2,
    )
    fields.update(overrides)
    return RunSpec(**fields)


#: fields both backends must fill identically for the same cell: what was
#: monitored and what it concluded
_SAME_ON_EVERY_BACKEND = {
    "num_processes",
    "total_events",
    "program_end_time",
    "reported_verdicts",
    "declared_verdicts",
    "fault_stats",
    "worker_results",
}
#: what a backend's own nature decides: its clock, its medium, its wall time
_BACKEND_FIELDS = {"monitor_end_time", "transport", "wall_seconds", "wire_bytes", "monitors"}
#: what follows the live interleaving of messages
_INTERLEAVING_FIELDS = {"monitor_messages", "network_stats"}
#: ``MonitorMetrics`` counters no interleaving can move
_SAME_COUNTERS = {"events_processed"}
#: counters of work whose amount follows the live interleaving of messages
#: (a termination notice counts as a termination message unless a token
#: leaves for the same peer in the same callback)
_INTERLEAVING_COUNTERS = {
    "tokens_created",
    "entries_created",
    "token_messages_sent",
    "termination_messages_sent",
    "views_created",
    "views_merged",
    "max_active_views",
    "delayed_events",
    "token_hops_served",
    "box_queries",
    "boxes_by_letter",
    "box_cells_visited",
    "views_evicted",
    "views_settled",
    "settled_on_news",
    "events_shipped",
    "token_hops_max",
    "orphan_tokens_swallowed",
    "answered_at_home",
    "least_cuts_remembered",
    "boxes_remembered",
    "parked_tokens_slept",
}


class TestOneReport:
    def test_sim_and_asyncio_reports_agree_field_for_field(self):
        spec = _spec()
        computation, automaton, registry = build_cell_inputs(spec)
        network = get_scenario(spec.scenario).network
        simulated = simulate_monitored_run(
            computation, automaton, registry, seed=spec.seed, max_views_per_state=2,
            network=network,
        )
        streamed = run_streaming(
            computation, automaton, registry, delay=network.delay_model(spec.seed),
            max_views_per_state=2,
        )
        assert type(simulated) is type(streamed) is RunReport
        # every field and every counter is accounted for: a new one must be
        # classified here
        names = {field.name for field in dataclasses.fields(RunReport)}
        assert names == _SAME_ON_EVERY_BACKEND | _BACKEND_FIELDS | _INTERLEAVING_FIELDS | {
            "metrics"
        }
        counters = {field.name for field in dataclasses.fields(MonitorMetrics)}
        assert counters == _SAME_COUNTERS | _INTERLEAVING_COUNTERS
        for name in sorted(_SAME_ON_EVERY_BACKEND):
            assert getattr(simulated, name) == getattr(streamed, name), name
        for name in sorted(_SAME_COUNTERS):
            assert getattr(simulated.metrics, name) == getattr(streamed.metrics, name), name
        assert simulated.verdict_sequence() == streamed.verdict_sequence()
        assert set(simulated.network_stats) == set(streamed.network_stats)
        for report in (simulated, streamed):
            assert report.monitor_messages == report.token_messages + report.termination_messages
            assert len(report.monitors) == report.num_processes
            # every counter of every monitor reaches the report
            assert report.metrics == MonitorMetrics.fold(m.metrics for m in report.monitors)
        # the documented backend fields
        assert simulated.transport == "" and streamed.transport == "memory"
        assert simulated.wall_seconds == 0.0 and streamed.wall_seconds > 0.0
        assert simulated.wire_bytes == streamed.wire_bytes == 0  # nothing encoded
        assert set(streamed.as_dict()) - set(simulated.as_dict()) == {"transport"}
        assert streamed.as_dict()["transport"] == "memory"

    def test_same_backend_same_seed_same_report(self):
        spec = _spec(scenario="paper-default")
        computation, automaton, registry = build_cell_inputs(spec)
        reports = [
            simulate_monitored_run(computation, automaton, registry, seed=7, max_views_per_state=2)
            for _ in range(2)
        ]
        first, second = (
            {f.name: getattr(r, f.name) for f in dataclasses.fields(r) if f.name != "monitors"}
            for r in reports
        )
        assert first == second


class TestUntimedRun:
    """The simulator over zero-latency links is the untimed in-process run."""

    @pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-n{c[1]}-s{c[2]}")
    def test_zero_latency_report_fills_the_fixtures_runner_half(self, cell):
        document = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
        pinned = next(
            entry["runner"]
            for entry in document["cells"]
            if (entry["property"], entry["num_processes"], entry["seed"]) == cell
        )
        report = simulate_monitored_run(
            *fixture_cell_inputs(*cell), network=ReliableNetwork(latency=0.0, jitter=0.0)
        )
        summary = pinned["summary"]
        assert report.monitor_messages == summary["messages"] == pinned["network_messages"]
        assert report.token_messages == summary["token_messages"]
        assert report.termination_messages == summary["termination_messages"]
        assert report.total_global_views == summary["views_created"]
        assert report.delayed_events == summary["delayed_events"]
        assert sorted(str(v) for v in report.declared_verdicts) == summary["declared"]
        assert sorted(str(v) for v in report.reported_verdicts) == summary["verdicts"]
        assert declared_states(report) == pinned["declared_states"]
        assert all(monitor.is_quiescent for monitor in report.monitors)


def _calls(name):
    """``(file, enclosing function)`` of every call of *name* in ``src/repro``."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == name
                ):
                    sites.append((path.relative_to(SRC).as_posix(), function.name))
    return sites


class TestOneOfEach:
    def test_monitors_are_constructed_in_one_function(self):
        # make_monitor is nested in monitor_factory, so ast.walk sees it twice
        assert set(_calls("DecentralizedMonitor")) == {
            ("session.py", "monitor_factory"),
            ("session.py", "make_monitor"),
        }

    def test_clock_skew_is_applied_in_one_place(self):
        assert _calls("apply_clock_skew") == [("session.py", "__init__")]

    def test_the_report_properties_live_on_one_class(self):
        owners = []
        epsilons = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    owners += [
                        node.name
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name == "delay_time_percentage_per_view"
                    ]
                elif isinstance(node, ast.Assign):
                    epsilons += [
                        path.name
                        for target in node.targets
                        if isinstance(target, ast.Name) and target.id == "_TERMINATION_EPSILON"
                    ]
        assert owners == ["RunReport"]
        assert epsilons == ["session.py"]

    def test_there_is_no_kernel_knob(self):
        # identifiers, attributes, parameters and keywords; the retired
        # RunSpec key is a string constant and may stay
        knob = {"compiled_kernel", "use_compiled_kernel"}
        named = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = {
                    getattr(node, field, None) for field in ("id", "attr", "arg", "name")
                }
                if names & knob:
                    named.append((path.relative_to(SRC).as_posix(), node.lineno))
        assert named == []

    def test_there_is_no_topology_option(self):
        # one routing rule: no parameter, field, keyword or attribute selects
        # another (the retired RunSpec key is a string constant)
        named = []
        for path in sorted(SRC.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = {
                    getattr(node, field, None) for field in ("id", "attr", "arg", "name")
                }
                if "topology" in names:
                    named.append((path.relative_to(SRC).as_posix(), node.lineno))
        assert named == []

    def test_there_is_one_in_memory_runner(self):
        assert not (SRC / "core" / "runner.py").exists()
        for path in sorted(SRC.rglob("*.py")):
            assert "DecentralizedResult" not in path.read_text(encoding="utf-8"), path

    def test_sessions_are_built_by_the_three_drivers_and_the_fleet(self):
        assert set(_calls("MonitorSession")) == {
            ("sim/runner.py", "simulate_monitored_run"),
            ("runtime/runner.py", "stream_monitored_run"),
            ("cluster/worker.py", "run_worker"),
            ("fleet/engine.py", "_tenant_session"),
        }

    def test_importing_the_program_does_not_import_numpy(self):
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.api, repro.fleet, repro.cluster; "
                "sys.exit('numpy' in sys.modules)",
            ],
            env={"PYTHONPATH": str(SRC.parent), "PYTHONDONTWRITEBYTECODE": "1"},
            check=False,
        )
        assert done.returncode == 0
