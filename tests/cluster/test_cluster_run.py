"""Cluster backend acceptance: real worker processes agree with sim/asyncio.

The acceptance criterion of the multi-host runtime: for fixed seeds, running
a registered scenario on ``--backend cluster`` — one OS process per monitor,
wire protocol v5 over real loopback sockets — declares verdicts identical to
the discrete-event simulator and the asyncio streaming runtime, including
under a crash/restart fault plan.  Every test here spawns real worker
subprocesses through the coordinator.
"""

from dataclasses import asdict

import pytest

from repro.api import (
    ClusterError,
    ExecutionConfig,
    ExperimentScale,
    RunSpec,
    cluster_monitored_run,
    loopback_manifest,
    run_streaming,
)
from repro.cluster import codec
from repro.cluster.spec import build_cell_inputs
from repro.core.monitor import MonitorMetrics
from repro.experiments.engine import run_scenario_cell
from repro.runtime.transport import StreamTransport
from repro.scenarios import GridPoint, Scenario, get_scenario
from repro.sim import simulate_monitored_run
from repro.sim.network import SimulatedNetwork

#: the three registered scenarios the criterion is checked on — the paper
#: baseline, a deterministic network and a degraded one (the cluster backend
#: replaces the modelled network with real sockets; conclusive verdicts are
#: delivery-order independent, so they must coincide anyway)
EQUIVALENCE_SCENARIOS = ("paper-default", "fixed-latency", "lossy-retransmit")

SMALL_SCALE = ExperimentScale(
    process_counts=(2, 3),
    events_per_process=4,
    replications=1,
    max_views_per_state=2,
)


def _spec(scenario_name, property_name="B", seed=2015, fault_plan=None):
    """One small three-monitor cell of *scenario_name*."""
    return RunSpec(
        scenario=scenario_name,
        property_name=property_name,
        num_processes=3,
        events_per_process=4,
        evt_mu=3.0,
        evt_sigma=1.0,
        comm_mu=3.0,
        comm_sigma=1.0,
        seed=seed,
        max_views_per_state=2,
        fault_plan=fault_plan,
    )


class TestClusterEquivalence:
    @pytest.mark.parametrize("scenario_name", EQUIVALENCE_SCENARIOS)
    def test_cluster_matches_sim_and_asyncio_verdicts(self, scenario_name):
        spec = _spec(scenario_name)
        computation, automaton, registry = build_cell_inputs(spec)
        simulated = simulate_monitored_run(
            computation,
            automaton,
            registry,
            seed=spec.seed,
            max_views_per_state=2,
            network=get_scenario(scenario_name).network,
        )
        streamed = run_streaming(
            computation, automaton, registry, max_views_per_state=2
        )
        clustered = cluster_monitored_run(spec)
        assert clustered.declared_verdicts == simulated.declared_verdicts, (
            f"cluster diverged from sim for {scenario_name}"
        )
        assert clustered.declared_verdicts == streamed.declared_verdicts, (
            f"cluster diverged from asyncio for {scenario_name}"
        )
        # all three monitored the identical regenerated computation
        assert clustered.total_events == computation.num_events

    def test_crash_restart_fault_plan_across_real_workers(self):
        spec = _spec("paper-default", fault_plan="1@2+1:replay")
        computation, automaton, registry = build_cell_inputs(spec)
        simulated = simulate_monitored_run(
            computation,
            automaton,
            registry,
            seed=spec.seed,
            max_views_per_state=2,
            network=get_scenario("paper-default").network,
            faults=spec.faults(),
        )
        clustered = cluster_monitored_run(spec)
        assert clustered.declared_verdicts == simulated.declared_verdicts
        # the crash/restart cycle really ran inside a worker process
        assert clustered.fault_stats["fault_crashes"] == 1.0
        assert clustered.fault_stats["fault_restarts"] == 1.0
        assert clustered.fault_stats["fault_buffered_events"] >= 1.0

    def test_report_aggregates_per_worker_results(self):
        report = cluster_monitored_run(_spec("paper-default"))
        assert report.num_processes == 3
        assert len(report.worker_results) == 3
        # every worker reports the whole computation's event count
        assert {result["total_events"] for result in report.worker_results} == {
            report.total_events
        }
        assert report.token_messages > 0
        assert report.monitor_messages == (
            report.token_messages + report.termination_messages
        )
        assert report.wall_seconds > 0.0
        # the cluster has no shared clock: the virtual-time metric stays zero
        assert report.delay_time_percentage_per_view == 0.0
        assert report.network_stats == {}

    def test_report_carries_every_monitor_counter(self):
        """Workers ship their whole counter record, not a hand-picked five.

        Regression: the cluster report had no ``box_queries``,
        ``box_cells_visited``, ``views_evicted`` or ``events_shipped`` at
        all, so under one report type they would have read a silent zero.
        Property C: no monitor of this cell settles, so every counter moves
        (B's monitors settle on ⊤ before they answer anything at home).
        """
        spec = _spec("paper-default", property_name="C")
        computation, automaton, registry = build_cell_inputs(spec)
        simulated = simulate_monitored_run(
            computation,
            automaton,
            registry,
            seed=spec.seed,
            max_views_per_state=2,
            network=get_scenario("paper-default").network,
        )
        assert simulated.metrics.box_queries > 0  # the cell does replay boxes
        report = cluster_monitored_run(spec)
        # every counter, the maxima folded by max
        assert report.metrics == MonitorMetrics.fold(
            MonitorMetrics(**result["metrics"]) for result in report.worker_results
        )
        assert report.metrics.token_hops_max > 0
        assert report.metrics.box_queries > 0
        assert report.metrics.events_shipped > 0
        assert report.metrics.answered_at_home > 0


def _through_the_codec(send):
    """A transport ``send`` that delivers what a socket would: a decoded copy."""

    def wrapped(self, sender, target, message):
        frame = codec.encode_wire(0.0, message)
        _, copy = codec.decode_wire(*codec.split_frame(frame))
        return send(self, sender, target, copy)

    return wrapped


class TestPayloadAcrossBackends:
    """What a token carries only materialises on sockets.

    The in-process backends hand tokens over as objects; ``asyncio`` over
    TCP and the cluster encode every one.  Verdicts must agree on all four.
    Message and view counts depend on delivery order, which differs from
    backend to backend (and from run to run on the cluster), so they are
    compared where they are defined: an in-process run whose every message
    crosses the codec must count exactly what the plain run counts.
    """

    @pytest.mark.parametrize("property_name", ["B", "C"])
    def test_verdicts_agree_on_all_four_backends(self, property_name):
        spec = _spec("paper-default", property_name=property_name)
        computation, automaton, registry = build_cell_inputs(spec)
        simulated = simulate_monitored_run(
            computation,
            automaton,
            registry,
            seed=spec.seed,
            max_views_per_state=2,
            network=get_scenario("paper-default").network,
        )
        reports = {
            "asyncio-memory": run_streaming(
                computation, automaton, registry, max_views_per_state=2
            ),
            "asyncio-tcp": run_streaming(
                computation, automaton, registry, max_views_per_state=2, transport="tcp"
            ),
            "cluster": cluster_monitored_run(spec),
        }
        for backend, report in reports.items():
            assert report.declared_verdicts == simulated.declared_verdicts, backend
            assert report.monitor_messages == (
                report.token_messages + report.termination_messages
            ), backend
            assert report.total_global_views > 0, backend
        # bytes are counted exactly where frames are written
        assert reports["asyncio-memory"].wire_bytes == 0
        assert reports["asyncio-tcp"].wire_bytes > 0
        assert reports["cluster"].wire_bytes == sum(
            result["wire_bytes"] for result in reports["cluster"].worker_results
        ) > 0
        assert reports["asyncio-tcp"].metrics.events_shipped > 0

    @pytest.mark.parametrize("property_name", ["B", "C"])
    def test_decoded_tokens_count_what_handed_over_tokens_count(
        self, property_name, monkeypatch
    ):
        spec = _spec("paper-default", property_name=property_name)
        computation, automaton, registry = build_cell_inputs(spec)

        def both():
            return (
                simulate_monitored_run(
                    computation, automaton, registry, seed=spec.seed, max_views_per_state=2
                ),
                run_streaming(computation, automaton, registry, max_views_per_state=2),
            )

        plain = both()
        monkeypatch.setattr(SimulatedNetwork, "send", _through_the_codec(SimulatedNetwork.send))
        monkeypatch.setattr(StreamTransport, "send", _through_the_codec(StreamTransport.send))
        for handed_over, decoded in zip(plain, both()):
            assert decoded.as_dict() == handed_over.as_dict()
            assert decoded.declared_verdicts == handed_over.declared_verdicts
            assert [asdict(m.metrics) for m in decoded.monitors] == [
                asdict(m.metrics) for m in handed_over.monitors
            ]
            assert decoded.metrics.events_shipped == handed_over.metrics.events_shipped > 0


class TestClusterEngineIntegration:
    def test_cluster_cells_produce_sweep_metrics(self):
        scenario = get_scenario("paper-default")
        config = ExecutionConfig(backend="cluster")
        cell = run_scenario_cell(
            scenario, GridPoint("B", 3), SMALL_SCALE, seed=2015, config=config
        )
        sim_cell = run_scenario_cell(
            scenario, GridPoint("B", 3), SMALL_SCALE, seed=2015
        )
        assert set(sim_cell) <= set(cell)
        assert cell["events"] == sim_cell["events"]

    def test_cluster_backend_requires_registered_scenario(self):
        registered = get_scenario("paper-default")
        unregistered = Scenario(
            name="not-in-registry",
            description="local-only variant",
            workload=registered.workload,
            network=registered.network,
        )
        config = ExecutionConfig(backend="cluster")
        with pytest.raises(ValueError, match="registered scenario"):
            run_scenario_cell(
                unregistered, GridPoint("B", 2), SMALL_SCALE, seed=1, config=config
            )


class TestClusterFailureModes:
    def test_manifest_smaller_than_spec_rejected(self):
        spec = _spec("paper-default")
        manifest = loopback_manifest(2)
        with pytest.raises(ClusterError, match="2 worker"):
            cluster_monitored_run(spec, manifest)
