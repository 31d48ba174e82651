"""Tests for the scenario engine: models, registry, sharded execution."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentScale, run_scenario
from repro.experiments import run_monitoring_experiment
from repro.experiments.engine import cell_computation, execute_sweep
from repro.core.delays import DelayModel
from repro.distributed import EventKind
from repro.faults import apply_clock_skew
from repro.experiments.properties import case_study_registry
from repro.fleet.sources import computation_to_records
from repro.ltl import build_monitor
from repro.scenarios import (
    BurstyNetwork,
    LossyNetwork,
    PartitionNetwork,
    ReliableNetwork,
    Scenario,
    SweepGrid,
    Workload,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from repro.sim import (
    SimulatedNetwork,
    Simulator,
    WorkloadConfig,
    generate_computation,
    random_computation,
    simulate_monitored_run,
)

SMALL_SCALE = ExperimentScale(
    process_counts=(2, 3),
    events_per_process=4,
    replications=2,
    max_views_per_state=2,
)

ALL_NETWORK_MODELS = [
    ReliableNetwork(),
    ReliableNetwork(jitter=0.0),
    LossyNetwork(loss_probability=0.3, retransmit_timeout=0.2),
    PartitionNetwork(windows=((1.0, 4.0),)),
    BurstyNetwork(period=0.5),
]


def _build(model, simulator, seed):
    """The discrete-event network of a condition, as the sim driver builds it."""
    return SimulatedNetwork(simulator, model.delay_model(seed))


class _Sink:
    def __init__(self):
        self.received = []
        self.times = []

    def receive_message(self, message):
        self.received.append(message)


class TestRegistry:
    def test_at_least_five_builtin_scenarios(self):
        assert len(list_scenarios()) >= 5

    def test_expected_builtins_present(self):
        names = scenario_names()
        for name in (
            "paper-default",
            "lossy-retransmit",
            "partition-heal",
            "bursty-comm",
            "hot-spot",
        ):
            assert name in names

    def test_get_scenario_roundtrip(self):
        for scenario in list_scenarios():
            assert get_scenario(scenario.name) is scenario

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("does-not-exist")

    def test_duplicate_registration_rejected(self):
        scenario = get_scenario("paper-default")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(scenario)
        # replace=True is the explicit escape hatch
        assert register_scenario(scenario, replace=True) is scenario

    def test_describe_is_json_serialisable(self):
        for scenario in list_scenarios():
            description = json.loads(json.dumps(scenario.describe()))
            assert description["name"] == scenario.name
            assert "kind" in description["workload"]
            assert "kind" in description["network"]


class TestNetworkModels:
    def test_models_build_monitor_networks(self):
        for model in ALL_NETWORK_MODELS:
            network = _build(model, Simulator(), seed=1)
            assert isinstance(network.delay, DelayModel)

    def test_lossy_counts_retransmissions_and_delivers_everything(self):
        simulator = Simulator()
        network = _build(
            LossyNetwork(jitter=0.0, loss_probability=0.5, retransmit_timeout=0.3),
            simulator,
            seed=3,
        )
        sink = _Sink()
        network.register(1, sink)
        for i in range(50):
            network.send(0, 1, i)
        simulator.run()
        assert sink.received == list(range(50))
        assert network.delay.retransmissions > 0
        assert network.extra_stats()["retransmissions"] == float(
            network.delay.retransmissions
        )

    def test_partition_holds_cross_group_messages_until_heal(self):
        simulator = Simulator()
        network = _build(
            PartitionNetwork(jitter=0.0, windows=((1.0, 5.0),)), simulator, seed=0
        )
        sink0, sink1 = _Sink(), _Sink()
        network.register(0, sink0)
        network.register(1, sink1)

        def send_during_partition():
            network.send(0, 1, "cross")  # groups 0 and 1 differ
            network.send(1, 1, "intra-noop")  # same endpoint, same group

        simulator.schedule_at(2.0, send_during_partition)
        simulator.run()
        assert sink1.received == ["intra-noop", "cross"]
        # the cross-group message waited for the heal at t=5.0
        assert network.delay.held_messages == 1
        assert simulator.now >= 5.0

    def test_partition_cross_group_fast_outside_windows(self):
        simulator = Simulator()
        network = _build(
            PartitionNetwork(jitter=0.0, windows=((10.0, 20.0),)), simulator, seed=0
        )
        sink = _Sink()
        network.register(1, sink)
        network.send(0, 1, "early")
        simulator.run()
        assert sink.received == ["early"]
        assert simulator.now < 1.0
        assert network.delay.held_messages == 0

    def test_bursty_quantizes_delivery_to_period(self):
        simulator = Simulator()
        network = _build(BurstyNetwork(latency=0.01, period=0.5), simulator, seed=0)
        delivery_times = []

        class TimedSink:
            def receive_message(self, message):
                delivery_times.append(simulator.now)

        network.register(1, TimedSink())
        simulator.schedule_at(0.1, lambda: network.send(0, 1, "a"))
        simulator.schedule_at(0.2, lambda: network.send(0, 1, "b"))
        simulator.schedule_at(0.7, lambda: network.send(0, 1, "c"))
        simulator.run()
        assert delivery_times == [0.5, 0.5, 1.0]
        assert network.delay.bursts_used == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LossyNetwork(loss_probability=1.0)
        with pytest.raises(ValueError):
            PartitionNetwork(windows=((5.0, 2.0),))
        with pytest.raises(ValueError):
            PartitionNetwork(num_groups=1)
        with pytest.raises(ValueError):
            BurstyNetwork(period=0.0)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_processes=st.integers(min_value=2, max_value=3),
        formula_index=st.integers(min_value=0, max_value=2),
    )
    def test_reliable_delivery_models_match_untimed_verdicts(
        self, seed, num_processes, formula_index
    ):
        """Every network model delivers reliably, so conclusive verdicts must
        equal the untimed run's (zero-latency links) regardless of timing."""
        formulas = [
            "F(P0.p & P1.p)",
            "G(P0.p U P1.q)",
            "G(!(P0.p & P1.q))",
        ]
        registry = case_study_registry(num_processes)
        automaton = build_monitor(formulas[formula_index], atoms=registry.names)
        computation = random_computation(num_processes, 10, seed=seed)
        untimed = simulate_monitored_run(
            computation, automaton, registry, network=ReliableNetwork(latency=0.0, jitter=0.0)
        )
        for model in ALL_NETWORK_MODELS:
            report = simulate_monitored_run(
                computation, automaton, registry, seed=seed, network=model
            )
            assert report.declared_verdicts == untimed.declared_verdicts, (
                f"verdicts diverged under {model!r} for seed {seed}"
            )


class TestWorkloadModels:
    KWARGS = dict(
        num_processes=3,
        events_per_process=5,
        evt_mu=3.0,
        evt_sigma=1.0,
        comm_mu=3.0,
        comm_sigma=1.0,
        truth_probability=0.5,
        initial_valuation={"p": False, "q": False},
        seed=7,
    )

    def test_paper_workload_matches_plain_config(self):
        config = Workload().build_config(**self.KWARGS)
        reference = WorkloadConfig(**self.KWARGS)
        first = generate_computation(config)
        second = generate_computation(reference)
        assert [e.state for e in first.all_events()] == [
            e.state for e in second.all_events()
        ]
        assert [e.timestamp for e in first.all_events()] == [
            e.timestamp for e in second.all_events()
        ]

    def test_hot_spot_skews_event_counts(self):
        config = Workload(hot_processes=(0,), hot_event_factor=3.0).build_config(
            **self.KWARGS
        )
        computation = generate_computation(config)
        events_of = [
            sum(1 for e in computation.events_of(p) if e.is_internal)
            for p in range(3)
        ]
        assert events_of[0] == 15  # 5 * 3.0
        assert events_of[1] == 5
        assert events_of[2] == 5

    def test_hot_spot_keeps_horizon_comparable(self):
        config = Workload(hot_processes=(0,), hot_event_factor=3.0).build_config(
            **self.KWARGS
        )
        computation = generate_computation(config)
        last = [
            max(e.timestamp for e in computation.events_of(p)) for p in range(3)
        ]
        # the hot process finishes within ~2x of the others, not 3x earlier
        assert last[0] < 2.0 * max(last[1], last[2])

    def test_bursty_comm_multiplies_program_messages(self):
        base = generate_computation(Workload().build_config(**self.KWARGS))
        bursty = generate_computation(
            Workload(comm_burst_size=3, comm_burst_gap=0.1).build_config(**self.KWARGS)
        )
        base_sends = sum(1 for e in base.all_events() if e.kind is EventKind.SEND)
        bursty_sends = sum(1 for e in bursty.all_events() if e.kind is EventKind.SEND)
        assert bursty_sends > base_sends

    def test_hot_processes_clip_to_the_system(self):
        config = Workload(hot_processes=(0, 5), hot_event_factor=2.0).build_config(
            **self.KWARGS
        )
        assert config.hot_processes == (0,)

    def test_describe_names_only_what_differs_from_the_paper_model(self):
        assert Workload().describe() == {"kind": "paper"}
        assert get_scenario("hot-spot").workload.describe() == {
            "kind": "paper",
            "hot_processes": (0,),
            "hot_event_factor": 3.0,
            "hot_truth_probability": 0.5,
        }
        assert get_scenario("bursty-comm").workload.describe() == {
            "kind": "paper",
            "comm_burst_size": 3,
            "comm_burst_gap": 0.15,
        }

    def test_hot_process_indices_validated(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_processes=2, hot_processes=(5,))
        with pytest.raises(ValueError):
            WorkloadConfig(hot_event_factor=0.5)
        with pytest.raises(ValueError):
            WorkloadConfig(comm_burst_size=0)


def _trace_hash(computation):
    """SHA-256 of a computation's event log, the fleet's record format."""
    records = computation_to_records(computation)
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _pinned_cell(scenario_name):
    return cell_computation(
        get_scenario(scenario_name).workload,
        "C",
        num_processes=3,
        events_per_process=6,
        evt_mu=3.0,
        evt_sigma=1.0,
        comm_mu=3.0,
        comm_sigma=1.0,
        seed=2015,
    )


class TestTraceShapePins:
    """Every shaped trace and the skewed clocks stay byte-identical.

    Sweep rows, cluster workers and fleet tenants all regenerate these
    traces from their parameters, so a change that moves a hash changes
    every result built on it and must re-pin on purpose.
    """

    @pytest.mark.parametrize(
        ("scenario_name", "digest"),
        [
            ("paper-default", "7ef979270dc29501288ce8ca7bed3698c8373618d1e28e786aead6c6b340564a"),
            ("hot-spot", "99593f6343388562743dd733088f6b371218360e23796c7ae6dc0f69cac2f32e"),
            ("bursty-comm", "3a66e76530813e976c5437c3a288a3c2241d1ad512421fcce7640850e68bd326"),
        ],
    )
    def test_shaped_trace_is_pinned(self, scenario_name, digest):
        assert _trace_hash(_pinned_cell(scenario_name)) == digest

    def test_clock_skew_is_pinned(self):
        spec = get_scenario("clock-skew").faults.build(3, 6, 2015).clock_skew
        skewed, stats = apply_clock_skew(_pinned_cell("paper-default"), spec)
        assert _trace_hash(skewed) == (
            "ef0943a6f7f676342f2b70c015d5938a2bdc8d705c820f8f4dc3c06dd1ed442f"
        )
        assert stats == {
            "fault_skew_perturbed_events": 48.0,
            "fault_skew_distortion": 58.0,
        }


class TestShardedExecution:
    def test_sharded_sweep_matches_serial_byte_for_byte(self):
        serial = ExperimentScale(
            process_counts=(2, 3), events_per_process=4, replications=2,
            max_views_per_state=2, workers=1,
        )
        sharded = ExperimentScale(
            process_counts=(2, 3), events_per_process=4, replications=2,
            max_views_per_state=2, workers=3,
        )
        grid = SweepGrid(properties=("B", "E"))
        scenario = get_scenario("paper-default")
        rows_serial = execute_sweep(scenario, serial, grid=grid)
        rows_sharded = execute_sweep(scenario, sharded, grid=grid)
        assert json.dumps(rows_serial, sort_keys=True) == json.dumps(
            rows_sharded, sort_keys=True
        )
        # four points: sharding covers the point axis, not just replications
        assert len(rows_serial) == 4

    def test_scenarios_run_sharded_identically(self):
        # lossy + partition scenarios end-to-end, serial vs sharded
        for name in ("lossy-retransmit", "partition-heal"):
            serial = run_scenario(
                name,
                ExperimentScale(
                    process_counts=(2,), events_per_process=4, replications=2,
                    max_views_per_state=2, workers=1,
                ),
            )
            sharded = run_scenario(
                name,
                ExperimentScale(
                    process_counts=(2,), events_per_process=4, replications=2,
                    max_views_per_state=2, workers=2,
                ),
            )
            assert json.dumps(serial, sort_keys=True) == json.dumps(
                sharded, sort_keys=True
            )

    def test_comm_axis_points_get_staggered_seeds(self):
        grid = SweepGrid(
            properties=("C",), process_counts=(2,), comm_mus=(3.0, 6.0, None)
        )
        points = grid.points(("A",), (5,))
        assert [p.seed_offset for p in points] == [0, 1000, 2000]
        assert points[2].comm_mu is None
        # defaults fall back to the provided axes
        default_points = SweepGrid().points(("A", "B"), (2, 3))
        assert len(default_points) == 4
        assert all(p.comm_mu == "default" for p in default_points)

    def test_run_monitoring_experiment_unchanged_metrics(self):
        # the thin wrapper keeps the historical row shape
        row = run_monitoring_experiment("B", 2, SMALL_SCALE)
        for key in (
            "property", "processes", "events", "messages", "token_messages",
            "global_views", "delayed_events", "delay_time_pct_per_view",
            "log_events", "log_messages",
        ):
            assert key in row
        assert "comm_mu" not in row  # only comm-axis points carry the column

    def test_scenario_rows_carry_network_stats(self):
        rows = run_scenario("lossy-retransmit", SMALL_SCALE)
        assert all("retransmissions" in row for row in rows)
        rows = run_scenario("partition-heal", SMALL_SCALE)
        assert all("held_messages" in row for row in rows)


class TestCustomScenario:
    def test_custom_scenario_executes_without_registration(self):
        scenario = Scenario(
            name="test-custom",
            description="ad-hoc condition",
            workload=Workload(),
            network=ReliableNetwork(latency=0.02, jitter=0.0),
            grid=SweepGrid(properties=("B",), process_counts=(2,)),
        )
        rows = execute_sweep(scenario, SMALL_SCALE)
        assert len(rows) == 1
        assert rows[0]["property"] == "B"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Scenario(
                name="",
                description="",
                workload=Workload(),
                network=ReliableNetwork(),
            )
