"""Tests for the discrete-event simulator, network, workload and sim runner."""

import pytest

from repro.core import LatticeOracle
from repro.distributed import ComputationLattice
from repro.distributed.events import EventKind
from repro.experiments import case_study_monitor, case_study_registry
from repro.ltl import Verdict
from repro.scenarios import ReliableNetwork
from repro.sim import (
    SimulatedNetwork,
    SimulationBudgetExceeded,
    Simulator,
    WorkloadConfig,
    generate_computation,
    random_computation,
    simulate_monitored_run,
)


class TestSimulator:
    def test_events_execute_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule_at(2.0, lambda: order.append("b"))
        simulator.schedule_at(1.0, lambda: order.append("a"))
        simulator.schedule_at(3.0, lambda: order.append("c"))
        simulator.run()
        assert order == ["a", "b", "c"]
        assert simulator.now == 3.0

    def test_ties_preserve_scheduling_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule_at(1.0, lambda: order.append(1))
        simulator.schedule_at(1.0, lambda: order.append(2))
        simulator.run()
        assert order == [1, 2]

    def test_schedule_after(self):
        # a delay is an instant relative to ``now``, read inside the callback
        simulator = Simulator()
        times = []

        def later():
            simulator.schedule_at(simulator.now + 2.0, lambda: times.append(simulator.now))

        simulator.schedule_at(5.0, later)
        simulator.run()
        assert times == [7.0]

    def test_cannot_schedule_in_the_past(self):
        simulator = Simulator()
        simulator.schedule_at(1.0, lambda: None)
        simulator.run()
        with pytest.raises(ValueError):
            simulator.schedule_at(0.5, lambda: None)

    def test_schedule_at_now_during_callback_allowed(self):
        # regression: scheduling at exactly self.now from inside a callback
        # executing at that instant must be accepted and run afterwards
        simulator = Simulator()
        order = []

        def first():
            order.append("first")
            simulator.schedule_at(simulator.now, lambda: order.append("second"))

        simulator.schedule_at(1.5, first)
        simulator.run()
        assert order == ["first", "second"]
        assert simulator.now == 1.5

    def test_schedule_at_clamps_float_rounding_drift(self):
        # regression: an absolute time reconstructed by summing float delays
        # can undershoot `now` by one ulp (0.1 + 0.2 = 0.30000000000000004
        # while the caller computes 0.3); such times are clamped to `now`
        simulator = Simulator()
        times = []

        def at_drifted():
            assert simulator.now == 0.1 + 0.2  # > 0.3
            simulator.schedule_at(0.3, lambda: times.append(simulator.now))

        simulator.schedule_at(0.1, lambda: simulator.schedule_at(simulator.now + 0.2, at_drifted))
        simulator.run()
        assert times == [0.1 + 0.2]

    def test_schedule_clearly_in_the_past_still_rejected(self):
        simulator = Simulator()
        simulator.schedule_at(1.0, lambda: None)
        simulator.run()
        with pytest.raises(ValueError):
            simulator.schedule_at(1.0 - 1e-6, lambda: None)

    @pytest.mark.parametrize(("callbacks", "budget"), [(3, 2), (2, 1)])
    def test_a_budget_of_k_runs_at_most_k_callbacks(self, callbacks, budget):
        simulator = Simulator()
        hits = []
        for t in range(callbacks):
            simulator.schedule_at(float(t), lambda t=t: hits.append(t))
        with pytest.raises(SimulationBudgetExceeded):
            simulator.run(max_events=budget)
        assert len(hits) == budget and simulator.pending == callbacks - budget

    def test_a_budget_spent_by_the_last_due_callback_does_not_raise(self):
        simulator = Simulator()
        for t in (0.0, 1.0):
            simulator.schedule_at(t, lambda: None)
        simulator.run(max_events=2)  # the queue empties as the budget runs out
        simulator.schedule_at(2.0, lambda: None)
        simulator.run(max_events=1)
        assert simulator.pending == 0 and simulator.events_executed == 3

    def test_a_negative_budget_is_refused(self):
        # before: -1 never equalled the count of callbacks run, so it bounded nothing
        simulator = Simulator()
        hits = []
        simulator.schedule_at(0.0, lambda: hits.append(0))
        with pytest.raises(ValueError, match="max_events must be at least 0"):
            simulator.run(max_events=-1)
        assert hits == [] and simulator.pending == 1 and simulator.events_executed == 0

    def test_callbacks_counted(self):
        simulator = Simulator()
        simulator.schedule_at(0.0, lambda: None)
        simulator.run()
        assert simulator.events_executed == 1


class _Sink:
    def __init__(self):
        self.received = []

    def receive_message(self, message):
        self.received.append(message)


class TestSimulatedNetwork:
    def test_messages_delivered_with_latency(self):
        simulator = Simulator()
        delay = ReliableNetwork(latency=0.5, jitter=0.0).delay_model(None)
        network = SimulatedNetwork(simulator, delay)
        sink = _Sink()
        network.register(1, sink)
        network.send(0, 1, "hello")
        simulator.run()
        assert sink.received == ["hello"]
        assert simulator.now == pytest.approx(0.5)
        assert network.messages_sent == 1 and network.messages_delivered == 1

    def test_fifo_order_preserved_despite_jitter(self):
        simulator = Simulator()
        network = SimulatedNetwork(
            simulator, ReliableNetwork(latency=0.2, jitter=0.3).delay_model(7)
        )
        sink = _Sink()
        network.register(1, sink)
        for i in range(20):
            network.send(0, 1, i)
        simulator.run()
        assert sink.received == list(range(20))

    def test_unknown_target_rejected(self):
        network = SimulatedNetwork(Simulator(), ReliableNetwork().delay_model(None))
        with pytest.raises(ValueError):
            network.send(0, 3, "x")

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ReliableNetwork(latency=-1.0)


class TestWorkloadGenerator:
    def test_generates_requested_internal_events(self):
        config = WorkloadConfig(num_processes=3, events_per_process=5, comm_mu=None, seed=1)
        computation = generate_computation(config)
        assert computation.num_processes == 3
        # without communication every event is internal
        assert computation.num_events == 15

    def test_communication_adds_send_receive_pairs(self):
        config = WorkloadConfig(num_processes=3, events_per_process=5, comm_mu=2.0, seed=2)
        computation = generate_computation(config)
        kinds = [e.kind for e in computation.all_events()]
        sends = kinds.count(EventKind.SEND)
        receives = kinds.count(EventKind.RECEIVE)
        assert sends > 0
        assert sends == receives

    def test_deterministic_for_fixed_seed(self):
        config = WorkloadConfig(num_processes=2, events_per_process=6, seed=42)
        first = generate_computation(config)
        second = generate_computation(config)
        assert [e.state for e in first.all_events()] == [
            e.state for e in second.all_events()
        ]
        assert [e.timestamp for e in first.all_events()] == [
            e.timestamp for e in second.all_events()
        ]

    def test_ensure_final_forces_all_true_last_states(self):
        config = WorkloadConfig(num_processes=3, events_per_process=4, seed=3, ensure_final=True)
        computation = generate_computation(config)
        final = computation.global_state(computation.final_cut())
        assert all(state["p"] and state["q"] for state in final)

    def test_initial_valuation_respected(self):
        config = WorkloadConfig(
            num_processes=2, events_per_process=3, seed=4,
            initial_valuation={"p": True, "q": False},
        )
        computation = generate_computation(config)
        assert computation.initial_states[0] == {"p": True, "q": False}

    def test_timestamps_increase_per_process(self):
        config = WorkloadConfig(num_processes=3, events_per_process=6, seed=5)
        computation = generate_computation(config)
        for process in range(3):
            times = [e.timestamp for e in computation.events_of(process)]
            assert times == sorted(times)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_processes=0)
        with pytest.raises(ValueError):
            WorkloadConfig(events_per_process=0)
        with pytest.raises(ValueError):
            WorkloadConfig(evt_mu=0.0)

    def test_random_computation_is_valid(self):
        computation = random_computation(3, 12, seed=9)
        assert computation.num_events == 12
        lattice = ComputationLattice.from_computation(computation)
        assert len(lattice) >= 1


class TestSimulatedMonitoredRun:
    @pytest.fixture(scope="class")
    def report(self):
        config = WorkloadConfig(num_processes=3, events_per_process=6, seed=11)
        computation = generate_computation(config)
        registry = case_study_registry(3)
        automaton = case_study_monitor("B", 3)
        return simulate_monitored_run(computation, automaton, registry, seed=1), computation, registry, automaton

    def test_report_fields(self, report):
        rep, computation, _, _ = report
        assert rep.num_processes == 3
        assert rep.total_events == computation.num_events
        assert rep.monitor_messages >= rep.token_messages
        assert rep.monitor_end_time >= rep.program_end_time
        assert rep.total_global_views >= 3

    def test_verdicts_match_the_untimed_run(self, report):
        rep, computation, registry, automaton = report
        untimed = simulate_monitored_run(
            computation, automaton, registry, network=ReliableNetwork(latency=0.0, jitter=0.0)
        )
        assert rep.declared_verdicts == untimed.declared_verdicts

    def test_verdicts_sound_wrt_oracle(self, report):
        rep, computation, registry, automaton = report
        oracle = LatticeOracle(computation, automaton, registry).evaluate()
        assert rep.declared_verdicts <= oracle.conclusive_verdicts
        assert oracle.conclusive_verdicts <= rep.declared_verdicts

    def test_a_negative_event_budget_is_refused(self, report):
        # before: the run went on without any bound, the fuzzer's guard gone
        _, computation, registry, automaton = report
        with pytest.raises(ValueError, match="max_events must be at least 0"):
            simulate_monitored_run(computation, automaton, registry, seed=1, max_sim_events=-1)

    def test_eventually_property_satisfied_with_ensure_final(self, report):
        rep, *_ = report
        assert Verdict.TOP in rep.declared_verdicts

    def test_as_dict_serialisable(self, report):
        rep, *_ = report
        data = rep.as_dict()
        assert data["processes"] == 3
        assert isinstance(data["verdicts"], list)

    def test_delay_metric_definition(self, report):
        rep, *_ = report
        if rep.total_global_views and rep.program_end_time > 0:
            expected = (
                (rep.monitor_extra_time / rep.program_end_time) * 100.0
            ) / rep.total_global_views
            assert rep.delay_time_percentage_per_view == pytest.approx(expected)
