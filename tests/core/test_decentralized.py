"""Tests for the decentralized monitoring algorithm on hand-built computations."""

import pytest

from repro.core import DecentralizedMonitor, LatticeOracle
from repro.distributed import (
    ComputationBuilder,
    running_example,
    running_example_registry,
    token_ring_example,
)
from repro.ltl import Proposition, PropositionRegistry, Verdict, build_monitor
from repro.scenarios import ReliableNetwork
from repro.session import RunReport
from repro.sim import SimulatedNetwork, Simulator, simulate_monitored_run

#: links that deliver at once: the untimed run
INSTANT = ReliableNetwork(latency=0.0, jitter=0.0)


def _untimed(computation, automaton, registry):
    return simulate_monitored_run(computation, automaton, registry, network=INSTANT)


@pytest.fixture(scope="module")
def example():
    return running_example()


@pytest.fixture(scope="module")
def registry():
    return running_example_registry()


@pytest.fixture(scope="module")
def psi(registry):
    return build_monitor("G({x1>=5} -> ({x2>=15} U {x1=10}))", atoms=registry.names)


class TestRunningExample:
    def test_verdict_set_matches_oracle(self, example, registry, psi):
        oracle = LatticeOracle(example, psi, registry).evaluate()
        result = _untimed(example, psi, registry)
        assert result.declared_verdicts == oracle.conclusive_verdicts
        assert result.reported_verdicts == oracle.verdicts

    def test_violation_is_declared(self, example, registry, psi):
        result = _untimed(example, psi, registry)
        assert Verdict.BOTTOM in result.declared_verdicts

    def test_network_quiesces(self, example, registry, psi):
        result = _untimed(example, psi, registry)
        assert all(monitor.is_quiescent for monitor in result.monitors)

    def test_all_monitors_terminate_cleanly(self, example, registry, psi):
        result = _untimed(example, psi, registry)
        for monitor in result.monitors:
            assert monitor.is_quiescent
            assert not monitor.tokens.waiting

    def test_messages_are_exchanged(self, example, registry, psi):
        result = _untimed(example, psi, registry)
        assert result.monitor_messages > 0
        assert result.token_messages > 0

    def test_returns_the_one_run_report(self, example, registry, psi):
        report = _untimed(example, psi, registry)
        assert type(report) is RunReport
        assert {"verdicts", "messages", "global_views"} <= set(report.as_dict())

    def test_lazy_delivery_mode(self, example, registry, psi):
        oracle = LatticeOracle(example, psi, registry).evaluate()
        # every message arrives after the program has ended
        result = simulate_monitored_run(
            example, psi, registry, network=ReliableNetwork(latency=1e6, jitter=0.0)
        )
        assert result.declared_verdicts == oracle.conclusive_verdicts

    def test_second_property_all_paths_inconclusive_or_bottom(self, example):
        registry = PropositionRegistry(
            [
                Proposition.comparison("x1>=5", 0, "x1", ">=", 5),
                Proposition.comparison("x1=10", 0, "x1", "==", 10),
                Proposition.comparison("x2=15", 1, "x2", "==", 15),
            ]
        )
        automaton = build_monitor(
            "G({x1>=5} -> ({x2=15} U {x1=10}))", atoms=registry.names
        )
        oracle = LatticeOracle(example, automaton, registry).evaluate()
        result = _untimed(example, automaton, registry)
        assert result.declared_verdicts == oracle.conclusive_verdicts
        assert result.reported_verdicts >= oracle.verdicts


class TestSingleProcess:
    def test_single_process_needs_no_messages(self):
        builder = ComputationBuilder([{"p": False}])
        builder.internal(0, {"p": False})
        builder.internal(0, {"p": True})
        computation = builder.build()
        registry = PropositionRegistry([Proposition.variable("p", 0, "p")])
        automaton = build_monitor("F p", atoms=registry.names)
        result = _untimed(computation, automaton, registry)
        assert result.monitor_messages == 0
        assert result.declared_verdicts == frozenset({Verdict.TOP})


class TestMutualExclusion:
    def test_token_ring_never_violates_mutual_exclusion(self):
        computation = token_ring_example(3, rounds=1)
        registry = PropositionRegistry(
            [Proposition.variable(f"P{i}.cs", i, "cs") for i in range(3)]
        )
        automaton = build_monitor(
            "G(!(P0.cs & P1.cs) & !(P0.cs & P2.cs) & !(P1.cs & P2.cs))",
            atoms=registry.names,
        )
        oracle = LatticeOracle(computation, automaton, registry).evaluate()
        result = _untimed(computation, automaton, registry)
        assert Verdict.BOTTOM not in oracle.verdicts
        assert Verdict.BOTTOM not in result.declared_verdicts
        assert result.declared_verdicts == oracle.conclusive_verdicts

    def test_faulty_ring_violation_is_caught(self):
        # two processes entering the critical section concurrently
        builder = ComputationBuilder([{"cs": False}, {"cs": False}])
        builder.internal(0, {"cs": True})
        builder.internal(1, {"cs": True})
        builder.internal(0, {"cs": False})
        builder.internal(1, {"cs": False})
        computation = builder.build()
        registry = PropositionRegistry(
            [Proposition.variable(f"P{i}.cs", i, "cs") for i in range(2)]
        )
        automaton = build_monitor("G(!(P0.cs & P1.cs))", atoms=registry.names)
        oracle = LatticeOracle(computation, automaton, registry).evaluate()
        result = _untimed(computation, automaton, registry)
        # the violation only exists on some interleavings: both the oracle and
        # the decentralized monitors must see it, while ? paths also remain
        assert Verdict.BOTTOM in oracle.verdicts
        assert Verdict.BOTTOM in result.declared_verdicts
        assert Verdict.INCONCLUSIVE in result.reported_verdicts


class TestMonitorInternals:
    def test_monitor_rejects_foreign_events(self, example, registry, psi):
        network = SimulatedNetwork(Simulator(), INSTANT.delay_model(0))
        initial = [registry.local_letter(i, example.initial_states[i]) for i in range(2)]
        monitors = [
            DecentralizedMonitor(i, 2, psi, registry, initial, network) for i in range(2)
        ]
        for i, monitor in enumerate(monitors):
            network.register(i, monitor)
        with pytest.raises(ValueError):
            monitors[0].local_event(example.event(1, 1))

    def test_unexpected_message_type_rejected(self, example, registry, psi):
        network = SimulatedNetwork(Simulator(), INSTANT.delay_model(0))
        initial = [registry.local_letter(i, example.initial_states[i]) for i in range(2)]
        monitor = DecentralizedMonitor(0, 2, psi, registry, initial, network)
        with pytest.raises(TypeError):
            monitor.receive_message("bogus")

    @pytest.mark.parametrize("budget", [0, -1])
    def test_a_view_budget_below_one_is_rejected(self, example, registry, psi, budget):
        with pytest.raises(ValueError, match="at least 1"):
            simulate_monitored_run(
                example, psi, registry, network=INSTANT, max_views_per_state=budget
            )

    def test_metrics_accumulate(self, example, registry, psi):
        result = _untimed(example, psi, registry)
        for monitor in result.monitors:
            metrics = monitor.metrics
            assert metrics.events_processed == 4
            assert metrics.views_created >= 1
            assert metrics.messages_sent == (
                metrics.token_messages_sent + metrics.termination_messages_sent
            )

    def test_views_are_merged_not_duplicated(self, example, registry, psi):
        result = _untimed(example, psi, registry)
        for monitor in result.monitors:
            signatures = [tuple(v.signature()) for v in monitor.views]
            assert len(signatures) == len(set(signatures))

    def test_final_views_bounded_by_automaton_states(self, example, registry, psi):
        """After merging, the number of live views per monitor is bounded by
        the number of automaton states (Section 4.4)."""
        result = _untimed(example, psi, registry)
        for monitor in result.monitors:
            assert len(monitor.views) <= psi.num_states
