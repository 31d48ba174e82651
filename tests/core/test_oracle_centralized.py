"""Tests for the lattice oracle and the centralized baseline."""

from functools import cache

import pytest

from repro.core import CentralizedMonitor, LatticeOracle
from repro.distributed import ComputationLattice, running_example, running_example_registry
from repro.ltl import PropositionRegistry, Verdict, build_monitor
from repro.sim import random_computation


@pytest.fixture(scope="module")
def example():
    return running_example()


@pytest.fixture(scope="module")
def registry():
    return running_example_registry()


@pytest.fixture(scope="module")
def psi(registry):
    # ψ = G((x1>=5) -> ((x2>=15) U (x1=10)))  (Fig. 2.3)
    return build_monitor("G({x1>=5} -> ({x2>=15} U {x1=10}))", atoms=registry.names)


def _verdicts_by_path_enumeration(oracle):
    """The path-by-path reference of ``LatticeOracle.evaluate``: the LTL3
    verdict of every maximal lattice path, each trace stepped on its own."""
    computation, automaton = oracle.computation, oracle.automaton

    @cache
    def letter(cut):
        return oracle.registry.letter_of(computation.global_state(cut))

    verdicts = set()
    for path in ComputationLattice.from_computation(computation).paths():
        state = automaton.initial_state
        for cut in path:
            state = automaton.step(state, letter(cut))
        verdicts.add(automaton.verdict(state))
    return frozenset(verdicts)


class TestLatticeOracle:
    def test_chapter3_analysis_of_running_example(self, example, registry, psi):
        """Fig. 3.1: paths through <e1_1> evaluate to ⊥ while the path that
        delays x1>=5 until after x2>=15 stays inconclusive."""
        oracle = LatticeOracle(example, psi, registry)
        result = oracle.evaluate()
        assert result.verdicts == frozenset({Verdict.BOTTOM, Verdict.INCONCLUSIVE})
        assert ComputationLattice.from_computation(example).count_paths() == 15

    def test_dp_matches_path_enumeration(self, example, registry, psi):
        oracle = LatticeOracle(example, psi, registry)
        result = oracle.evaluate()
        assert result.verdicts == _verdicts_by_path_enumeration(oracle)

    def test_dp_matches_enumeration_on_random_computations(self):
        for seed in range(8):
            computation = random_computation(2 + seed % 2, 6, seed=seed)
            registry = PropositionRegistry.boolean_grid(computation.num_processes)
            automaton = build_monitor("G(P0.p U P1.q)", atoms=registry.names)
            oracle = LatticeOracle(computation, automaton, registry)
            assert oracle.evaluate().verdicts == _verdicts_by_path_enumeration(oracle)

    def test_conclusive_verdicts_property(self, example, registry, psi):
        result = LatticeOracle(example, psi, registry).evaluate()
        assert result.conclusive_verdicts == frozenset({Verdict.BOTTOM})
        assert result.num_cuts == 17

    def test_conclusive_anywhere_is_conclusive_at_the_top(self):
        # LTL3 conclusive states are traps: one met at any cut is still
        # there at the top cut
        for seed in range(10):
            n = 2 + seed % 3
            computation = random_computation(n, 7, seed=seed)
            registry = PropositionRegistry.boolean_grid(n)
            automaton = build_monitor("F(P0.p & P1.p)", atoms=registry.names)
            result = LatticeOracle(computation, automaton, registry).evaluate()
            assert result.conclusive_verdicts == frozenset(
                v for v in result.verdicts if v.is_final
            )


class TestCentralizedMonitor:
    def test_matches_oracle_on_running_example(self, example, registry, psi):
        oracle = LatticeOracle(example, psi, registry).evaluate()
        result = CentralizedMonitor.monitor_computation(example, psi, registry)
        assert result.verdicts == oracle.verdicts
        assert result.final_states == oracle.final_states

    def test_one_message_per_event(self, example, registry, psi):
        result = CentralizedMonitor.monitor_computation(example, psi, registry)
        assert result.messages == example.num_events

    def test_matches_oracle_on_random_computations(self):
        for seed in range(10):
            n = 2 + seed % 3
            computation = random_computation(n, 7, seed=seed)
            registry = PropositionRegistry.boolean_grid(n)
            automaton = build_monitor("F(P0.p & P1.p)", atoms=registry.names)
            oracle = LatticeOracle(computation, automaton, registry).evaluate()
            result = CentralizedMonitor.monitor_computation(
                computation, automaton, registry
            )
            assert result.verdicts == oracle.verdicts

    def test_tracked_cuts_grow_with_concurrency(self, example, registry, psi):
        result = CentralizedMonitor.monitor_computation(example, psi, registry)
        assert result.tracked_cuts == 17  # the full lattice of Fig 2.2b

    def test_declared_final_verdicts(self, example, registry, psi):
        declared = CentralizedMonitor.monitor_computation_declared(example, psi, registry)
        assert declared == frozenset({Verdict.BOTTOM})
