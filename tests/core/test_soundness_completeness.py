"""Randomised soundness and completeness tests against the lattice oracle.

These are the correctness obligations of Chapter 3 (the box replay that makes
them hold is described under "Differences from the thesis pseudo-code" in
``docs/architecture.md``):

* **Soundness** — every conclusive verdict (⊤/⊥) declared by any monitor is
  the verdict of some maximal lattice path.
* **Completeness (conclusive)** — every conclusive verdict reachable on some
  maximal lattice path is declared by at least one monitor.
* **Completeness (?)** — if some maximal path stays inconclusive, at least
  one monitor still holds an inconclusive view at termination.
* **Deadlock freedom** — the network quiesces and no parked token survives.
"""

import pytest

from repro.core import LatticeOracle
from repro.ltl import PropositionRegistry, Verdict, build_monitor
from repro.scenarios import ReliableNetwork
from repro.sim import random_computation, simulate_monitored_run

PROPERTIES_2P = [
    "G(P0.p U P1.p)",
    "F(P0.p & P1.p)",
    "G((P0.p & P1.p) U (P0.q & P1.q))",
    "G(P0.p -> F P1.q)",
    "F(P0.q) & G(P1.p | P0.p)",
    "G(!(P0.p & P1.p))",
    "(!P0.q) U P1.p",
]

PROPERTIES_3P = [
    "G(P0.p U (P1.p & P2.p))",
    "F(P0.p & P1.p & P2.p)",
    "G(!(P0.p & P1.p & P2.p))",
    "G(P0.p -> F(P1.q & P2.q))",
]


def _check(computation, registry, formula):
    automaton = build_monitor(formula, atoms=registry.names)
    oracle = LatticeOracle(computation, automaton, registry).evaluate()
    result = simulate_monitored_run(
        computation, automaton, registry, network=ReliableNetwork(latency=0.0, jitter=0.0)
    )

    # soundness of conclusive verdicts
    assert result.declared_verdicts <= oracle.conclusive_verdicts, (
        f"unsound: declared {result.declared_verdicts} but oracle allows "
        f"{oracle.conclusive_verdicts} for {formula}"
    )
    # completeness of conclusive verdicts
    assert oracle.conclusive_verdicts <= result.declared_verdicts, (
        f"incomplete: oracle {oracle.conclusive_verdicts}, declared "
        f"{result.declared_verdicts} for {formula}"
    )
    # completeness of the inconclusive verdict
    if Verdict.INCONCLUSIVE in oracle.verdicts:
        assert Verdict.INCONCLUSIVE in result.reported_verdicts
    # deadlock freedom / quiescence
    for monitor in result.monitors:
        assert monitor.is_quiescent
        assert not monitor.tokens.waiting
    return oracle, result


class TestTwoProcesses:
    @pytest.mark.parametrize("formula", PROPERTIES_2P)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_computations(self, formula, seed):
        computation = random_computation(2, 7 + seed % 4, seed=seed)
        registry = PropositionRegistry.boolean_grid(2)
        _check(computation, registry, formula)


class TestThreeProcesses:
    @pytest.mark.parametrize("formula", PROPERTIES_3P)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_computations(self, formula, seed):
        computation = random_computation(3, 8, seed=100 + seed)
        registry = PropositionRegistry.boolean_grid(3)
        _check(computation, registry, formula)


class TestFourProcesses:
    @pytest.mark.parametrize("seed", range(3))
    def test_case_study_style_property(self, seed):
        computation = random_computation(4, 9, seed=200 + seed)
        registry = PropositionRegistry.boolean_grid(4)
        _check(computation, registry, "G((P0.p & P1.p) U (P2.p & P3.p))")

    @pytest.mark.parametrize("seed", range(3))
    def test_eventually_property(self, seed):
        computation = random_computation(4, 9, seed=300 + seed)
        registry = PropositionRegistry.boolean_grid(4)
        _check(computation, registry, "F(P0.p & P1.p & P2.p & P3.p)")


class TestCommunicationHeavyComputations:
    """Computations with many messages stress the consistency-repair path."""

    @pytest.mark.parametrize("seed", range(4))
    def test_heavy_messaging(self, seed):
        computation = random_computation(
            3, 10, seed=400 + seed, send_probability=0.6
        )
        registry = PropositionRegistry.boolean_grid(3)
        _check(computation, registry, "G(P0.p U (P1.p & P2.p))")

    @pytest.mark.parametrize("seed", range(4))
    def test_no_messaging(self, seed):
        computation = random_computation(
            3, 8, seed=500 + seed, send_probability=0.0
        )
        registry = PropositionRegistry.boolean_grid(3)
        _check(computation, registry, "F(P0.p & P1.p & P2.p)")
