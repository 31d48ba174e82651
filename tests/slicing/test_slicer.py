"""Tests for computation slicing and conjunctive predicate detection."""

import pytest
from slicer import Slice, least_consistent_cut, satisfying_cuts

from repro.distributed import ComputationLattice, running_example, running_example_registry
from repro.ltl import Proposition, PropositionRegistry


@pytest.fixture(scope="module")
def example():
    return running_example()


@pytest.fixture(scope="module")
def registry():
    return running_example_registry()


class TestLeastConsistentCut:
    def test_empty_guard_returns_start(self, example, registry):
        assert least_consistent_cut(example, registry, {}) == (0, 0)
        assert least_consistent_cut(example, registry, {}, start=(2, 2)) == (2, 2)

    def test_paper_predicate_x1_ge_5_and_x2_ge_15(self, example, registry):
        """The sub-lattice satisfying (x1>=5 & x2>=15) starts at <e1_2, e2_2>."""
        guard = {"x1>=5": True, "x2>=15": True}
        assert least_consistent_cut(example, registry, guard) == (2, 2)

    def test_local_predicate_only(self, example, registry):
        assert least_consistent_cut(example, registry, {"x1>=5": True}) == (2, 0)
        assert least_consistent_cut(example, registry, {"x2>=15": True}) == (1, 2)

    def test_negated_conjunct(self, example, registry):
        # x1 >= 5 and x1 != 10 -> exactly after e1_2
        guard = {"x1>=5": True, "x1=10": False}
        assert least_consistent_cut(example, registry, guard) == (2, 0)

    def test_unsatisfiable_guard_returns_none(self, example, registry):
        # x1 = 10 and x1 < 5 can never hold together
        guard = {"x1>=5": False, "x1=10": True}
        assert least_consistent_cut(example, registry, guard) is None

    def test_start_beyond_satisfaction_advances_monotonically(self, example, registry):
        guard = {"x1=10": True}
        assert least_consistent_cut(example, registry, guard, start=(1, 1)) == (3, 1)

    def test_result_is_least(self, example, registry):
        """The returned cut is dominated by every satisfying cut above start."""
        guard = {"x1>=5": True, "x2>=15": True}
        least = least_consistent_cut(example, registry, guard)
        for cut in satisfying_cuts(example, registry, guard):
            assert all(l <= c for l, c in zip(least, cut))

    def test_result_satisfies_guard_and_is_consistent(self, example, registry):
        for guard in [
            {"x1>=5": True},
            {"x1=10": True},
            {"x2>=15": True, "x1=10": True},
            {"x1>=5": True, "x2>=15": False},
        ]:
            cut = least_consistent_cut(example, registry, guard)
            assert cut is not None
            assert example.is_consistent_cut(cut)
            letter = registry.letter_of(example.global_state(cut))
            assert all((atom in letter) == value for atom, value in guard.items())

    def test_bad_start_arity(self, example, registry):
        with pytest.raises(ValueError):
            least_consistent_cut(example, registry, {}, start=(0, 0, 0))


class TestSatisfyingCuts:
    def test_matches_lattice_filter(self, example, registry):
        guard = {"x1>=5": True, "x2>=15": True}
        cuts = satisfying_cuts(example, registry, guard)
        lattice = ComputationLattice.from_computation(example)
        expected = [
            cut
            for cut in lattice.cuts()
            if registry.letter_of(example.global_state(cut))
            >= frozenset({"x1>=5", "x2>=15"})
        ]
        assert sorted(cuts) == sorted(expected)

    def test_empty_guard_gives_all_cuts(self, example, registry):
        lattice = ComputationLattice.from_computation(example)
        assert len(satisfying_cuts(example, registry, {})) == len(lattice)


class TestSlice:
    def test_slice_of_satisfiable_predicate(self, example, registry):
        guard = {"x1>=5": True, "x2>=15": True}
        computed = Slice.compute(example, registry, guard)
        assert not computed.is_empty
        assert computed.least == (2, 2)
        # every satisfying cut is in the slice and contains the least cut
        for cut in computed.cuts():
            assert computed.contains(cut)
            assert all(l <= c for l, c in zip(computed.least, cut))

    def test_slice_join_irreducibles_are_satisfying(self, example, registry):
        guard = {"x1>=5": True}
        computed = Slice.compute(example, registry, guard)
        for cut in computed.join_irreducibles:
            assert computed.contains(cut)

    def test_satisfying_cuts_closed_under_join_and_meet(self, example, registry):
        """Conjunctive predicates are regular: their cuts form a sublattice."""
        guard = {"x1>=5": True, "x2>=15": True}
        cuts = satisfying_cuts(example, registry, guard)
        for a in cuts:
            for b in cuts:
                assert ComputationLattice.join(a, b) in cuts
                assert ComputationLattice.meet(a, b) in cuts

    def test_empty_slice(self, example, registry):
        computed = Slice.compute(example, registry, {"x1>=5": False, "x1=10": True})
        assert computed.is_empty
        assert computed.join_irreducibles == []
        assert computed.cuts() == []

    def test_contains_rejects_inconsistent_cut(self, example, registry):
        computed = Slice.compute(example, registry, {"x1>=5": True})
        assert not computed.contains((0, 1))

    def test_slice_example_from_section_4_1(self):
        """Slices for (x1 >= 0 & x2 != 20) in the running example: the
        satisfying cuts are those before x2 becomes 20."""
        example = running_example()
        registry = PropositionRegistry(
            [
                Proposition.comparison("x1>=0", 0, "x1", ">=", 0),
                Proposition.comparison("x2!=20", 1, "x2", "!=", 20),
            ]
        )
        guard = {"x1>=0": True, "x2!=20": True}
        computed = Slice.compute(example, registry, guard)
        assert computed.least == (0, 0)
        cuts = computed.cuts()
        assert (1, 1) in cuts and (2, 1) in cuts
        assert all(cut[1] <= 2 for cut in cuts)
