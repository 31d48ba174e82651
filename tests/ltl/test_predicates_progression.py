"""Tests for proposition registries and the progression construction."""

import itertools

import pytest
from buchi_oracle import equivalent, oracle_machine

from repro.experiments.properties import PROPERTY_NAMES, property_formula
from repro.ltl import (
    Proposition,
    PropositionRegistry,
    Verdict,
    atoms_of,
    build_monitor,
    parse,
)
from repro.ltl.ast import And, Atom, Or, Until
from repro.ltl.progression import (
    build_progression_machine,
    canonicalize,
    normal_form,
    progress,
)


class TestProposition:
    def test_variable_proposition(self):
        p = Proposition.variable("P0.p", 0, "p")
        assert p.holds_in({"p": True})
        assert not p.holds_in({"p": False})
        assert not p.holds_in({})

    @pytest.mark.parametrize(
        "op, constant, value, expected",
        [
            (">=", 5, 7, True),
            (">=", 5, 4, False),
            ("==", 10, 10, True),
            ("==", 10, 9, False),
            ("!=", 10, 9, True),
            ("<", 15, 20, False),
            ("<=", 15, 15, True),
            (">", 0, 1, True),
        ],
    )
    def test_comparison_proposition(self, op, constant, value, expected):
        p = Proposition.comparison("x", 0, "x", op, constant)
        assert p.holds_in({"x": value}) is expected

    def test_invalid_operator(self):
        with pytest.raises(ValueError):
            Proposition.comparison("x", 0, "x", "<>", 3)


class TestPropositionRegistry:
    @pytest.fixture
    def registry(self):
        return PropositionRegistry(
            [
                Proposition.comparison("x1>=5", 0, "x1", ">=", 5),
                Proposition.comparison("x1=10", 0, "x1", "==", 10),
                Proposition.comparison("x2>=15", 1, "x2", ">=", 15),
            ]
        )

    def test_names_sorted(self, registry):
        assert registry.names == ["x1=10", "x1>=5", "x2>=15"]

    def test_owner_lookup(self, registry):
        assert registry.owner_of("x2>=15") == 1
        assert registry.owner_of("x1>=5") == 0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            PropositionRegistry(
                [Proposition.variable("p", 0, "p"), Proposition.variable("p", 1, "p")]
            )

    def test_local_letter(self, registry):
        assert registry.local_letter(0, {"x1": 10}) == frozenset({"x1>=5", "x1=10"})
        assert registry.local_letter(1, {"x2": 0}) == frozenset()

    def test_letter_of_global_state(self, registry):
        letter = registry.letter_of([{"x1": 5}, {"x2": 20}])
        assert letter == frozenset({"x1>=5", "x2>=15"})

    def test_conjuncts_by_process(self, registry):
        guard = {"x1>=5": True, "x2>=15": False, "x1=10": False}
        per_process = registry.conjuncts_by_process(guard, 2)
        assert per_process[0] == {"x1>=5": True, "x1=10": False}
        assert per_process[1] == {"x2>=15": False}

    def test_local_conjunct_holds(self, registry):
        # a process's part of a guard holds when each of its atoms has the
        # required value in that process's local state
        def holds(process, guard, local_state):
            conjunct = registry.conjuncts_by_process(guard, 2)[process]
            return all(
                registry[atom].holds_in(local_state) == required
                for atom, required in conjunct.items()
            )

        guard = {"x1>=5": True, "x1=10": False, "x2>=15": True}
        assert holds(0, guard, {"x1": 7})
        assert not holds(0, guard, {"x1": 2})
        assert not holds(0, guard, {"x1": 10})
        assert holds(1, guard, {"x2": 20})

    def test_local_conjunct_wrong_owner(self, registry):
        # an atom of process 1 is never part of process 0's conjunct
        per_process = registry.conjuncts_by_process({"x2>=15": True}, 2)
        assert per_process[0] == {}
        assert per_process[1] == {"x2>=15": True}
        assert registry.owner_of("x2>=15") == 1

    def test_contains_and_len(self, registry):
        assert "x1>=5" in registry
        assert "missing" not in registry
        assert len(registry) == 3

    def test_boolean_grid(self):
        registry = PropositionRegistry.boolean_grid(3)
        assert len(registry) == 6
        assert registry.owner_of("P2.q") == 2
        assert registry.local_letter(1, {"p": True, "q": False}) == frozenset({"P1.p"})


class TestProgression:
    def test_progress_atom(self):
        assert progress(Atom("p"), frozenset({"p"})) == parse("true")
        assert progress(Atom("p"), frozenset()) == parse("false")

    def test_progress_until_pending(self):
        f = Until(Atom("p"), Atom("q"))
        assert progress(f, frozenset({"p"})) == f
        assert progress(f, frozenset({"q"})) == parse("true")
        assert progress(f, frozenset()) == parse("false")

    def test_progress_always(self):
        from repro.ltl import to_nnf

        f = to_nnf(parse("G p"))
        assert progress(f, frozenset()) == parse("false")
        assert progress(f, frozenset({"p"})) == f

    def test_canonicalize_flattens_and_sorts(self):
        f1 = And(And(Atom("c"), Atom("a")), Atom("b"))
        f2 = And(Atom("a"), And(Atom("b"), Atom("c")))
        assert canonicalize(f1) == canonicalize(f2)

    def test_canonicalize_deduplicates(self):
        assert canonicalize(And(Atom("a"), Atom("a"))) == Atom("a")
        assert canonicalize(Or(Atom("a"), Atom("a"))) == Atom("a")

    def test_canonicalize_constants(self):
        assert canonicalize(parse("a & false")) == parse("false")
        assert canonicalize(parse("a | true")) == parse("true")
        assert canonicalize(parse("a & true")) == Atom("a")

    @pytest.mark.parametrize("name", PROPERTY_NAMES)
    def test_machine_labels_agree_with_the_minimal_monitor(self, name):
        # every word of length <= 3 over the property's alphabet at n = 2
        formula = parse(property_formula(name, 2))
        machine, formulas = build_progression_machine(formula)
        assert len(formulas) == machine.num_states
        reference = oracle_machine(formula, atoms_of(formula))
        for length in range(4):
            for word in itertools.product(range(machine.n_letters), repeat=length):
                assert machine.outputs[machine.run(word)] == reference.outputs[reference.run(word)]

    def test_machine_verdicts_without_reference(self):
        formula = parse("G(P0.p U P1.p)")
        machine, _ = build_progression_machine(formula)
        verdicts = set(machine.outputs)
        assert verdicts == {Verdict.INCONCLUSIVE, Verdict.BOTTOM}

    @pytest.mark.parametrize(
        "atoms, message",
        [
            (["p"], r"mentions atoms not in the alphabet: \['q'\]"),  # q would never hold
            (["p", "q", "p"], r"repeats atoms: \['p'\]"),  # 8 letters, 4 masks
        ],
    )
    @pytest.mark.parametrize("build", [build_progression_machine, build_monitor])
    def test_bad_alphabet_is_refused(self, build, atoms, message):
        with pytest.raises(ValueError, match=message):
            build(parse("p U q"), atoms)

    def test_max_states_guard(self):
        with pytest.raises(RuntimeError, match="max_states=1"):
            build_progression_machine(parse("G(a -> (b U c))"), max_states=1)

    @pytest.mark.parametrize(
        "text, states",
        [("G p U G q", 4), ("(G p) U (F q)", 2), ("G(p) U G(p)", 2)],
    )
    def test_formulas_that_rewrap_themselves_converge(self, text, states):
        # keyed on syntax, progression kept producing ever deeper formulas
        # here; keyed on the normal form it converges to the oracle's machine
        formula = parse(text)
        monitor = build_monitor(formula)
        assert monitor.num_states == states
        assert equivalent(monitor.compiled, oracle_machine(formula, atoms_of(formula)))

    def test_progression_minimized_equals_automaton_method(self):
        for text in ["G(P0.p U P1.p)", "F(P0.p & P1.p)", "G(a -> (b U c))"]:
            formula = parse(text)
            reference = oracle_machine(formula, atoms_of(formula))
            machine = build_monitor(formula).compiled
            assert machine.num_states == reference.num_states
            assert equivalent(machine, reference)


class TestNormalForm:
    def test_absorption_and_distribution(self):
        a, b, c = Atom("a"), Until(Atom("b"), Atom("c")), Atom("c")
        # a | (a & b) absorbs to a; (a | b) & (a | c) distributes to a | (b & c)
        assert normal_form(canonicalize(Or(a, And(a, b)))) == normal_form(a)
        assert normal_form(canonicalize(And(Or(a, b), Or(a, c)))) == normal_form(
            canonicalize(Or(a, And(b, c)))
        )

    def test_constants(self):
        assert normal_form(parse("true")) == frozenset({frozenset()})
        assert normal_form(parse("false")) == frozenset()
