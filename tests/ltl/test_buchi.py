"""Tests for the LTL -> Büchi translation and per-state emptiness."""

import pytest
from buchi_oracle import successors

from repro.ltl import (
    Not,
    ltl_to_buchi,
    nonempty_states,
    parse,
)
from repro.ltl.buchi import Guard, is_satisfiable


def accepts_prefix(automaton, word):
    """Whether some run on *word* ends in a state with non-empty language."""
    current = set(automaton.initial)
    for letter in word:
        current = set().union(*(successors(automaton, state, letter) for state in current))
    return bool(current & nonempty_states(automaton))


def w(*names):
    return [frozenset(name) for name in names]


class TestGuard:
    def test_satisfaction(self):
        g = Guard(frozenset({"a"}), frozenset({"b"}))
        assert g.satisfied_by(frozenset({"a"}))
        assert g.satisfied_by(frozenset({"a", "c"}))
        assert not g.satisfied_by(frozenset({"a", "b"}))
        assert not g.satisfied_by(frozenset())

    def test_empty_guard_is_true(self):
        g = Guard(frozenset(), frozenset())
        assert g.satisfied_by(frozenset())
        assert str(g) == "true"


class TestBuchiConstruction:
    @pytest.mark.parametrize(
        "text",
        ["p", "!p", "p & q", "p | q", "X p", "p U q", "p R q", "F p", "G p",
         "G F p", "F G p", "G(p -> F q)", "G(p -> (q U r))", "(p U q) & (r U s)"],
    )
    def test_automaton_well_formed(self, text):
        automaton = ltl_to_buchi(parse(text))
        assert automaton.initial <= automaton.states
        assert automaton.accepting <= automaton.states
        for state, edges in automaton.transitions.items():
            assert state in automaton.states
            for guard, target in edges:
                assert target in automaton.states
                assert not guard.positive & guard.negative  # consistent

    def test_satisfiable_formulas_have_nonempty_language(self):
        for text in ["p", "F p", "G p", "p U q", "G F p", "G(p -> F q)"]:
            assert is_satisfiable(parse(text)), text

    def test_unsatisfiable_formulas(self):
        for text in ["false", "p & !p", "F p & G !p", "(G p) & F !p"]:
            assert not is_satisfiable(parse(text)), text

    def test_an_until_fulfilled_by_true_is_accepted(self):
        # `true` never enters a tableau node's literals, so the acceptance
        # set of `p U true` was empty and `G(p U true)` read unsatisfiable
        assert is_satisfiable(parse("G(p U true)"))

    def test_valid_formula_negation_unsat(self):
        assert not is_satisfiable(Not(parse("p | !p")))
        assert not is_satisfiable(Not(parse("(G p) -> p")))

    def test_a_deep_tableau_does_not_exhaust_the_stack(self):
        # a tableau expanded one call per processed subformula ran out of
        # stack on this formula (and on a few in a thousand random ones)
        text = (
            "((((G((P2.p & P0.p) -> F(P0.p)) & G((!P1.p & P0.p) -> F(P1.p)))"
            " & ((!P0.p | P2.p) R (!P1.p | P0.p))) & G((!P0.p & P1.p) -> (!P0.p U P0.p)))"
            " | ((P2.p & P1.p) R !P1.p))"
        )
        assert is_satisfiable(parse(text))


class TestPrefixAcceptance:
    """``accepts_prefix`` realises the B̂_φ NFA of the LTL3 construction:
    a finite word is accepted iff it has an infinite extension satisfying φ."""

    def test_safety_prefix(self):
        automaton = ltl_to_buchi(parse("G p"))
        assert accepts_prefix(automaton, w("p", "p"))
        assert not accepts_prefix(automaton, w("p", ""))

    def test_cosafety_prefix(self):
        automaton = ltl_to_buchi(parse("F p"))
        assert accepts_prefix(automaton, w("", ""))  # still extendable
        assert accepts_prefix(automaton, w("p"))

    def test_negation_of_cosafety(self):
        automaton = ltl_to_buchi(parse("!(F p)"))  # G !p
        assert accepts_prefix(automaton, w("", ""))
        assert not accepts_prefix(automaton, w("p"))

    def test_until(self):
        automaton = ltl_to_buchi(parse("p U q"))
        assert accepts_prefix(automaton, w("p", "p"))
        assert accepts_prefix(automaton, w("q"))
        assert not accepts_prefix(automaton, w("", ""))

    def test_empty_word_accepted_iff_satisfiable(self):
        assert accepts_prefix(ltl_to_buchi(parse("G p")), [])
        assert not accepts_prefix(ltl_to_buchi(parse("p & !p")), [])

    def test_next(self):
        automaton = ltl_to_buchi(parse("X p"))
        assert accepts_prefix(automaton, w(""))
        assert accepts_prefix(automaton, w("", "p"))
        assert not accepts_prefix(automaton, w("", ""))

    def test_liveness_never_refutable(self):
        automaton = ltl_to_buchi(parse("G F p"))
        # no finite prefix can rule out G F p
        for word in [[], w(""), w("", ""), w("p", "", "")]:
            assert accepts_prefix(automaton, word)


class TestNonemptyStates:
    def test_all_states_live_for_tautology(self):
        automaton = ltl_to_buchi(parse("true"))
        live = nonempty_states(automaton)
        assert automaton.initial <= live

    def test_no_initial_live_state_for_contradiction(self):
        automaton = ltl_to_buchi(parse("p & !p"))
        live = nonempty_states(automaton)
        assert not (automaton.initial & live)

    def test_live_set_is_subset_of_states(self):
        automaton = ltl_to_buchi(parse("G(p -> (q U r))"))
        assert nonempty_states(automaton) <= automaton.states

    def test_atoms_parameter_recorded(self):
        automaton = ltl_to_buchi(parse("p"), atoms=["p", "q", "r"])
        assert automaton.atoms == ("p", "q", "r")

    def test_counts_are_positive(self):
        automaton = ltl_to_buchi(parse("G(p -> F q)"))
        assert len(automaton.states) >= 2
        assert sum(map(len, automaton.transitions.values())) >= 1
