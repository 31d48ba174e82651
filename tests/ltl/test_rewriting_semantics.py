"""Tests for NNF rewriting and the reference (lasso) semantics."""

import pytest
from lasso_semantics import evaluate_lasso, ltl3_bruteforce

from repro.ltl import (
    FALSE,
    TRUE,
    Atom,
    Not,
    Verdict,
    all_assignments,
    parse,
    to_nnf,
)
from repro.ltl.ast import And, Next, Or, Release, Until
from repro.ltl.progression import canonicalize
from repro.ltl.rewriting import expand, negate


def letters(*names):
    """Shorthand building a trace of letters from strings like 'pq', '', 'q'."""
    return [frozenset(name) for name in names]


class TestNNF:
    def test_implication_expanded(self):
        assert to_nnf(parse("p -> q")) == Or(Not(Atom("p")), Atom("q"))

    def test_eventually_expanded_to_until(self):
        assert to_nnf(parse("F p")) == Until(TRUE, Atom("p"))

    def test_always_expanded_to_release(self):
        assert to_nnf(parse("G p")) == Release(FALSE, Atom("p"))

    def test_negated_until_becomes_release(self):
        f = to_nnf(parse("!(p U q)"))
        assert isinstance(f, Release)
        assert f.left == Not(Atom("p"))
        assert f.right == Not(Atom("q"))

    def test_negated_release_becomes_until(self):
        f = to_nnf(parse("!(p R q)"))
        assert isinstance(f, Until)

    def test_double_negation_removed(self):
        assert to_nnf(parse("!!p")) == Atom("p")

    def test_negation_pushed_through_next(self):
        assert to_nnf(parse("!X p")) == Next(Not(Atom("p")))

    def test_de_morgan(self):
        assert to_nnf(parse("!(p & q)")) == Or(Not(Atom("p")), Not(Atom("q")))
        assert to_nnf(parse("!(p | q)")) == And(Not(Atom("p")), Not(Atom("q")))

    def test_nnf_contains_no_negated_compounds(self):
        f = to_nnf(parse("!((p -> q) U (G r))"))
        for sub in f.walk():
            if isinstance(sub, Not):
                assert isinstance(sub.operand, Atom)

    def test_negate_is_involutive_semantically(self):
        f = parse("(p U q) & G r")
        trace_prefix = letters("p", "pq")
        loop = letters("r")
        assert evaluate_lasso(f, trace_prefix, loop) != evaluate_lasso(
            negate(f), trace_prefix, loop
        )

    @pytest.mark.parametrize(
        "formula",
        ["p", "!p", "p & q", "p | q", "p U q", "p R q", "X p", "F p", "G p",
         "p -> q", "p <-> q", "G(p -> F q)", "!((a U b) | X c)"],
    )
    def test_nnf_preserves_semantics_on_sample_lassos(self, formula):
        f = parse(formula)
        g = to_nnf(f)
        atoms = ("a", "b", "c", "p", "q", "r")
        samples = [
            (letters("p", "q"), letters("pq")),
            (letters(""), letters("")),
            (letters("a"), letters("b", "c")),
            (letters(), letters("pqr")),
            (letters("q"), letters("p")),
        ]
        for prefix, loop in samples:
            assert evaluate_lasso(f, prefix, loop) == evaluate_lasso(g, prefix, loop)


class TestCanonicalFolding:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("p & true", "p"),
            ("true & p", "p"),
            ("p & false", "false"),
            ("p | true", "true"),
            ("p | false", "p"),
            ("p & p", "p"),
            ("p | p", "p"),
            ("!true", "false"),
            ("!false", "true"),
        ],
    )
    def test_constant_folding(self, text, expected):
        assert canonicalize(parse(text)) == parse(expected)

    def test_expand_removes_sugar(self):
        f = expand(parse("G(p <-> q)"))
        from repro.ltl.ast import Iff, Implies, Eventually as Ev, Always as Al

        for sub in f.walk():
            assert not isinstance(sub, (Iff, Implies, Ev, Al))


class TestLassoSemantics:
    def test_atom_at_position_zero(self):
        assert evaluate_lasso(parse("p"), letters("p"), letters(""))
        assert not evaluate_lasso(parse("p"), letters(""), letters("p"))

    def test_next(self):
        assert evaluate_lasso(parse("X p"), letters("", "p"), letters(""))
        assert not evaluate_lasso(parse("X p"), letters("p", ""), letters(""))

    def test_next_wraps_into_loop(self):
        # word = "" ("p")^w : X p holds at position 0
        assert evaluate_lasso(parse("X p"), letters(""), letters("p"))

    def test_always_on_loop(self):
        assert evaluate_lasso(parse("G p"), [], letters("p"))
        assert not evaluate_lasso(parse("G p"), letters("p"), letters("p", ""))

    def test_eventually(self):
        assert evaluate_lasso(parse("F p"), letters("", "", "p"), letters(""))
        assert not evaluate_lasso(parse("F p"), letters("", ""), letters(""))

    def test_until_requires_eventual_right(self):
        assert evaluate_lasso(parse("p U q"), letters("p", "p", "q"), letters(""))
        assert not evaluate_lasso(parse("p U q"), letters("p"), letters("p"))

    def test_until_fails_when_left_breaks(self):
        assert not evaluate_lasso(parse("p U q"), letters("p", "", "q"), letters(""))

    def test_release_held_forever(self):
        assert evaluate_lasso(parse("p R q"), [], letters("q"))

    def test_release_released(self):
        assert evaluate_lasso(parse("p R q"), letters("q", "pq"), letters(""))
        assert not evaluate_lasso(parse("p R q"), letters("q", "p"), letters(""))

    def test_nested_gf(self):
        # G F p on a loop that contains p infinitely often
        assert evaluate_lasso(parse("G F p"), letters(""), letters("", "p"))
        assert not evaluate_lasso(parse("G F p"), letters("p"), letters(""))

    def test_response_property(self):
        f = parse("G(r -> F g)")
        assert evaluate_lasso(f, letters("r", "g"), letters(""))
        assert not evaluate_lasso(f, letters("r"), letters(""))

    def test_position_argument(self):
        f = parse("p")
        assert evaluate_lasso(f, letters("", "p"), letters(""), position=1)

    def test_position_out_of_range(self):
        with pytest.raises(IndexError):
            evaluate_lasso(parse("p"), letters("p"), letters(""), position=5)

    def test_empty_loop_rejected(self):
        with pytest.raises(ValueError):
            evaluate_lasso(parse("p"), letters("p"), [])


class TestAssignments:
    def test_all_assignments_count(self):
        assert len(all_assignments(["a", "b", "c"])) == 8

    def test_all_assignments_unique(self):
        assignments = all_assignments(["a", "b"])
        assert len(set(assignments)) == 4

    def test_empty_atom_list(self):
        assert all_assignments([]) == [frozenset()]


class TestBruteforceLTL3:
    def test_safety_violation_is_bottom(self):
        assert ltl3_bruteforce(parse("G p"), letters("p", "")) is Verdict.BOTTOM

    def test_cosafety_satisfaction_is_top(self):
        assert ltl3_bruteforce(parse("F p"), letters("", "p")) is Verdict.TOP

    def test_open_trace_is_inconclusive(self):
        assert ltl3_bruteforce(parse("F p"), letters("", "")) is Verdict.INCONCLUSIVE
        assert ltl3_bruteforce(parse("G p"), letters("p", "p")) is Verdict.INCONCLUSIVE

    def test_empty_trace(self):
        assert ltl3_bruteforce(parse("G p"), []) is Verdict.INCONCLUSIVE
        assert ltl3_bruteforce(parse("true"), []) is Verdict.TOP
        assert ltl3_bruteforce(parse("false"), []) is Verdict.BOTTOM

    def test_until_example_from_paper(self):
        # ψ = G((x1>=5) -> ((x2>=15) U (x1=10))) over the running example
        psi = parse("G(a -> (b U c))")  # a = x1>=5, b = x2>=15, c = x1=10
        violating = [frozenset(), frozenset({"a"})]  # a true, b false, c false
        assert ltl3_bruteforce(psi, violating) is Verdict.BOTTOM
        pending = [frozenset(), frozenset({"a", "b"})]
        assert ltl3_bruteforce(psi, pending) is Verdict.INCONCLUSIVE
