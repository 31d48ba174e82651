"""Tests for the LTL formula AST and the parser."""

import pytest

from repro.ltl import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    Iff,
    Implies,
    LTLSyntaxError,
    Next,
    Not,
    Or,
    Release,
    Until,
    atoms_of,
    parse,
    subformulas,
)


class TestFormulaEquality:
    def test_atoms_with_same_name_are_equal(self):
        assert Atom("p") == Atom("p")
        assert hash(Atom("p")) == hash(Atom("p"))

    def test_atoms_with_different_names_differ(self):
        assert Atom("p") != Atom("q")

    def test_structural_equality(self):
        assert And(Atom("p"), Atom("q")) == And(Atom("p"), Atom("q"))
        assert Until(Atom("p"), Atom("q")) != Until(Atom("q"), Atom("p"))

    def test_different_operators_not_equal(self):
        assert And(Atom("p"), Atom("q")) != Or(Atom("p"), Atom("q"))
        assert Until(Atom("p"), Atom("q")) != Release(Atom("p"), Atom("q"))

    def test_constants_are_singletons_by_value(self):
        assert TRUE == TRUE
        assert FALSE == FALSE
        assert TRUE != FALSE

    def test_formula_usable_as_dict_key(self):
        table = {And(Atom("p"), Atom("q")): 1, Atom("p"): 2}
        assert table[And(Atom("p"), Atom("q"))] == 1
        assert table[Atom("p")] == 2

    def test_atom_requires_nonempty_name(self):
        with pytest.raises(ValueError):
            Atom("")

    def test_formulas_are_immutable(self):
        with pytest.raises(AttributeError):
            Atom("p").name = "q"
        with pytest.raises(AttributeError):
            And(Atom("p"), Atom("q")).left = Atom("r")


class TestOperatorOverloads:
    def test_and_or_invert(self):
        p, q = Atom("p"), Atom("q")
        assert (p & q) == And(p, q)
        assert (p | q) == Or(p, q)
        assert (~p) == Not(p)

    def test_rshift_builds_implication(self):
        p, q = Atom("p"), Atom("q")
        assert (p >> q) == Implies(p, q)


class TestTraversal:
    def test_atoms_of_collects_and_sorts(self):
        f = parse("G(b -> (a U c))")
        assert atoms_of(f) == ("a", "b", "c")

    def test_atoms_of_deduplicates(self):
        assert atoms_of(parse("p & p & q")) == ("p", "q")

    def test_subformulas_unique(self):
        f = And(Atom("p"), Atom("p"))
        subs = subformulas(f)
        assert len(subs) == 2  # the conjunction and one copy of p

    def test_is_temporal(self):
        def is_temporal(formula):
            temporal = (Next, Until, Release, Eventually, Always)
            return any(isinstance(node, temporal) for node in formula.walk())

        assert is_temporal(parse("G p"))
        assert is_temporal(parse("p U q"))
        assert is_temporal(parse("a & X b"))  # nested under a Boolean operator
        assert not is_temporal(parse("p & !q"))


class TestParser:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("p", Atom("p")),
            ("true", TRUE),
            ("false", FALSE),
            ("!p", Not(Atom("p"))),
            ("~p", Not(Atom("p"))),
            ("p & q", And(Atom("p"), Atom("q"))),
            ("p && q", And(Atom("p"), Atom("q"))),
            ("p | q", Or(Atom("p"), Atom("q"))),
            ("p || q", Or(Atom("p"), Atom("q"))),
            ("p -> q", Implies(Atom("p"), Atom("q"))),
            ("p => q", Implies(Atom("p"), Atom("q"))),
            ("p <-> q", Iff(Atom("p"), Atom("q"))),
            ("X p", Next(Atom("p"))),
            ("F p", Eventually(Atom("p"))),
            ("<> p", Eventually(Atom("p"))),
            ("G p", Always(Atom("p"))),
            ("[] p", Always(Atom("p"))),
            ("p U q", Until(Atom("p"), Atom("q"))),
            ("p R q", Release(Atom("p"), Atom("q"))),
            ("p V q", Release(Atom("p"), Atom("q"))),
        ],
    )
    def test_single_operators(self, text, expected):
        assert parse(text) == expected

    def test_dotted_atom_names(self):
        assert parse("P0.p & P1.q") == And(Atom("P0.p"), Atom("P1.q"))

    def test_braced_atoms(self):
        f = parse("G({x1 >= 5} -> ({x2 >= 15} U {x1 = 10}))")
        assert "x1 >= 5" in atoms_of(f)
        assert "x1 = 10" in atoms_of(f)

    def test_precedence_and_binds_tighter_than_or(self):
        assert parse("a | b & c") == Or(Atom("a"), And(Atom("b"), Atom("c")))

    def test_precedence_until_binds_tighter_than_and(self):
        assert parse("a & b U c") == And(Atom("a"), Until(Atom("b"), Atom("c")))

    def test_precedence_implication_weakest(self):
        assert parse("a & b -> c | d") == Implies(
            And(Atom("a"), Atom("b")), Or(Atom("c"), Atom("d"))
        )

    def test_implication_right_associative(self):
        assert parse("a -> b -> c") == Implies(Atom("a"), Implies(Atom("b"), Atom("c")))

    def test_until_right_associative(self):
        assert parse("a U b U c") == Until(Atom("a"), Until(Atom("b"), Atom("c")))

    def test_unary_operators_stack(self):
        assert parse("G F p") == Always(Eventually(Atom("p")))
        assert parse("! X p") == Not(Next(Atom("p")))

    def test_parentheses_override_precedence(self):
        assert parse("(a | b) & c") == And(Or(Atom("a"), Atom("b")), Atom("c"))

    def test_running_example_roundtrip(self):
        text = "G({x1>=5} -> ({x2>=15} U {x1=10}))"
        f = parse(text)
        # parsing the string rendering again yields the same structure for
        # formulas without braces
        assert parse("G(a -> (b U c))") == parse(str(parse("G(a -> (b U c))")))
        assert any(isinstance(node, Until) for node in f.walk())

    @pytest.mark.parametrize(
        "bad",
        ["", "p &", "& p", "(p", "p)", "p q", "U p", "p U", "G", "p # q"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(LTLSyntaxError):
            parse(bad)

    def test_parse_rejects_non_strings(self):
        with pytest.raises(TypeError):
            parse(42)  # type: ignore[arg-type]
