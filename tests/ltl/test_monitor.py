"""Tests for LTL3 monitor synthesis, against brute force and the Büchi oracle."""

import itertools

import pytest
from buchi_oracle import disagreements, equivalent, oracle_machine, random_cases
from lasso_semantics import ltl3_bruteforce

from repro.ltl import (
    Verdict,
    all_assignments,
    atoms_of,
    build_monitor,
    parse,
)


def _fires(transition, letter):
    """Whether *letter* (the set of true atoms) satisfies the transition's guard."""
    return all((atom in letter) == required for atom, required in transition.guard.items())


def w(*names):
    return [frozenset(name) for name in names]


class TestRunningExample:
    """The monitor of Fig. 2.3: ψ = G((x1>=5) -> ((x2>=15) U (x1=10)))."""

    @pytest.fixture(scope="class")
    def monitor(self):
        return build_monitor("G(a -> (b U c))")  # a=x1>=5, b=x2>=15, c=x1=10

    def test_three_states(self, monitor):
        assert monitor.num_states == 3

    def test_initial_verdict_inconclusive(self, monitor):
        assert monitor.verdict(monitor.initial_state) is Verdict.INCONCLUSIVE

    def test_has_bottom_state_but_no_top(self, monitor):
        verdicts = {monitor.verdict(s) for s in monitor.states}
        assert Verdict.BOTTOM in verdicts
        assert Verdict.TOP not in verdicts

    def test_violating_trace(self, monitor):
        # x1 >= 5 with x2 < 15 and x1 != 10 => violation
        assert monitor.verdict_of(w("a")) is Verdict.BOTTOM

    def test_pending_until(self, monitor):
        assert monitor.verdict_of(w("ab")) is Verdict.INCONCLUSIVE

    def test_until_discharged(self, monitor):
        assert monitor.verdict_of(w("ab", "c")) is Verdict.INCONCLUSIVE

    def test_bottom_is_trap(self, monitor):
        state = monitor.run(w("a"))
        for letter in all_assignments(monitor.atoms):
            assert monitor.step(state, letter) == state

    def test_final_state_marked(self, monitor):
        assert monitor.is_final(monitor.run(w("a")))
        assert not monitor.is_final(monitor.initial_state)


class TestVerdictsAgainstBruteforce:
    FORMULAS = [
        "G p",
        "F p",
        "p U q",
        "p R q",
        "X p",
        "X X p",
        "G(p -> F q)",
        "G(p -> (q U r))",
        "F(p & q)",
        "(F p) & (F q)",
        "(G p) | (G q)",
        "p U (q U r)",
        "G(p | q)",
        "!(p U q)",
    ]

    @pytest.mark.parametrize("text", FORMULAS)
    @pytest.mark.parametrize("method", ["automaton", "progression"])
    def test_monitor_matches_bruteforce_on_short_traces(self, text, method):
        """The library's machine (``progression``) and the Büchi oracle's
        (``automaton``) both read the brute-force verdict after every short
        trace, so the oracle the other tests lean on is checked too."""
        formula = parse(text)
        atoms = build_monitor(formula).atoms
        if method == "automaton":
            machine = oracle_machine(formula, atoms)
        else:
            machine = build_monitor(formula).compiled
        letters = all_assignments(atoms)
        for length in range(0, 3):
            for trace in itertools.product(letters, repeat=length):
                expected = ltl3_bruteforce(formula, list(trace), atoms=atoms,
                                           max_prefix=2, max_loop=2)
                got = machine.outputs[machine.run(map(machine.encode, trace))]
                assert got is expected, f"{text} on {trace}: {got} != {expected}"

    @pytest.mark.parametrize("text", FORMULAS)
    def test_verdicts_are_monotone(self, text):
        """Once ⊤ or ⊥ is reached the verdict never changes (Definition 11)."""
        monitor = build_monitor(text)
        letters = all_assignments(monitor.atoms)
        for state in monitor.states:
            if monitor.is_final(state):
                for letter in letters:
                    assert monitor.step(state, letter) == state

    @pytest.mark.parametrize("text", FORMULAS)
    def test_methods_agree(self, text):
        """The progression machine, minimised or not, outputs what the Büchi
        oracle's machine does after every word."""
        formula = parse(text)
        reference = oracle_machine(formula, atoms_of(formula))
        for minimize in (True, False):
            machine = build_monitor(formula, minimize=minimize).compiled
            assert equivalent(machine, reference)


class TestTransitionView:
    def test_deterministic_cover(self):
        """For every state and letter at least one conjunctive transition fires
        and all firing transitions agree on the target (determinism)."""
        monitor = build_monitor("G(a -> (b U c))")
        letters = all_assignments(monitor.atoms)
        for state in monitor.states:
            leaving = [t for t in monitor.transitions if t.source == state]
            for letter in letters:
                firing = [t for t in leaving if _fires(t, letter)]
                assert len(firing) >= 1
                assert {t.target for t in firing} == {monitor.step(state, letter)}

    def test_transition_ids_unique(self):
        monitor = build_monitor("G((a & b) U (c & d))")
        ids = [t.transition_id for t in monitor.transitions]
        assert len(ids) == len(set(ids))

    def test_self_loop_vs_outgoing_partition(self):
        monitor = build_monitor("G((a & b) U (c & d))")
        for t in monitor.transitions:
            assert (t in monitor.outgoing_transitions(t.source)) is not t.is_self_loop

    def test_counts_sum(self):
        monitor = build_monitor("G(a -> (b U c))")
        counts = monitor.transition_counts()
        assert counts["total"] == counts["outgoing"] + counts["self_loops"]

    def test_describe_contains_states_and_guards(self):
        monitor = build_monitor("F p")
        text = monitor.describe()
        assert "verdict" in text
        assert "-->" in text


class TestAlphabetExtension:
    def test_extra_atoms_allowed(self):
        monitor = build_monitor("F p", atoms=["p", "q"])
        assert monitor.atoms == ("p", "q")
        assert monitor.verdict_of([frozenset({"q"})]) is Verdict.INCONCLUSIVE
        assert monitor.verdict_of([frozenset({"p", "q"})]) is Verdict.TOP

    def test_missing_atoms_rejected(self):
        with pytest.raises(ValueError):
            build_monitor("p & q", atoms=["p"])

    def test_repeated_atoms_rejected(self):
        # a repeated name would leave a phantom variable that is always
        # false, so `F a` over ["a", "a"] would read `q1 --[!a]--> q1`
        with pytest.raises(ValueError, match="repeats"):
            build_monitor("F a", atoms=["a", "a"])

    def test_letters_may_contain_foreign_atoms(self):
        monitor = build_monitor("F p")
        assert monitor.verdict_of([frozenset({"p", "unrelated"})]) is Verdict.TOP


class TestPaperTable51:
    """Transition counts of the experimental automata (progression method)."""

    CASES = [
        ("G(P0.p U P1.p)", (7, 4, 3)),                               # A, 2 processes
        ("F(P0.p & P1.p)", (4, 1, 3)),                               # B, 2 processes
        ("G((P0.p & P1.p) U (P0.q & P1.q))", (15, 11, 4)),           # D, 2 processes
        ("F(P0.p & P1.p & P0.q & P1.q)", (6, 1, 5)),                 # E, 2 processes
        ("G(P0.p U (P1.p & P2.p))", (11, 7, 4)),                     # A/C, 3 processes
        ("G((P0.p & P1.p) U (P2.p & P3.p))", (15, 11, 4)),           # A, 4 processes
    ]

    @pytest.mark.parametrize("text, expected", CASES)
    def test_transition_counts_match_table(self, text, expected):
        monitor = build_monitor(text, minimize=False)
        counts = monitor.transition_counts()
        assert (counts["total"], counts["outgoing"], counts["self_loops"]) == expected


#: every (formula, alphabet) this file builds a monitor for
BUILT_HERE = [
    *((text, None) for text in TestVerdictsAgainstBruteforce.FORMULAS),
    ("G(a -> (b U c))", None),
    ("G((a & b) U (c & d))", None),
    ("F p", None),
    ("F p", ["p", "q"]),
    *((text, None) for text, _ in TestPaperTable51.CASES),
]

_COMMIT = sorted(f"P{p}.{a}" for p in range(4) for a in ("committed", "voted", "prepared"))
_DRONES = sorted(f"D{d}.{a}" for d in range(3) for a in ("armed", "on_station"))

#: the properties the examples monitor, over the alphabets they build them on
EXAMPLE_PROPERTIES = [
    # quickstart.py, the running example (Fig. 2.3)
    ("G({x1>=5} -> ({x2>=15} U {x1=10}))", ["x1=10", "x1>=5", "x2>=15"]),
    # swarm_coordination.py with three drones
    ("G(D0.armed & D1.armed & D2.armed)", _DRONES),
    ("F(D0.on_station & D1.on_station & D2.on_station)", _DRONES),
    # distributed_commit.py: 1 coordinator + 3 participants, 4 096 letters
    ("G((P1.committed | P2.committed | P3.committed) -> (P1.voted & P2.voted & P3.voted))",
     _COMMIT),
    ("F(P0.committed & P1.committed & P2.committed & P3.committed)", _COMMIT),
    ("(!P0.committed) U (P1.prepared & P2.prepared & P3.prepared)", _COMMIT),
]


class TestBuchiOracle:
    """Minimised machines equal the Büchi route's (``buchi_oracle.py``): the
    same number of states and the same verdict after every word."""

    @staticmethod
    def _cases(pairs):
        cases = []
        for text, atoms in pairs:
            formula = parse(text)
            cases.append((formula, atoms_of(formula) if atoms is None else atoms))
        return cases

    def test_every_formula_built_here(self):
        assert disagreements(self._cases(BUILT_HERE)) == ([], 0)

    @pytest.mark.parametrize("text, atoms", EXAMPLE_PROPERTIES)
    def test_example_properties(self, text, atoms):
        assert disagreements(self._cases([(text, atoms)])) == ([], 0)

    def test_seeded_random_formulas(self):
        # the full grammar (`<->`, `true` and `false` included) at depth 4;
        # the guard bounds the oracle's subset construction, and at this
        # seed it leaves out no formula
        assert disagreements(random_cases(seed=46, count=100), limit=300_000) == ([], 0)
