"""The step kernel: every cell of the table progression writes is the
progression of its state's formula, and stepping reads that one table."""

import hypothesis.strategies as st
import pytest
from buchi_oracle import progression_rule_breaks, random_cases, table_violations
from hypothesis import given, settings

from repro.experiments.properties import PROPERTY_NAMES, case_study_monitor, property_formula
from repro.ltl import CompiledMachine, build_monitor, parse
from repro.ltl.ast import (
    Always,
    And,
    Atom,
    Eventually,
    Implies,
    Next,
    Not,
    Or,
    Release,
    Until,
)
from repro.ltl.progression import _formula_verdict, build_progression_machine

ATOMS = ("p", "q", "r")


def formulas(max_depth=3):
    """Random LTL formulas over ATOMS (mirrors test_hypothesis_ltl)."""
    leaves = st.sampled_from([Atom(a) for a in ATOMS])

    def extend(children):
        unary = st.builds(
            lambda op, f: op(f),
            st.sampled_from([Not, Next, Eventually, Always]),
            children,
        )
        binary = st.builds(
            lambda op, f, g: op(f, g),
            st.sampled_from([And, Or, Implies, Until, Release]),
            children,
            children,
        )
        return unary | binary

    return st.recursive(leaves, extend, max_leaves=6)

#: letters drawn over the machine's atoms plus foreign atoms of processes
#: the formula never mentions — encoding a letter must project these away
FOREIGN = ("P7.x", "P8.y")
letters_with_foreign = st.frozensets(st.sampled_from(ATOMS + FOREIGN))
words = st.lists(letters_with_foreign, min_size=0, max_size=30)


class TestCompileMachine:
    def test_case_study_machines_compile(self):
        monitor = build_monitor("F(P0.p & P1.p)", atoms=("P0.p", "P1.p", "P2.p"))
        compiled = monitor.compiled
        assert isinstance(compiled, CompiledMachine)
        assert compiled.n_letters == 8
        assert compiled.initial == monitor.initial_state
        assert len(compiled.table) == compiled.num_states * compiled.n_letters

    def test_compiled_property_is_cached(self):
        monitor = build_monitor("G p", atoms=("p",))
        assert monitor.compiled is monitor.compiled

    def test_mask_is_column_index(self):
        # atoms in sorted order define the bit layout: atom i <-> bit 1<<i
        monitor = build_monitor("p U q", atoms=("p", "q"))
        compiled = monitor.compiled
        assert compiled.atoms == ("p", "q")
        assert compiled.encode(frozenset()) == 0
        assert compiled.encode({"p"}) == 1
        assert compiled.encode({"q"}) == 2
        assert compiled.encode({"p", "q"}) == 3
        for mask in range(compiled.n_letters):
            assert compiled.encode(compiled.decode(mask)) == mask

    def test_foreign_atoms_projected_in_encode(self):
        monitor = build_monitor("F p", atoms=("p",))
        compiled = monitor.compiled
        assert compiled.encode({"p", "P7.x"}) == compiled.encode({"p"})
        assert compiled.encode({"P7.x"}) == 0

    def test_no_table_size_cap(self):
        # the machine the old 4-entry monkeypatched cap turned away
        import repro.ltl.compiled as compiled_mod

        assert not hasattr(compiled_mod, "MAX_TABLE_ENTRIES")
        monitor = build_monitor("p U q", atoms=("p", "q"))
        assert len(monitor.compiled.table) > 4

    def test_final_flags_follow_verdicts(self):
        monitor = build_monitor("F p", atoms=("p",))
        compiled = monitor.compiled
        for state in range(compiled.num_states):
            assert compiled.final_flags[state] == monitor.is_final(state)
            assert compiled.outputs[state] == monitor.verdict(state)
        # ⊤/⊥ are trap states in LTL3: a conclusive state reaches only itself
        for state in range(compiled.num_states):
            if compiled.final_flags[state]:
                assert monitor.reach_bits[state] == 1 << state


class TestCompiledEquivalence:
    @given(formulas(), words)
    @settings(max_examples=150, deadline=None)
    def test_step_sequence_identical(self, formula, word):
        """Random formula × random word (with foreign atoms): stepping by
        letter and by encoded mask visit the same states and verdicts."""
        monitor = build_monitor(formula, atoms=ATOMS)
        compiled = monitor.compiled
        state = monitor.initial_state
        cstate = compiled.initial
        assert state == cstate
        for letter in word:
            state = monitor.step(state, letter)
            cstate = compiled.step(cstate, compiled.encode(letter))
            assert cstate == state
            assert compiled.outputs[cstate] == monitor.verdict(state)
            assert compiled.final_flags[cstate] == monitor.is_final(state)

    @given(formulas(), words)
    @settings(max_examples=100, deadline=None)
    def test_run_batch_matches_interpreted_trajectory(self, formula, word):
        monitor = build_monitor(formula, atoms=ATOMS)
        compiled = monitor.compiled
        masks = [compiled.encode(letter) for letter in word]
        state = monitor.initial_state
        first_final = -1
        for i, letter in enumerate(word):
            state = monitor.step(state, letter)
            if first_final < 0 and monitor.is_final(state):
                first_final = i
        assert compiled.run_batch(compiled.initial, masks) == (state, first_final)
        assert compiled.run(masks) == state

    @given(formulas(), words)
    @settings(max_examples=60, deadline=None)
    def test_run_batch_from_every_visited_state(self, formula, word):
        """Batching must agree with stepping from arbitrary mid-run states,
        including conclusive ones (absorbing fast path)."""
        monitor = build_monitor(formula, atoms=ATOMS)
        compiled = monitor.compiled
        masks = [compiled.encode(letter) for letter in word]
        start = monitor.initial_state
        for cut in range(len(word) + 1):
            state = start
            first_final = -1
            for i in range(cut, len(word)):
                state = monitor.step(state, word[i])
                if first_final < 0 and monitor.is_final(state):
                    first_final = i - cut
            assert compiled.run_batch(start, masks[cut:]) == (state, first_final)
            if cut < len(word):
                start = monitor.step(start, word[cut])

    @given(formulas())
    @settings(max_examples=60, deadline=None)
    def test_every_cell_is_its_state_progressed(self, formula):
        """Every (state, mask) cell of the table progression writes holds
        the state of the state's formula progressed through the letter."""
        machine, state_formulas = build_progression_machine(formula, ATOMS)
        assert len(machine.table) == machine.num_states * machine.n_letters
        assert progression_rule_breaks(machine, state_formulas) == []

    @pytest.mark.parametrize("name", PROPERTY_NAMES)
    @pytest.mark.parametrize("num_processes", [2, 3, 4, 5])
    def test_case_study_tables_exhaustively(self, name, num_processes):
        """Every cell of the machines every experiment runs is its state's
        progression, every output its formula's verdict and every finality
        flag its verdict's; the monitor's machine is that machine,
        renumbered, state for state."""
        machine, state_formulas = build_progression_machine(
            parse(property_formula(name, num_processes))
        )
        assert progression_rule_breaks(machine, state_formulas) == []
        assert list(machine.outputs) == [_formula_verdict(f) for f in state_formulas]
        monitor = case_study_monitor(name, num_processes)
        compiled = monitor.compiled
        assert len(compiled.table) == monitor.num_states * compiled.n_letters
        assert compiled.atoms == machine.atoms and compiled.columns == machine.columns
        image, walk = {compiled.initial: machine.initial}, [compiled.initial]
        for state in walk:  # grows while it is walked
            assert compiled.final_flags[state] == monitor.verdict(state).is_final
            assert compiled.outputs[state] == machine.outputs[image[state]]
            for mask in range(compiled.n_letters):
                target = compiled.step(state, mask)
                if target not in image:
                    image[target] = machine.step(image[state], mask)
                    walk.append(target)
                assert image[target] == machine.step(image[state], mask)
        assert sorted(image) == sorted(set(image.values())) == list(range(monitor.num_states))


def test_a_minimised_machine_is_numbered_depth_first():
    # here the blocks of the Moore quotient come in another order than a
    # depth-first walk over the columns finds them; minimize() numbers its
    # states in the walk's order, as the monitors always have
    formula = "((((q R q) -> r) <-> F((r U r))) & (G((p R true)) U q))"
    machine = build_monitor(formula).compiled
    walked = machine.reachable()
    assert (walked.initial, walked.table) == (machine.initial, machine.table)


def test_tables_and_the_oracle_on_seeded_random_formulas():
    # the check CI's benchmarks-smoke runs on 300 formulas at a fresh seed
    assert table_violations(random_cases(seed=53, count=40), limit=300_000) == ([], 0)


@pytest.mark.parametrize("formula,atoms", [
    ("G((P0.p | P1.p) U (P0.q & P1.q))", ("P0.p", "P0.q", "P1.p", "P1.q")),
    ("F(P0.p & P1.p & P2.p)", ("P0.p", "P1.p", "P2.p")),
])
def test_case_study_shaped_formulas_roundtrip(formula, atoms):
    """Deeper spot-check on case-study-shaped formulas and longer words."""
    import random

    monitor = build_monitor(formula, atoms=atoms)
    compiled = monitor.compiled
    rng = random.Random(2015)
    universe = atoms + FOREIGN
    word = [
        frozenset(a for a in universe if rng.random() < 0.4) for _ in range(2000)
    ]
    masks = [compiled.encode(letter) for letter in word]
    state = monitor.initial_state
    first = -1
    for i, letter in enumerate(word):
        state = monitor.step(state, letter)
        if first < 0 and monitor.is_final(state):
            first = i
    assert compiled.run_batch(compiled.initial, masks) == (state, first)
