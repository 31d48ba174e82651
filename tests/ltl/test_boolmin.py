"""Tests for the boolean minimiser (recursive prime split + greedy cover).

Quine–McCluskey, the minimiser's earlier prime generator, lives on here as
the oracle its primes are checked against.
"""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.experiments import PROPERTY_NAMES, case_study_monitor
from repro.ltl import implicant_to_str, minimize_letters
from repro.ltl.boolmin import _letters_to_minterms, _primes


def _combine(
    term_a: tuple[int, int], term_b: tuple[int, int]
) -> tuple[int, int] | None:
    """Combine two (value, mask) terms differing in exactly one cared bit."""
    value_a, mask_a = term_a
    value_b, mask_b = term_b
    if mask_a != mask_b:
        return None
    diff = value_a ^ value_b
    if diff == 0 or (diff & (diff - 1)) != 0:
        return None
    return value_a & ~diff, mask_a | diff


def _prime_implicants(minterms: list[int], nbits: int) -> list[tuple[int, int]]:
    """Classic iterative combination returning all prime implicants.

    Terms are ``(value, dontcare_mask)`` pairs; a bit set in the mask means
    the variable is a don't-care.
    """
    current = {(m, 0) for m in minterms}
    primes: set = set()
    while current:
        nxt = set()
        combined = set()
        current_list = sorted(current)
        # group by (mask, popcount) to limit the pairs examined
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for term in current_list:
            value, mask = term
            key = (mask, bin(value).count("1"))
            groups.setdefault(key, []).append(term)
        for (mask, ones), terms in groups.items():
            partner_key = (mask, ones + 1)
            partners = groups.get(partner_key, [])
            for a in terms:
                for b in partners:
                    merged = _combine(a, b)
                    if merged is not None:
                        nxt.add(merged)
                        combined.add(a)
                        combined.add(b)
        primes.update(current - combined)
        current = nxt
    return sorted(primes)


def split_primes(minterms, nbits):
    """The minimiser's primes of the on-set *minterms*, sorted like the oracle's."""
    return sorted(_primes(sum(1 << m for m in minterms), nbits, {}))


def case_study_guard_mismatches(num_processes):
    """The (property, source, target) guards of the case-study monitors at
    *num_processes* whose primes differ from Quine–McCluskey's."""
    mismatches = []
    compared = set()  # many guards repeat: the oracle runs once per on-set
    for name in PROPERTY_NAMES:
        monitor = case_study_monitor(name, num_processes)
        machine = monitor.compiled
        nbits = len(monitor.atoms)
        for source in range(machine.num_states):
            row = machine.row(source)
            for target in sorted(set(row)):
                letters = [machine.decode(m) for m in range(machine.n_letters) if row[m] == target]
                minterms = _letters_to_minterms(letters, monitor.atoms)
                if (nbits, *minterms) in compared:
                    continue
                compared.add((nbits, *minterms))
                if split_primes(minterms, nbits) != _prime_implicants(minterms, nbits):
                    mismatches.append((name, source, target))
    return mismatches


def truth_table(variables, implicants):
    """The set of assignments (as frozensets) covered by a list of implicants."""
    covered = set()
    for bits in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        letter = frozenset(v for v, b in assignment.items() if b)
        for implicant in implicants:
            if all(assignment[v] == val for v, val in implicant.items()):
                covered.add(letter)
                break
    return covered


class TestMinimizeLetters:
    def test_empty_input_is_false(self):
        assert minimize_letters([], ["a", "b"]) == []

    def test_full_truth_table_is_true(self):
        letters = [frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})]
        assert minimize_letters(letters, ["a", "b"]) == [{}]

    def test_single_minterm(self):
        result = minimize_letters([frozenset({"a"})], ["a", "b"])
        assert result == [{"a": True, "b": False}]

    def test_single_variable_dont_care(self):
        letters = [frozenset({"a"}), frozenset({"a", "b"})]
        assert minimize_letters(letters, ["a", "b"]) == [{"a": True}]

    def test_negated_variable(self):
        letters = [frozenset(), frozenset({"b"})]
        assert minimize_letters(letters, ["a", "b"]) == [{"a": False}]

    def test_nand_needs_two_implicants(self):
        # !(a & b) = !a | !b
        letters = [frozenset(), frozenset({"a"}), frozenset({"b"})]
        result = minimize_letters(letters, ["a", "b"])
        assert len(result) == 2
        assert {"a": False} in result and {"b": False} in result

    def test_xor_needs_two_full_terms(self):
        letters = [frozenset({"a"}), frozenset({"b"})]
        result = minimize_letters(letters, ["a", "b"])
        assert sorted(result, key=str) == sorted(
            [{"a": True, "b": False}, {"a": False, "b": True}], key=str
        )

    def test_three_variable_consensus(self):
        # f = a&b | !a&c  (minimal SOP has 2 terms; the consensus term b&c is redundant)
        variables = ["a", "b", "c"]
        letters = []
        for bits in itertools.product((False, True), repeat=3):
            a, b, c = bits
            if (a and b) or ((not a) and c):
                letters.append(frozenset(v for v, x in zip(variables, bits) if x))
        result = minimize_letters(letters, variables)
        assert len(result) == 2

    @pytest.mark.parametrize("num_vars", [1, 2, 3, 4])
    def test_cover_exactness_exhaustive(self, num_vars):
        """The minimised cover is logically equivalent to the input set."""
        variables = [f"v{i}" for i in range(num_vars)]
        all_letters = [
            frozenset(v for v, b in zip(variables, bits) if b)
            for bits in itertools.product((False, True), repeat=num_vars)
        ]
        import random

        rng = random.Random(42 + num_vars)
        for _ in range(20):
            chosen = [letter for letter in all_letters if rng.random() < 0.5]
            implicants = minimize_letters(chosen, variables)
            assert truth_table(variables, implicants) == set(chosen)

    def test_letters_with_unknown_atoms_are_projected(self):
        # atoms outside the variable list are ignored
        letters = [frozenset({"a", "zzz"}), frozenset({"a"})]
        assert minimize_letters(letters, ["a"]) == [{"a": True}]

    def test_disjoint_conjunction_structure(self):
        # !(a&b) & !(c&d) has minimal SOP with exactly 4 products
        variables = ["a", "b", "c", "d"]
        letters = []
        for bits in itertools.product((False, True), repeat=4):
            a, b, c, d = bits
            if not (a and b) and not (c and d):
                letters.append(frozenset(v for v, x in zip(variables, bits) if x))
        result = minimize_letters(letters, variables)
        assert len(result) == 4
        assert truth_table(variables, result) == set(letters)


class TestPrimesMatchQuineMcCluskey:
    @pytest.mark.parametrize("num_processes", [2, 3, 4, 5])
    def test_every_case_study_guard(self, num_processes):
        # n = 6 (about 40 s of Quine–McCluskey) runs in CI's
        # benchmarks-smoke job through the same helper
        assert case_study_guard_mismatches(num_processes) == []

    @given(
        st.integers(1, 8).flatmap(
            lambda nbits: st.lists(
                st.booleans(), min_size=1 << nbits, max_size=1 << nbits
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_random_on_sets(self, table):
        # the on-set is drawn as a whole truth table, so dense sets come up
        nbits = len(table).bit_length() - 1
        minterms = [m for m, on in enumerate(table) if on]
        assert split_primes(minterms, nbits) == _prime_implicants(minterms, nbits)


class TestImplicantToStr:
    def test_true(self):
        assert implicant_to_str({}) == "true"

    def test_mixed_literals_sorted(self):
        assert implicant_to_str({"b": False, "a": True}) == "a & !b"
