"""The Büchi route to an LTL3 monitor, kept as the oracle of progression.

Bauer, Leucker & Schallhart (TOSEM 2011): translate ``φ`` and ``¬φ`` into
Büchi automata (:func:`repro.ltl.buchi.ltl_to_buchi`), mark the states whose
language is non-empty, and run a joint subset construction over the
alphabet.  A product state ``(P, N)`` reads ``⊥`` when ``P`` holds no live
state, ``⊤`` when ``N`` holds none, and ``?`` otherwise.  The library
synthesises every monitor by formula progression
(:func:`repro.ltl.build_monitor`); the tests check its minimised machines
against this construction, by state count and by a product walk that
compares the verdicts of the two machines after every word.

The subset construction is slow on wide alphabets and on some random
formulas (minutes, where progression takes a second); a caller bounds its
work with ``limit`` and counts the formulas it skips.

Progression writes its table directly, so each cell is also checked against
the rule that defines it (:func:`progression_rule_breaks`): the successor of
state ``q`` on mask ``m`` is the state whose formula has the normal form of
``progress(formulas[q], decode(m))``.  :func:`table_violations` runs that
check and the oracle's product walk together.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Hashable, Iterable, Sequence

from repro.ltl import CompiledMachine, Formula, Not, Verdict, all_assignments, build_monitor
from repro.ltl.ast import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    Iff,
    Implies,
    Next,
    Or,
    Release,
    Until,
)
from repro.ltl.buchi import BuchiAutomaton, ltl_to_buchi, nonempty_states
from repro.ltl.progression import build_progression_machine, normal_form, progress
from table_rows import table_machine

Letter = frozenset[str]

#: the alphabet of the random formulas
ATOMS = ("p", "q", "r")


class OracleGaveUp(Exception):
    """The subset construction exceeded its bound on product states."""


def successors(automaton: BuchiAutomaton, state: object, letter: Letter) -> set[object]:
    """States of *automaton* reachable from *state* by reading *letter*."""
    return {
        target
        for guard, target in automaton.transitions.get(state, ())
        if guard.satisfied_by(letter)
    }


def determinize(
    atoms: Sequence[str],
    initial_sets: Sequence[frozenset[Hashable]],
    successor_fns: Sequence[Callable[[frozenset[Hashable], Letter], frozenset[Hashable]]],
    output_fn: Callable[[tuple[frozenset[Hashable], ...]], Hashable],
    limit: int | None = None,
) -> CompiledMachine:
    """Joint subset construction of several NFAs into one Moore machine
    over the letters of *atoms*.

    Each component ``i`` starts in ``initial_sets[i]`` and evolves with
    ``successor_fns[i]``.  A product state is the tuple of per-component
    subsets; its Moore output is ``output_fn(product_state)``.  Only states
    reachable from the initial product state are constructed.  The work is
    about the subsets' sizes summed over the product states; once that sum
    exceeds *limit* the construction raises :class:`OracleGaveUp`.
    """
    letters = all_assignments(atoms)
    initial = tuple(initial_sets)
    index: dict[tuple[frozenset[Hashable], ...], int] = {initial: 0}
    order: list[tuple[frozenset[Hashable], ...]] = [initial]
    delta: list[list[int]] = []
    size = sum(map(len, initial))
    for product in order:  # breadth first: ``order`` grows while it is walked
        row: list[int] = []
        for letter in letters:
            successor = tuple(
                successor_fns[i](product[i], letter) for i in range(len(product))
            )
            if successor not in index:
                size += sum(map(len, successor))
                if limit is not None and size > limit:
                    raise OracleGaveUp(f"subsets of more than {limit} states in all")
                index[successor] = len(order)
                order.append(successor)
            row.append(index[successor])
        delta.append(row)
    outputs = [output_fn(product) for product in order]
    return table_machine(atoms, delta, outputs)


def oracle_machine(
    formula: Formula, atoms: Sequence[str], limit: int | None = None
) -> CompiledMachine:
    """The minimised LTL3 monitor of *formula* over *atoms*, by the Büchi route."""
    positive = ltl_to_buchi(formula)
    negative = ltl_to_buchi(Not(formula))
    live_pos = nonempty_states(positive)
    live_neg = nonempty_states(negative)

    def advance(automaton: BuchiAutomaton):
        memo: dict[tuple[object, Letter], set[object]] = {}

        def step(subset: frozenset[object], letter: Letter) -> frozenset[object]:
            result: set[object] = set()
            for state in subset:
                targets = memo.get((state, letter))
                if targets is None:
                    targets = memo[state, letter] = successors(automaton, state, letter)
                result |= targets
            return frozenset(result)

        return step

    def verdict(product: tuple[frozenset[object], ...]) -> Verdict:
        pos_subset, neg_subset = product
        if not (pos_subset & live_pos):
            return Verdict.BOTTOM
        if not (neg_subset & live_neg):
            return Verdict.TOP
        return Verdict.INCONCLUSIVE

    machine = determinize(
        atoms=atoms,
        initial_sets=[frozenset(positive.initial), frozenset(negative.initial)],
        successor_fns=[advance(positive), advance(negative)],
        output_fn=verdict,
        limit=limit,
    )
    return machine.minimize()


def equivalent(first: CompiledMachine, second: CompiledMachine) -> bool:
    """Whether two machines over one alphabet output the same after every word.

    Walks the product of the two machines from their initial states and
    compares the outputs of every pair it reaches.
    """
    if first.atoms != second.atoms:
        raise ValueError("the machines read different alphabets")
    start = (first.initial, second.initial)
    seen, todo = {start}, [start]
    while todo:
        a, b = todo.pop()
        if first.outputs[a] != second.outputs[b]:
            return False
        for pair in zip(first.row(a), second.row(b)):
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return True


def disagreements(
    cases: Iterable[tuple[Formula, Sequence[str]]], limit: int | None = None
) -> tuple[list[str], int]:
    """Compare ``build_monitor`` with the oracle on every ``(formula, atoms)``.

    Returns the formulas whose minimised machines differ in state count or
    language, and how many formulas the oracle gave up on (see
    :func:`determinize` for *limit*).  Progression itself is never skipped: a formula it
    cannot build fails the caller.
    """
    differ, skipped = [], 0
    for formula, atoms in cases:
        machine = build_monitor(formula, atoms).compiled
        try:
            reference = oracle_machine(formula, atoms, limit)
        except OracleGaveUp:
            skipped += 1
            continue
        if machine.num_states != reference.num_states or not equivalent(machine, reference):
            differ.append(str(formula))
    return differ, skipped


def progression_rule_breaks(
    machine: CompiledMachine, formulas: Sequence[Formula]
) -> list[tuple[int, int]]:
    """The cells ``(state, mask)`` of a progression machine whose successor
    is not the state of the state's formula progressed through the letter."""
    return [
        (state, mask)
        for state, formula in enumerate(formulas)
        for mask in range(machine.n_letters)
        if normal_form(progress(formula, machine.decode(mask)))
        != normal_form(formulas[machine.step(state, mask)])
    ]


def table_violations(
    cases: Iterable[tuple[Formula, Sequence[str]]], limit: int | None = None
) -> tuple[list[str], int]:
    """Check the tables built for every ``(formula, atoms)``.

    The machine ``build_progression_machine`` writes must obey the
    progression rule in every cell; ``build_monitor``'s machines, minimised
    and not, must read the oracle's verdict after every word (a product
    walk).  Returns the formulas that fail either check and how many the
    oracle gave up on (their rule check still ran).
    """
    broken, skipped = [], 0
    for formula, atoms in cases:
        machine, formulas = build_progression_machine(formula, atoms)
        if progression_rule_breaks(machine, formulas):
            broken.append(str(formula))
            continue
        try:
            reference = oracle_machine(formula, atoms, limit)
        except OracleGaveUp:
            skipped += 1
            continue
        if not all(
            equivalent(build_monitor(formula, atoms, minimize=minimize).compiled, reference)
            for minimize in (False, True)
        ):
            broken.append(str(formula))
    return broken, skipped


_LEAVES = (Atom("p"), Atom("q"), Atom("r")) * 2 + (TRUE, FALSE)
_UNARY = (Not, Next, Eventually, Always)
_BINARY = (And, Or, Implies, Iff, Until, Release)


def random_formula(rng: random.Random, depth: int) -> Formula:
    """A random formula over :data:`ATOMS`, ``true`` and ``false``, nesting
    at most *depth* operators, drawn from every operator of the grammar."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(_LEAVES)
    if rng.random() < 0.4:
        return rng.choice(_UNARY)(random_formula(rng, depth - 1))
    return rng.choice(_BINARY)(
        random_formula(rng, depth - 1), random_formula(rng, depth - 1)
    )


def random_cases(seed: int, count: int, depth: int = 4) -> list[tuple[Formula, Sequence[str]]]:
    """*count* seeded random formulas of at most *depth*, each over :data:`ATOMS`."""
    rng = random.Random(seed)
    return [(random_formula(rng, depth), ATOMS) for _ in range(count)]
