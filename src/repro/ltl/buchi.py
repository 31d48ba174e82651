"""LTL to Büchi automaton translation (Gerth–Peled–Vardi–Wolper tableau).

The construction follows the classic on-the-fly algorithm of Gerth, Peled,
Vardi and Wolper (PSTV 1995):

1. The input formula is brought into negation normal form, then into the
   canonical form formula progression uses (:func:`repro.ltl.progression.canonicalize`).
2. The tableau expansion produces a graph of *nodes*; each node carries the
   literals that must hold *now* (``old``) and the obligations postponed to
   the next position (``next``).
3. The node graph is read as a **generalised Büchi automaton** (GBA) with one
   acceptance set per ``Until`` subformula.
4. The GBA is degeneralised into an ordinary Büchi automaton (NBA) with a
   counter construction.

On top of the automaton, :func:`nonempty_states` computes for every state
whether the language accepted *from that state* is non-empty, and
:func:`is_satisfiable` reads it off the initial states: the verdict of every
progression state is decided this way (:mod:`repro.ltl.progression`).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

from .ast import (
    And,
    Atom,
    FalseConst,
    Formula,
    Next,
    Not,
    Or,
    Release,
    TrueConst,
    Until,
)
from .progression import canonicalize
from .rewriting import to_nnf

__all__ = [
    "Guard",
    "BuchiAutomaton",
    "ltl_to_buchi",
    "nonempty_states",
    "is_satisfiable",
]


@dataclass(frozen=True)
class Guard:
    """A conjunction of literals labelling a Büchi transition.

    ``positive`` atoms must be true and ``negative`` atoms must be false for
    the guard to be satisfied by a letter (a set of true atoms).
    """

    positive: frozenset[str]
    negative: frozenset[str]

    def satisfied_by(self, letter: frozenset[str]) -> bool:
        """Whether *letter* (the set of true atoms) meets every literal."""
        return self.positive <= letter and not (self.negative & letter)

    def __str__(self) -> str:
        parts = [a for a in sorted(self.positive)]
        parts += [f"!{a}" for a in sorted(self.negative)]
        return " & ".join(parts) if parts else "true"


@dataclass
class BuchiAutomaton:
    """A (state-accepting) nondeterministic Büchi automaton.

    Attributes
    ----------
    states:
        Opaque hashable state identifiers.
    initial:
        The set of initial states.
    transitions:
        Mapping ``state -> list of (Guard, successor)``.
    accepting:
        The Büchi acceptance set.
    atoms:
        The atomic propositions the guards may mention.
    """

    states: set[object] = field(default_factory=set)
    initial: set[object] = field(default_factory=set)
    transitions: dict[object, list[tuple[Guard, object]]] = field(default_factory=dict)
    accepting: set[object] = field(default_factory=set)
    atoms: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# GPVW tableau
# ---------------------------------------------------------------------------


class _Node:
    """A tableau node of the GPVW construction."""

    __slots__ = ("name", "incoming", "new", "old", "next")
    _counter = itertools.count()

    def __init__(
        self,
        incoming: set[int],
        new: set[Formula],
        old: set[Formula],
        nxt: set[Formula],
    ) -> None:
        self.name = next(_Node._counter)
        self.incoming = set(incoming)
        self.new = set(new)
        self.old = set(old)
        self.next = set(nxt)


_INIT = -1  # pseudo initial node name


def _is_literal(formula: Formula) -> bool:
    return isinstance(formula, (Atom, TrueConst, FalseConst)) or (
        isinstance(formula, Not) and isinstance(formula.operand, Atom)
    )


def _negation_of(formula: Formula) -> Formula:
    if isinstance(formula, Not):
        return formula.operand
    return Not(formula)


def _expand(node: _Node) -> list[_Node]:
    """The ``expand`` procedure of GPVW (iterative set semantics).

    A worklist, because the procedure as GPVW state it recurses once per
    processed subformula and exhausts the stack on ordinary formulas.  A
    split pushes its right node under its left one, so nodes are created,
    merged and appended in the recursion's order: depth first, left first.
    Finished nodes are indexed by ``(old, next)``, the pair a node merges on.
    """
    work, nodes = [node], {}
    while work:
        node = work.pop()
        if not node.new:
            key = frozenset(node.old), frozenset(node.next)
            if key in nodes:
                nodes[key].incoming |= node.incoming
            else:
                nodes[key] = node
                work.append(_Node(incoming={node.name}, new=set(node.next), old=set(), nxt=set()))
            continue

        formula = next(iter(node.new))
        node.new.discard(formula)

        if _is_literal(formula):
            if isinstance(formula, FalseConst) or _negation_of(formula) in node.old:
                continue  # contradiction: discard this node
            if not isinstance(formula, TrueConst):
                node.old.add(formula)
            work.append(node)
        elif isinstance(formula, And):
            node.old.add(formula)
            for child in (formula.left, formula.right):
                if child not in node.old:
                    node.new.add(child)
            work.append(node)
        elif isinstance(formula, Next):
            node.old.add(formula)
            node.next.add(formula.operand)
            work.append(node)
        elif isinstance(formula, (Or, Until, Release)):
            node.old.add(formula)
            if isinstance(formula, Or):
                new1 = {formula.left}
                new2 = {formula.right}
                next1: set[Formula] = set()
            elif isinstance(formula, Until):
                new1 = {formula.left}
                new2 = {formula.right}
                next1 = {formula}
            else:  # Release
                new1 = {formula.right}
                new2 = {formula.left, formula.right}
                next1 = {formula}

            node1 = _Node(
                incoming=set(node.incoming),
                new=node.new | (new1 - node.old),
                old=set(node.old),
                nxt=node.next | next1,
            )
            node2 = _Node(
                incoming=set(node.incoming),
                new=node.new | (new2 - node.old),
                old=set(node.old),
                nxt=set(node.next),
            )
            work += [node2, node1]
        else:
            raise TypeError(f"formula not in NNF: {formula}")
    return list(nodes.values())


def _node_guard(node: _Node) -> Guard:
    positive = set()
    negative = set()
    for formula in node.old:
        if isinstance(formula, Atom):
            positive.add(formula.name)
        elif isinstance(formula, Not) and isinstance(formula.operand, Atom):
            negative.add(formula.operand.name)
    return Guard(frozenset(positive), frozenset(negative))


def _tableau(formula: Formula) -> tuple[list[_Node], list[Formula]]:
    """Run the GPVW expansion and return the nodes plus the Until subformulas."""
    nnf = canonicalize(to_nnf(formula))
    start = _Node(incoming={_INIT}, new={nnf}, old=set(), nxt=set())
    nodes = _expand(start)
    untils = sorted(
        {f for node in nodes for f in node.old if isinstance(f, Until)},
        key=str,
    )
    # Untils that only ever appear in `next` obligations still matter for
    # acceptance, so also scan the `next` sets.
    more = sorted(
        {f for node in nodes for f in node.next if isinstance(f, Until)}, key=str
    )
    for f in more:
        if f not in untils:
            untils.append(f)
    return nodes, untils


def ltl_to_buchi(formula: Formula, atoms: Sequence[str] | None = None) -> BuchiAutomaton:
    """Translate *formula* into a nondeterministic Büchi automaton.

    Parameters
    ----------
    formula:
        Any LTL formula (it is normalised internally).
    atoms:
        Optional explicit alphabet; defaults to the atoms appearing in the
        formula.  Supplying a larger alphabet does not change the automaton's
        guards, only its advertised ``atoms`` attribute.
    """
    from .ast import atoms_of

    nodes, untils = _tableau(formula)
    if atoms is None:
        atoms = atoms_of(formula)

    # --- generalised Büchi automaton over the tableau nodes ---------------
    node_by_name = {node.name: node for node in nodes}
    gba_states = set(node_by_name)
    gba_initial = {node.name for node in nodes if _INIT in node.incoming}
    gba_edges: dict[int, list[tuple[Guard, int]]] = {name: [] for name in gba_states}
    for node in nodes:
        guard = _node_guard(node)
        for source in node.incoming:
            if source == _INIT:
                continue
            gba_edges.setdefault(source, []).append((guard, node.name))

    # acceptance sets: for each Until f1 U f2, nodes where the until is
    # either not pending or already fulfilled; ``true`` is never recorded in
    # ``old``, so an until whose right side is ``true`` is always fulfilled
    acceptance_sets: list[set[int]] = []
    for until in untils:
        acceptance_sets.append(
            {
                node.name
                for node in nodes
                if until not in node.old
                or until.right in node.old
                or isinstance(until.right, TrueConst)
            }
        )
    if not acceptance_sets:
        acceptance_sets = [set(gba_states)]

    # --- degeneralisation --------------------------------------------------
    k = len(acceptance_sets)
    nba = BuchiAutomaton(atoms=tuple(atoms))
    initial_guards: dict[int, Guard] = {
        node.name: _node_guard(node) for node in nodes
    }

    def deg_state(name: int, copy: int) -> tuple[int, int]:
        return (name, copy)

    # A fresh initial state reading the first letter via the guards of the
    # GBA initial nodes keeps the automaton transition-labelled.
    init_state = ("init", 0)
    nba.states.add(init_state)
    nba.initial.add(init_state)
    nba.transitions[init_state] = []

    for name in gba_states:
        for copy in range(k):
            state = deg_state(name, copy)
            nba.states.add(state)
            nba.transitions.setdefault(state, [])

    def next_copy(name: int, copy: int) -> int:
        return (copy + 1) % k if name in acceptance_sets[copy] else copy

    for name in gba_states:
        for copy in range(k):
            state = deg_state(name, copy)
            target_copy = next_copy(name, copy)
            for guard, target in gba_edges.get(name, ()):
                nba.transitions[state].append((guard, deg_state(target, target_copy)))

    # initial transitions: reading the first letter moves into an initial
    # GBA node provided its guard is satisfied
    for name in gba_initial:
        nba.transitions[init_state].append((initial_guards[name], deg_state(name, 0)))

    nba.accepting = {
        deg_state(name, 0) for name in acceptance_sets[0] if name in gba_states
    }
    return nba


# ---------------------------------------------------------------------------
# Per-state emptiness
# ---------------------------------------------------------------------------


def _strongly_connected_components(
    states: set[object], edges: dict[object, list[object]]
) -> list[set[object]]:
    """Iterative Tarjan SCC computation (avoids Python recursion limits)."""
    index: dict[object, int] = {}
    lowlink: dict[object, int] = {}
    on_stack: set[object] = set()
    stack: list[object] = []
    result: list[set[object]] = []
    counter = itertools.count()

    for root in states:
        if root in index:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = lowlink[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = next(counter)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    advanced = True
                    break
                elif succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                result.append(component)
    return result


def nonempty_states(automaton: BuchiAutomaton) -> set[object]:
    """States of *automaton* from which the accepted language is non-empty.

    A state's language is non-empty iff it can reach an accepting state that
    lies on a cycle (equivalently, an accepting state inside a non-trivial
    strongly connected component or with a self-loop).
    """
    succ: dict[object, list[object]] = {
        s: [t for _, t in automaton.transitions.get(s, ())] for s in automaton.states
    }
    components = _strongly_connected_components(set(automaton.states), succ)
    live_accepting: set[object] = set()
    for component in components:
        nontrivial = len(component) > 1 or any(
            s in succ.get(s, ()) for s in component
        )
        if not nontrivial:
            continue
        live_accepting |= component & automaton.accepting

    # backward reachability from live accepting states
    predecessors: dict[object, set[object]] = {s: set() for s in automaton.states}
    for source, targets in succ.items():
        for target in targets:
            predecessors.setdefault(target, set()).add(source)
    reachable = set(live_accepting)
    frontier = list(live_accepting)
    while frontier:
        state = frontier.pop()
        for pred in predecessors.get(state, ()):
            if pred not in reachable:
                reachable.add(pred)
                frontier.append(pred)
    return reachable


def is_satisfiable(formula: Formula) -> bool:
    """Whether some infinite word satisfies *formula*.

    Decided by translating the formula to a Büchi automaton and checking that
    the language from an initial state is non-empty.
    """
    automaton = ltl_to_buchi(formula)
    live = nonempty_states(automaton)
    return bool(automaton.initial & live)
