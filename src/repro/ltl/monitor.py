"""LTL3 monitor automaton synthesis.

Given an LTL formula ``φ`` the monitor automaton ``A_φ`` is the unique
deterministic Moore machine such that for any finite trace ``α`` the output of
the state reached on ``α`` equals the LTL3 valuation ``[α ⊨ φ]``:

* ``⊤`` — every infinite continuation of ``α`` satisfies ``φ``;
* ``⊥`` — every infinite continuation violates ``φ``;
* ``?`` — both kinds of continuation exist.

Construction
------------
1. Progress ``φ`` through every letter of the alphabet
   (:mod:`repro.ltl.progression`); each state carries the LTL3 verdict of its
   progressed formula.
2. Moore-minimise the result (or, for the paper's experimental automata,
   keep every progression state).
3. Express every edge of the machine as a small set of conjunctive
   guards (sum-of-products over the atomic propositions) — this is the
   transition representation the paper's decentralized algorithm works with
   (and the quantity counted in Table 5.1).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from dataclasses import dataclass
from functools import cached_property

from .ast import Formula, atoms_of
from .boolmin import implicant_to_str, minimize_letters
from .compiled import CompiledMachine
from .parser import parse
from .progression import build_progression_machine
from .verdict import Verdict

__all__ = ["Transition", "MonitorAutomaton", "build_monitor"]

Letter = frozenset[str]


@dataclass(frozen=True)
class Transition:
    """A conjunctive transition of the monitor automaton.

    ``guard`` maps atomic proposition names to the truth value they must take
    for the transition to fire; atoms absent from the mapping are
    don't-cares.  A transition with an empty guard fires on every letter
    (rendered ``true``).
    """

    transition_id: int
    source: int
    target: int
    guard: Mapping[str, bool]

    @property
    def is_self_loop(self) -> bool:
        """Whether the transition leads back to its source state."""
        return self.source == self.target

    def guard_str(self) -> str:
        """The guard rendered as a conjunction, e.g. ``a & !b`` (or ``true``)."""
        return implicant_to_str(dict(self.guard))

    def __str__(self) -> str:
        return f"q{self.source} --[{self.guard_str()}]--> q{self.target}"


class MonitorAutomaton:
    """The deterministic LTL3 monitor (Moore machine) for a formula.

    The class exposes both the *letter-level* transition function
    (:meth:`step`) used when a full global-state valuation is available, and
    the *predicate-level* view (:attr:`transitions`) used by the decentralized
    algorithm, where each edge is a conjunction of per-process propositions.
    """

    def __init__(
        self,
        formula: Formula,
        atoms: Sequence[str],
        machine: CompiledMachine,
    ) -> None:
        self.formula = formula
        self.atoms: tuple[str, ...] = tuple(atoms)
        #: the machine's one transition table, what the monitors step
        self.compiled = machine
        self.initial_state: int = machine.initial
        self.transitions: list[Transition] = self._build_transitions()
        self._outgoing: dict[int, list[Transition]] = {}
        for transition in self.transitions:
            if not transition.is_self_loop:
                self._outgoing.setdefault(transition.source, []).append(transition)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _build_transitions(self) -> list[Transition]:
        transitions: list[Transition] = []
        next_id = 0
        machine = self.compiled
        letter_of = [machine.decode(mask) for mask in range(machine.n_letters)]
        for source in range(machine.num_states):
            row = machine.row(source)
            for target in sorted(set(row)):
                letters = [letter_of[m] for m in machine.columns if row[m] == target]
                for implicant in minimize_letters(letters, self.atoms):
                    transitions.append(
                        Transition(
                            transition_id=next_id,
                            source=source,
                            target=target,
                            guard=dict(implicant),
                        )
                    )
                    next_id += 1
        return transitions

    # ------------------------------------------------------------------
    # basic Moore-machine interface
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """The number of monitor states."""
        return self.compiled.num_states

    @property
    def states(self) -> list[int]:
        """The monitor states ``0 .. num_states - 1``."""
        return list(range(self.compiled.num_states))

    def verdict(self, state: int) -> Verdict:
        """The verdict (Moore output) of *state*."""
        return self.compiled.outputs[state]  # type: ignore[return-value]

    @cached_property
    def stutter_closed(self) -> bool:
        """Whether reading a letter twice in a row equals reading it once.

        ``δ(δ(q, a), a) == δ(q, a)`` for every state and letter: once the
        machine has read a letter, repeating it changes nothing, so a run of
        events that leave the global letter unchanged can be replayed as one
        step (:meth:`repro.core.box.Box.search`).
        Holds for every case-study automaton, minimised or not; fails for
        ``X p``.  The table is walked once, on first access.
        """
        table, L = self.compiled.table, self.compiled.n_letters
        return all(table[target * L + i % L] == target for i, target in enumerate(table))

    @cached_property
    def reach_bits(self) -> tuple[int, ...]:
        """Per state, the bitset of states the machine reaches from it under
        any letters, itself included — which states a view can still be in
        (:meth:`repro.core.box.Box.reachable`).
        The table is walked once, on first access."""
        machine = self.compiled
        reach: list[int] = []
        for state in range(machine.num_states):
            seen, todo = {state}, [state]
            while todo:
                fresh = set(machine.row(todo.pop())) - seen
                seen |= fresh
                todo += fresh
            reach.append(sum(1 << q for q in seen))
        return tuple(reach)

    @cached_property
    def shared(self) -> dict:
        """Tables that the monitors running this automaton derive from it
        once and share, across sessions too; empty until one asks
        (:meth:`repro.core.box.Property.of` keys its own by
        process count and the owner of each compiled atom)."""
        return {}

    def step(self, state: int, letter: Letter) -> int:
        """Successor state after reading *letter* (a set of true atoms)."""
        return self.compiled.step_letter(state, letter)

    def run(self, word: Sequence[Letter]) -> int:
        """The state reached from the initial state after reading *word*."""
        return self.compiled.run(map(self.compiled.encode, word))

    def verdict_of(self, word: Sequence[Letter]) -> Verdict:
        """The LTL3 valuation ``[word ⊨ φ]``."""
        return self.verdict(self.run(word))

    def is_final(self, state: int) -> bool:
        """Whether *state* carries a conclusive verdict (⊤ or ⊥)."""
        return self.verdict(state).is_final

    # ------------------------------------------------------------------
    # predicate-level view (used by the decentralized algorithm)
    # ------------------------------------------------------------------
    def outgoing_transitions(self, state: int) -> list[Transition]:
        """Non-self-loop transitions leaving *state*."""
        return list(self._outgoing.get(state, ()))

    # ------------------------------------------------------------------
    # statistics for Table 5.1 / Fig 5.1
    # ------------------------------------------------------------------
    def transition_counts(self) -> dict[str, int]:
        """Counts of total / outgoing / self-loop conjunctive transitions."""
        self_loops = sum(1 for t in self.transitions if t.is_self_loop)
        outgoing = len(self.transitions) - self_loops
        return {
            "total": len(self.transitions),
            "outgoing": outgoing,
            "self_loops": self_loops,
        }

    def describe(self) -> str:
        """Multi-line description of states and transitions (Fig 5.2 / 5.3)."""
        lines = [f"Monitor automaton for: {self.formula}"]
        lines.append(f"atoms: {', '.join(self.atoms)}")
        for state in self.states:
            marker = " (initial)" if state == self.initial_state else ""
            lines.append(f"  state q{state}: verdict {self.verdict(state)}{marker}")
        for transition in self.transitions:
            lines.append(f"    {transition}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.transition_counts()
        return (
            f"MonitorAutomaton(states={self.num_states}, "
            f"transitions={counts['total']}, formula={self.formula})"
        )


def build_monitor(
    formula: Formula | str,
    atoms: Sequence[str] | None = None,
    *,
    minimize: bool = True,
) -> MonitorAutomaton:
    """Synthesise the LTL3 monitor automaton for *formula*.

    The machine is the formula-progression machine of
    :mod:`repro.ltl.progression`.

    Parameters
    ----------
    formula:
        An LTL formula object or its concrete syntax.
    atoms:
        Optional explicit list of atomic propositions defining the alphabet.
        Supplying the full set of propositions of the monitored system (even
        those not mentioned in the formula) is allowed; they become
        don't-cares in every guard.
    minimize:
        Whether to Moore-minimise the resulting machine.  The paper's
        evaluation automata (Table 5.1, Figures 5.2/5.3) keep redundant
        ``?`` states, so the experiment harness uses ``minimize=False``.

    Examples
    --------
    >>> monitor = build_monitor("G(p -> F q)")
    >>> monitor.verdict_of([frozenset(), frozenset({"p"})])
    <Verdict.INCONCLUSIVE: '?'>
    """
    if isinstance(formula, str):
        formula = parse(formula)
    if atoms is None:
        atoms = atoms_of(formula)
    atoms = tuple(atoms)
    machine, _ = build_progression_machine(formula, atoms)
    machine = machine.minimize() if minimize else machine.reachable()
    return MonitorAutomaton(formula=formula, atoms=atoms, machine=machine)
