"""Binding atomic propositions to predicates over (distributed) states.

The monitor automaton works over an abstract alphabet of atomic proposition
*names*.  In a distributed program each proposition is owned by exactly one
process and is evaluated on that process's local state (e.g. ``x1 >= 5`` is
owned by ``P1`` and ``P2.p`` is owned by ``P2``).  This module provides:

* :class:`Proposition` — a named, process-owned predicate over local states;
* :class:`PropositionRegistry` — the complete binding of the alphabet, able to
  turn local/global states into letters and to split a conjunctive transition
  guard into per-process conjuncts (the ``ConjunctsEvaluation`` structure of
  the paper's token objects).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence

from dataclasses import dataclass

__all__ = ["LocalState", "Proposition", "PropositionRegistry"]

#: A local state is simply a mapping from variable names to values.
LocalState = Mapping[str, object]


@dataclass(frozen=True)
class Proposition:
    """An atomic proposition owned by one process.

    Parameters
    ----------
    name:
        The proposition's name as it appears in LTL formulas.
    owner:
        Index of the process whose local state determines the proposition.
    evaluate:
        Predicate over the owner's local state.
    """

    name: str
    owner: int
    evaluate: Callable[[LocalState], bool]

    def holds_in(self, local_state: LocalState) -> bool:
        """Evaluate the proposition on the owner's *local_state*."""
        return bool(self.evaluate(local_state))

    @staticmethod
    def variable(name: str, owner: int, variable: str) -> "Proposition":
        """A proposition that is the truth value of a boolean local variable."""
        return Proposition(name, owner, lambda s, v=variable: bool(s.get(v, False)))

    @staticmethod
    def comparison(
        name: str, owner: int, variable: str, op: str, constant: object
    ) -> "Proposition":
        """A proposition comparing a local variable with a constant.

        ``op`` is one of ``<``, ``<=``, ``==``, ``!=``, ``>=``, ``>``.
        """
        operators: dict[str, Callable[[object, object], bool]] = {
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            "==": lambda a, b: a == b,
            "!=": lambda a, b: a != b,
            ">=": lambda a, b: a >= b,
            ">": lambda a, b: a > b,
        }
        if op not in operators:
            raise ValueError(f"unsupported comparison operator {op!r}")
        fn = operators[op]
        return Proposition(
            name, owner, lambda s, v=variable, c=constant, f=fn: f(s.get(v), c)
        )


class PropositionRegistry:
    """The complete set of propositions monitored over a distributed program."""

    def __init__(self, propositions: Iterable[Proposition]) -> None:
        self._by_name: dict[str, Proposition] = {}
        for proposition in propositions:
            if proposition.name in self._by_name:
                raise ValueError(f"duplicate proposition name {proposition.name!r}")
            self._by_name[proposition.name] = proposition
        self._by_owner: dict[int, list[Proposition]] = {}
        for proposition in self._by_name.values():
            self._by_owner.setdefault(proposition.owner, []).append(proposition)

    # -- introspection -------------------------------------------------
    @property
    def names(self) -> list[str]:
        """All proposition names, sorted."""
        return sorted(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Proposition:
        return self._by_name[name]

    def __len__(self) -> int:
        return len(self._by_name)

    def owner_of(self, name: str) -> int:
        """Process index owning proposition *name*."""
        return self._by_name[name].owner

    # -- evaluation ------------------------------------------------------
    def local_letter(self, process: int, local_state: LocalState) -> frozenset[str]:
        """The true propositions of *process* in *local_state*."""
        return frozenset(
            p.name
            for p in self._by_owner.get(process, ())
            if p.holds_in(local_state)
        )

    def letter_of(self, global_state: Sequence[LocalState]) -> frozenset[str]:
        """The letter (set of true propositions) of a full global state."""
        true_atoms = set()
        for proposition in self._by_name.values():
            local_state = global_state[proposition.owner]
            if proposition.holds_in(local_state):
                true_atoms.add(proposition.name)
        return frozenset(true_atoms)

    # -- guard decomposition ---------------------------------------------
    def conjuncts_by_process(
        self, guard: Mapping[str, bool], num_processes: int
    ) -> tuple[dict[str, bool], ...]:
        """Split a conjunctive transition guard into per-process conjuncts.

        The result has one entry per process: the literals of the guard owned
        by that process (empty when the process does not participate in the
        guard).  This mirrors the ``ConjunctsEvaluation`` vector of the
        paper's token objects.  Monitors split each guard once per property
        (``repro.core.box.Property``), so nothing is memoized here.
        """
        per_process: list[dict[str, bool]] = [dict() for _ in range(num_processes)]
        for atom, required in guard.items():
            per_process[self.owner_of(atom)][atom] = required
        return tuple(per_process)

    # -- convenience constructors ----------------------------------------
    @staticmethod
    def boolean_grid(
        num_processes: int, variables: Sequence[str] = ("p", "q")
    ) -> "PropositionRegistry":
        """The case-study alphabet: propositions ``P<i>.<v>`` for each process.

        Matches the experimental set-up of Chapter 5 where every process owns
        boolean propositions ``p`` and ``q``.
        """
        propositions = []
        for process in range(num_processes):
            for variable in variables:
                propositions.append(
                    Proposition.variable(f"P{process}.{variable}", process, variable)
                )
        return PropositionRegistry(propositions)
