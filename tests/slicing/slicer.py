"""Computation slicing for conjunctive global predicates (Mittal–Garg).

A *slice* of a computation with respect to a predicate is the smallest
sub-computation containing every consistent global state that satisfies the
predicate (Definition 13).  For **conjunctive** predicates — conjunctions of
per-process local propositions, the only kind labelling LTL3 monitor
transitions after disjunction splitting — the satisfying consistent cuts form
a sublattice, and the slice can be represented compactly by its
join-irreducible elements.

The decentralized algorithm of the paper needs one core operation from this
theory: given a conjunctive guard and a starting cut, find the **least
consistent cut at or above the start that satisfies the guard** (or establish
that none exists).  :func:`least_consistent_cut` implements the classic
advance-to-fixpoint algorithm; :class:`Slice` packages the per-event
join-irreducible cuts.

The monitor does not import this module: it is the test oracle of the
searches ``DecentralizedMonitor`` serves from its columns
(``tests/core/test_step_search.py``, ``tests/core/test_search_memory.py``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.distributed.computation import Computation, Cut
from repro.distributed.lattice import ComputationLattice
from repro.ltl.predicates import PropositionRegistry

__all__ = ["least_consistent_cut", "satisfying_cuts", "Slice"]


def _conjunct_holds(
    computation: Computation,
    registry: PropositionRegistry,
    process: int,
    count: int,
    conjunct: Mapping[str, bool],
) -> bool:
    if not conjunct:
        return True
    letter = registry.local_letter(process, computation.local_state(process, count))
    return all((atom in letter) == required for atom, required in conjunct.items())


def least_consistent_cut(
    computation: Computation,
    registry: PropositionRegistry,
    guard: Mapping[str, bool],
    start: Cut | None = None,
) -> Cut | None:
    """The least consistent cut ``>= start`` whose global state satisfies *guard*.

    Parameters
    ----------
    computation:
        The finished computation to search in.
    registry:
        Binding of the guard's atomic propositions to processes.
    guard:
        A conjunctive predicate: mapping from proposition name to required
        truth value.  The empty guard is satisfied by every cut.
    start:
        The cut from which the search starts (defaults to the empty cut).

    Returns
    -------
    The least satisfying consistent cut, or ``None`` when no consistent cut at
    or above *start* satisfies the guard.

    Notes
    -----
    This is the standard conjunctive-predicate detection loop: repeatedly
    advance any process whose frontier state falsifies its local conjunct, and
    repair consistency by advancing processes the frontier depends on.  Each
    step advances at least one component, so the loop terminates after at most
    ``|events|`` iterations.
    """
    n = computation.num_processes
    limits = computation.final_cut()
    cut = list(start) if start is not None else [0] * n
    if len(cut) != n:
        raise ValueError("start cut arity must match the number of processes")
    # same memoized per-process decomposition the decentralized monitors use
    conjuncts = registry.conjuncts_by_process(guard, n)

    changed = True
    while changed:
        changed = False
        # 1. repair consistency: if the frontier event of process i knows about
        #    more events of process j than the cut contains, advance j.
        for process in range(n):
            if cut[process] == 0:
                continue
            clock = computation.event(process, cut[process]).vc
            for other in range(n):
                if clock[other] > cut[other]:
                    cut[other] = clock[other]
                    changed = True
        if changed:
            continue
        # 2. advance any process whose local conjunct does not hold.
        for process in range(n):
            if _conjunct_holds(computation, registry, process, cut[process], conjuncts[process]):
                continue
            if cut[process] >= limits[process]:
                return None  # no further event can ever satisfy the conjunct
            cut[process] += 1
            changed = True
    result = tuple(cut)
    if any(result[i] > limits[i] for i in range(n)):
        return None
    return result


def satisfying_cuts(
    computation: Computation,
    registry: PropositionRegistry,
    guard: Mapping[str, bool],
) -> list[Cut]:
    """All consistent cuts whose global state satisfies *guard*.

    Enumerates the full lattice; intended for validation and small inputs.
    """
    lattice = ComputationLattice.from_computation(computation)
    result = []
    for cut in lattice.cuts():
        state = computation.global_state(cut)
        letter = registry.letter_of(state)
        if all((atom in letter) == value for atom, value in guard.items()):
            result.append(cut)
    return result


@dataclass
class Slice:
    """The slice of a computation with respect to a conjunctive predicate.

    The slice is stored as its join-irreducible consistent cuts plus the
    least satisfying cut; every satisfying cut is a join of a subset of the
    join-irreducible cuts with the least cut.
    """

    computation: Computation
    registry: PropositionRegistry
    guard: Mapping[str, bool]
    least: Cut | None
    join_irreducibles: list[Cut] = field(default_factory=list)

    @classmethod
    def compute(
        cls,
        computation: Computation,
        registry: PropositionRegistry,
        guard: Mapping[str, bool],
    ) -> "Slice":
        """Compute the slice of *computation* with respect to *guard*.

        The join-irreducible elements are obtained, as in the distributed
        abstraction algorithm of Chauhan et al., as the least satisfying
        consistent cuts containing each individual event.
        """
        least = least_consistent_cut(computation, registry, guard)
        irreducibles: list[Cut] = []
        if least is not None:
            seen = set()
            for process in range(computation.num_processes):
                for sn in range(1, len(computation.events_of(process)) + 1):
                    start = [0] * computation.num_processes
                    start[process] = sn
                    cut = least_consistent_cut(
                        computation, registry, guard, tuple(start)
                    )
                    if cut is not None and cut not in seen:
                        seen.add(cut)
                        irreducibles.append(cut)
        return cls(
            computation=computation,
            registry=registry,
            guard=dict(guard),
            least=least,
            join_irreducibles=irreducibles,
        )

    @property
    def is_empty(self) -> bool:
        """Whether no consistent cut satisfies the predicate."""
        return self.least is None

    def cuts(self) -> list[Cut]:
        """All consistent cuts that satisfy the predicate (by enumeration)."""
        return satisfying_cuts(self.computation, self.registry, self.guard)

    def contains(self, cut: Cut) -> bool:
        """Whether *cut* is a satisfying consistent cut of the slice."""
        if not self.computation.is_consistent_cut(cut):
            return False
        state = self.computation.global_state(cut)
        letter = self.registry.letter_of(state)
        return all((atom in letter) == value for atom, value in self.guard.items())

    def __repr__(self) -> str:
        return (
            f"Slice(guard={self.guard}, least={self.least}, "
            f"irreducibles={len(self.join_irreducibles)})"
        )
