"""The computation lattice of consistent cuts (Definition 6, Fig. 2.2b).

The set of consistent cuts of a distributed computation, ordered by
inclusion, forms a distributive lattice.  The lattice is the "oracle"
structure of the paper: every maximal path from the empty cut to the final
cut is one possible total order of the execution, and running each path
through the LTL3 monitor yields the reference verdict set against which the
decentralized algorithm's soundness and completeness are stated (Chapter 3).

The implementation enumerates cuts explicitly (breadth-first from the empty
cut), which is exactly what the paper's oracle does; it is meant for the
moderate event counts of tests and experiments, not for monitoring itself —
the whole point of the decentralized algorithm is to avoid building this
lattice.
"""

from __future__ import annotations

from collections.abc import Iterator

from dataclasses import dataclass

from .computation import Computation, Cut

__all__ = ["ComputationLattice"]


@dataclass
class ComputationLattice:
    """Explicit lattice of the consistent cuts of a computation."""

    computation: Computation
    _cuts: list[Cut]
    _successors: dict[Cut, list[Cut]]
    _predecessors: dict[Cut, list[Cut]]

    # -- construction -----------------------------------------------------
    @classmethod
    def from_computation(cls, computation: Computation) -> "ComputationLattice":
        """Enumerate all consistent cuts reachable from the empty cut."""
        bottom: Cut = (0,) * computation.num_processes
        cuts: list[Cut] = [bottom]
        seen: set[Cut] = {bottom}
        successors: dict[Cut, list[Cut]] = {}
        predecessors: dict[Cut, list[Cut]] = {bottom: []}
        frontier: list[Cut] = [bottom]
        limits = computation.final_cut()
        while frontier:
            cut = frontier.pop(0)
            successors[cut] = []
            for process in range(computation.num_processes):
                if cut[process] >= limits[process]:
                    continue
                candidate = tuple(
                    c + 1 if i == process else c for i, c in enumerate(cut)
                )
                if not computation.is_consistent_cut(candidate):
                    continue
                successors[cut].append(candidate)
                predecessors.setdefault(candidate, []).append(cut)
                if candidate not in seen:
                    seen.add(candidate)
                    cuts.append(candidate)
                    frontier.append(candidate)
        return cls(
            computation=computation,
            _cuts=cuts,
            _successors=successors,
            _predecessors=predecessors,
        )

    # -- structure ----------------------------------------------------------
    def cuts(self) -> list[Cut]:
        """All consistent cuts, in breadth-first (level) order."""
        return list(self._cuts)

    def __len__(self) -> int:
        return len(self._cuts)

    def __contains__(self, cut: Cut) -> bool:
        return tuple(cut) in self._successors

    @property
    def bottom(self) -> Cut:
        """The empty cut (no events of any process) — the lattice minimum."""
        return (0,) * self.computation.num_processes

    @property
    def top(self) -> Cut:
        """The final cut (every event of every process) — the maximum."""
        return self.computation.final_cut()

    def successors(self, cut: Cut) -> list[Cut]:
        """Immediate successors (one more event of exactly one process)."""
        return list(self._successors.get(tuple(cut), ()))

    def predecessors(self, cut: Cut) -> list[Cut]:
        """Immediate predecessors (one fewer event of exactly one process)."""
        return list(self._predecessors.get(tuple(cut), ()))

    # -- lattice operations ---------------------------------------------------
    @staticmethod
    def join(first: Cut, second: Cut) -> Cut:
        """Least upper bound: component-wise maximum (Definition 14)."""
        return tuple(max(a, b) for a, b in zip(first, second))

    @staticmethod
    def meet(first: Cut, second: Cut) -> Cut:
        """Greatest lower bound: component-wise minimum (Definition 14)."""
        return tuple(min(a, b) for a, b in zip(first, second))

    # -- paths -----------------------------------------------------------------
    def paths(
        self, start: Cut | None = None, end: Cut | None = None
    ) -> Iterator[list[Cut]]:
        """Enumerate all paths from *start* (default bottom) to *end* (default top).

        Every path is a total-order interpretation of the computation: each
        step appends exactly one event.  The number of paths can be
        exponential; the generator is lazy.
        """
        start = tuple(start) if start is not None else self.bottom
        end = tuple(end) if end is not None else self.top
        if start not in self or end not in self:
            raise ValueError("start and end must be consistent cuts of the lattice")

        path: list[Cut] = [start]

        def backtrack(cut: Cut) -> Iterator[list[Cut]]:
            if cut == end:
                yield list(path)
                return
            for successor in self._successors[cut]:
                if self.meet(successor, end) != successor:
                    continue  # successor not below the requested end
                path.append(successor)
                yield from backtrack(successor)
                path.pop()

        return backtrack(start)

    def count_paths(self) -> int:
        """The number of maximal paths (computed by dynamic programming)."""
        counts: dict[Cut, int] = {self.top: 1}
        for cut in sorted(self._cuts, key=sum, reverse=True):
            if cut == self.top:
                continue
            counts[cut] = sum(counts[s] for s in self._successors[cut])
        return counts.get(self.bottom, 0)

    # -- levels ------------------------------------------------------------------
    def levels(self) -> list[list[Cut]]:
        """Cuts grouped by the number of events they contain."""
        by_level: dict[int, list[Cut]] = {}
        for cut in self._cuts:
            by_level.setdefault(sum(cut), []).append(cut)
        return [by_level[k] for k in sorted(by_level)]

    def width(self) -> int:
        """Maximum number of mutually concurrent cuts at the same level."""
        return max(len(level) for level in self.levels())

    def __repr__(self) -> str:
        return (
            f"ComputationLattice(cuts={len(self._cuts)}, "
            f"paths={self.count_paths()})"
        )
