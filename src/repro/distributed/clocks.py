"""Logical clocks for asynchronous distributed computations.

Vector clocks (Mattern / Fidge) realise Lamport's happened-before relation:
event ``a`` happened before event ``b`` iff ``VC(a) < VC(b)`` component-wise
with at least one strict inequality.  The decentralized monitoring algorithm
relies on vector clocks both to order events and to detect *inconsistent*
global cuts (a cut is inconsistent when some collected event knows about a
later event of another process than the cut does).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


__all__ = ["VectorClock"]


class VectorClock:
    """An immutable vector clock for a system of ``n`` processes."""

    __slots__ = ("_components",)

    def __init__(self, components: Iterable[int]) -> None:
        components = tuple(int(c) for c in components)
        if any(c < 0 for c in components):
            raise ValueError("vector clock components must be non-negative")
        object.__setattr__(self, "_components", components)

    def __setattr__(self, key: str, value: object) -> None:  # immutability guard
        raise AttributeError("VectorClock is immutable")

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, num_processes: int) -> "VectorClock":
        """The all-zero clock of a fresh computation."""
        if num_processes <= 0:
            raise ValueError("number of processes must be positive")
        return cls((0,) * num_processes)

    # -- accessors --------------------------------------------------------
    def __getitem__(self, index: int) -> int:
        return self._components[index]

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[int]:
        return iter(self._components)

    @property
    def components(self) -> tuple[int, ...]:
        """The clock's components as an immutable tuple."""
        return self._components

    # -- updates (returning new clocks) ------------------------------------
    def increment(self, process: int) -> "VectorClock":
        """Tick the local component of *process*."""
        components = list(self._components)
        components[process] += 1
        return VectorClock(components)

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Component-wise maximum (used on message receive)."""
        self._check_compatible(other)
        return VectorClock(
            max(a, b) for a, b in zip(self._components, other._components)
        )

    def receive(self, other: "VectorClock", process: int) -> "VectorClock":
        """Merge with the sender's clock and tick the local component."""
        return self.merge(other).increment(process)

    # -- comparisons --------------------------------------------------------
    def _check_compatible(self, other: "VectorClock") -> None:
        if len(self) != len(other):
            raise ValueError(
                f"incompatible vector clock sizes: {len(self)} vs {len(other)}"
            )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self._components == other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def __le__(self, other: "VectorClock") -> bool:
        self._check_compatible(other)
        return all(a <= b for a, b in zip(self._components, other._components))

    def __lt__(self, other: "VectorClock") -> bool:
        """Strict happened-before order on clocks."""
        return self <= other and self != other

    def __ge__(self, other: "VectorClock") -> bool:
        return other <= self

    def __gt__(self, other: "VectorClock") -> bool:
        return other < self

    def concurrent_with(self, other: "VectorClock") -> bool:
        """Neither clock dominates the other."""
        return not (self <= other) and not (other <= self)

    def __repr__(self) -> str:
        return f"VC{list(self._components)}"

