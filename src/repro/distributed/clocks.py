"""Logical clocks for asynchronous distributed computations.

Vector clocks (Mattern / Fidge) realise Lamport's happened-before relation:
event ``a`` happened before event ``b`` iff ``VC(a) < VC(b)`` component-wise
with at least one strict inequality.  The decentralized monitoring algorithm
relies on vector clocks both to order events and to detect *inconsistent*
global cuts (a cut is inconsistent when some collected event knows about a
later event of another process than the cut does).
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator, Sequence


__all__ = ["VectorClock", "ClockSkew"]


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

    def as_list(self) -> list[int]:
        """The clock's components as a fresh mutable list."""
        return list(self._components)

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


#: dedicated RNG salt so skew streams are independent of workload/fault RNGs
_SKEW_SEED_SALT = 0x5C1F_0C7E


class ClockSkew:
    """Deterministic perturbation of a computation's vector-clock assignment.

    Feeds on the *true* per-event clocks of one process at a time (in
    sequence-number order) and emits skewed clocks that keep every
    structural invariant an :class:`~repro.distributed.events.Event`
    requires: the local component stays exactly the event's sequence number
    and each process's clock sequence stays component-wise monotone.

    Two modes, on either side of the happened-before boundary:

    * ``"sound"`` only *inflates* what an event appears to know about other
      processes (capped at each process's final event count).  Every cut
      consistent under inflated clocks is consistent under the true clocks
      — the skewed consistency predicate is strictly stronger — so monitors
      explore a sub-lattice of the real computation lattice and any verdict
      they declare corresponds to a real execution path: soundness is
      preserved by construction, only completeness may suffer.
    * ``"unsound"`` *deflates* received knowledge, hiding happened-before
      edges, so cuts that are inconsistent in reality may look consistent —
      monitors can explore impossible interleavings and declare verdicts no
      real execution supports.  Deliberately soundness-breaking; exists so
      the fuzzing oracle has a known-divergent regime to calibrate against.

    Perturbation draws come from per-process salted RNG streams derived
    from ``seed`` alone, so the transform is deterministic and independent
    of the order in which processes are skewed.
    """

    def __init__(
        self,
        num_processes: int,
        maxima: Sequence[int],
        *,
        mode: str = "sound",
        rate: float = 0.25,
        magnitude: int = 1,
        seed: int = 0,
    ) -> None:
        if mode not in ("sound", "unsound"):
            raise ValueError(f"unknown skew mode {mode!r}")
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be within [0, 1], got {rate}")
        if magnitude < 1:
            raise ValueError(f"magnitude must be >= 1, got {magnitude}")
        if len(maxima) != num_processes:
            raise ValueError(
                f"need one component maximum per process: "
                f"{len(maxima)} maxima for {num_processes} processes"
            )
        self.num_processes = num_processes
        self.maxima = tuple(int(m) for m in maxima)
        self.mode = mode
        self.rate = rate
        self.magnitude = magnitude
        self.seed = seed
        self._rngs = [
            random.Random(((seed ^ _SKEW_SEED_SALT) << 8) | process)
            for process in range(num_processes)
        ]
        self._carry: list[list[int]] = [
            [0] * num_processes for _ in range(num_processes)
        ]
        #: events whose clock the skew actually changed
        self.perturbed_events = 0
        #: total component distortion applied (absolute value, summed)
        self.distortion = 0

    def perturb(
        self, process: int, sn: int, components: Sequence[int]
    ) -> tuple[int, ...]:
        """The skewed clock of event ``(process, sn)``.

        Must be called in sequence-number order per process (the carry
        vector that preserves monotonicity is keyed on it).
        """
        n = self.num_processes
        rng = self._rngs[process]
        skewed = list(int(c) for c in components)
        if rng.random() < self.rate and n > 1:
            victim = rng.randrange(n - 1)
            if victim >= process:
                victim += 1  # never touch the local component
            amount = rng.randint(1, self.magnitude)
            if self.mode == "sound":
                skewed[victim] = min(skewed[victim] + amount, self.maxima[victim])
            else:
                skewed[victim] = max(skewed[victim] - amount, 0)
        carry = self._carry[process]
        result = []
        for k in range(n):
            if k == process:
                value = sn  # the Event invariant: local component == sn
            else:
                value = max(skewed[k], carry[k])
                if self.mode == "unsound":
                    # deflation must never *add* knowledge: the carry keeps
                    # monotonicity, the true clock caps it from above
                    value = min(value, int(components[k]))
            result.append(value)
        self._carry[process] = result
        changed = sum(abs(a - int(b)) for a, b in zip(result, components))
        if changed:
            self.perturbed_events += 1
            self.distortion += changed
        return tuple(result)

    def stats(self) -> dict[str, float]:
        """Flat ``fault_skew_*`` counters merged into run reports."""
        return {
            "fault_skew_perturbed_events": float(self.perturbed_events),
            "fault_skew_distortion": float(self.distortion),
        }
