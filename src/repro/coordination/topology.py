"""The paper's routing rule, :class:`RoundRobinToken`.

A token goes directly to the lowest-index process whose events it still
needs, and a process's termination is told point-to-point to every other
monitor.  The rule is stateless and deterministic in ``num_processes``, so
every monitor of a run — on any backend, on any host — routes alike.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # imported for type hints only: keeps this package
    # runtime-independent of repro.core (no import cycle with the monitor)
    from ..core.messages import Token

__all__ = ["RoundRobinToken"]


class RoundRobinToken:
    """Where a monitor sends tokens and termination notices."""

    def __init__(self, num_processes: int) -> None:
        self.num_processes = num_processes

    def pick_target(self, current: int, candidates: Sequence[int], token: Token) -> int:
        """The lowest-index of the sorted, non-empty *candidates*."""
        return candidates[0]

    def next_hop(self, current: int, destination: int) -> int:
        """Direct delivery."""
        return destination

    def termination_recipients(self, current: int) -> tuple[int, ...]:
        """Every other process, in index order."""
        return tuple(j for j in range(self.num_processes) if j != current)
