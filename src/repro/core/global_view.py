"""Global views: a monitor's exploration state along one lattice path.

A global view is the decentralized counterpart of one node of the
computation lattice: it records the consistent cut reached so far and the
LTL3 monitor automaton state reached by the traced path (the letters at the
cut are read off the monitor's mask columns, not kept here).  A monitor
keeps a *set* of views because concurrency may make several lattice paths —
and hence several automaton states — possible at the same time (Chapter 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ViewStatus", "GlobalView"]


class ViewStatus:
    """Lifecycle states of a global view (Section 4.2)."""

    UNBLOCKED = "unblocked"
    WAITING = "waiting"  # a token is outstanding; local events are queued
    FINAL = "final"      # out of the live views: conclusive, repaired or settled


@dataclass(eq=False)
class GlobalView:
    """One traced lattice path of a monitor process, equal only to itself: a
    returning token finds it through its monitor's outstanding tokens.

    Attributes
    ----------
    cut:
        Event counts per process of the consistent cut reached.
    state:
        Current monitor automaton state.
    status:
        ``unblocked``, ``waiting`` (token outstanding) or ``final``.
    outstanding_token:
        Identifier of the token the view is waiting for, if any.
    born:
        The signature at creation, and those of the views merged into this
        one: the explorations the monitor must not start again while it lives.
    searched:
        ``(state searched from, target cut)`` -> the states the view's last
        step found reachable there, by the exact box search.
    dead:
        Bitmask over guard ids: the guards with no satisfying cut above the
        view's cut, as its monitor's ``_least`` still tells; forks inherit it.
    """

    cut: list[int]
    state: int
    status: str = ViewStatus.UNBLOCKED
    outstanding_token: int | None = None
    born: set[tuple[int, tuple[int, ...]]] = field(init=False, repr=False)
    searched: dict[tuple, int] = field(default_factory=dict, repr=False)
    dead: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self.born = {self.signature()}

    # ------------------------------------------------------------------
    def signature(self) -> tuple[int, tuple[int, ...]]:
        """Merging key: views with equal signatures are duplicates."""
        return (self.state, tuple(self.cut))

    def is_waiting(self) -> bool:
        """Whether the view is parked on an outstanding token."""
        return self.status == ViewStatus.WAITING
