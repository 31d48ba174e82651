"""Message types exchanged between decentralized monitor processes.

Monitors communicate exclusively through these messages — the paper's
*tokens* plus termination notices; what one monitor sends one peer in one
callback travels as one *frame*, a tuple of them.  A token carries one or
more :class:`TokenEntry` objects; each performs a distributed least-consistent-
cut search (the slicing primitive of Section 4.1) for one possibly-enabled
monitor transition, or collects the events needed to repair an inconsistent view.

A letter travels as its integer mask over ``automaton.compiled.atoms`` and a
guard as per-process ``(care, want)`` mask pairs: that atom list is sorted,
and every monitor of a session derives it from the same specification, so
a mask means the same letter wherever it arrives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = ["TokenEntry", "Token", "TerminationNotice"]

_token_ids = itertools.count(1)


@dataclass
class TokenEntry:
    """The state of the search carried out for one transition (or repair).

    The entry starts at the parent view's cut (``start_cut``) and advances
    process components monotonically until either a consistent cut
    satisfying the transition guard is found (``eval`` becomes ``True``) or
    a process terminates without ever satisfying its conjunct (``eval``
    becomes ``False``).  The events it scans travel once per token, in
    :attr:`Token.runs`, not per entry: the parent replays all interleavings
    inside the box ``[start_cut, cut]`` from its own columns and forks a
    view for every automaton state reachable there (this is what makes the
    implementation sound by construction).

    Attributes
    ----------
    transition_id:
        The monitor transition being searched for, or ``None`` for a pure
        consistency-repair entry.
    bits:
        Per process, the ``(care, want)`` pair of the transition guard's
        conjunct over the compiled automaton's letter masks: a mask ``m``
        satisfies it iff ``m & care == want``, and ``care == 0`` marks a
        process the guard does not constrain (every pair, for repairs).
    start_cut:
        The parent view's (consistent) cut when the entry was created.
    cut:
        The cut constructed so far.
    depend:
        Component-wise maximum of the vector clocks of collected events; the
        cut is consistent when ``cut[j] >= depend[j]`` for all ``j``.
    min_positions:
        Lower bounds the cut must reach (used by repair entries to pull the
        view up to the vector clock of an out-of-order local event).
    satisfied:
        Whether each process's conjunct holds at its current ``cut`` position.
    eval:
        ``None`` while undecided, else ``True`` / ``False``.
    parked_on:
        Process whose *future* event the entry is waiting for, if any.
    """

    transition_id: int | None
    bits: tuple[tuple[int, int], ...]
    start_cut: list[int]
    cut: list[int]
    depend: list[int]
    min_positions: list[int]
    satisfied: list[bool]
    eval: bool | None = None
    parked_on: int | None = None
    #: processes already visited that currently have no useful event; the
    #: token will not be routed back to them until they produce new events,
    #: terminate, or some other component of the search makes progress.
    waiting_for: set = field(default_factory=set)

    @property
    def is_repair(self) -> bool:
        """Entries without a transition only pull the view to a newer cut."""
        return self.transition_id is None

    def record_scan(self, vc: tuple[int, ...]) -> None:
        """Record that a run of one process's events ending at clock *vc*
        was scanned.

        A process's clocks only grow from one event to the next, so folding
        the run's last clock into ``depend`` folds all of them.
        """
        depend = self.depend
        for k, component in enumerate(vc):
            if component > depend[k]:
                depend[k] = component


@dataclass
class Token:
    """A monitoring message routed between monitor processes.

    Created by one global view of one monitor (the *parent*), possibly
    visiting several monitors to evaluate its entries, and finally returning
    to the parent which forks/updates views from the results.

    Attributes
    ----------
    token_id:
        The token's only handle on its view: the parent keeps the waiting
        view under this id until the token comes home.
    known:
        Per process, the last position of that process's events the parent
        held when the token last left it (refreshed on every pass home).
    runs:
        Per process ``j``, the letter masks and vector clocks of its events
        ``known[j] + 1, known[j] + 2, …`` — what the entries scanned and
        the parent did not already hold, shared by all entries.  Whichever
        monitor advanced an entry over them extends the run as the token
        leaves; on arrival ``known[j] + len(runs[j]) >= entry.cut[j]``.
    declared:
        The conclusive states its last sender knew declared, as a bitset.
    """

    parent_process: int
    entries: list[TokenEntry]
    known: list[int]
    runs: dict[int, tuple[list[int], list[tuple[int, ...]]]] = field(
        default_factory=dict
    )
    token_id: int = field(default_factory=lambda: next(_token_ids))
    hops: int = 0
    declared: int = 0

    def undecided_entries(self) -> list[TokenEntry]:
        """Entries still awaiting evaluation at some monitor."""
        return [entry for entry in self.entries if entry.eval is None]

    def all_decided(self) -> bool:
        """Whether every entry has been evaluated (token may return)."""
        return not self.undecided_entries()


@dataclass(frozen=True)
class TerminationNotice:
    """A program process's last event, and what its monitor knew declared."""

    process: int
    final_event_sn: int
    declared: int = 0

