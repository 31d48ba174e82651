"""Global views: a monitor's exploration state along one lattice path, and
the policy over the set of them.

A global view is the decentralized counterpart of one node of the
computation lattice: it records the consistent cut reached so far and the
LTL3 monitor automaton state reached by the traced path (the letters at the
cut are read off the monitor's mask columns, not kept here).  A monitor
keeps a *set* of views (:class:`ViewSet`) because concurrency may make
several lattice paths — and hence several automaton states — possible at
the same time (Chapter 3; ``docs/architecture.md``, core/global_view.py).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from operator import le
from typing import Any

from ..ltl.monitor import MonitorAutomaton
from .box import Box, states_of

__all__ = ["ViewStatus", "GlobalView", "ViewSet"]


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
        step found reachable there, by the exact box search; written only by
        :meth:`ViewSet.forks`.
    """

    cut: list[int]
    state: int
    status: str = ViewStatus.UNBLOCKED
    outstanding_token: int | None = None
    born: set[tuple[int, tuple[int, ...]]] = field(init=False, repr=False)
    searched: dict[tuple, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.born = {self.signature()}

    # ------------------------------------------------------------------
    def signature(self) -> tuple[int, tuple[int, ...]]:
        """Merging key: views with equal signatures are duplicates."""
        return (self.state, tuple(self.cut))

    def is_waiting(self) -> bool:
        """Whether the view is parked on an outstanding token."""
        return self.status == ViewStatus.WAITING


class ViewSet(list):
    """The live views of one monitor, in creation order, and the policy over
    them (MERGESIMILARGLOBALVIEWS and the rules of ``docs/architecture.md``,
    Views): forks from the box search of *box*, covering, merging, the
    optional per-state *budget* and settling.  Conclusive views are declared
    through *declare*."""

    def __init__(
        self,
        automaton: MonitorAutomaton,
        box: Box,
        metrics: Any,  # the monitor's MonitorMetrics: the counters this layer adds to
        budget: int | None,
        declare: Callable[[int], None],
    ) -> None:
        super().__init__()
        self.automaton, self.box, self.metrics = automaton, box, metrics
        self.budget, self.declare = budget, declare
        self.final_bits, self.reach = box.final_bits, box.reach
        #: the conclusive views, in the order reached
        self.final: list[GlobalView] = []
        #: birth signatures of the views created, less those an eviction gave up
        self.born: set[tuple[int, tuple[int, ...]]] = set()
        #: token_id -> the view waiting for that token
        self.waiting: dict[int, GlobalView] = {}
        self.checked = -1  # what was declared or heard when :meth:`settle` last ran

    def add(self, view: GlobalView) -> None:
        """Take a newly created *view* in."""
        self.metrics.views_created += 1
        self.born |= view.born
        self.append(view)

    def retire(self, view: GlobalView) -> None:
        """Take *view* out of the live views: repaired, or conclusive (declared)."""
        view.status = ViewStatus.FINAL
        if view in self:
            self.remove(view)
        if self.automaton.is_final(view.state):
            self.declare(1 << view.state)
            self.final.append(view)

    def wait(self, view: GlobalView, token_id: int) -> None:
        """Park *view* on the token *token_id*."""
        view.status = ViewStatus.WAITING
        view.outstanding_token = token_id
        self.waiting[token_id] = view

    def resume(self, token_id: int) -> GlobalView | None:
        """The view the token *token_id* comes home to, unblocked; ``None``
        for an orphan (its view was retired meanwhile)."""
        view = self.waiting.pop(token_id, None)
        if view is not None:
            view.status = ViewStatus.UNBLOCKED
            view.outstanding_token = None
        return view

    def forks(
        self, view: GlobalView, cuts: list[tuple], repair: bool, mask: int
    ) -> list[GlobalView]:
        """The views forked from *view* at the target *cuts* of its decided
        transition searches, or of one repair: one box search for the step,
        then target by target; *mask* is the letter mask at the view's cut.

        A target in ``view.searched`` is left out while ``born`` holds every
        pivot state found there: the view has moved along one path since, so a
        search from here would reach a subset of those, and fork none.
        """
        if repair:
            self.retire(view)  # first, so that the stale view cannot cover its own forks
        last, born, state = {} if repair else view.searched, self.born, view.state
        view.searched = {}  # what is left out, and what the search below finds
        pivots, fresh = ~(self.final_bits | 1 << state), []
        for cut in cuts:
            found = last.get((state, cut))
            if found is None or not all((s, cut) in born for s in states_of(found & pivots)):
                fresh.append(cut)
            else:
                view.searched[state, cut] = found
        self.metrics.boxes_remembered += len(cuts) - len(fresh)
        forked: list[GlobalView] = []
        for cut, reached in zip(fresh, self.box.reachable(view, fresh, mask) if fresh else ()):
            if reached:  # else the cut was not a consistent one
                view.searched[state, cut] = reached
            forked.extend(self.fork(view, cut, reached, repair))
        return forked

    def fork(
        self, view: GlobalView, cut: tuple[int, ...], reached: int, repair: bool
    ) -> list[GlobalView]:
        """Fork one view per automaton state of the bitset *reached* — the
        states reachable at the target *cut* inside its box.

        Only *pivot* states are forked: the parent keeps covering its own
        state from its smaller cut (the paper explores only global states
        that change the automaton state).  A *repair* forks every reachable
        state, its parent being retired.
        """
        children: list[GlobalView] = []
        for state in states_of(reached & ~self.final_bits):  # those, the search declared
            if state == view.state and not repair:
                continue
            if self.covered(state, cut):
                self.metrics.views_merged += 1
                continue
            child = GlobalView(cut=list(cut), state=state)
            self.add(child)
            children.append(child)
        self.metrics.max_active_views = max(self.metrics.max_active_views, len(self))
        return children

    def covered(self, state: int, cut: tuple[int, ...]) -> bool:
        """Whether a candidate fork would only duplicate exploration.

        A live view with the same automaton state whose cut is componentwise
        below (or equal to) the candidate's will reach every cut the
        candidate could — waiting views too, once their token returns.  And a
        view created here at exactly this state and cut (and not evicted)
        has walked, or is walking, the very chain the candidate would.
        """
        return (state, cut) in self.born or any(
            other.state == state and all(map(le, other.cut, cut)) for other in self
        )

    def merge(self, declared: int, heard: int) -> None:
        """MERGESIMILARGLOBALVIEWS, then the budget, then :meth:`settle`.

        Among unblocked views one whose cut componentwise dominates — or
        equals — that of another view with the same automaton state is
        merged into it: the smaller view reaches every cut the larger one
        can (the slice-based merging of Section 4.3).
        """
        # per automaton state keep the minimal antichain (the sort is stable:
        # of exact duplicates the first stays); waiting views come first
        by_state: dict[int, list[GlobalView]] = {}
        kept: list[GlobalView] = []
        for view in self:
            (kept if view.is_waiting() else by_state.setdefault(view.state, [])).append(view)
        for state_views in by_state.values():
            minimal: list[GlobalView] = []
            for view in sorted(state_views, key=lambda v: sum(v.cut)):
                for other in minimal:
                    if all(small <= big for small, big in zip(other.cut, view.cut)):
                        self.metrics.views_merged += 1
                        other.born |= view.born  # given up with *other*, if it is evicted
                        break
                else:
                    minimal.append(view)
            kept.extend(minimal)

        self[:] = kept
        self.enforce_budget()
        self.settle(declared, heard)

    def enforce_budget(self) -> None:
        """Apply the optional per-state bound on live views: the views with
        the largest cuts are dropped, their tokens disowned (swallowed on
        their next pass home) and their ``born`` signatures forgotten."""
        if self.budget is None:
            return
        by_state: dict[int, list[GlobalView]] = {}
        for view in self:
            by_state.setdefault(view.state, []).append(view)
        kept: list[GlobalView] = []
        for state_views in by_state.values():
            state_views.sort(key=lambda v: (sum(v.cut), tuple(v.cut)))
            kept.extend(state_views[: self.budget])
            for dropped in state_views[self.budget :]:
                self.metrics.views_evicted += 1
                self.born -= dropped.born
                self.waiting.pop(dropped.outstanding_token, None)
        self[:] = kept

    def settle(self, declared: int, heard: int) -> bool:
        """Retire every live view once the monitor is *settled*: each
        conclusive state its views (waiting ones too) can still reach is
        *declared* by it or — as *heard* tells — by another monitor, so no
        search could add to the session's declarations (``docs/architecture.md``,
        Settled monitors).  Their tokens are disowned, as an evicted view's
        are.  Returns whether it retired them."""
        self.checked = declared | heard
        undeclared = self.final_bits & ~self.checked
        if any(self.reach[view.state] & undeclared for view in self):
            return False
        self.metrics.views_settled += len(self)
        own = self.final_bits & ~declared
        if any(self.reach[view.state] & own for view in self):
            self.metrics.settled_on_news += len(self)
        for view in self:
            view.status = ViewStatus.FINAL  # no step, no search: a retired view is refused
            self.waiting.pop(view.outstanding_token, None)
        self.clear()
        return True
