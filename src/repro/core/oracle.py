"""The lattice oracle: ground truth for soundness and completeness.

Chapter 3 formalises the decentralized-monitoring problem against an oracle
that (magically) constructs the computation lattice and evaluates the LTL3
monitor along *every* path.  This module is that oracle — the one referee of
the tests, the fuzzer and the centralized baseline, never used by the
monitors themselves.

:meth:`LatticeOracle.evaluate` is one dynamic program over the consistent
cuts, enumerated level by level from the vector clocks as in Cooper and
Marzullo's lattice detection: level ``ℓ + 1`` holds the consistent
one-event extensions of the cuts of level ``ℓ``, and a cut's states are its
predecessors' states stepped by the cut's global letter mask.  Two levels
are alive at a time and no path is enumerated (the path-by-path reference
lives in the tests).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import le

from ..distributed.computation import Computation, Cut
from ..ltl.monitor import MonitorAutomaton
from ..ltl.predicates import PropositionRegistry
from ..ltl.verdict import Verdict
from .box import states_of as _states_of

__all__ = ["OracleResult", "LatticeOracle"]


@dataclass
class OracleResult:
    """Summary of the oracle evaluation of one computation."""

    #: the automaton states reachable at the top cut, and their verdicts
    final_states: frozenset[int]
    verdicts: frozenset[Verdict]
    #: every final (⊤/⊥) verdict reached at any consistent cut
    conclusive_verdicts: frozenset[Verdict]
    #: how many consistent cuts the computation has
    num_cuts: int


class LatticeOracle:
    """Evaluates an LTL3 monitor over every path of the computation lattice."""

    def __init__(
        self,
        computation: Computation,
        automaton: MonitorAutomaton,
        registry: PropositionRegistry,
    ) -> None:
        self.computation = computation
        self.automaton = automaton
        self.registry = registry

    # ------------------------------------------------------------------
    def evaluate(self) -> OracleResult:
        """The states reachable at every consistent cut, level by level.

        The bottom cut holds ``δ(q0, letter(bottom))``: the initial global
        state is the first letter of every trace (Chapter 3).  A consistent
        cut ``C`` extends by the next event of process ``p`` when ``C``
        holds that event's clock off ``p``.  State sets are bitmasks, and
        each (state set, letter mask) image is computed once.
        """
        computation, compiled = self.computation, self.automaton.compiled
        table, width = compiled.table, compiled.n_letters
        cols: list[list[int]] = []
        needs: list[list[Cut]] = []
        for p, events in enumerate(computation.events):
            states = [computation.initial_states[p], *(e.state for e in events)]
            cols.append([compiled.encode(self.registry.local_letter(p, s)) for s in states])
            needs.append([tuple(0 if j == p else c for j, c in enumerate(e.vc)) for e in events])
        ends = tuple(map(len, needs))
        images: dict[int, int] = {}
        level: dict[Cut, int] = {(0,) * len(ends): 1 << self.automaton.initial_state}
        met = num_cuts = 0
        while level:
            num_cuts += len(level)
            below: defaultdict[Cut, int] = defaultdict(int)
            for cut, before in level.items():
                mask = 0
                for i, k in enumerate(cut):
                    mask |= cols[i][k]
                image = images.get(before * width + mask)
                if image is None:
                    image = 0
                    for s in _states_of(before):
                        image |= 1 << table[s * width + mask]
                    images[before * width + mask] = image
                level[cut] = image
                met |= image
                for p, k in enumerate(cut):
                    if k < ends[p] and all(map(le, needs[p][k], cut)):
                        below[cut[:p] + (k + 1,) + cut[p + 1 :]] |= image
            top, level = level, below
        (final,) = top.values()
        verdict = self.automaton.verdict
        return OracleResult(
            final_states=frozenset(_states_of(final)),
            verdicts=frozenset(map(verdict, _states_of(final))),
            conclusive_verdicts=frozenset(
                verdict(s) for s in _states_of(met) if compiled.final_flags[s]
            ),
            num_cuts=num_cuts,
        )
