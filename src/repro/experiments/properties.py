"""The six LTL3 properties of the experimental evaluation (Section 5.1).

Each property is parameterised by the number of processes ``n``; every
process ``P_i`` owns two boolean propositions ``P<i>.p`` and ``P<i>.q``.
The definitions follow Section 5.1:

=========  ==================================================================
Property   Formula (for ``n`` processes)
=========  ==================================================================
A          ``G((P0.p & … & Pk.p) U (Pk+1.p & … & Pn-1.p))`` — the left block
           has two processes from ``n >= 4`` on, one before that (so that A
           and C coincide for 2 and 3 processes, as noted in the paper).
B          ``F(P0.p & … & Pn-1.p)``
C          ``G(P0.p U (P1.p & … & Pn-1.p))``
D          ``G((P0.p & … & Pn-1.p) U (P0.q & … & Pn-1.q))``
E          ``F(P0.p & … & Pn-1.p & P0.q & … & Pn-1.q)``
F          ``G((P0.p U (P1.p & … & Pn-1.p)) & (P0.q U (P1.q & … & Pn-1.q)))``
=========  ==================================================================
"""

from __future__ import annotations

from collections.abc import Sequence

from functools import lru_cache

from ..ltl.monitor import MonitorAutomaton, build_monitor
from ..ltl.predicates import PropositionRegistry

__all__ = [
    "PROPERTY_NAMES",
    "property_formula",
    "case_study_registry",
    "case_study_monitor",
]

PROPERTY_NAMES: tuple[str, ...] = ("A", "B", "C", "D", "E", "F")


def _conj(atoms: Sequence[str]) -> str:
    return " & ".join(atoms)


def property_formula(name: str, num_processes: int) -> str:
    """The LTL formula of case-study property *name* for *num_processes*."""
    if num_processes < 2:
        raise ValueError("the case study uses at least two processes")
    name = name.upper()
    p = [f"P{i}.p" for i in range(num_processes)]
    q = [f"P{i}.q" for i in range(num_processes)]
    if name == "A":
        split = 2 if num_processes >= 4 else 1
        return f"G(({_conj(p[:split])}) U ({_conj(p[split:])}))"
    if name == "B":
        return f"F({_conj(p)})"
    if name == "C":
        return f"G(({p[0]}) U ({_conj(p[1:])}))"
    if name == "D":
        return f"G(({_conj(p)}) U ({_conj(q)}))"
    if name == "E":
        return f"F({_conj(p + q)})"
    if name == "F":
        return (
            f"G((({p[0]}) U ({_conj(p[1:])})) & (({q[0]}) U ({_conj(q[1:])})))"
        )
    raise ValueError(f"unknown case-study property {name!r}")


def case_study_registry(num_processes: int) -> PropositionRegistry:
    """The proposition registry of the case study (``P<i>.p`` / ``P<i>.q``)."""
    return PropositionRegistry.boolean_grid(num_processes)


@lru_cache(maxsize=None)
def case_study_monitor(name: str, num_processes: int) -> MonitorAutomaton:
    """The LTL3 monitor automaton of property *name* for *num_processes*.

    The automaton is built with the formula-progression method and left
    unminimised, reproducing the experimental automata of Table 5.1 /
    Figures 5.2–5.3.
    """
    formula = property_formula(name, num_processes)
    # The alphabet is restricted to the formula's own atoms: propositions of
    # processes that do not participate are projected away automatically when
    # the monitor reads a letter of the full global state.
    return build_monitor(formula, minimize=False)
