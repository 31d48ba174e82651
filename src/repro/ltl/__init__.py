"""LTL formulas, semantics and LTL3 monitor synthesis.

Public API
----------

* :func:`repro.ltl.parse` — parse a formula from concrete syntax.
* Formula constructors (:class:`Atom`, :class:`And`, :class:`Until`, …).
* :func:`repro.ltl.build_monitor` — synthesise the LTL3 monitor automaton.
* :class:`repro.ltl.MonitorAutomaton` / :class:`repro.ltl.Transition`.
* :class:`repro.ltl.Verdict` — the 3-valued verdict domain.
* :class:`repro.ltl.Proposition` / :class:`repro.ltl.PropositionRegistry` —
  binding of atomic propositions to per-process predicates.
"""

from .ast import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    Eventually,
    FalseConst,
    Formula,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Release,
    TrueConst,
    Until,
    atoms_of,
    intern_formula,
    intern_table_size,
    mk_and,
    mk_atom,
    mk_next,
    mk_not,
    mk_or,
    mk_release,
    mk_until,
    subformulas,
)
from .boolmin import Implicant, implicant_to_str, minimize_letters
from .buchi import BuchiAutomaton, Guard, ltl_to_buchi, nonempty_states
from .compiled import CompiledMachine
from .monitor import MonitorAutomaton, Transition, build_monitor
from .parser import LTLSyntaxError, parse
from .predicates import LocalState, Proposition, PropositionRegistry
from .rewriting import expand, negate, to_nnf
from .semantics import all_assignments
from .verdict import Verdict

__all__ = [
    "FALSE",
    "TRUE",
    "Always",
    "And",
    "Atom",
    "Eventually",
    "FalseConst",
    "Formula",
    "Iff",
    "Implies",
    "Next",
    "Not",
    "Or",
    "Release",
    "TrueConst",
    "Until",
    "atoms_of",
    "subformulas",
    "intern_formula",
    "intern_table_size",
    "mk_and",
    "mk_atom",
    "mk_next",
    "mk_not",
    "mk_or",
    "mk_release",
    "mk_until",
    "Implicant",
    "implicant_to_str",
    "minimize_letters",
    "BuchiAutomaton",
    "Guard",
    "ltl_to_buchi",
    "nonempty_states",
    "CompiledMachine",
    "MonitorAutomaton",
    "Transition",
    "build_monitor",
    "LTLSyntaxError",
    "parse",
    "LocalState",
    "Proposition",
    "PropositionRegistry",
    "expand",
    "negate",
    "to_nnf",
    "all_assignments",
    "Verdict",
]
