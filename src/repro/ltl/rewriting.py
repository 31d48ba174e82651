"""Formula rewriting: negation normal form and expansion of sugar.

The Büchi tableau construction in :mod:`repro.ltl.buchi` expects its input in
*negation normal form* (NNF): negations only in front of atoms, and only the
operators ``&``, ``|``, ``X``, ``U``, ``R`` besides literals.  ``->``, ``<->``,
``F`` and ``G`` are expanded away.
"""

from __future__ import annotations

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
    intern_formula,
)

__all__ = ["expand", "negate", "to_nnf"]


def expand(formula: Formula) -> Formula:
    """Expand ``->``, ``<->``, ``F`` and ``G`` into the core operators."""
    if isinstance(formula, (TrueConst, FalseConst, Atom)):
        return formula
    if isinstance(formula, Not):
        return Not(expand(formula.operand))
    if isinstance(formula, And):
        return And(expand(formula.left), expand(formula.right))
    if isinstance(formula, Or):
        return Or(expand(formula.left), expand(formula.right))
    if isinstance(formula, Implies):
        return Or(Not(expand(formula.left)), expand(formula.right))
    if isinstance(formula, Iff):
        left = expand(formula.left)
        right = expand(formula.right)
        return And(Or(Not(left), right), Or(Not(right), left))
    if isinstance(formula, Next):
        return Next(expand(formula.operand))
    if isinstance(formula, Until):
        return Until(expand(formula.left), expand(formula.right))
    if isinstance(formula, Release):
        return Release(expand(formula.left), expand(formula.right))
    if isinstance(formula, Eventually):
        return Until(TRUE, expand(formula.operand))
    if isinstance(formula, Always):
        return Release(FALSE, expand(formula.operand))
    raise TypeError(f"unknown formula node {type(formula).__name__}")


def negate(formula: Formula) -> Formula:
    """Return the NNF of ``!formula`` assuming *formula* is already in core form."""
    return to_nnf(Not(formula))


def to_nnf(formula: Formula) -> Formula:
    """Convert *formula* to negation normal form.

    Implication/equivalence/F/G are expanded first; negation is then pushed
    down to the atoms using De Morgan and the temporal dualities
    ``!(f U g) = !f R !g`` and ``!(f R g) = !f U !g``.

    The result is hash-consed (see :func:`repro.ltl.ast.intern_formula`) and
    memoized on the input node, so repeated conversions of the same formula
    are O(1).
    """
    try:
        return formula._nnf
    except AttributeError:
        pass
    result = intern_formula(_nnf(expand(formula)))
    object.__setattr__(result, "_nnf", result)  # NNF is a fixpoint of to_nnf
    object.__setattr__(formula, "_nnf", result)
    return result


def _nnf(formula: Formula) -> Formula:
    if isinstance(formula, (TrueConst, FalseConst, Atom)):
        return formula
    if isinstance(formula, And):
        return And(_nnf(formula.left), _nnf(formula.right))
    if isinstance(formula, Or):
        return Or(_nnf(formula.left), _nnf(formula.right))
    if isinstance(formula, Next):
        return Next(_nnf(formula.operand))
    if isinstance(formula, Until):
        return Until(_nnf(formula.left), _nnf(formula.right))
    if isinstance(formula, Release):
        return Release(_nnf(formula.left), _nnf(formula.right))
    if isinstance(formula, Not):
        inner = formula.operand
        if isinstance(inner, TrueConst):
            return FALSE
        if isinstance(inner, FalseConst):
            return TRUE
        if isinstance(inner, Atom):
            return formula
        if isinstance(inner, Not):
            return _nnf(inner.operand)
        if isinstance(inner, And):
            return Or(_nnf(Not(inner.left)), _nnf(Not(inner.right)))
        if isinstance(inner, Or):
            return And(_nnf(Not(inner.left)), _nnf(Not(inner.right)))
        if isinstance(inner, Next):
            return Next(_nnf(Not(inner.operand)))
        if isinstance(inner, Until):
            return Release(_nnf(Not(inner.left)), _nnf(Not(inner.right)))
        if isinstance(inner, Release):
            return Until(_nnf(Not(inner.left)), _nnf(Not(inner.right)))
        raise TypeError(f"cannot negate node {type(inner).__name__}")
    raise TypeError(f"unexpected node {type(formula).__name__} in NNF conversion")
