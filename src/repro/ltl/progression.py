"""Formula-progression construction of LTL3 monitor automata.

The thesis' experimental automata (Table 5.1, Figures 5.2/5.3) are *not*
Moore-minimal: the authors deliberately keep intermediate ``?`` states such
as the "until pending" state ``q1`` because it "provides more information".
Those automata coincide with the machine obtained by **formula progression**
(also known as formula rewriting, Havelund & Roşu):

* the states are the progressed formulas obtained by progressing the
  property through every letter of the alphabet, told apart by their
  positive-Boolean normal form (:func:`normal_form`); the first formula to
  reach a normal form represents its state and names it;
* the transition on letter ``a`` maps state ``φ`` to ``progress(φ, a)``, in
  canonical form (:func:`canonicalize`);
* the verdict of a state is the LTL3 verdict of its formula, decided by
  :func:`_formula_verdict` on the formula itself: ``⊥`` when it is
  unsatisfiable, ``⊤`` when its negation is, ``?`` otherwise (two traces
  reaching the same progressed formula necessarily have the same verdict).

The construction terminates on every formula.  ``progress`` maps each
temporal subformula to a positive Boolean combination of formulas of the
property's finite closure and commutes with ``&`` and ``|``, so finitely
many normal forms arise, and two formulas with one normal form progress to
formulas with one normal form: keying states on it is exact.  Keying them
on syntax is not — ``G p U G q`` keeps re-wrapping itself, because
canonical form neither distributes nor absorbs.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence, Set

from .ast import (
    FALSE,
    TRUE,
    And,
    Atom,
    FalseConst,
    Formula,
    Next,
    Not,
    Or,
    Release,
    TrueConst,
    Until,
    atoms_of,
    mk_and,
    mk_atom,
    mk_next,
    mk_not,
    mk_or,
    mk_release,
    mk_until,
)
from .compiled import CompiledMachine
from .rewriting import to_nnf
from .semantics import all_assignments
from .verdict import Verdict

__all__ = [
    "progress",
    "canonicalize",
    "normal_form",
    "build_progression_machine",
]

Letter = frozenset[str]


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def canonicalize(formula: Formula) -> Formula:
    """Return the canonical hash-consed representative of *formula*.

    Conjunctions and disjunctions are flattened, deduplicated, sorted by
    their textual form and constant-folded (this is what the ``mk_*`` smart
    constructors of :mod:`repro.ltl.ast` do at construction time).  Two
    formulas that are equal modulo associativity, commutativity and
    idempotence of ``&``/``|`` canonicalise to the *same object*, so
    canonical-form equality is a pointer comparison.  The result is memoized
    on the input node: each distinct formula is canonicalised exactly once.
    """
    try:
        return formula._canon
    except AttributeError:
        pass
    result = _canonicalize(formula)
    object.__setattr__(result, "_canon", result)  # canonical form is a fixpoint
    object.__setattr__(formula, "_canon", result)
    return result


def _canonicalize(formula: Formula) -> Formula:
    if isinstance(formula, (TrueConst, FalseConst)):
        return TRUE if isinstance(formula, TrueConst) else FALSE
    if isinstance(formula, Atom):
        return mk_atom(formula.name)
    if isinstance(formula, Not):
        return mk_not(canonicalize(formula.operand))
    if isinstance(formula, Next):
        return mk_next(canonicalize(formula.operand))
    if isinstance(formula, Until):
        return mk_until(canonicalize(formula.left), canonicalize(formula.right))
    if isinstance(formula, Release):
        return mk_release(canonicalize(formula.left), canonicalize(formula.right))
    if isinstance(formula, (And, Or)):
        cls = And if isinstance(formula, And) else Or
        mk = mk_and if cls is And else mk_or
        operands: list[Formula] = []
        stack = [formula]
        while stack:
            node = stack.pop()
            if isinstance(node, cls):
                stack.append(node.right)
                stack.append(node.left)
            else:
                operands.append(canonicalize(node))
        return mk(*operands)
    # any syntactic sugar left: expand via NNF first
    return canonicalize(to_nnf(formula))


# ---------------------------------------------------------------------------
# progression
# ---------------------------------------------------------------------------


def progress(formula: Formula, letter: Letter) -> Formula:
    """One-step progression of an NNF *formula* through *letter*.

    The returned formula holds on an infinite word ``w`` iff the original
    formula holds on ``letter · w``.

    Results are memoized in a per-formula transition cache: progressing the
    same (hash-consed) formula through the same letter twice costs one dict
    lookup.  The cache is keyed by the letter, so a formula shared by several
    machines with different alphabets stays correct.
    """
    try:
        cache = formula._progress_cache
    except AttributeError:
        cache = {}
        object.__setattr__(formula, "_progress_cache", cache)
    successor = cache.get(letter)
    if successor is None:
        successor = _progress(formula, letter)
        cache[letter] = successor
    return successor


def _progress(formula: Formula, letter: Letter) -> Formula:
    if isinstance(formula, TrueConst) or isinstance(formula, FalseConst):
        return formula
    if isinstance(formula, Atom):
        return TRUE if formula.name in letter else FALSE
    if isinstance(formula, Not):
        # NNF: operand is an atom
        inner = formula.operand
        if isinstance(inner, Atom):
            return FALSE if inner.name in letter else TRUE
        return mk_not(progress(inner, letter))
    if isinstance(formula, And):
        return mk_and(progress(formula.left, letter), progress(formula.right, letter))
    if isinstance(formula, Or):
        return mk_or(progress(formula.left, letter), progress(formula.right, letter))
    if isinstance(formula, Next):
        return canonicalize(formula.operand)
    if isinstance(formula, Until):
        # X U Y  ≡  Y | (X & X(X U Y))
        return mk_or(
            progress(formula.right, letter),
            mk_and(progress(formula.left, letter), canonicalize(formula)),
        )
    if isinstance(formula, Release):
        # X R Y  ≡  Y & (X | X(X R Y))
        return mk_and(
            progress(formula.right, letter),
            mk_or(progress(formula.left, letter), canonicalize(formula)),
        )
    # sugar: normalise first
    return progress(to_nnf(formula), letter)


# ---------------------------------------------------------------------------
# positive-Boolean normal form
# ---------------------------------------------------------------------------

#: a normal form: a set of conjunctions, each a set of non-Boolean leaves
NormalForm = frozenset[frozenset[Formula]]


def normal_form(formula: Formula) -> NormalForm:
    """The positive-Boolean normal form of *formula*.

    *formula*, read as a positive Boolean combination of its non-Boolean
    leaves (temporal subformulas and literals), is the disjunction of the
    returned conjunctions; absorption keeps only the minimal ones, so two
    formulas have the same normal form iff they are the same Boolean
    function of their leaves.  ``true`` is one empty conjunction, ``false``
    none.  Memoized on the node, like :func:`canonicalize`.
    """
    try:
        return formula._nf
    except AttributeError:
        pass
    if isinstance(formula, Or):
        result = _minimal(normal_form(formula.left) | normal_form(formula.right))
    elif isinstance(formula, And):
        result = _minimal(
            {a | b for a in normal_form(formula.left) for b in normal_form(formula.right)}
        )
    elif isinstance(formula, FalseConst):
        result = frozenset()
    else:
        leaves = () if isinstance(formula, TrueConst) else (formula,)
        result = frozenset({frozenset(leaves)})
    object.__setattr__(formula, "_nf", result)
    return result


def _minimal(conjunctions: Set[frozenset[Formula]]) -> NormalForm:
    """The conjunctions of which no other is a proper subset (absorption)."""
    return frozenset(
        c for c in conjunctions if not any(other < c for other in conjunctions)
    )


# ---------------------------------------------------------------------------
# machine construction
# ---------------------------------------------------------------------------


def build_progression_machine(
    formula: Formula,
    atoms: Sequence[str] | None = None,
    max_states: int = 4096,
) -> tuple[CompiledMachine, list[Formula]]:
    """Build the progression machine for *formula*.

    Parameters
    ----------
    formula:
        The LTL property.
    atoms:
        Alphabet; defaults to the atoms of the formula.  It must name every
        atom of the formula, each once (``ValueError`` otherwise).
    max_states:
        Safety bound on the number of progression states; a plain
        :class:`RuntimeError` names it when exceeded.

    Returns
    -------
    (machine, state_formulas):
        ``machine`` is the (unminimised) machine, ``state_formulas`` gives
        the progressed formula representing each state.  Each state reads
        the letters in :func:`all_assignments` order over *atoms*, so that
        order numbers the states; a letter's successor is written at the
        column of its mask over the sorted atoms.
    """
    if atoms is None:
        atoms = atoms_of(formula)
    atoms = tuple(atoms)
    missing = [a for a in atoms_of(formula) if a not in atoms]
    if missing:
        raise ValueError(f"formula mentions atoms not in the alphabet: {missing}")
    if len(set(atoms)) != len(atoms):
        repeated = sorted({a for a in atoms if atoms.count(a) > 1})
        raise ValueError(f"the alphabet repeats atoms: {repeated}")
    letters = all_assignments(atoms)
    bit = {atom: 1 << i for i, atom in enumerate(sorted(atoms))}
    columns = [sum(bit[atom] for atom in letter) for letter in letters]

    initial_formula = canonicalize(to_nnf(formula))
    index: dict[NormalForm, int] = {normal_form(initial_formula): 0}
    formulas: list[Formula] = [initial_formula]
    table = array("i")
    # breadth first: ``formulas`` grows while it is walked
    for current_formula in formulas:
        row = [0] * len(letters)
        for mask, letter in zip(columns, letters):
            successor_formula = progress(current_formula, letter)
            key = normal_form(successor_formula)
            if key not in index:
                if len(formulas) >= max_states:
                    raise RuntimeError(
                        f"formula progression exceeded max_states={max_states} "
                        f"for {formula}"
                    )
                index[key] = len(formulas)
                formulas.append(successor_formula)
            row[mask] = index[key]
        table.extend(row)

    machine = CompiledMachine(
        atoms=sorted(atoms),
        initial=0,
        table=table,
        outputs=[_formula_verdict(f) for f in formulas],
        columns=columns,
    )
    return machine, formulas


def _formula_verdict(formula: Formula) -> Verdict:
    """LTL3 verdict of a progression state.

    A state formula evaluates to ``⊥`` when it is unsatisfiable (no infinite
    continuation can satisfy the original property any more), ``⊤`` when its
    negation is unsatisfiable, and ``?`` otherwise.  Satisfiability is decided
    on the Büchi automaton of the formula — exact, and cheap for the handful
    of progression states a property generates.
    """
    from .buchi import is_satisfiable
    from .rewriting import negate

    if isinstance(formula, FalseConst):
        return Verdict.BOTTOM
    if isinstance(formula, TrueConst):
        return Verdict.TOP
    if not is_satisfiable(formula):
        return Verdict.BOTTOM
    if not is_satisfiable(negate(formula)):
        return Verdict.TOP
    return Verdict.INCONCLUSIVE
