"""Formula-progression construction of LTL3 monitor automata.

The thesis' experimental automata (Table 5.1, Figures 5.2/5.3) are *not*
Moore-minimal: the authors deliberately keep intermediate ``?`` states such
as the "until pending" state ``q1`` because it "provides more information".
Those automata coincide with the machine obtained by **formula progression**
(also known as formula rewriting, Havelund & Roşu):

* the states are the syntactically-distinct formulas obtained by progressing
  the property through every letter of the alphabet;
* the transition on letter ``a`` maps state ``φ`` to ``progress(φ, a)``, in
  canonical form (:func:`canonicalize`);
* the verdict of a state is the LTL3 verdict of its formula, decided by
  :func:`_formula_verdict` on the formula itself: ``⊥`` when it is
  unsatisfiable, ``⊤`` when its negation is, ``?`` otherwise (two traces
  reaching the same progressed formula necessarily have the same verdict).

The construction terminates whenever the set of progressed formulas is finite
under the canonicalisation implemented here (flattening and deduplication of
conjunctions/disjunctions, constant folding).  Where it is not — ``G p U G q``
keeps re-wrapping itself, because nothing here distributes or absorbs — it
raises :class:`ProgressionDidNotConverge` at ``max_states`` states or once a
state formula nests :data:`_MAX_DEPTH_GROWTH` levels deeper than the property,
long before the recursive ``progress`` would exhaust the interpreter stack.
"""

from __future__ import annotations

from collections.abc import Sequence


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
    str_key,
)
from .dfa import MooreMachine
from .rewriting import to_nnf
from .semantics import all_assignments
from .verdict import Verdict

__all__ = [
    "ProgressionDidNotConverge",
    "progress",
    "canonicalize",
    "build_progression_machine",
]

Letter = frozenset[str]

#: how many levels a progressed formula may nest deeper than the property it
#: came from; the case-study machines need 2, a diverging one adds 2 per step
_MAX_DEPTH_GROWTH = 64


class ProgressionDidNotConverge(RuntimeError):
    """Formula progression keeps producing new (ever deeper) formulas."""


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
# machine construction
# ---------------------------------------------------------------------------


def build_progression_machine(
    formula: Formula,
    atoms: Sequence[str] | None = None,
    max_states: int = 4096,
) -> tuple[MooreMachine, list[Formula]]:
    """Build the progression Moore machine for *formula*.

    Parameters
    ----------
    formula:
        The LTL property.
    atoms:
        Alphabet; defaults to the atoms of the formula.
    max_states:
        Safety bound on the number of progression states.

    Returns
    -------
    (machine, state_formulas):
        ``machine`` is the (unminimised) Moore machine, ``state_formulas``
        gives the progressed formula represented by each state.
    """
    if atoms is None:
        atoms = atoms_of(formula)
    atoms = tuple(atoms)
    letters = tuple(all_assignments(atoms))

    initial_formula = canonicalize(to_nnf(formula))
    # canonical formulas are hash-consed, so they key the state index directly
    # (hash is cached, equality is a pointer comparison)
    index: dict[Formula, int] = {initial_formula: 0}
    formulas: list[Formula] = [initial_formula]
    depths: dict[Formula, int] = {}
    max_depth = _depth(initial_formula, depths) + _MAX_DEPTH_GROWTH
    delta: list[list[int]] = []
    frontier = [0]
    while frontier:
        state = frontier.pop(0)
        # rows may be discovered out of order; grow delta lazily
        while len(delta) <= state:
            delta.append([])
        row: list[int] = []
        current_formula = formulas[state]
        for letter in letters:
            successor_formula = progress(current_formula, letter)
            if successor_formula not in index:
                if (
                    len(formulas) >= max_states
                    or _depth(successor_formula, depths) > max_depth
                ):
                    raise ProgressionDidNotConverge(
                        f"formula progression did not converge within {max_states} "
                        f"states and {_MAX_DEPTH_GROWTH} levels of nesting for {formula}"
                    )
                index[successor_formula] = len(formulas)
                formulas.append(successor_formula)
                frontier.append(index[successor_formula])
            row.append(index[successor_formula])
        delta[state] = row

    machine = MooreMachine(
        letters=letters,
        initial=0,
        delta=delta,
        outputs=[_formula_verdict(f) for f in formulas],
        state_names=[str_key(f) for f in formulas],
    )
    return machine, formulas


def _depth(formula: Formula, known: dict[Formula, int]) -> int:
    """Nesting depth of *formula*; *known* memoizes nodes across calls.

    Iterative, so it can measure a formula that is too deep to recurse on.
    """
    stack = [formula]
    while stack:
        node = stack[-1]
        pending = [child for child in node.children if child not in known]
        if pending:
            stack.extend(pending)
        else:
            known[node] = 1 + max((known[child] for child in node.children), default=0)
            stack.pop()
    return known[formula]


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
