"""Reference semantics for LTL and LTL3: the test oracle of the monitors.

Deliberately simple and slow; the automaton-based monitor of
:mod:`repro.ltl.monitor` is validated against it.

* :func:`evaluate_lasso` — LTL semantics over ultimately-periodic infinite
  words ``u · vʷ`` (a *lasso*), computed by fixpoint iteration over the lasso
  positions.
* :func:`ltl3_bruteforce` — the LTL3 valuation ``[α ⊨ φ]`` of a finite trace
  ``α`` obtained by enumerating all lasso extensions up to a bound.  For the
  formula sizes used in the tests the bound is large enough to be exact; the
  helper :func:`extensions_agree` exposes the bounded check directly so tests
  can also assert only the sound directions.
"""

import itertools
from collections.abc import Iterable, Iterator, Sequence

from repro.ltl.ast import (
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
)
from repro.ltl.rewriting import to_nnf
from repro.ltl.semantics import Assignment, all_assignments
from repro.ltl.verdict import Verdict


class _Lasso:
    """An ultimately periodic word ``prefix · loopʷ`` over assignments."""

    __slots__ = ("positions", "loop_start")

    def __init__(self, prefix: Sequence[Assignment], loop: Sequence[Assignment]) -> None:
        if len(loop) == 0:
            raise ValueError("lasso loop must be non-empty")
        self.positions: tuple[Assignment, ...] = tuple(prefix) + tuple(loop)
        self.loop_start = len(prefix)

    def succ(self, index: int) -> int:
        """The position after *index*, wrapping from the last to the loop start."""
        nxt = index + 1
        if nxt >= len(self.positions):
            return self.loop_start
        return nxt


def evaluate_lasso(
    formula: Formula,
    prefix: Sequence[Assignment],
    loop: Sequence[Assignment],
    position: int = 0,
) -> bool:
    """Evaluate *formula* on the infinite word ``prefix · loopʷ`` at *position*.

    Until is computed as a least fixpoint and Release as a greatest fixpoint
    over the finitely many lasso positions, which is exact for ultimately
    periodic words.
    """
    word = _Lasso(prefix, loop)
    if position >= len(word.positions):
        raise IndexError("position outside the lasso representation")
    values = _eval_on_lasso(to_nnf(formula), word)
    return values[position]


def _eval_on_lasso(formula: Formula, word: _Lasso) -> list[bool]:
    n = len(word.positions)
    if isinstance(formula, TrueConst):
        return [True] * n
    if isinstance(formula, FalseConst):
        return [False] * n
    if isinstance(formula, Atom):
        return [formula.name in letter for letter in word.positions]
    if isinstance(formula, Not):
        # NNF: operand is an atom
        inner = _eval_on_lasso(formula.operand, word)
        return [not v for v in inner]
    if isinstance(formula, And):
        left = _eval_on_lasso(formula.left, word)
        right = _eval_on_lasso(formula.right, word)
        return [a and b for a, b in zip(left, right)]
    if isinstance(formula, Or):
        left = _eval_on_lasso(formula.left, word)
        right = _eval_on_lasso(formula.right, word)
        return [a or b for a, b in zip(left, right)]
    if isinstance(formula, Next):
        inner = _eval_on_lasso(formula.operand, word)
        return [inner[word.succ(i)] for i in range(n)]
    if isinstance(formula, Until):
        left = _eval_on_lasso(formula.left, word)
        right = _eval_on_lasso(formula.right, word)
        values = [False] * n
        # least fixpoint of  val[i] = right[i] or (left[i] and val[succ(i)])
        changed = True
        while changed:
            changed = False
            for i in range(n - 1, -1, -1):
                new = right[i] or (left[i] and values[word.succ(i)])
                if new != values[i]:
                    values[i] = new
                    changed = True
        return values
    if isinstance(formula, Release):
        left = _eval_on_lasso(formula.left, word)
        right = _eval_on_lasso(formula.right, word)
        values = [True] * n
        # greatest fixpoint of  val[i] = right[i] and (left[i] or val[succ(i)])
        changed = True
        while changed:
            changed = False
            for i in range(n - 1, -1, -1):
                new = right[i] and (left[i] or values[word.succ(i)])
                if new != values[i]:
                    values[i] = new
                    changed = True
        return values
    if isinstance(formula, (Implies, Iff, Eventually, Always)):
        return _eval_on_lasso(to_nnf(formula), word)
    raise TypeError(f"unknown formula node {type(formula).__name__}")


def all_lassos(
    letters: Sequence[Assignment],
    max_prefix: int,
    max_loop: int,
) -> Iterator[tuple[tuple[Assignment, ...], tuple[Assignment, ...]]]:
    """Enumerate all lassos ``(prefix, loop)`` with bounded lengths."""
    for plen in range(max_prefix + 1):
        for prefix in itertools.product(letters, repeat=plen):
            for llen in range(1, max_loop + 1):
                for loop in itertools.product(letters, repeat=llen):
                    yield prefix, loop


def extensions_agree(
    formula: Formula,
    trace: Sequence[Assignment],
    letters: Sequence[Assignment],
    max_prefix: int = 2,
    max_loop: int = 2,
) -> tuple[bool, bool]:
    """Return ``(found_satisfying, found_violating)`` extensions of *trace*.

    An extension is ``trace · prefix · loopʷ`` for each bounded lasso over
    *letters*.  The empty extension (``prefix`` empty) is included as long as
    a non-empty loop exists.
    """
    found_sat = False
    found_vio = False
    trace = list(trace)
    for prefix, loop in all_lassos(letters, max_prefix, max_loop):
        value = evaluate_lasso(formula, trace + list(prefix), loop)
        if value:
            found_sat = True
        else:
            found_vio = True
        if found_sat and found_vio:
            break
    return found_sat, found_vio


def ltl3_bruteforce(
    formula: Formula,
    trace: Sequence[Assignment],
    atoms: Iterable[str] | None = None,
    max_prefix: int = 2,
    max_loop: int = 2,
) -> Verdict:
    """Brute-force LTL3 valuation ``[trace ⊨ formula]`` by lasso enumeration.

    The result is exact whenever the bounded lasso extensions are enough to
    exhibit both a satisfying and a violating continuation when they exist —
    which holds for the small formulas used in the test-suite.
    """
    if atoms is None:
        atoms = atoms_of(formula)
    letters = all_assignments(tuple(atoms))
    found_sat, found_vio = extensions_agree(
        formula, trace, letters, max_prefix=max_prefix, max_loop=max_loop
    )
    if found_sat and found_vio:
        return Verdict.INCONCLUSIVE
    if found_sat:
        return Verdict.TOP
    if found_vio:
        return Verdict.BOTTOM
    raise RuntimeError("no extensions enumerated; max_loop must be >= 1")
