"""Abstract syntax trees for Linear Temporal Logic formulas.

The formula classes are immutable, hashable value objects so they can be used
as dictionary keys throughout the tableau construction (:mod:`repro.ltl.buchi`)
and the monitor synthesis (:mod:`repro.ltl.monitor`).

Supported operators
-------------------

==============  =======================  ===========================
Class           Concrete syntax          Meaning
==============  =======================  ===========================
``TrueConst``   ``true``                 constant true
``FalseConst``  ``false``                constant false
``Atom``        ``p``, ``P0.p``          atomic proposition
``Not``         ``! f``, ``~ f``         negation
``And``         ``f & g``                conjunction
``Or``          ``f | g``                disjunction
``Implies``     ``f -> g``               implication
``Iff``         ``f <-> g``              equivalence
``Next``        ``X f``                  next
``Until``       ``f U g``                (strong) until
``Release``     ``f R g``                release (dual of until)
``Eventually``  ``F f``                  eventually (``true U f``)
``Always``      ``G f``                  always (``false R f``)
==============  =======================  ===========================
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Iterator

__all__ = [
    "Formula",
    "TrueConst",
    "FalseConst",
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "Next",
    "Until",
    "Release",
    "Eventually",
    "Always",
    "TRUE",
    "FALSE",
    "atoms_of",
    "subformulas",
    "intern_formula",
    "intern_table_size",
    "mk_atom",
    "mk_not",
    "mk_and",
    "mk_or",
    "mk_next",
    "mk_until",
    "mk_release",
    "str_key",
]


class Formula:
    """Base class of all LTL formula nodes.

    Instances compare structurally and hash on their structure, which allows
    formulas to be de-duplicated and used as set members / dict keys.

    Nodes produced by :func:`intern_formula` or the ``mk_*`` smart
    constructors are additionally *hash-consed*: structurally equal interned
    formulas are the very same object, so equality degenerates to a pointer
    comparison and per-node caches (cached hash, cached textual form, the
    memoized progression table and normal form of
    :mod:`repro.ltl.progression`) are shared by every use of the formula.
    """

    __slots__ = (
        "_hash",
        "_str",
        "_canon",
        "_nf",
        "_nnf",
        "_progress_cache",
        "_is_interned",
        "__weakref__",
    )

    #: tuple of child formulas, overridden by subclasses
    children: tuple["Formula", ...] = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Formula) and self._key() == other._key()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            if self.children:
                # combine the (cached) child hashes instead of materialising
                # the full recursive key tuple: O(1) amortised per node
                h = hash((type(self).__name__,) + tuple(hash(c) for c in self.children))
            else:
                h = hash(self._key())
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self!s})"

    # -- convenient operator overloading for building formulas in Python ----
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        """``f >> g`` builds the implication ``f -> g``."""
        return Implies(self, other)

    # -- traversal -----------------------------------------------------------
    def walk(self) -> Iterator[Formula]:
        """Yield this node and all descendants (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()


class TrueConst(Formula):
    """The constant ``true``."""

    __slots__ = ()
    children: tuple[Formula, ...] = ()

    def _key(self) -> tuple:
        return ("true",)

    def __str__(self) -> str:
        return "true"


class FalseConst(Formula):
    """The constant ``false``."""

    __slots__ = ()
    children: tuple[Formula, ...] = ()

    def _key(self) -> tuple:
        return ("false",)

    def __str__(self) -> str:
        return "false"


#: Singleton instances used pervasively by the rewriting rules.  They are the
#: interned representatives of their class (see ``intern_formula`` below).
TRUE = TrueConst()
FALSE = FalseConst()
object.__setattr__(TRUE, "_is_interned", True)
object.__setattr__(FALSE, "_is_interned", True)


class Atom(Formula):
    """An atomic proposition identified by its name.

    Atom names are opaque strings at this layer; :mod:`repro.ltl.predicates`
    binds names to evaluation functions over global states (for instance
    ``"x1>=5"`` or ``"P0.p"``).
    """

    __slots__ = ("name",)
    children: tuple[Formula, ...] = ()

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("atomic proposition name must be non-empty")
        object.__setattr__(self, "name", name)

    def __setattr__(self, key: str, value: object) -> None:  # immutability guard
        raise AttributeError("Formula instances are immutable")

    def _key(self) -> tuple:
        return ("atom", self.name)

    def __str__(self) -> str:
        return self.name


class _Unary(Formula):
    __slots__ = ("operand", "children")
    _symbol = "?"

    def __init__(self, operand: Formula) -> None:
        if not isinstance(operand, Formula):
            raise TypeError(f"expected Formula, got {type(operand).__name__}")
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "children", (operand,))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Formula instances are immutable")

    def _key(self) -> tuple:
        return (type(self).__name__, self.operand._key())

    def __str__(self) -> str:
        return f"{self._symbol}({self.operand})"


class _Binary(Formula):
    __slots__ = ("left", "right", "children")
    _symbol = "?"

    def __init__(self, left: Formula, right: Formula) -> None:
        if not isinstance(left, Formula) or not isinstance(right, Formula):
            raise TypeError("expected Formula operands")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "children", (left, right))

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Formula instances are immutable")

    def _key(self) -> tuple:
        return (type(self).__name__, self.left._key(), self.right._key())

    def __str__(self) -> str:
        return f"({self.left} {self._symbol} {self.right})"


class Not(_Unary):
    """Negation ``!f``."""

    __slots__ = ()
    _symbol = "!"

    def __str__(self) -> str:
        return f"!({self.operand})"


class And(_Binary):
    """Conjunction ``f & g``."""

    __slots__ = ()
    _symbol = "&"


class Or(_Binary):
    """Disjunction ``f | g``."""

    __slots__ = ()
    _symbol = "|"


class Implies(_Binary):
    """Implication ``f -> g``."""

    __slots__ = ()
    _symbol = "->"


class Iff(_Binary):
    """Equivalence ``f <-> g``."""

    __slots__ = ()
    _symbol = "<->"


class Next(_Unary):
    """Temporal next ``X f``."""

    __slots__ = ()
    _symbol = "X"

    def __str__(self) -> str:
        return f"X({self.operand})"


class Until(_Binary):
    """Strong until ``f U g``: ``g`` eventually holds and ``f`` holds until then."""

    __slots__ = ()
    _symbol = "U"


class Release(_Binary):
    """Release ``f R g``: dual of until; ``g`` holds up to and including the
    first position where ``f`` holds (possibly forever if ``f`` never holds)."""

    __slots__ = ()
    _symbol = "R"


class Eventually(_Unary):
    """Eventually ``F f`` (syntactic sugar for ``true U f``)."""

    __slots__ = ()
    _symbol = "F"

    def __str__(self) -> str:
        return f"F({self.operand})"


class Always(_Unary):
    """Always ``G f`` (syntactic sugar for ``false R f``)."""

    __slots__ = ()
    _symbol = "G"

    def __str__(self) -> str:
        return f"G({self.operand})"


def atoms_of(formula: Formula) -> tuple[str, ...]:
    """Return the sorted tuple of atomic proposition names used in *formula*."""
    names = {f.name for f in formula.walk() if isinstance(f, Atom)}
    return tuple(sorted(names))


def subformulas(formula: Formula) -> tuple[Formula, ...]:
    """Return the set of distinct subformulas of *formula* (including itself)."""
    seen = []
    seen_keys = set()
    for f in formula.walk():
        k = f._key()
        if k not in seen_keys:
            seen_keys.add(k)
            seen.append(f)
    return tuple(seen)


# ---------------------------------------------------------------------------
# hash-consing (interning)
# ---------------------------------------------------------------------------

#: Global intern table.  Values are weakly referenced so the table stays
#: bounded by the set of *live* formulas: when a construction is abandoned
#: (e.g. :func:`repro.ltl.progression.build_progression_machine` hitting its
#: ``max_states`` guard) the orphaned entries are reclaimed with their nodes.
_INTERN_TABLE: "weakref.WeakValueDictionary[tuple, Formula]" = weakref.WeakValueDictionary()


def intern_table_size() -> int:
    """Number of live entries in the global intern table (for tests/metrics)."""
    return len(_INTERN_TABLE)


def _interned(cls: type, key: tuple, *args: object) -> Formula:
    formula = _INTERN_TABLE.get(key)
    if formula is None:
        formula = cls(*args)
        object.__setattr__(formula, "_is_interned", True)
        _INTERN_TABLE[key] = formula
    return formula


def intern_formula(formula: Formula) -> Formula:
    """Return the hash-consed representative of *formula* (recursively).

    The result is structurally equal to the input; structurally equal inputs
    always yield the identical object.  Already-interned nodes are returned
    unchanged in O(1).
    """
    try:
        if formula._is_interned:
            return formula
    except AttributeError:
        pass
    if isinstance(formula, TrueConst):
        return TRUE
    if isinstance(formula, FalseConst):
        return FALSE
    if isinstance(formula, Atom):
        return _interned(Atom, ("atom", formula.name), formula.name)
    children = tuple(intern_formula(child) for child in formula.children)
    cls = type(formula)
    return _interned(cls, (cls.__name__,) + children, *children)


def str_key(formula: Formula) -> str:
    """``str(formula)``, cached on the node.

    The canonical operand order of ``&``/``|`` sorts by textual form; caching
    the rendering makes that sort (and the progression state labels) O(1) per
    node after the first computation.
    """
    try:
        return formula._str
    except AttributeError:
        text = str(formula)
        object.__setattr__(formula, "_str", text)
        return text


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------
#
# The ``mk_*`` constructors build hash-consed nodes and canonicalise at
# construction time exactly like :func:`repro.ltl.progression.canonicalize`:
# ``mk_not`` constant-folds and removes double negation, ``mk_and``/``mk_or``
# flatten nested conjunctions/disjunctions, de-duplicate operands, sort them
# by textual form and fold the identity/absorbing constants.  The temporal
# constructors intern without rewriting (progression never rewrites them
# either), so the canonical forms produced here coincide with the historical
# ``canonicalize`` output node for node.


def mk_atom(name: str) -> Formula:
    """The interned atomic proposition *name*."""
    return _interned(Atom, ("atom", name), name)


def mk_not(operand: Formula) -> Formula:
    """Interned negation with constant folding and double-negation removal."""
    if isinstance(operand, TrueConst):
        return FALSE
    if isinstance(operand, FalseConst):
        return TRUE
    if isinstance(operand, Not):
        return intern_formula(operand.operand)
    operand = intern_formula(operand)
    return _interned(Not, ("Not", operand), operand)


def _flatten_into(formula: Formula, cls, out: list) -> None:
    if isinstance(formula, cls):
        _flatten_into(formula.left, cls, out)
        _flatten_into(formula.right, cls, out)
    else:
        out.append(formula)


def _mk_nary(cls: type, operands: Iterable[Formula]) -> Formula:
    absorbing = FALSE if cls is And else TRUE
    identity = TRUE if cls is And else FALSE
    parts: list = []
    for operand in operands:
        _flatten_into(operand, cls, parts)
    unique: list = []
    seen = set()
    for part in parts:
        part = intern_formula(part)
        if part is absorbing:
            return absorbing
        if part is identity:
            continue
        if part not in seen:
            seen.add(part)
            unique.append(part)
    if not unique:
        return identity
    unique.sort(key=str_key)
    result = unique[0]
    name = cls.__name__
    for operand in unique[1:]:
        result = _interned(cls, (name, result, operand), result, operand)
    return result


def mk_and(*operands: Formula) -> Formula:
    """Interned n-ary conjunction: flattened, de-duplicated, sorted, folded."""
    return _mk_nary(And, operands)


def mk_or(*operands: Formula) -> Formula:
    """Interned n-ary disjunction: flattened, de-duplicated, sorted, folded."""
    return _mk_nary(Or, operands)


def _mk_unary(cls, operand: Formula) -> Formula:
    operand = intern_formula(operand)
    return _interned(cls, (cls.__name__, operand), operand)


def _mk_binary(cls, left: Formula, right: Formula) -> Formula:
    left = intern_formula(left)
    right = intern_formula(right)
    return _interned(cls, (cls.__name__, left, right), left, right)


def mk_next(operand: Formula) -> Formula:
    """Interned ``X operand``."""
    return _mk_unary(Next, operand)


def mk_until(left: Formula, right: Formula) -> Formula:
    """Interned ``left U right``."""
    return _mk_binary(Until, left, right)


def mk_release(left: Formula, right: Formula) -> Formula:
    """Interned ``left R right``."""
    return _mk_binary(Release, left, right)
