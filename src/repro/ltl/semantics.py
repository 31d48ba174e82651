"""The letters of the trace alphabet.

A letter is the set of atomic propositions that hold; :func:`all_assignments`
enumerates the alphabet over a set of atoms (formula progression reads it).
The reference LTL and LTL3 semantics the monitors are validated against are
test code (``tests/ltl/lasso_semantics.py``).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

__all__ = ["Assignment", "all_assignments"]

#: A letter of the trace alphabet: the set of atomic propositions that hold.
Assignment = frozenset[str]


def all_assignments(atoms: Sequence[str]) -> list[Assignment]:
    """All ``2^|atoms|`` truth assignments over *atoms*."""
    result: list[Assignment] = []
    atoms = list(atoms)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        result.append(frozenset(a for a, b in zip(atoms, bits) if b))
    return result
