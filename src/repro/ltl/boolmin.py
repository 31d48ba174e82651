"""Two-level Boolean minimisation (recursive prime split + greedy cover).

The LTL3 monitor automaton produced by :mod:`repro.ltl.monitor` initially has
its transition function defined letter-by-letter (one entry per truth
assignment of the atomic propositions).  The paper, however, presents and
*counts* transitions as edges labelled by **conjunctive predicates** (see
Table 5.1 and Figures 5.2/5.3): each edge guard is a product term such as
``p0.p & p1.p & !p0.q`` and a disjunctive guard is split into several edges.

This module turns the set of letters on which an edge fires into a small
irredundant sum of products.  Each product term becomes one "transition" in
the paper's sense.

Prime implicants come from one recursion over the guard's truth table (an
int, bit ``m`` set when minterm ``m`` is in the on-set).  It splits the
function ``f`` on its top variable ``x`` into the cofactors ``f0`` and
``f1``; the primes of ``f`` are the primes of ``f0 & f1`` with ``x`` free,
plus each other prime of ``f0`` with ``x = 0`` and of ``f1`` with ``x = 1``
(Brayton et al., *Logic Minimization Algorithms for VLSI Synthesis*, 1984).
This is exact: a cube without ``x`` implies ``f`` exactly when it lies in
``f0 & f1``, and a prime of ``f0`` can drop ``x`` exactly when it lies in
``f1``, in which case it is also a prime of ``f0 & f1``.  An
essential-prime + greedy covering step then picks the terms.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


__all__ = ["Implicant", "minimize_letters", "implicant_to_str"]

#: An implicant maps a variable name to the required truth value.  Variables
#: absent from the mapping are don't-cares.  The empty implicant is ``true``.
Implicant = dict[str, bool]


def _letters_to_minterms(
    letters: Iterable[frozenset[str]], variables: Sequence[str]
) -> list[int]:
    """Encode each letter (set of true atoms) as an integer minterm."""
    index = {v: i for i, v in enumerate(variables)}
    return sorted({sum(1 << index[a] for a in letter if a in index) for letter in letters})


def _primes(
    table: int, nbits: int, memo: dict[tuple[int, int], frozenset[tuple[int, int]]]
) -> frozenset[tuple[int, int]]:
    """All prime implicants of the function whose truth table is *table*.

    Bit ``m`` of *table* is set when minterm ``m`` over *nbits* variables is
    in the on-set.  Terms are ``(value, dontcare_mask)`` pairs; a bit set in
    the mask means the variable is a don't-care.
    """
    key = (table, nbits)
    if key in memo:
        return memo[key]
    if table == 0:
        primes: frozenset[tuple[int, int]] = frozenset()
    elif table == (1 << (1 << nbits)) - 1:
        primes = frozenset({(0, (1 << nbits) - 1)})
    else:
        # split on the top variable x: minterms with x = 1 are those from
        # 2^(nbits-1) up, so ``top`` is both x's bit in a term and the length
        # of each cofactor's table (f0 the low half, f1 the high half)
        top = 1 << (nbits - 1)
        f0 = table & ((1 << top) - 1)
        f1 = table >> top
        both = _primes(f0 & f1, nbits - 1, memo)
        low = _primes(f0, nbits - 1, memo) - both
        high = _primes(f1, nbits - 1, memo) - both
        primes = low.union(
            [(value, mask | top) for value, mask in both],
            [(value | top, mask) for value, mask in high],
        )
    memo[key] = primes
    return primes


def _cover(
    primes: list[tuple[int, int]], minterms: list[int]
) -> list[tuple[int, int]]:
    """Select a small subset of primes covering all minterms.

    Essential primes are chosen first, then a greedy largest-cover heuristic
    finishes the job.  The result is irredundant but not guaranteed to be
    globally minimum (Petrick's method would be exact); this matches how the
    paper's automata were produced by practical tooling.
    """
    remaining = set(minterms)
    chosen: list[tuple[int, int]] = []
    coverage = {p: {m for m in minterms if m & ~p[1] == p[0] & ~p[1]} for p in primes}

    # essential primes: minterms covered by exactly one prime
    for minterm in minterms:
        covering = [p for p in primes if minterm in coverage[p]]
        if len(covering) == 1 and covering[0] not in chosen:
            chosen.append(covering[0])
            remaining -= coverage[covering[0]]

    while remaining:
        best = max(primes, key=lambda p: len(coverage[p] & remaining))
        gain = coverage[best] & remaining
        if not gain:
            break
        chosen.append(best)
        remaining -= gain
    return chosen


def minimize_letters(
    letters: Iterable[frozenset[str]], variables: Sequence[str]
) -> list[Implicant]:
    """Express the set of *letters* as a small list of conjunctive implicants.

    Parameters
    ----------
    letters:
        The truth assignments (sets of atoms that are true) on which the
        function is 1.
    variables:
        The full variable ordering; assignments are interpreted over exactly
        these variables.

    Returns
    -------
    list of :data:`Implicant`
        Each implicant is a conjunction of literals; their disjunction is
        exactly the given set of letters.  The empty list means ``false`` and
        a single empty implicant means ``true``.
    """
    variables = list(variables)
    minterms = _letters_to_minterms(letters, variables)
    if not minterms:
        return []
    nbits = len(variables)
    if len(minterms) == (1 << nbits):
        return [{}]
    primes = sorted(_primes(sum(1 << m for m in minterms), nbits, {}))
    return [
        {var: bool(value >> i & 1) for i, var in enumerate(variables) if not mask >> i & 1}
        for value, mask in sorted(_cover(primes, minterms))
    ]


def implicant_to_str(implicant: Implicant) -> str:
    """Human-readable rendering of an implicant, e.g. ``p0.p & !p1.q``."""
    if not implicant:
        return "true"
    parts = []
    for var in sorted(implicant):
        parts.append(var if implicant[var] else f"!{var}")
    return " & ".join(parts)
