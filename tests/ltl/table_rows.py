"""Hand-written machines for the tests, as rows of letters.

A row lists a state's successors one per letter, in
:func:`repro.ltl.all_assignments` order over the given atoms — the order
formula progression reads them in. :func:`table_machine` writes those rows
into the mask-indexed table of a :class:`repro.ltl.CompiledMachine`, the
same layout progression writes, so a hand-built machine renumbers
(``reachable``, ``minimize``) the way a synthesised one does.
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Sequence

from repro.ltl import CompiledMachine, all_assignments


def table_machine(
    atoms: Sequence[str],
    rows: Sequence[Sequence[int]],
    outputs: Sequence[Hashable],
    initial: int = 0,
) -> CompiledMachine:
    """The machine whose state ``q`` reads letter ``i`` of
    ``all_assignments(atoms)`` into ``rows[q][i]``."""
    bit = {atom: 1 << i for i, atom in enumerate(sorted(atoms))}
    columns = [sum(bit[atom] for atom in letter) for letter in all_assignments(atoms)]
    table = array("i", [0] * (len(rows) * len(columns)))
    for state, row in enumerate(rows):
        if len(row) != len(columns):
            raise ValueError(f"row {state} has {len(row)} successors, not {len(columns)}")
        for mask, target in zip(columns, row):
            table[state * len(columns) + mask] = target
    return CompiledMachine(sorted(atoms), initial, table, outputs, columns)
