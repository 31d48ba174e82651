"""Compiled monitor kernel: bitmask letters over dense transition tables.

The synthesized LTL3 monitor (:class:`repro.ltl.dfa.MooreMachine`) interprets
each transition as a hash + two dictionary lookups over ``frozenset[str]``
letters.  This module compiles such a machine — whose alphabet is complete
over its atom set, as every machine built by :mod:`repro.ltl.monitor` and
:mod:`repro.ltl.progression` is — into a :class:`CompiledMachine`:

* **Letters are integer bitmasks.**  Atom ``i`` (in sorted atom order) is bit
  ``1 << i``; a letter is the OR of its atoms' bits.  Projection of foreign
  atoms (propositions of processes the formula never mentions) falls out of
  :meth:`CompiledMachine.encode` for free, and combining per-process letters
  into a global letter is a masked integer OR instead of frozenset
  construction + hashing.
* **The bitmask IS the column index.**  ``delta`` is stored as one flat dense
  ``array('i')`` of ``num_states * 2**n_atoms`` entries laid out as
  ``state * n_letters + mask``, so a transition is a single indexed load with
  no per-letter dictionary at all.
* **Batched stepping.**  :meth:`CompiledMachine.run_batch` advances a whole
  event window in one call over the same flat table, returning both the
  final state and the index of the first conclusive verdict.

The table is the machine's one transition table and the monitors' only
stepping path; :meth:`~repro.ltl.dfa.MooreMachine.step` stays as the
reference the table is tested against.  :func:`compile_machine` raises ``ValueError`` for a machine
whose alphabet is not the full ``2**n_atoms`` assignment set (no machine
:func:`repro.ltl.monitor.build_monitor` builds is).
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Iterable, Sequence

from .dfa import Letter, MooreMachine

__all__ = ["CompiledMachine", "compile_machine"]


class CompiledMachine:
    """A Moore machine compiled to bitmask letters and a dense flat table.

    Instances are built by :func:`compile_machine`; the constructor arguments
    mirror the compiled representation directly.

    Attributes
    ----------
    atoms:
        The machine's atoms in bit order (``atoms[i]`` is bit ``1 << i``).
    n_letters:
        ``2 ** len(atoms)`` — the dense column count; a letter's bitmask is
        its column index.
    initial:
        Index of the initial state.
    table:
        Flat dense successor table: ``table[state * n_letters + mask]``.
    outputs:
        Per-state Moore outputs (verdicts for monitor machines).
    """

    __slots__ = (
        "atoms",
        "atom_bit",
        "n_letters",
        "num_states",
        "initial",
        "table",
        "outputs",
        "final_flags",
    )

    def __init__(
        self,
        atoms: Sequence[str],
        initial: int,
        table: array,
        outputs: Sequence[Hashable],
        final_flags: Sequence[bool],
    ) -> None:
        self.atoms: tuple[str, ...] = tuple(atoms)
        self.atom_bit: dict[str, int] = {a: 1 << i for i, a in enumerate(self.atoms)}
        self.n_letters: int = 1 << len(self.atoms)
        self.num_states: int = len(outputs)
        self.initial: int = initial
        self.table: array = table
        self.outputs: tuple[Hashable, ...] = tuple(outputs)
        self.final_flags: tuple[bool, ...] = tuple(bool(f) for f in final_flags)

    # ------------------------------------------------------------------
    # letter encoding
    # ------------------------------------------------------------------
    def encode(self, letter: Iterable[str]) -> int:
        """Bitmask of *letter* (a set of true atoms).

        Atoms outside the machine's alphabet contribute no bits, so foreign
        propositions are projected away with no frozenset construction.
        """
        bits = self.atom_bit
        mask = 0
        for atom in letter:
            bit = bits.get(atom)
            if bit is not None:
                mask |= bit
        return mask

    def decode(self, mask: int) -> Letter:
        """The letter (frozenset of true atoms) a bitmask denotes."""
        return frozenset(
            atom for atom, bit in self.atom_bit.items() if mask & bit
        )

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, state: int, mask: int) -> int:
        """Successor of *state* after reading the letter bitmask *mask*."""
        return self.table[state * self.n_letters + mask]

    def step_letter(self, state: int, letter: Iterable[str]) -> int:
        """Successor of *state* after reading a (possibly foreign) letter."""
        return self.table[state * self.n_letters + self.encode(letter)]

    def run(self, masks: Iterable[int], start: int | None = None) -> int:
        """State reached after reading *masks* from *start* (default initial)."""
        table, L = self.table, self.n_letters
        state = self.initial if start is None else start
        for mask in masks:
            state = table[state * L + mask]
        return state

    def run_batch(
        self, state: int, masks: Sequence[int]
    ) -> tuple[int, int]:
        """Advance *state* over a whole event window in one call.

        Returns ``(final_state, first_final_index)`` where
        ``first_final_index`` is the index of the event after which the
        machine first sat in a conclusive (final-flagged) state, or ``-1``
        when no consumed event leaves it in one (an empty window always
        reports ``-1``, even from a conclusive state).
        """
        table, L, final = self.table, self.n_letters, self.final_flags
        first = -1
        for i, mask in enumerate(masks):
            state = table[state * L + mask]
            if first < 0 and final[state]:
                first = i
        return state, first

    # ------------------------------------------------------------------
    # outputs
    # ------------------------------------------------------------------
    def output(self, state: int) -> Hashable:
        """The Moore output (verdict) of *state*."""
        return self.outputs[state]

    def is_final(self, state: int) -> bool:
        """Whether *state* carries a conclusive (final-flagged) output."""
        return self.final_flags[state]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledMachine(states={self.num_states}, atoms={len(self.atoms)}, "
            f"n_letters={self.n_letters})"
        )


def compile_machine(machine: MooreMachine) -> CompiledMachine:
    """Compile *machine* into a :class:`CompiledMachine`.

    Raises ``ValueError`` when the machine's alphabet is not the complete
    ``2**n_atoms`` assignment set over its atoms: the dense mask→column
    identity would have holes, so the table could not be total.  Outputs
    exposing a truthy ``is_final`` attribute (:class:`repro.ltl.verdict.Verdict`)
    are the conclusive ones for :meth:`CompiledMachine.run_batch`.
    """
    atoms = sorted(machine._atom_universe())
    n_letters = 1 << len(atoms)
    bit = {atom: 1 << i for i, atom in enumerate(atoms)}
    column_of_mask = [0] * n_letters
    letter_index = {letter: i for i, letter in enumerate(machine.letters)}
    for mask in range(n_letters):
        letter = frozenset(atom for atom in atoms if mask & bit[atom])
        column = letter_index.get(letter)
        if column is None:
            raise ValueError(
                "cannot compile a machine with an incomplete alphabet: "
                f"no column for the assignment {sorted(letter)}"
            )
        column_of_mask[mask] = column
    table = array("i", bytes(0))
    for state in range(machine.num_states):
        row = machine.delta[state]
        table.extend(row[column_of_mask[mask]] for mask in range(n_letters))
    return CompiledMachine(
        atoms=atoms,
        initial=machine.initial,
        table=table,
        outputs=machine.outputs,
        final_flags=[getattr(output, "is_final", False) for output in machine.outputs],
    )
