"""The LTL3 monitor machine: bitmask letters over one dense transition table.

Formula progression (:func:`repro.ltl.progression.build_progression_machine`)
writes the table of a :class:`CompiledMachine` directly; it is the one
automaton every monitor, the lattice oracle and the tests step.

* **Letters are integer bitmasks.**  Atom ``i`` (in sorted atom order) is bit
  ``1 << i``; a letter is the OR of its atoms' bits.  Projection of foreign
  atoms (propositions of processes the formula never mentions) falls out of
  :meth:`CompiledMachine.encode` for free, and combining per-process letters
  into a global letter is a masked integer OR instead of frozenset
  construction + hashing.
* **The bitmask IS the column index.**  The successor function is one flat
  dense ``array('i')`` of ``num_states * 2**n_atoms`` entries laid out as
  ``state * n_letters + mask``, so a transition is a single indexed load
  with no per-letter dictionary at all.
* **Batched stepping.**  :meth:`CompiledMachine.run_batch` advances a whole
  event window in one call over the same flat table, returning both the
  final state and the index of the first conclusive verdict.
* **Renumbering on the table.**  :meth:`CompiledMachine.reachable` and
  :meth:`CompiledMachine.minimize` visit a state's columns in
  :attr:`~CompiledMachine.columns` order, the order progression read the
  letters in, so state numbers follow progression's discovery order.
"""

from __future__ import annotations

from array import array
from collections.abc import Hashable, Iterable, Sequence

__all__ = ["CompiledMachine"]


class CompiledMachine:
    """A deterministic Moore machine over bitmask letters and a dense flat table.

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
        Per-state Moore outputs (verdicts for monitor machines); those with a
        truthy ``is_final`` (⊤ and ⊥) are the conclusive ones, flagged in
        ``final_flags`` for :meth:`run_batch`.
    columns:
        Every mask once, in the order the letters were read when the table
        was written; :meth:`reachable` and :meth:`minimize` visit a state's
        successors in this order.
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
        "columns",
    )

    def __init__(
        self,
        atoms: Sequence[str],
        initial: int,
        table: array,
        outputs: Sequence[Hashable],
        columns: Sequence[int],
    ) -> None:
        self.atoms: tuple[str, ...] = tuple(atoms)
        self.atom_bit: dict[str, int] = {a: 1 << i for i, a in enumerate(self.atoms)}
        self.n_letters: int = 1 << len(self.atoms)
        self.num_states: int = len(outputs)
        self.initial: int = initial
        self.table: array = table
        self.outputs: tuple[Hashable, ...] = tuple(outputs)
        self.final_flags: tuple[bool, ...] = tuple(
            bool(getattr(output, "is_final", False)) for output in self.outputs
        )
        self.columns: tuple[int, ...] = tuple(columns)

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

    def decode(self, mask: int) -> frozenset[str]:
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

    def row(self, state: int) -> array:
        """The successors of *state*, indexed by mask."""
        L = self.n_letters
        return self.table[state * L : (state + 1) * L]

    # ------------------------------------------------------------------
    # renumbering
    # ------------------------------------------------------------------
    def reachable(self) -> "CompiledMachine":
        """The machine restricted to the states reachable from the initial
        one, numbered in depth-first order over :attr:`columns`."""
        table, L = self.table, self.n_letters
        new_of = {self.initial: 0}  # old state -> new, in the order found
        frontier = [self.initial]
        while frontier:
            base = frontier.pop() * L
            for mask in self.columns:
                target = table[base + mask]
                if target not in new_of:
                    new_of[target] = len(new_of)
                    frontier.append(target)
        return self._renumbered(list(new_of), new_of, 0)

    def minimize(self) -> "CompiledMachine":
        """Moore-minimise the machine (output-preserving partition refinement)."""
        machine = self.reachable()
        rows = [machine.row(state) for state in range(machine.num_states)]
        # initial partition: by output
        outputs_to_block: dict[Hashable, int] = {}
        block_of = [
            outputs_to_block.setdefault(output, len(outputs_to_block))
            for output in machine.outputs
        ]
        while True:
            signature: dict[tuple, int] = {}
            new_block_of = [
                signature.setdefault(
                    (block_of[state], tuple(block_of[t] for t in row)), len(signature)
                )
                for state, row in enumerate(rows)
            ]
            if new_block_of == block_of:
                break
            block_of = new_block_of
        # blocks are numbered in the order their first states come, so the
        # first state of each, in block order, represents it
        first: dict[int, int] = {}
        for state, block in enumerate(block_of):
            first.setdefault(block, state)
        order = list(first.values())
        return machine._renumbered(order, block_of, block_of[machine.initial]).reachable()

    def _renumbered(
        self, order: Sequence[int], new_of: Sequence[int] | dict[int, int], initial: int
    ) -> "CompiledMachine":
        """The machine whose state ``i`` is old state ``order[i]``, with every
        successor ``t`` written as ``new_of[t]``."""
        table = array("i")
        for old in order:
            table.extend(new_of[t] for t in self.row(old))
        outputs = [self.outputs[old] for old in order]
        return CompiledMachine(self.atoms, initial, table, outputs, self.columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledMachine(states={self.num_states}, atoms={len(self.atoms)}, "
            f"n_letters={self.n_letters})"
        )
