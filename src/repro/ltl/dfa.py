"""Deterministic Moore machines: construction helpers and minimisation.

The LTL3 monitor is a deterministic finite-state Moore machine whose outputs
are verdicts.  This module provides the generic machinery — stepping, reachability
restriction and Moore minimisation — used by :mod:`repro.ltl.monitor`.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from dataclasses import dataclass, field

__all__ = ["MooreMachine"]

Letter = frozenset[str]

#: cap on cached foreign-letter projections per machine (see
#: :meth:`MooreMachine.step`); beyond it, projections are recomputed rather
#: than cached so adversarial streams of distinct letters cannot leak memory
_PROJECTION_CACHE_LIMIT = 4096


@dataclass
class MooreMachine:
    """A complete deterministic Moore machine over an explicit alphabet.

    Attributes
    ----------
    letters:
        The explicit alphabet (each letter is a set of true atoms).
    initial:
        Index of the initial state.
    delta:
        ``delta[state][letter_index]`` is the successor state index.
    outputs:
        ``outputs[state]`` is the (hashable) output of the state.
    """

    letters: tuple[Letter, ...]
    initial: int
    delta: list[list[int]]
    outputs: list[Hashable]
    state_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.state_names:
            self.state_names = [f"q{i}" for i in range(len(self.outputs))]
        self._letter_index: dict[Letter, int] = {
            letter: i for i, letter in enumerate(self.letters)
        }
        #: atoms the machine's alphabet actually mentions, for projection
        self._atoms: frozenset[str] = frozenset().union(*self.letters) if self.letters else frozenset()
        if len(self.delta) != len(self.outputs):
            raise ValueError("delta and outputs must have the same number of states")
        for row in self.delta:
            if len(row) != len(self.letters):
                raise ValueError("each delta row must cover the whole alphabet")

    @property
    def num_states(self) -> int:
        """The number of machine states (states are ``0 .. num_states - 1``)."""
        return len(self.outputs)

    def step(self, state: int, letter: Letter) -> int:
        """Successor of *state* after reading *letter*.

        Letters may mention atoms outside the machine's alphabet (e.g.
        propositions of processes not appearing in the formula); they are
        projected onto the known atoms.  Projections of letters seen are
        cached — up to :data:`_PROJECTION_CACHE_LIMIT` entries beyond the
        alphabet itself, so streams of ever-distinct foreign letters cannot
        grow the cache without bound — making the common per-transition cost
        two dictionary lookups.
        """
        column = self._letter_index.get(letter)
        if column is None:
            projected = frozenset(a for a in letter if a in self._atoms)
            column = self._letter_index[projected]
            if len(self._letter_index) < len(self.letters) + _PROJECTION_CACHE_LIMIT:
                self._letter_index[letter] = column
        return self.delta[state][column]

    def _atom_universe(self) -> frozenset[str]:
        return self._atoms

    def run(self, word: Sequence[Letter], start: int | None = None) -> int:
        """State reached after reading *word* from *start* (default: initial)."""
        state = self.initial if start is None else start
        for letter in word:
            state = self.step(state, letter)
        return state

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def reachable(self) -> "MooreMachine":
        """Restrict the machine to states reachable from the initial state."""
        seen = {self.initial}
        order = [self.initial]
        frontier = [self.initial]
        while frontier:
            state = frontier.pop()
            for target in self.delta[state]:
                if target not in seen:
                    seen.add(target)
                    order.append(target)
                    frontier.append(target)
        remap = {old: new for new, old in enumerate(order)}
        delta = [
            [remap[self.delta[old][c]] for c in range(len(self.letters))]
            for old in order
        ]
        outputs = [self.outputs[old] for old in order]
        names = [self.state_names[old] for old in order]
        return MooreMachine(
            letters=self.letters,
            initial=remap[self.initial],
            delta=delta,
            outputs=outputs,
            state_names=names,
        )

    def minimize(self) -> "MooreMachine":
        """Moore-minimise the machine (output-preserving partition refinement)."""
        machine = self.reachable()
        n = machine.num_states
        # initial partition: by output
        outputs_to_block: dict[Hashable, int] = {}
        block_of = [0] * n
        for state in range(n):
            key = machine.outputs[state]
            if key not in outputs_to_block:
                outputs_to_block[key] = len(outputs_to_block)
            block_of[state] = outputs_to_block[key]

        while True:
            signature: dict[tuple, int] = {}
            new_block_of = [0] * n
            for state in range(n):
                sig = (
                    block_of[state],
                    tuple(block_of[t] for t in machine.delta[state]),
                )
                if sig not in signature:
                    signature[sig] = len(signature)
                new_block_of[state] = signature[sig]
            if new_block_of == block_of:
                break
            block_of = new_block_of

        num_blocks = max(block_of) + 1
        representative = [-1] * num_blocks
        for state in range(n):
            if representative[block_of[state]] == -1:
                representative[block_of[state]] = state

        delta = [
            [
                block_of[machine.delta[representative[b]][c]]
                for c in range(len(machine.letters))
            ]
            for b in range(num_blocks)
        ]
        outputs = [machine.outputs[representative[b]] for b in range(num_blocks)]
        minimized = MooreMachine(
            letters=machine.letters,
            initial=block_of[machine.initial],
            delta=delta,
            outputs=outputs,
        )
        return minimized.reachable()

    def letters_between(self, source: int, target: int) -> list[Letter]:
        """All letters taking *source* to *target* in one step."""
        return [
            letter
            for i, letter in enumerate(self.letters)
            if self.delta[source][i] == target
        ]
