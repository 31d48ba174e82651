"""The case-study monitors, state by state and transition by transition.

``fixtures/case_study_machines.json`` holds, for properties A–F at
n = 2…6, minimised and not: the initial state, the per-state verdicts, the
SHA-256 of the transition table's bytes and every conjunctive transition
``(id, source, target, guard)``. Table 5.1 pins only the counts; this pins
the state numbers and the transition order the monitors' tokens and views
name. The fixture is the output of :func:`record` on the machines as they
were before synthesis wrote the table itself; it is compared, never
rewritten.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.properties import PROPERTY_NAMES, property_formula
from repro.ltl import build_monitor

FIXTURE = Path(__file__).parent / "fixtures" / "case_study_machines.json"
CELLS = [
    (name, n, minimize)
    for name in PROPERTY_NAMES
    for n in range(2, 7)
    for minimize in (False, True)
]


def key(name: str, n: int, minimize: bool) -> str:
    return f"{name}/{n}/{'min' if minimize else 'full'}"


def record(name: str, n: int, minimize: bool) -> dict:
    """What the fixture holds for one case-study machine."""
    monitor = build_monitor(property_formula(name, n), minimize=minimize)
    compiled = monitor.compiled
    return {
        "initial": compiled.initial,
        "outputs": [str(output) for output in compiled.outputs],
        "table_sha256": hashlib.sha256(compiled.table.tobytes()).hexdigest(),
        "transitions": [
            [t.transition_id, t.source, t.target, [[a, v] for a, v in t.guard.items()]]
            for t in monitor.transitions
        ],
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(pinned):
    assert sorted(pinned) == sorted(key(*cell) for cell in CELLS)


@pytest.mark.parametrize("name,n,minimize", CELLS, ids=[key(*cell) for cell in CELLS])
def test_machine_matches_pin(pinned, name, n, minimize):
    assert record(name, n, minimize) == pinned[key(name, n, minimize)]
