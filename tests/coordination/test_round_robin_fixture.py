"""Byte-identity of the monitors against their pinned fixture.

``tests/coordination/fixtures/round_robin_token.json`` records the complete
observable output — verdicts, every per-monitor counter, network totals, the
full sweep-row dict — of five fixed-seed cells.  It was captured on the
monolithic ``DecentralizedMonitor`` and re-captured only when routing or
search changed on purpose (fewer messages and hops, verdicts unchanged; the
diffs are in CHANGES.md).  The monitors, routing tokens by the
``round-robin-token`` rule, must reproduce each cell **byte for byte**:
refactors and optimisations are required not to change behaviour.

Regenerate the fixture (only when the *intended* behaviour changes) with
``tools/capture_topology_fixtures.py``.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from capture_topology_fixtures import (  # noqa: E402
    CELLS,
    FIXTURE_PATH,
    capture_cell,
)


def _fixture_cells():
    document = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
    return {
        (cell["property"], cell["num_processes"], cell["seed"]): cell
        for cell in document["cells"]
    }


def test_fixture_covers_the_declared_cells():
    assert set(_fixture_cells()) == set(CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=lambda c: f"{c[0]}-n{c[1]}-s{c[2]}")
def test_default_topology_reproduces_pre_refactor_outputs(cell):
    expected = _fixture_cells()[cell]
    actual = capture_cell(*cell)
    # normalise through JSON so tuple-vs-list and key order never matter;
    # every counter, verdict and sweep column must then match exactly
    assert json.loads(json.dumps(actual)) == expected, (
        f"round-robin-token diverged from its pinned fixture on cell {cell}"
    )
