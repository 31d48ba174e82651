"""The scenario engine: degraded conditions end-to-end.

The paper's evaluation ran one fixed condition (reliable WiFi, designed
traces); the scenario engine opens the sweep to degraded networks and skewed
workloads.  This file runs a representative subset at the suite's scale
and checks the qualitative expectations of each condition:

* ``lossy-retransmit`` — same verdict work as the baseline, plus a non-zero
  retransmission overhead;
* ``partition-heal`` — cross-group monitor messages are held while the
  partition is open;
* ``bursty-comm`` — comm-heavy workload bursts mean more program messages
  and therefore more monitoring traffic than the baseline;
* ``hot-spot`` — hot-proposition skew multiplies the events of process 0.
"""

from conftest import BENCH_SCALE
from repro.api import run_scenario
from repro.experiments import format_table

#: restrict the sweeps to two properties so the whole file stays
#: well under the CI smoke budget while still crossing automaton shapes
_GRID_PROPERTIES = ("B", "D")

_COLUMNS = ["property", "processes", "events", "messages", "global_views",
            "delayed_events"]


#: one sweep per scenario per session — the paper-default baseline is shared
#: by several tests
_SWEEP_CACHE: dict = {}


def _run(name: str):
    from repro.scenarios import SweepGrid

    if name in _SWEEP_CACHE:
        return _SWEEP_CACHE[name]
    rows = run_scenario(name, BENCH_SCALE, grid=SweepGrid(properties=_GRID_PROPERTIES))
    _SWEEP_CACHE[name] = rows
    return rows


def test_scenario_lossy_retransmit_end_to_end():
    baseline = _run("paper-default")
    lossy = _run("lossy-retransmit")
    print("\nlossy-retransmit scenario\n")
    print(format_table(lossy, columns=_COLUMNS + ["retransmissions"]))
    assert all(row["retransmissions"] > 0 for row in lossy)
    # retransmission delays messages; verdict-bearing work must still happen
    for base_row, lossy_row in zip(baseline, lossy):
        assert lossy_row["events"] == base_row["events"]
        assert lossy_row["global_views"] >= 2


def test_scenario_partition_heal_end_to_end():
    rows = _run("partition-heal")
    print("\npartition-heal scenario\n")
    print(format_table(rows, columns=_COLUMNS + ["held_messages"]))
    # the default window (2s..8s) overlaps every trace at this scale, so
    # some cross-group monitor messages must have been held back
    assert any(row["held_messages"] > 0 for row in rows)


def test_scenario_bursty_comm_heavier_than_baseline():
    baseline = _run("paper-default")
    bursty = _run("bursty-comm")
    print("\nbursty-comm scenario\n")
    print(format_table(bursty, columns=_COLUMNS + ["bursts_used"]))
    base_events = sum(row["events"] for row in baseline)
    bursty_events = sum(row["events"] for row in bursty)
    assert bursty_events > base_events  # burst rounds add receive events


def test_scenario_hot_spot_skews_events():
    baseline = _run("paper-default")
    hot = _run("hot-spot")
    print("\nhot-spot scenario\n")
    print(format_table(hot, columns=_COLUMNS))
    assert sum(row["events"] for row in hot) > sum(
        row["events"] for row in baseline
    )
