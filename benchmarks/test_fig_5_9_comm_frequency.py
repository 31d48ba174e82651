"""Benchmark regenerating Figure 5.9: effect of the communication frequency.

Property C with four processes is monitored while the mean wait time between
program communication events (Commμ) varies over {3, 6, 9, 15, ∞} seconds
(∞ = no communication at all).  The paper's findings reproduced here:

* 5.9a — the total number of events and of monitoring work decreases as
  communication becomes rarer (fewer receive events, fewer inconsistencies
  to repair).  The work is checked on the searches issued
  (``entries_created``): monitors answer searches from the columns they
  hold, so messages are down to some sixty per run whatever the frequency
  and no longer order by it (``docs/results.md``);
* 5.9b — the delay also decreases with less communication;
* 5.9c — the paper reports that the total number of global views increases
  as communication disappears (wider lattice).  In this reproduction most
  views are created while repairing receive-induced inconsistencies, so the
  no-communication run creates *fewer* views — a documented deviation (see
  EXPERIMENTS.md); the benchmark only checks that monitoring remains
  non-trivial (several views per process) even without any communication.
"""

from conftest import BENCH_SCALE
from repro.experiments import format_table, run_fig_5_9


def test_fig_5_9_communication_frequency():
    rows = run_fig_5_9(
        comm_mus=(3.0, 6.0, 15.0, None), num_processes=4, property_name="C", scale=BENCH_SCALE
    )
    print("\nFig 5.9 — varying the communication frequency (property C, 4 processes)\n")
    print(format_table(rows, columns=["comm_mu", "events", "messages", "entries_created",
                                      "delayed_events", "global_views"]))

    frequent = rows[0]          # Commμ = 3
    rare = rows[-2]             # Commμ = 15
    no_comm = rows[-1]          # no communication at all

    # 5.9a: fewer communication events -> fewer program events and searches
    assert rare["events"] < frequent["events"]
    assert no_comm["events"] < frequent["events"]
    assert rare["entries_created"] < frequent["entries_created"]
    assert no_comm["entries_created"] < frequent["entries_created"]

    # 5.9b: less communication -> fewer delayed events
    assert rare["delayed_events"] <= frequent["delayed_events"]

    # 5.9c (deviation documented in EXPERIMENTS.md): even without any
    # communication the monitors still maintain several global views per
    # process, because all remote events are mutually concurrent
    assert no_comm["global_views"] >= 4  # the experiment uses 4 processes
