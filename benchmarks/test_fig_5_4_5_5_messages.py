"""Benchmarks regenerating Figures 5.4 and 5.5: monitoring message overhead.

The paper plots, on a log scale, the total number of program events and the
total number of monitoring messages against the number of processes, for
properties A–C (Fig 5.4) and D–F (Fig 5.5), with Commμ = Evtμ = 3 s and
σ = 1 s.  The headline findings reproduced here:

* message counts grow with the number of processes and events for every
  property;
* the single-outgoing-transition properties B and E issue far fewer searches
  than the multi-transition properties (the paper calls their growth
  sub-linear in the number of events).

The paper's argument for the second finding — one outgoing transition, fewer
searches — is checked on the searches themselves (``entries_created``), not
on messages: since monitors answer a search from the columns they hold, a
search costs a message only when it needs an event its monitor has not seen
yet, and the message totals of the six properties no longer order by
automaton size (``docs/results.md`` has the numbers and the cause).
"""

from conftest import BENCH_SCALE, series_of
from repro.experiments import format_table, run_fig_5_4_5_5


def test_fig_5_4_messages_properties_abc():
    rows = run_fig_5_4_5_5(("A", "B", "C"), scale=BENCH_SCALE)
    print("\nFig 5.4 — messages overhead, properties A-C\n")
    print(format_table(rows, columns=["property", "processes", "events", "messages",
                                      "entries_created", "log_events", "log_messages"]))
    messages = series_of(rows, "messages")
    for name in ("A", "B", "C"):
        assert messages[name][-1] >= messages[name][0], (
            f"messages for {name} should grow with the number of processes"
        )
    # B (one outgoing transition) issues by far the fewest searches of the three
    searches = series_of(rows, "entries_created")
    assert sum(searches["B"]) <= sum(searches["A"])
    assert sum(searches["B"]) <= sum(searches["C"])


def test_fig_5_5_messages_properties_def(monitoring_sweep):
    rows = [r for r in monitoring_sweep if r["property"] in ("D", "E", "F")]
    print("\nFig 5.5 — messages overhead, properties D-F\n")
    print(format_table(rows, columns=["property", "processes", "events", "messages",
                                      "entries_created", "log_events", "log_messages"]))
    messages = series_of(rows, "messages")
    for name in ("D", "E", "F"):
        assert messages[name][-1] >= messages[name][0]
    # E (one outgoing transition) issues by far the fewest searches of the three
    searches = series_of(rows, "entries_created")
    assert sum(searches["E"]) <= sum(searches["D"])
    assert sum(searches["E"]) <= sum(searches["F"])
