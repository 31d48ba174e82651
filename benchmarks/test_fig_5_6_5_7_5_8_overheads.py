"""Benchmarks regenerating Figures 5.6, 5.7 and 5.8.

* Fig 5.6 — delay-time percentage per global view against the number of
  processes (the paper's definition), and beside it the time the monitors
  keep working after the program ends, ``monitor_extra_time``, which does
  not divide by views: creating fewer views makes the per-view figure read
  worse at an unchanged delay (the round-robin fixture's B n=3 seed 2015
  went 0.0741 → 0.0926 at 0.0555 s).
* Fig 5.7 — average number of delayed (queued) events against the number of
  processes: grows with the process count, and is markedly lower for the
  simple properties B and E.
* Fig 5.8 — memory overhead measured as the total number of global views
  created: grows with the process count for A, B, C, E and F, B and E below
  A and C.  Four parts of the paper's shape are not reproduced and not
  asserted.  "Lowest for B and E": D's violated traces stop early and no
  monitor explores a ``(state, cut)`` twice.  "D grows with n" and "highest
  for F": a monitor stops before its next step once it has declared every
  conclusive state its views can reach, and at n = 4 D's views per run fall
  from 37 to 7 ([11.5, 42, 37] became [11.5, 23, 7] for n = 2, 3, 4) and
  F's from 105 to 24.5 ([13.5, 55, 105] became [13.5, 55, 24.5]), below A's
  and C's.  Both rested on views forked by monitors that were already
  settled: all 66 of D's forks at n = 4, and 187 of F's 202.  "B and E
  below F": once monitors settle on the declarations tokens and termination
  notices carry, F's row becomes [13.5, 55, 14.5] and D's [11.5, 21.5, 5],
  so F's total falls from 93 to 83, below E's 88.

All three figures come from the same monitored-workload sweep, which is
computed once per session (see ``conftest.monitoring_sweep``).
"""

from conftest import series_of
from repro.experiments import format_table


def test_fig_5_6_delay_time_percentage(monitoring_sweep):
    rows = [
        {
            "property": r["property"],
            "processes": r["processes"],
            "delay_time_pct_per_view": r["delay_time_pct_per_view"],
            "monitor_extra_time": r["monitor_extra_time"],
        }
        for r in monitoring_sweep
    ]
    print("\nFig 5.6 — delay time percentage per global view, and the delay\n")
    print(format_table(rows))
    # monitors always finish after the program: the delay is positive,
    # counted per view (the paper's definition) or not
    for metric in ("delay_time_pct_per_view", "monitor_extra_time"):
        for name, values in series_of(monitoring_sweep, metric).items():
            assert all(value >= 0.0 for value in values)
            assert any(value > 0.0 for value in values), f"no {metric} for {name}"


def test_fig_5_7_delayed_events(monitoring_sweep):
    rows = [
        {
            "property": r["property"],
            "processes": r["processes"],
            "delayed_events": r["delayed_events"],
        }
        for r in monitoring_sweep
    ]
    print("\nFig 5.7 — delayed (queued) events\n")
    print(format_table(rows))
    delayed = series_of(rows, "delayed_events")
    for name in "ABCDEF":
        assert delayed[name][-1] >= delayed[name][0], (
            f"delayed events for {name} should grow with the number of processes"
        )
    # the simple properties queue fewer events than the complex ones
    assert sum(delayed["E"]) <= sum(delayed["D"])
    assert sum(delayed["B"]) <= sum(delayed["A"])


def test_fig_5_8_what_still_holds_of_the_views(monitoring_sweep):
    """The part of Fig 5.8's shape that is reproduced (not: D grows, F
    highest, B and E below F)."""
    views = series_of(monitoring_sweep, "global_views")
    for name in "ABCEF":
        assert views[name][-1] >= views[name][0], name
    totals = {name: sum(views[name]) for name in "ABCDEF"}
    assert max(totals["B"], totals["E"]) <= min(totals["A"], totals["C"])
