"""Benchmark regenerating Figure 5.1: transition-count series per property.

Fig 5.1a plots the total number of transitions and Fig 5.1b the number of
outgoing transitions of every property's automaton against the number of
processes (2–5).  The paper's qualitative findings: every series is
non-decreasing in the number of processes, F dominates everything, D grows
fastest among the remaining G-properties, and B/E stay nearly flat.
"""

from repro.experiments import run_fig_5_1


def test_fig_5_1_transition_series():
    series = run_fig_5_1()
    all_transitions = series["all_transitions"]
    outgoing = series["outgoing_transitions"]

    print("\nFig 5.1a — all transitions per property (n = 2..5)")
    for name, values in all_transitions.items():
        print(f"  {name}: {values}")
    print("Fig 5.1b — outgoing transitions per property (n = 2..5)")
    for name, values in outgoing.items():
        print(f"  {name}: {values}")

    for name in "ABCDEF":
        assert all_transitions[name] == sorted(all_transitions[name])
        assert outgoing[name] == sorted(outgoing[name])
    for index in range(4):
        column = {name: all_transitions[name][index] for name in "ABCDEF"}
        assert column["F"] == max(column.values())
        assert column["D"] >= column["A"] >= column["B"]
    # B and E have a single outgoing transition regardless of the size
    assert set(outgoing["E"]) == {1}
    assert outgoing["B"][0] == 1 and outgoing["B"][-1] == 1
