"""Benchmark regenerating Figures 5.2 / 5.3: the monitor automata themselves.

The figures draw the LTL3 monitor automata of properties A, B and D
(Fig 5.2) and E and F (Fig 5.3) for two processes.  The benchmark rebuilds
them, prints their textual rendering and asserts the structural facts visible
in the figures: state counts, verdict labelling, and which properties own a
reachable ⊥ / ⊤ state.
"""

from repro.experiments import case_study_monitor, run_fig_5_2_5_3
from repro.ltl import Verdict


def test_fig_5_2_5_3_monitor_automata():
    descriptions = run_fig_5_2_5_3()
    print()
    for name, text in descriptions.items():
        print(f"--- property {name} (2 processes) ---")
        print(text)
        print()

    # structural checks against the drawn automata
    a = case_study_monitor("A", 2)
    b = case_study_monitor("B", 2)
    d = case_study_monitor("D", 2)
    e = case_study_monitor("E", 2)
    f = case_study_monitor("F", 2)

    # Fig 5.2a / 5.2c: safety-style automata with an absorbing ⊥ state
    for monitor in (a, d):
        verdicts = {monitor.verdict(s) for s in monitor.states}
        assert Verdict.BOTTOM in verdicts
        assert Verdict.TOP not in verdicts
        assert monitor.num_states == 3

    # Fig 5.2b / 5.3a: co-safety automata with a single outgoing transition
    for monitor in (b, e):
        verdicts = {monitor.verdict(s) for s in monitor.states}
        assert Verdict.TOP in verdicts
        assert Verdict.BOTTOM not in verdicts
        assert monitor.num_states == 2
        assert monitor.transition_counts()["outgoing"] == 1

    # Fig 5.3b: property F has the richest automaton (5 states in the paper)
    assert f.num_states == 5
    assert {f.verdict(s) for s in f.states} == {Verdict.INCONCLUSIVE, Verdict.BOTTOM}
