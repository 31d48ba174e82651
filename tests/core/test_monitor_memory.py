"""What the monitors of a long run still hold at its end.

A monitor keeps, per process, a column of letter masks and a column of vector
clocks; a letter is its mask over ``automaton.compiled.atoms``, and no
``frozenset`` letter is kept beside it.  Traced from after the inputs are
built, what is still allocated at the end of property B's n=4 run with 400
events per process (seed 2015, view budget 2) — the report and every monitor
it holds — stays under 200 bytes per program event.  Holding a ``frozenset``
letter per event next to each mask, it was about 360.
"""

import tracemalloc

from repro.experiments.engine import cell_inputs
from repro.scenarios import get_scenario
from repro.sim import simulate_monitored_run

#: live bytes per program event the end of the run may hold
BYTES_PER_EVENT = 200


def test_live_memory_at_the_end_of_a_long_run_stays_under_200_bytes_per_event():
    scenario = get_scenario("paper-default")
    inputs = cell_inputs(
        scenario, "B", 4, events_per_process=400,
        evt_mu=3, evt_sigma=1, comm_mu=3, comm_sigma=1, seed=2015,
    )
    tracemalloc.start()
    try:
        report = simulate_monitored_run(
            *inputs, seed=2015, max_views_per_state=2, network=scenario.network
        )
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.total_events == 11_068
    # every monitor ends holding its own column, at least
    own = [len(m.columns.masks[m.process]) - 1 for m in report.monitors]
    assert sum(own) == report.total_events
    assert live / report.total_events < BYTES_PER_EVENT
