"""Ground truth: simulated runs against the lattice oracle, in both directions.

The n ∈ {3, 4} slice of the ground-truth sweep: properties A–F of the
paper-default workload with 6, 10 and 20 events per process, seeds 2015, 7
and 77, and a view budget of 2 or none — 216 simulated runs.

* **Soundness** — every run declares only verdicts the oracle declares.
* **Completeness** — every run that evicted no view declares exactly the
  oracle's conclusive set.  Eviction is the one knowing trade of verdicts
  for boundedness on a fault-free run: an evicting run may lose verdicts,
  never invent them.
* **Inconclusiveness** — when some path reaches the top cut in an
  inconclusive state, some monitor reports ``?``: a view still live at the
  end of the run, or one retired when its monitor settled.

The search shortcuts of ``core/monitor.py`` (forking from an entry, a view
skipping the box its last step searched, a guard's remembered least cut)
each lose verdicts here when they over-reach.
"""

import pytest

from repro.core.oracle import LatticeOracle
from repro.experiments.engine import cell_inputs
from repro.ltl import Verdict
from repro.scenarios import get_scenario
from repro.sim import simulate_monitored_run

EVENTS_PER_PROCESS = (6, 10, 20)
SEEDS = (2015, 7, 77)
VIEW_BUDGETS = (2, None)


@pytest.mark.parametrize("num_processes", (3, 4))
@pytest.mark.parametrize("property_name", "ABCDEF")
def test_runs_are_sound_and_complete_unless_they_evict(property_name, num_processes):
    scenario = get_scenario("paper-default")
    failures = []
    for epp in EVENTS_PER_PROCESS:
        for seed in SEEDS:
            inputs = cell_inputs(
                scenario,
                property_name,
                num_processes,
                events_per_process=epp,
                evt_mu=3,
                evt_sigma=1,
                comm_mu=3,
                comm_sigma=1,
                seed=seed,
            )
            truth = LatticeOracle(*inputs).evaluate()
            oracle = truth.conclusive_verdicts
            for budget in VIEW_BUDGETS:
                report = simulate_monitored_run(
                    *inputs, seed=seed, max_views_per_state=budget, network=scenario.network
                )
                declared = report.declared_verdicts
                cell = f"epp={epp} seed={seed} budget={budget}: {declared} vs {oracle}"
                if not declared <= oracle:
                    failures.append(f"unsound {cell}")
                elif report.metrics.views_evicted == 0 and declared != oracle:
                    failures.append(f"incomplete {cell}")
                if Verdict.INCONCLUSIVE in truth.verdicts - report.reported_verdicts:
                    failures.append(f"? lost {cell}")
    assert not failures, failures
