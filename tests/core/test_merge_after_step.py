"""An own event that steps no view is not followed by a merge.

``local_event`` merges only when ``_advance_views`` stepped a view.  Every
other entry point that changes the views ends in a merge (``start``,
``local_termination``, a termination notice, a token coming home — which is
also how a parked token woken by an own event comes back), and news only
empties them; so after an own event that stepped nothing the views are what
the last merge left, and merging, the view budget and settling change
nothing.  The reference, :func:`_merge_every_event`, is ``local_event`` as
it was: it merges after every own event and reads the own mask off the
registry's letter.  Every ``MonitorMetrics`` counter (``parked_tokens_slept``
included), each monitor's verdict log and declared states, and the messages
must be identical

* on the paper-default grid: properties A–F, n ∈ {3, 4}, 6 and 20 events per
  process, seeds 2015 and 7, view budget 2 and none;
* on two cells where the merge after an own event's step matters: with a
  budget of one view per state it evicts views, and a ``local_event`` that
  never merged reports otherwise (no cell of the grid tells the two apart);
* on the three curve cells of CI's perf-smoke job (seed 2015, budget 2);
* streamed through asyncio's in-memory transport on wire-tcp's cell and on
  token-heavy's;
* on a cell whose monitor crashes and rejoins: the fresh incarnation replays
  the events it had read through ``local_event``.
"""

import pytest
from test_parked_tokens import _cell, _observed

from repro.core.global_view import ViewSet
from repro.core.monitor import DecentralizedMonitor
from repro.experiments.engine import cell_inputs
from repro.faults import parse_fault_plan
from repro.scenarios import get_scenario
from repro.sim import simulate_monitored_run


def _merge_every_event(self, event):
    """The reference: every own event ends in a merge, and its mask is the
    encoded letter of the registry; what it queued leaves at its end, as from
    every entry point."""
    if not self._started:
        self.start()
    self.metrics.events_processed += 1
    letter = self.registry.local_letter(self.process, event.state)
    self.columns.append_own(self._compiled.encode(letter), tuple(event.vc))
    if any(view.is_waiting() for view in self.views):
        self.metrics.delayed_events += 1
    self.tokens.retry(own_event=True)
    self._advance_views(self.views)
    self.views.merge(self.declared_bits, self.heard)
    if self.tokens.outbox:
        self.tokens.flush(self.transport)


def _merging_and_reference(monkeypatch, run):
    """``run()`` as the monitor is and under the reference; returns the two
    observations (``parked_tokens_slept`` included) and how many merges the
    monitor made and the reference made."""
    merge, observed, merges = ViewSet.merge, [], []

    def counted(self, declared, heard):
        merges[-1] += 1
        merge(self, declared, heard)

    for local_event in (DecentralizedMonitor.local_event, _merge_every_event):
        merges.append(0)
        with monkeypatch.context() as patched:
            patched.setattr(DecentralizedMonitor, "local_event", local_event)
            patched.setattr(ViewSet, "merge", counted)
            observed.append(_observed(run(), slept=True))
    return (*observed, *merges)


@pytest.mark.parametrize("property_name", "ABCDEF")
def test_merging_only_after_a_step_changes_nothing_on_the_grid(property_name, monkeypatch):
    skipped = 0
    for n in (3, 4):
        for epp in (6, 20):
            for seed in (2015, 7):
                for budget in (2, None):
                    run = _cell(property_name, n, epp, seed, budget)
                    report, reference, merges, every = _merging_and_reference(monkeypatch, run)
                    assert report == reference, (n, epp, seed, budget)
                    skipped += every - merges
    assert skipped > 0


@pytest.mark.parametrize(
    "cell, streamed",
    [
        (("C", 4, 20), False),
        (("F", 5, 20), False),
        (("B", 5, 40), False),
        (("B", 4, 18), True),
        (("C", 4, 20), True),
    ],
    ids=["C-n4-epp20", "F-n5-epp20", "B-n5-epp40", "B-n4-epp18-asyncio", "C-n4-epp20-asyncio"],
)
def test_merging_only_after_a_step_changes_nothing_on_the_benchmark_cells(
    cell, streamed, monkeypatch
):
    run = _cell(*cell, seed=2015, budget=2, streamed=streamed)
    report, reference, merges, every = _merging_and_reference(monkeypatch, run)
    assert report == reference
    assert merges < every


def _never_merging(self, event, local_event=DecentralizedMonitor.local_event):
    """``local_event`` with no merge at all after an own event."""
    self.views.merge = lambda declared, heard: None  # shadows the method on this view set
    try:
        local_event(self, event)
    finally:
        del self.views.merge


@pytest.mark.parametrize("property_name", "AC")
def test_a_step_is_still_followed_by_a_merge(property_name, monkeypatch):
    run = _cell(property_name, 3, 20, seed=5, budget=1)
    report, reference, merges, every = _merging_and_reference(monkeypatch, run)
    assert report == reference
    assert merges < every
    with monkeypatch.context() as patched:
        patched.setattr(DecentralizedMonitor, "local_event", _never_merging)
        assert _observed(run(), slept=True) != report


def test_a_rejoin_replays_its_events_as_the_reference_does(monkeypatch):
    scenario = get_scenario("paper-default")
    inputs = cell_inputs(
        scenario, "C", 4, events_per_process=20,
        evt_mu=3, evt_sigma=1, comm_mu=3, comm_sigma=1, seed=2015,
    )
    plan = parse_fault_plan("1@8+2:rejoin")
    restarts = []

    def run():
        report = simulate_monitored_run(
            *inputs, seed=2015, max_views_per_state=2, network=scenario.network, faults=plan
        )
        restarts.append(report.fault_stats["fault_restarts"])
        return report

    report, reference, merges, every = _merging_and_reference(monkeypatch, run)
    assert restarts == [1, 1]
    assert report == reference
    assert merges < every
