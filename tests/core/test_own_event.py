"""An own event touches only what it can change, and a run shows it not.

``local_event`` makes one pass over what an own event can change: one call
appends the own mask, segment start and clock; ``delayed_events`` is counted
off ``ViewSet.waiting`` instead of a scan of the live views; ``Tokens.retry``
runs only while a token is parked; ``_advance_views`` starts from the views
that can step.  The reference is ``local_event`` as it was
(``references.reference_own_event``).  Every ``MonitorMetrics`` counter
(``delayed_events`` and ``parked_tokens_slept`` included), each monitor's
verdict log and declared states, and the messages must be identical

* on the paper-default grid: properties A–F, n ∈ {3, 4}, 6 and 20 events per
  process, seeds 2015 and 7, view budget 2 and none;
* on the three curve cells of CI's perf-smoke job (seed 2015, budget 2);
* streamed through asyncio's in-memory transport on token-heavy's cell.

Counting off the index is exact because ``ViewSet.waiting`` holds exactly
the live views whose status is ``waiting``: ``wait`` adds a view, ``resume``,
``enforce_budget`` and ``settle`` pop it, ``merge`` keeps every waiting view
and ``retire`` only ever sees unblocked ones.  The last test checks that
after every entry call on the grid.
"""

import pytest
from references import own_events_as_they_were
from test_parked_tokens import _cell, _observed

from repro.core.monitor import DecentralizedMonitor

#: the grid, per property
GRID = [
    (n, epp, seed, budget)
    for n in (3, 4)
    for epp in (6, 20)
    for seed in (2015, 7)
    for budget in (2, None)
]

#: the monitor's entry points: the calls after which the index is checked
ENTRIES = ("start", "local_event", "local_termination", "receive_message")


def own_event_and_reference(monkeypatch, run):
    """``run()`` as the monitor is and under ``reference_own_event``: the two
    observations (``parked_tokens_slept`` included)."""
    report = _observed(run(), slept=True)
    with monkeypatch.context() as patched:
        own_events_as_they_were(patched)
        reference = _observed(run(), slept=True)
    return report, reference


@pytest.mark.parametrize("property_name", "ABCDEF")
def test_an_own_event_changes_nothing_a_run_shows_on_the_grid(property_name, monkeypatch):
    delayed = 0
    for n, epp, seed, budget in GRID:
        report, reference = own_event_and_reference(
            monkeypatch, _cell(property_name, n, epp, seed, budget)
        )
        assert report == reference, (n, epp, seed, budget)
        delayed += sum(counters["delayed_events"] for counters in report[0])
    assert delayed > 0


@pytest.mark.parametrize(
    "cell, streamed",
    [
        (("C", 4, 20), False),
        (("F", 5, 20), False),
        (("B", 5, 40), False),
        (("C", 4, 20), True),
    ],
    ids=["C-n4-epp20", "F-n5-epp20", "B-n5-epp40", "C-n4-epp20-asyncio"],
)
def test_an_own_event_changes_nothing_a_run_shows_on_the_benchmark_cells(
    cell, streamed, monkeypatch
):
    run = _cell(*cell, seed=2015, budget=2, streamed=streamed)
    report, reference = own_event_and_reference(monkeypatch, run)
    assert report == reference


def _checked(entry, calls):
    """*entry*, checking after each call that ``views.waiting`` holds exactly
    the live views that wait, each under its outstanding token."""

    def call(self, *args):
        entry(self, *args)
        views = self.views
        waiting = sorted(map(id, views.waiting.values()))
        assert waiting == sorted(id(view) for view in views if view.is_waiting())
        assert all(view.outstanding_token == key for key, view in views.waiting.items())
        calls.append(bool(waiting))

    return call


@pytest.mark.parametrize("property_name", "ABCDEF")
def test_the_waiting_index_holds_the_live_views_that_wait(property_name, monkeypatch):
    calls = []
    for name in ENTRIES:
        entry = getattr(DecentralizedMonitor, name)
        monkeypatch.setattr(DecentralizedMonitor, name, _checked(entry, calls))
    for n, epp, seed, budget in GRID:
        _cell(property_name, n, epp, seed, budget)()
    assert any(calls) and not all(calls)
