"""A parked token sleeps through own events that cannot move it.

The reference is the token layer's (``tests/core/references.py``): no
parked token sleeps — after every own event every parked token is served
again — and no least cut is remembered.  Sleeping must change nothing a run
shows — every ``MonitorMetrics`` counter except the two of those memories,
each monitor's verdict log and declared states, and the messages:

* on the paper-default grid: properties A–F, n ∈ {3, 4}, 6 and 20 events per
  process, seeds 2015, 7 and 77, view budget 2;
* on A n=4 epp=20 and F n=4 epp=6, seed 77, without a budget: cells where an
  entry parked here still marks another process in ``waiting_for``, which
  the first own move clears;
* on D n=5 epp=20, seed 1, budget 2, where entries of one parked token ask
  different ``depend[k]`` of one peer;
* on the three curve cells of CI's perf-smoke job (seed 2015, budget 2), and
  streamed through asyncio's in-memory transport on wire-tcp's cell and on
  token-heavy's;
* on three monitors by hand, where an own event's clock asks an entry for
  more of a process that has ended (no cell of the grid has one), of a
  live process whose column here ends at the entry's cut (only that
  process can answer: the token sleeps), and of one whose column here
  holds more (the token wakes and walks it here);
* on fuzz point 133 of seed 7, whose duplicated and replayed Byzantine
  copies of one token (one ``token_id``) park at one monitor at different
  times: a token is woken by what grew since *it* was parked.

``Tokens.sleeps`` reads the wake record made when the token parked, kept
beside it in ``Tokens.waiting``; the sleep answers are recorded
(:func:`_recording_sleeps`), so that a test can ask that a token was asked,
and what it answered.
"""

import dataclasses

import pytest
from references import reference_tokens, without_memories
from test_token_lifecycle import _parked, _System

from repro.api import run_streaming
from repro.cluster.spec import build_cell_inputs
from repro.core.tokens import Tokens
from repro.distributed.clocks import VectorClock
from repro.distributed.events import Event, EventKind
from repro.experiments.engine import cell_inputs
from repro.fuzz.engine import _SIM_EVENT_BUDGET, generate_point
from repro.scenarios import get_scenario
from repro.sim import simulate_monitored_run


def _recording_sleeps(patched, answers, only=None):
    """Patch the token layer so that every sleep answer (:meth:`Tokens.sleeps`,
    asked of each parked token's wake record on an own event) is appended to
    *answers* (*only*: of that one record)."""
    sleeps = Tokens.sleeps

    def recorded(self, record):
        answer = sleeps(self, record)
        if only is None or record is only:
            answers.append(answer)
        return answer

    patched.setattr(Tokens, "sleeps", recorded)


def _observed(report, slept=False):
    """What a run shows, less the count of tokens that slept (unless *slept*)."""
    counters = [dataclasses.asdict(monitor.metrics) for monitor in report.monitors]
    for record in counters if not slept else ():
        del record["parked_tokens_slept"]
    return (
        counters,
        [monitor.verdict_log for monitor in report.monitors],
        [monitor.declared_bits for monitor in report.monitors],
        (report.monitor_messages, report.token_messages, report.termination_messages),
    )


def _sleeping_and_reference(monkeypatch, run, answers=None):
    """``run()`` as the monitor is and under the reference token layer
    (:func:`references.reference_tokens`); returns the two observations, less
    the memory counters, and the tokens that slept.  With a list *answers*,
    the first run appends to it every sleep answer (:func:`_recording_sleeps`)."""
    with monkeypatch.context() as patched:
        if answers is not None:
            _recording_sleeps(patched, answers)
        report = run()
    with monkeypatch.context() as patched:
        reference_tokens(patched)
        reference = run()
    assert reference.metrics.parked_tokens_slept == 0
    return (
        without_memories(_observed(report, slept=True)),
        without_memories(_observed(reference, slept=True)),
        report.metrics.parked_tokens_slept,
    )


def _cell(property_name, n, epp, seed, budget, streamed=False):
    """One paper-default cell, on the simulator or streamed through asyncio."""
    scenario = get_scenario("paper-default")
    inputs = cell_inputs(
        scenario, property_name, n, events_per_process=epp,
        evt_mu=3, evt_sigma=1, comm_mu=3, comm_sigma=1, seed=seed,
    )
    if streamed:
        delay = scenario.network.delay_model(seed)
        return lambda: run_streaming(*inputs, delay=delay, max_views_per_state=budget)
    return lambda: simulate_monitored_run(
        *inputs, seed=seed, max_views_per_state=budget, network=scenario.network
    )


@pytest.mark.parametrize("property_name", "ABCDEF")
def test_sleeping_changes_nothing_on_the_grid(property_name, monkeypatch):
    slept, answers = 0, []
    for n in (3, 4):
        for epp in (6, 20):
            for seed in (2015, 7, 77):
                run = _cell(property_name, n, epp, seed, budget=2)
                report, reference, count = _sleeping_and_reference(monkeypatch, run, answers)
                assert report == reference, (n, epp, seed)
                slept += count
    assert slept > 0
    assert sum(answers) >= slept  # every token that slept was asked


@pytest.mark.parametrize(
    "cell, streamed",
    [
        # the curve cells: token-heavy's, C n=4 epp=20, and long-trace's, B n=5 epp=40
        (("C", 4, 20), False),
        (("F", 5, 20), False),
        (("B", 5, 40), False),
        # on asyncio's in-memory transport: wire-tcp's cell, and token-heavy's
        (("B", 4, 18), True),
        (("C", 4, 20), True),
    ],
    ids=["C-n4-epp20", "F-n5-epp20", "B-n5-epp40", "B-n4-epp18-asyncio", "C-n4-epp20-asyncio"],
)
def test_sleeping_changes_nothing_on_the_benchmark_cells(cell, streamed, monkeypatch):
    run = _cell(*cell, seed=2015, budget=2, streamed=streamed)
    answers = []
    report, reference, slept = _sleeping_and_reference(monkeypatch, run, answers)
    assert report == reference
    assert slept > 0
    assert set(answers) == {True, False}


@pytest.mark.parametrize("property_name, epp", [("A", 20), ("F", 6)])
def test_a_mark_on_another_process_wakes_the_token(property_name, epp, monkeypatch):
    run = _cell(property_name, 4, epp, seed=77, budget=None)
    answers = []
    report, reference, slept = _sleeping_and_reference(monkeypatch, run, answers)
    assert report == reference
    assert slept > 0


def test_the_least_depend_of_the_entries_is_the_limit(monkeypatch):
    # entries of one token parked here ask different depend[k] of one peer:
    # a record that kept the largest sleeps through one own event the
    # entry-by-entry test wakes on (no cell of the grid has such a pair)
    run = _cell("D", 5, 20, seed=1, budget=2)
    answers = []
    report, reference, slept = _sleeping_and_reference(monkeypatch, run, answers)
    assert report == reference
    assert slept > 0


def _ended_sender_scenario():
    """Three monitors of ``F(P0.p & P1.p & P2.p)``: the tokens of P2 and P0
    park at P1; P2 drops its ``p`` in a send to P1 and ends; P1 receives.
    Returns the system, P0's token and its route up to the receive."""
    system = _System()
    system.event(2, True)
    system.event(0, True)
    p1 = system.monitors[1]
    (token,) = [t for t in _parked(p1) if t.parent_process == 0]
    system.monitors[2].local_event(
        Event(2, 2, EventKind.SEND, VectorClock([0, 0, 2]), {"p": False}, peer=1)
    )
    system.simulator.run()
    system.terminate(2)
    assert token in _parked(p1)  # P2's event 1 is all the entry needs of P2
    route = system.route(token)
    p1.local_event(Event(1, 1, EventKind.RECEIVE, VectorClock([0, 1, 2]), {"p": False}, peer=2))
    system.simulator.run()
    return system, token, route


def _event(system, process, sn, kind, clock, p=False, peer=None):
    """One event of *process* (``p`` and its vector clock given); run the network."""
    system.monitors[process].local_event(
        Event(process, sn, kind, VectorClock(clock), {"p": p}, peer=peer)
    )
    system.simulator.run()


def _live_sender_scenario(brought, verdicts):
    """Three monitors of ``F(P0.p & P1.p & P2.p)``: the tokens of P2 and P0
    park at P1; P2 drops its ``p`` in a send to P1 and stays live; P1
    receives it, then raises ``p``, then P2 does, and all end.  With
    *brought*, P2 first tells P0 (its event 3), P0 tells P1, and P1's repair
    token for that receive brings P2's events, the send among them, into
    P1's column before the send is received.  *verdicts* collects, per own
    event of P1, what ``Tokens.sleeps`` says of the wake record P0's token
    parked with (:func:`_recording_sleeps`).  Returns the system,
    P0's token, P1's ``parked_tokens_slept`` just before the receive and,
    just after it, the token's route and its entry's cut and ``depend``."""
    system = _System()
    system.event(2, True)
    system.event(0, True)
    p1 = system.monitors[1]
    ((token, record),) = [pair for pair in p1.tokens.waiting if pair[0].parent_process == 0]
    with pytest.MonkeyPatch.context() as patched:
        _recording_sleeps(patched, verdicts, only=record)
        _event(system, 2, 2, EventKind.SEND, [0, 0, 2], peer=1)
        sent = [0, 0, 2]
        if brought:
            _event(system, 2, 3, EventKind.SEND, [0, 0, 3], peer=0)
            _event(system, 0, 2, EventKind.RECEIVE, [2, 0, 3], peer=2)
            _event(system, 0, 3, EventKind.SEND, [3, 0, 3], peer=1)
            _event(system, 1, 1, EventKind.RECEIVE, [3, 1, 3], peer=0)
            sent = [3, 1, 3]
        slept = p1.metrics.parked_tokens_slept
        sn = len(p1.columns.vcs[1])
        _event(system, 1, sn, EventKind.RECEIVE, [sent[0], sn, sent[2]], peer=2)
        receipt = system.route(token), list(token.entries[0].cut), list(token.entries[0].depend)
        _event(system, 1, sn + 1, EventKind.INTERNAL, [sent[0], sn + 1, sent[2]], p=True)
        end = len(system.monitors[2].columns.vcs[2])
        _event(system, 2, end, EventKind.INTERNAL, [0, 0, end], p=True)
        for process in range(3):
            system.terminate(process)
    system.assert_quiescent()
    return system, token, slept, receipt


def test_a_clock_only_a_live_peer_can_answer_lets_the_token_sleep(monkeypatch):
    verdicts = []
    system, token, slept, (route, cut, depend) = _live_sender_scenario(False, verdicts)
    p1 = system.monitors[1]
    # the receive asks for P2's event 2, which P1's column does not hold and
    # only M2 can give: a serve here would walk P1's column and park again
    assert verdicts[0] is True
    assert route == [(0, 1)]
    assert cut == [1, 0, 0] and depend == [1, 0, 0]  # stale until the wake
    assert p1.metrics.parked_tokens_slept == slept + 2  # P2's token sleeps too
    # P1's p wakes it; the walk folds the receive's clock and goes to P2
    assert system.route(token)[:2] == [(0, 1), (1, 2)]
    assert [entry.eval for entry in token.entries] == [True]
    with monkeypatch.context() as patched:
        reference_tokens(patched)
        reference, _, _, _ = _live_sender_scenario(False, [])
    assert _hops(system) == _hops(reference)


def test_a_clock_the_column_here_answers_wakes_the_token(monkeypatch):
    verdicts = []
    system, token, slept, (route, cut, depend) = _live_sender_scenario(True, verdicts)
    p1 = system.monitors[1]
    # at P0's message the columns here still end at the entry's cut: it
    # sleeps; at P2's send, column 2 holds P2's events to 3 (the repair
    # token brought them): it wakes and walks P2's component here
    assert verdicts[:2] == [True, False]
    assert p1.metrics.parked_tokens_slept == slept
    assert route == [(0, 1)]
    assert cut == [3, 2, 3] and depend == [3, 2, 3]
    # P0 dropped its p at events 2 and 3 and ends without raising it
    assert [entry.eval for entry in token.entries] == [False]
    with monkeypatch.context() as patched:
        reference_tokens(patched)
        reference, _, _, _ = _live_sender_scenario(True, [])
    assert _hops(system) == _hops(reference)


def _hops(system):
    """Every token hop, tokens numbered by their first hop (ids are global)."""
    number = {}
    return [
        (number.setdefault(token_id, len(number)), *hop)
        for token_id, *hop in system.network.routes
    ]


def test_a_clock_that_asks_more_of_an_ended_process_wakes_the_token(monkeypatch):
    system, token, route = _ended_sender_scenario()
    # the receive's clock asks for P2's event 2, which only M2 holds, and M2
    # settles the entry there: P2 has ended with p false
    assert token not in _parked(system.monitors[1])
    assert system.route(token) == [*route, (1, 2), (2, 0)]
    assert [entry.eval for entry in token.entries] == [False]
    with monkeypatch.context() as patched:
        reference_tokens(patched)
        reference, _, _ = _ended_sender_scenario()
    assert _hops(system) == _hops(reference)


def test_copies_of_one_token_are_woken_one_by_one(monkeypatch):
    spec = generate_point(7, 133)
    plan = spec.faults()
    assert any(b.duplicate_every or b.replay_every for b in plan.byzantine)
    computation, automaton, registry = build_cell_inputs(spec)

    def run():
        return simulate_monitored_run(
            computation, automaton, registry, seed=spec.seed,
            max_views_per_state=spec.max_views_per_state,
            network=get_scenario(spec.scenario).network,
            faults=plan, max_sim_events=_SIM_EVENT_BUDGET,
        )

    report, reference, slept = _sleeping_and_reference(monkeypatch, run)
    assert report == reference
    assert slept > 0
