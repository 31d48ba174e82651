"""One frame per (callback, peer): what a monitor sends one peer in one
callback travels as one transport message.

* **Deferring is exact.**  With a flush that sends every queued message on
  its own, in send order (:func:`_one_message_per_frame`), every cell of the
  grid — properties A–F, n ∈ {3, 4, 5}, 6, 20 and 40 events per process,
  seeds 2015 and 7, view budget 2 and none, less C and F at n = 5 with 40
  events — reproduces what the monitors did when they sent inline, before
  frames: every ``MonitorMetrics`` counter of every monitor, each verdict
  log, each declared bitset and the messages, pinned in
  ``fixtures/unframed_grid.json`` (captured by running this module).
* **Framing keeps the declarations.**  With real frames, each cell declares
  the verdicts and conclusive states the session declared before, while the
  messages fall in total.  Which monitor finds a verdict and which settles
  on the news of it follows the timing, and so does the count of a cell:
  on F n=4 epp=20 seed 7 it rises, 158 → 176 at both budgets.
* **One send per (callback, peer)**, on the simulator and on asyncio.
* **Bytes do not rise.**  Encoded with :mod:`repro.cluster.codec`, what the
  ``token-heavy``, ``box-heavy`` and ``long-trace`` cells send is no more
  wire bytes per event than the same messages one frame each.
* **A frame is refused whole** when one of its parts does not fit.
"""

import dataclasses
import hashlib
import json
import sys
from functools import reduce
from itertools import count
from operator import or_
from pathlib import Path

import pytest

from repro.api import run_streaming
from repro.cluster import codec
from repro.core.messages import TerminationNotice, Token
from repro.core.monitor import DecentralizedMonitor
from repro.core.tokens import Tokens
from repro.experiments.engine import cell_inputs
from repro.runtime.transport import StreamTransport
from repro.scenarios import get_scenario
from repro.sim import SimulatedNetwork, simulate_monitored_run

FIXTURE = Path(__file__).with_name("fixtures") / "unframed_grid.json"

#: (property, processes, events per process, seed, view budget)
GRID = [
    (p, n, epp, seed, budget)
    for p in "ABCDEF"
    for n in (3, 4, 5)
    for epp in (6, 20, 40)
    for seed in (2015, 7)
    for budget in (2, None)
    if not (p in "CF" and n == 5 and epp == 40)
]
#: the cells whose messages rise under framing (reported, not re-seeded)
RISING = {("F", 4, 20, 7, 2), ("F", 4, 20, 7, None)}


def _one_message_per_frame(self, transport):
    """The reference flush: every queued message on its own, in send order,
    counted as it was before frames."""
    outbox, self.outbox = self.outbox, []
    for target, message in outbox:
        if isinstance(message, Token):
            self.metrics.token_messages_sent += 1
        else:
            self.metrics.termination_messages_sent += 1
        transport.send(self.process, target, message)


def _run(cell):
    """One paper-default cell on the simulator."""
    name, n, epp, seed, budget = cell
    scenario = get_scenario("paper-default")
    inputs = cell_inputs(
        scenario, name, n, events_per_process=epp,
        evt_mu=3, evt_sigma=1, comm_mu=3, comm_sigma=1, seed=seed,
    )
    return simulate_monitored_run(
        *inputs, seed=seed, max_views_per_state=budget, network=scenario.network
    )


def _digest(report):
    """Everything the monitors of a run show, hashed."""
    shown = [
        [dataclasses.asdict(monitor.metrics) for monitor in report.monitors],
        [[str(verdict) for verdict in monitor.verdict_log] for monitor in report.monitors],
        [monitor.declared_bits for monitor in report.monitors],
        report.monitor_messages,
    ]
    return hashlib.sha256(json.dumps(shown, sort_keys=True).encode()).hexdigest()


def _declarations(report):
    """What the session declared: its verdicts, and its conclusive states."""
    return (
        sorted(str(verdict) for verdict in report.declared_verdicts),
        reduce(or_, (monitor.declared_bits for monitor in report.monitors)),
    )


def _unframed_grid(cells=GRID):
    """Per cell, what the monitors show with one message per frame."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(Tokens, "flush", _one_message_per_frame)
        reports = {cell: _run(cell) for cell in cells}
    return {
        cell: (_digest(report), report.monitor_messages, _declarations(report))
        for cell, report in reports.items()
    }


def _pinned():
    document = json.loads(FIXTURE.read_text(encoding="utf-8"))
    return {
        tuple(record["cell"]): (
            record["digest"], record["messages"], (record["declared"], record["bits"])
        )
        for record in document["cells"]
    }


def compare(cells):
    """Unframed against framed on *cells*: the cells whose declarations
    differ, the total messages of each, and the cells whose messages rose."""
    unframed = _unframed_grid(cells)
    differ, framed_total, rose = [], 0, set()
    for cell in cells:
        report = _run(cell)
        _, messages, declarations = unframed[cell]
        if _declarations(report) != declarations:
            differ.append(cell)
        framed_total += report.monitor_messages
        if report.monitor_messages > messages:
            rose.add(cell)
    return differ, sum(record[1] for record in unframed.values()), framed_total, rose


def test_one_message_per_frame_reproduces_the_inline_sends_on_the_grid():
    pinned = _pinned()
    assert set(pinned) == set(GRID)
    unframed = _unframed_grid()
    assert [cell for cell in GRID if unframed[cell][0] != pinned[cell][0]] == []


def test_frames_keep_the_declarations_while_the_messages_fall_on_the_grid():
    pinned = _pinned()
    framed = {cell: _run(cell) for cell in GRID}
    assert [c for c in GRID if _declarations(framed[c]) != pinned[c][2]] == []
    before = sum(record[1] for record in pinned.values())
    after = sum(report.monitor_messages for report in framed.values())
    assert (before, after) == (24_039, 21_622)
    rose = {c for c in GRID if framed[c].monitor_messages > pinned[c][1]}
    assert rose == RISING
    fell = [c for c in GRID if framed[c].monitor_messages < pinned[c][1]]
    assert len(fell) == 202


def _sends_per_callback(monkeypatch, transport_class):
    """Patch every entry point to number its callback and *transport_class*
    to record ``(callback, sender, target)`` per send; returns the record."""
    sends, callback, numbers = [], [0], count(1)
    for name in ("start", "local_event", "local_termination", "receive_message"):
        entry = getattr(DecentralizedMonitor, name)

        def numbered(self, *args, entry=entry):
            outer, callback[0] = callback[0], next(numbers)
            entry(self, *args)
            callback[0] = outer  # a nested start() is a callback of its own

        monkeypatch.setattr(DecentralizedMonitor, name, numbered)
    send = transport_class.send

    def recording(self, sender, target, message):
        sends.append((callback[0], sender, target))
        send(self, sender, target, message)

    monkeypatch.setattr(transport_class, "send", recording)
    return sends


@pytest.mark.parametrize("streamed", [False, True], ids=["sim", "asyncio"])
def test_a_callback_sends_each_peer_at_most_one_message(monkeypatch, streamed):
    scenario = get_scenario("paper-default")
    transport = StreamTransport if streamed else SimulatedNetwork
    sends = _sends_per_callback(monkeypatch, transport)
    framed = 0
    for name, n in (("B", 4), ("E", 4), ("C", 3)):
        inputs = cell_inputs(
            scenario, name, n, events_per_process=20,
            evt_mu=3, evt_sigma=1, comm_mu=3, comm_sigma=1, seed=2015,
        )
        if streamed:
            delay = scenario.network.delay_model(2015)
            report = run_streaming(*inputs, delay=delay, max_views_per_state=2)
        else:
            report = simulate_monitored_run(
                *inputs, seed=2015, max_views_per_state=2, network=scenario.network
            )
        framed += report.monitor_messages
    assert len(sends) == framed == len(set(sends))


#: the sim cells of three workloads of ``perf/``: token-heavy, box-heavy, long-trace
_WORKLOAD_CELLS = {
    "token-heavy": [("C", 4, 20, 2015)],
    "box-heavy": [("F", 4, 4, 2015), ("F", 4, 4, 2046), ("F", 4, 5, 2015)],
    "long-trace": [("B", 5, 40, 2015)],
}


def _wire_bytes_per_event(monkeypatch, cells, flush):
    """Wire bytes per event of *cells*: every transport message encoded once."""
    sent = [0]
    send = SimulatedNetwork.send

    def encoding(self, sender, target, message):
        sent[0] += len(codec.encode_wire(0.0, message))
        send(self, sender, target, message)

    events = 0
    with monkeypatch.context() as patched:
        patched.setattr(SimulatedNetwork, "send", encoding)
        if flush is not None:
            patched.setattr(Tokens, "flush", flush)
        for name, n, epp, seed in cells:
            events += _run((name, n, epp, seed, 2)).total_events
    return sent[0] / events


@pytest.mark.parametrize("workload", sorted(_WORKLOAD_CELLS))
def test_frames_send_no_more_bytes_than_one_message_per_frame(monkeypatch, workload):
    cells = _WORKLOAD_CELLS[workload]
    framed = _wire_bytes_per_event(monkeypatch, cells, None)
    alone = _wire_bytes_per_event(monkeypatch, cells, _one_message_per_frame)
    assert framed <= alone


def test_a_frame_with_a_part_that_does_not_fit_is_refused_whole():
    report = _run(("C", 3, 6, 2015, 2))
    monitor = report.monitors[0]
    before = dict(monitor.terminated), monitor.metrics.token_hops_served
    wide = Token(parent_process=1, entries=[], known=[0] * 4)
    for bad in (wide, "not a message", (TerminationNotice(1, 2),)):
        with pytest.raises((TypeError, ValueError)):
            monitor.receive_message((TerminationNotice(1, 2), bad))
    assert (dict(monitor.terminated), monitor.metrics.token_hops_served) == before


if __name__ == "__main__":
    # re-capture the fixture (only when what the monitors do changes on purpose)
    records = [
        {"cell": list(cell), "digest": digest, "messages": messages,
         "declared": declared, "bits": bits}
        for cell, (digest, messages, (declared, bits)) in _unframed_grid().items()
    ]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"cells": records}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE} ({len(records)} cells)", file=sys.stderr)
