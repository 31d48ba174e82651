"""The one routing rule, end to end over the case-study grid.

Properties A–F on 3, 4 and 5 processes (the paper-default workload, six
events per process, seed 2015), on the simulator and on the asyncio
streaming runtime:

* every message a monitor sends is a token or a termination notice, alone
  or in a frame, and each process's termination reaches every other
  monitor exactly once;
* every token goes directly to the lowest-index process it still needs;
* both backends declare the same verdicts, and the lattice oracle
  confirms them on every cell.
"""

from functools import cache, reduce
from operator import or_

import pytest

from repro.api import run_streaming
from repro.coordination.topology import RoundRobinToken
from repro.core.centralized import CentralizedMonitor
from repro.core.messages import TerminationNotice, Token
from repro.core.monitor import DecentralizedMonitor
from repro.experiments.engine import cell_inputs
from repro.scenarios import get_scenario
from repro.sim import SimulatedNetwork, simulate_monitored_run

PROPERTIES = "ABCDEF"
SIZES = (3, 4, 5)
GRID = [(p, n) for p in PROPERTIES for n in SIZES]
SEED = 2015


def _grid_id(cell):
    return f"{cell[0]}-n{cell[1]}"


@cache
def _inputs(property_name, num_processes):
    return cell_inputs(
        get_scenario("paper-default"),
        property_name,
        num_processes,
        events_per_process=6,
        evt_mu=3,
        evt_sigma=1,
        comm_mu=3,
        comm_sigma=1,
        seed=SEED,
    )


def _simulate(property_name, num_processes):
    return simulate_monitored_run(
        *_inputs(property_name, num_processes),
        seed=SEED,
        max_views_per_state=2,
        network=get_scenario("paper-default").network,
    )


def _stream(property_name, num_processes):
    return run_streaming(*_inputs(property_name, num_processes), max_views_per_state=2)


@cache
def _report(backend, property_name, num_processes):
    run = {"sim": _simulate, "asyncio": _stream}[backend]
    return run(property_name, num_processes)


@pytest.mark.parametrize("cell", GRID, ids=_grid_id)
@pytest.mark.parametrize("backend", ["sim", "asyncio"])
def test_every_message_is_a_token_or_a_termination_notice(backend, cell, monkeypatch):
    property_name, n = cell
    receive, notices = DecentralizedMonitor.receive_message, []

    def recording_receive(self, message):
        for part in message if isinstance(message, tuple) else (message,):
            assert isinstance(part, (Token, TerminationNotice))
            if isinstance(part, TerminationNotice):
                notices.append((part.process, self.process))
        receive(self, message)

    monkeypatch.setattr(DecentralizedMonitor, "receive_message", recording_receive)
    report = {"sim": _simulate, "asyncio": _stream}[backend](property_name, n)
    assert report.monitor_messages == report.token_messages + report.termination_messages
    assert report.monitor_messages == sum(m.metrics.messages_sent for m in report.monitors)
    assert report.digest_messages == 0
    # one notice from each process to each other monitor, none forwarded; a
    # notice that shares its frame with a token counts as a token message
    assert sorted(notices) == [(i, j) for i in range(n) for j in range(n) if i != j]
    assert report.termination_messages <= n * (n - 1)
    for monitor in report.monitors:
        metrics = monitor.metrics
        assert metrics.termination_messages_sent <= n - 1
        assert metrics.messages_sent == (
            metrics.token_messages_sent + metrics.termination_messages_sent
        )


@pytest.mark.parametrize("cell", GRID, ids=_grid_id)
def test_every_token_goes_directly_to_the_lowest_candidate(monkeypatch, cell):
    property_name, n = cell
    picks, hops = [], []
    pick_target, next_hop = RoundRobinToken.pick_target, RoundRobinToken.next_hop

    def recording_pick_target(self, current, candidates, token):
        target = pick_target(self, current, candidates, token)
        picks.append((current, list(candidates), target))
        return target

    def recording_next_hop(self, current, destination):
        hop = next_hop(self, current, destination)
        hops.append((current, destination, hop))
        return hop

    send, tokens = SimulatedNetwork.send, []

    def recording_send(self, sender, target, message):
        parts = message if isinstance(message, tuple) else (message,)
        tokens.extend((sender, target) for part in parts if isinstance(part, Token))
        send(self, sender, target, message)

    monkeypatch.setattr(RoundRobinToken, "pick_target", recording_pick_target)
    monkeypatch.setattr(RoundRobinToken, "next_hop", recording_next_hop)
    monkeypatch.setattr(SimulatedNetwork, "send", recording_send)
    report = _simulate(property_name, n)
    assert picks, "no token left its home"
    for current, candidates, target in picks:
        assert candidates == sorted(set(candidates))
        assert current not in candidates
        assert target == candidates[0]
    # every token is one direct send: no relay through a third monitor
    assert sorted((current, hop) for current, _, hop in hops) == sorted(tokens)
    assert len(tokens) >= report.token_messages  # tokens to one peer share a frame
    assert all(hop == destination != current for current, destination, hop in hops)


@pytest.mark.parametrize("cell", GRID, ids=_grid_id)
def test_sim_and_asyncio_declare_the_same_verdicts(cell):
    simulated = _report("sim", *cell)
    streamed = _report("asyncio", *cell)
    assert streamed.declared_verdicts == simulated.declared_verdicts
    assert reduce(or_, (m.declared_bits for m in streamed.monitors)) == reduce(
        or_, (m.declared_bits for m in simulated.monitors)
    )


@pytest.mark.parametrize("property_name", PROPERTIES)
def test_declared_verdicts_are_sound(property_name):
    for n in SIZES:
        oracle = CentralizedMonitor.monitor_computation_declared(*_inputs(property_name, n))
        for backend in ("sim", "asyncio"):
            assert _report(backend, property_name, n).declared_verdicts <= oracle, (backend, n)
