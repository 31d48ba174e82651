"""Regression tests for the message/hop counter bugfixes.

Three accounting bugs were fixed together; each gets a pinned regression
here:

1. **Hop ordering** — a completed token returning to its parent view was
   counted as a served hop (``token.hops`` and
   ``MonitorMetrics.token_hops_served`` incremented before the
   returning-home check).  The parent *consumes* the token; it serves no
   hop.
2. **Runner counter consistency** — an untimed ``RunReport`` carries one
   counter set: the network-level total (``monitor_messages``) equals the
   per-monitor sum and decomposes exactly as token + termination
   messages.
3. **Centralized accounting** — the centralized baseline counts its
   verdict broadcasts separately from observation deliveries, keeping
   ``messages`` backward-compatible while ``total_messages`` is the
   baseline a decentralized run's total compares to.
"""

from repro.core.centralized import CentralizedMonitor
from repro.core.messages import Token, TokenEntry
from repro.core.monitor import DecentralizedMonitor
from repro.experiments.properties import case_study_registry
from repro.ltl import build_monitor
from repro.scenarios import ReliableNetwork
from repro.sim import SimulatedNetwork, Simulator, random_computation, simulate_monitored_run

#: links that deliver at once: the untimed run
INSTANT = ReliableNetwork(latency=0.0, jitter=0.0)


def _monitor_pair():
    registry = case_study_registry(2)
    automaton = build_monitor("F(P0.p & P1.p)", atoms=registry.names)
    network = SimulatedNetwork(Simulator(), INSTANT.delay_model(0))
    initial_letters = [frozenset(), frozenset()]
    monitors = [
        DecentralizedMonitor(
            process=i,
            num_processes=2,
            automaton=automaton,
            registry=registry,
            initial_letters=initial_letters,
            transport=network,
        )
        for i in range(2)
    ]
    for i, monitor in enumerate(monitors):
        network.register(i, monitor)
    return monitors, network


def _decided_token(parent_process):
    entry = TokenEntry(
        transition_id=1,
        bits=((0, 0), (0, 0)),
        start_cut=[0, 0],
        cut=[0, 0],
        depend=[0, 0],
        min_positions=[0, 0],
        satisfied=[True, True],
        eval=True,
    )
    return Token(
        parent_process=parent_process,
        entries=[entry],
        known=[0, 0],
    )


class TestHopCounterOrdering:
    def test_completed_token_returning_home_serves_no_hop(self):
        monitors, _ = _monitor_pair()
        token = _decided_token(parent_process=0)
        monitors[0].receive_message(token)
        # the parent consumed the token: no hop served, none recorded
        assert token.hops == 0
        assert monitors[0].metrics.token_hops_served == 0

    def test_completed_token_at_a_non_parent_still_serves_a_hop(self):
        monitors, _ = _monitor_pair()
        token = _decided_token(parent_process=1)
        monitors[0].receive_message(token)
        # a foreign monitor re-serves even a decided token (to send it home)
        assert token.hops == 1
        assert monitors[0].metrics.token_hops_served == 1


class TestRunnerCounterConsistency:
    def test_one_consistent_counter_set(self):
        registry = case_study_registry(3)
        automaton = build_monitor("F(P0.p & P1.p)", atoms=registry.names)
        computation = random_computation(3, 12, seed=7)
        result = simulate_monitored_run(
            computation, automaton, registry, max_views_per_state=2, network=INSTANT
        )
        assert result.monitor_messages == sum(m.metrics.messages_sent for m in result.monitors)
        assert result.monitor_messages == result.token_messages + result.termination_messages
        assert result.digest_messages == 0
        summary = result.as_dict()
        assert summary["messages"] == result.monitor_messages
        assert summary["token_messages"] == result.token_messages

    def test_monitor_metrics_decompose_per_monitor_too(self):
        registry = case_study_registry(3)
        automaton = build_monitor("F(P0.p & P1.p)", atoms=registry.names)
        computation = random_computation(3, 10, seed=3)
        result = simulate_monitored_run(
            computation, automaton, registry, max_views_per_state=2, network=INSTANT
        )
        for metrics in (m.metrics for m in result.monitors):
            assert metrics.messages_sent == (
                metrics.token_messages_sent + metrics.termination_messages_sent
            )


class TestCentralizedVerdictAccounting:
    def test_tautology_broadcasts_once_per_process(self):
        registry = case_study_registry(3)
        automaton = build_monitor("F(P0.p | !P0.p)", atoms=registry.names)
        computation = random_computation(3, 5, seed=1)
        result = CentralizedMonitor.monitor_computation(
            computation, automaton, registry
        )
        # exactly one conclusive verdict (⊤), announced to all 3 processes
        assert result.verdict_broadcast_messages == 3
        assert result.messages == computation.num_events
        assert result.total_messages == result.messages + 3

    def test_inconclusive_run_broadcasts_nothing(self):
        registry = case_study_registry(2)
        automaton = build_monitor("G(F(P0.p))", atoms=registry.names)
        computation = random_computation(2, 4, seed=2)
        result = CentralizedMonitor.monitor_computation(
            computation, automaton, registry
        )
        # G(F p) never reaches a conclusive verdict on a finite prefix
        assert result.verdict_broadcast_messages == 0
        assert result.total_messages == result.messages

    def test_broadcasts_count_distinct_verdicts_not_redeclarations(self):
        registry = case_study_registry(2)
        automaton = build_monitor("F(P0.p)", atoms=registry.names)
        # plenty of events: once ⊤ is declared, later cuts re-reach the
        # verdict but must not re-broadcast it
        computation = random_computation(2, 20, seed=11)
        result = CentralizedMonitor.monitor_computation(
            computation, automaton, registry
        )
        assert result.verdict_broadcast_messages in (0, 2)
