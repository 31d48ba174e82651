"""Capture round-robin-token byte-identity fixtures.

Records the complete observable output of fixed-seed decentralized runs —
verdicts, per-monitor counters and network-level totals — as a JSON
document under ``tests/coordination/fixtures/``.  Each cell is run twice on
the discrete-event simulator (``simulate_monitored_run``): the ``runner``
half over links that deliver at once with unbounded views, the ``sim`` half
over the paper-default network with two views per state.

The document was first generated on the pre-refactor ``DecentralizedMonitor``
(before the coordination-topology extraction).  It has been re-captured only
on purpose, each time with the same verdicts and the per-cell diffs in
CHANGES.md: when token routing changed (park, don't bounce; orphan
swallowing), when repairs stopped travelling (repair at home, the one
covering rule), when every search came to be answered from the columns its
monitor holds, when settled monitors stopped exploring, when the
``runner`` half moved from an untimed in-memory network to the simulator
over zero-latency links, and when a settled monitor stopped before its next
step rather than at its next merge.  It is asserted byte-for-byte by
``tests/coordination/test_round_robin_fixture.py``.

Re-run only when the *intended* behaviour of the routing changes::

    PYTHONPATH=src python tools/capture_topology_fixtures.py
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.experiments.engine import trace_design
from repro.experiments.properties import case_study_monitor, case_study_registry
from repro.scenarios import ReliableNetwork, get_scenario
from repro.session import RunReport
from repro.sim import generate_computation, simulate_monitored_run

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_PATH = (
    REPO_ROOT / "tests" / "coordination" / "fixtures" / "round_robin_token.json"
)

#: the fixed cells captured: (property, num_processes, seed)
CELLS = [
    ("B", 3, 2015),
    ("B", 4, 77),
    ("C", 3, 2015),
    ("C", 4, 77),
    ("E", 3, 5),
]


#: counters that observe the monitor without being part of its pinned
#: behaviour: they are left out so that adding one re-captures nothing
UNPINNED_COUNTERS = (
    "box_queries",
    "boxes_by_letter",
    "box_cells_visited",
    "views_evicted",
    "views_settled",
    "settled_on_news",
    "events_shipped",
    "token_hops_max",
    "orphan_tokens_swallowed",
    "answered_at_home",
    "least_cuts_remembered",
    "boxes_remembered",
    "parked_tokens_slept",
)


def _pinned_counters(monitor) -> dict:
    counters = asdict(monitor.metrics)
    for name in UNPINNED_COUNTERS:
        del counters[name]
    return counters


def build_cell_inputs(property_name: str, num_processes: int, seed: int):
    """The computation/automaton/registry of one paper-default cell."""
    scenario = get_scenario("paper-default")
    initial_valuation, truth_probability = trace_design(property_name)
    config = scenario.workload.build_config(
        num_processes=num_processes,
        events_per_process=5,
        evt_mu=3.0,
        evt_sigma=1.0,
        comm_mu=3.0,
        comm_sigma=1.0,
        truth_probability=truth_probability,
        initial_valuation=dict(initial_valuation),
        seed=seed,
    )
    computation = generate_computation(config)
    registry = case_study_registry(num_processes)
    automaton = case_study_monitor(property_name, num_processes)
    return computation, automaton, registry


def declared_states(report: RunReport) -> list[int]:
    """The conclusive states any monitor of the run declared, ascending."""
    bits = 0
    for monitor in report.monitors:
        bits |= monitor.declared_bits
    return [state for state in range(bits.bit_length()) if bits >> state & 1]


def runner_half(report: RunReport) -> dict:
    """The pinned outputs of an untimed run (the fixture's ``runner`` half)."""
    return {
        "summary": {
            "verdicts": sorted(str(v) for v in report.reported_verdicts),
            "declared": sorted(str(v) for v in report.declared_verdicts),
            "messages": report.monitor_messages,
            "token_messages": report.token_messages,
            "termination_messages": report.termination_messages,
            "views_created": report.total_global_views,
            "delayed_events": report.delayed_events,
        },
        "declared_states": declared_states(report),
        "network_messages": report.monitor_messages,
        "monitor_metrics": [_pinned_counters(m) for m in report.monitors],
        "token_hops": [m.metrics.token_hops_served for m in report.monitors],
    }


def capture_cell(property_name: str, num_processes: int, seed: int) -> dict:
    """Every observable output of one fixed-seed cell, JSON-serialisable."""
    computation, automaton, registry = build_cell_inputs(
        property_name, num_processes, seed
    )
    runner = runner_half(
        simulate_monitored_run(
            computation, automaton, registry, network=ReliableNetwork(latency=0.0, jitter=0.0)
        )
    )
    report = simulate_monitored_run(
        computation,
        automaton,
        registry,
        seed=seed,
        network=get_scenario("paper-default").network,
        max_views_per_state=2,
    )
    sim = {
        "as_dict": report.as_dict(),
        "declared": sorted(str(v) for v in report.declared_verdicts),
        "termination_messages": report.termination_messages,
        "monitor_metrics": [_pinned_counters(m) for m in report.monitors],
    }
    return {
        "property": property_name,
        "num_processes": num_processes,
        "seed": seed,
        "runner": runner,
        "sim": sim,
    }


def main() -> None:
    """Capture every cell and write the fixture document."""
    document = {
        "comment": (
            "round-robin-token outputs: runner = zero-latency simulator, "
            "unbounded views; sim = paper-default network, two views per "
            "state; regenerate with tools/capture_topology_fixtures.py"
        ),
        "cells": [capture_cell(*cell) for cell in CELLS],
    }
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE_PATH.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {FIXTURE_PATH} ({len(document['cells'])} cells)")


if __name__ == "__main__":
    main()
