#!/usr/bin/env python3
"""Monitoring a two-phase-commit round for atomicity and progress.

A coordinator and several participants run one round of two-phase commit
(the substrate computation comes from ``repro.distributed.programs``).  Three
global LTL properties are monitored in a decentralized fashion:

* **Atomicity (safety)** — no participant commits before every participant
  has voted: ``G(committed_any -> voted_all)`` expressed per participant.
* **Progress (co-safety)** — eventually every process commits:
  ``F(committed_0 & committed_1 & ...)``.
* **Causality (ordering)** — the coordinator does not commit until all
  participants are prepared: ``(!C.committed) U (prepared_all)``.

The example also shows the message/memory trade-off against the centralized
baseline, which ships every event to a single monitor.
"""

from repro.core import CentralizedMonitor, LatticeOracle
from repro.distributed import two_phase_commit_example
from repro.ltl import Proposition, PropositionRegistry, build_monitor
from repro.scenarios import ReliableNetwork
from repro.sim import simulate_monitored_run

#: links that deliver at once: the untimed run, with no random numbers drawn
INSTANT = ReliableNetwork(latency=0.0, jitter=0.0)


def registry_for(num_processes: int) -> PropositionRegistry:
    propositions = []
    for process in range(num_processes):
        propositions.append(
            Proposition.variable(f"P{process}.committed", process, "committed")
        )
        propositions.append(
            Proposition.variable(f"P{process}.voted", process, "voted")
        )
        propositions.append(
            Proposition.comparison(
                f"P{process}.prepared", process, "phase", "==", "prepared"
            )
        )
    return PropositionRegistry(propositions)


def main() -> None:
    num_participants = 3
    computation = two_phase_commit_example(num_participants)
    n = computation.num_processes
    registry = registry_for(n)
    participants = range(1, n)

    voted_all = " & ".join(f"P{p}.voted" for p in participants)
    committed_all = " & ".join(f"P{p}.committed" for p in range(n))
    prepared_all = " & ".join(f"P{p}.prepared" for p in participants)
    committed_any = " | ".join(f"P{p}.committed" for p in participants)

    properties = {
        "atomicity  G(participant committed -> all voted)":
            f"G(({committed_any}) -> ({voted_all}))",
        "progress   F(everyone committed)":
            f"F({committed_all})",
        "ordering   (!coordinator committed) U (all prepared)":
            f"(!P0.committed) U ({prepared_all})",
    }

    print(f"Two-phase commit with 1 coordinator + {num_participants} participants "
          f"({computation.num_events} events)\n")
    for label, formula in properties.items():
        automaton = build_monitor(formula, atoms=registry.names)
        oracle = LatticeOracle(computation, automaton, registry).evaluate()
        decentralized = simulate_monitored_run(computation, automaton, registry, network=INSTANT)
        centralized = CentralizedMonitor.monitor_computation(
            computation, automaton, registry
        )
        assert decentralized.declared_verdicts == oracle.conclusive_verdicts
        print(f"{label}")
        print(f"   formula              : {formula}")
        print(f"   oracle verdicts      : {sorted(str(v) for v in oracle.verdicts)}")
        print(f"   decentralized        : verdicts "
              f"{sorted(str(v) for v in decentralized.reported_verdicts)}, "
              f"{decentralized.monitor_messages} messages (frames), "
              f"{decentralized.total_global_views} views")
        print(f"   centralized baseline : {centralized.messages} messages, "
              f"{centralized.tracked_cuts} tracked global states\n")

    print("The decentralized monitors declare the oracle's conclusive verdicts "
          "without a central process. On a round this short they send more "
          "messages than the centralized baseline, which ships every event to one "
          "monitor, but they keep a few global views where the baseline tracks "
          "every consistent global state.")


if __name__ == "__main__":
    main()
