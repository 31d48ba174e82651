#!/usr/bin/env python3
"""Quickstart: decentralized runtime verification of the paper's running example.

This script reproduces, end to end, the example that drives the paper's
exposition (Figures 2.1–2.3 and 3.1):

1. build the two-process distributed program of Fig. 2.1;
2. synthesise the LTL3 monitor automaton for
   ψ = G((x1 >= 5) -> ((x2 >= 15) U (x1 = 10)))   (Fig. 2.3);
3. run one decentralized monitor per process (tokens over simulated links
   that deliver at once) and compare the verdict set with the lattice
   oracle of Chapter 3.

Run with:  python examples/quickstart.py
"""

from repro.core import LatticeOracle
from repro.distributed import ComputationLattice, running_example, running_example_registry
from repro.ltl import build_monitor
from repro.scenarios import ReliableNetwork
from repro.sim import simulate_monitored_run

#: links that deliver at once: the untimed run, with no random numbers drawn
INSTANT = ReliableNetwork(latency=0.0, jitter=0.0)


def main() -> None:
    # --- the distributed program of Fig. 2.1 -------------------------------
    computation = running_example()
    print("Distributed program (Fig. 2.1):")
    for process in range(computation.num_processes):
        events = ", ".join(
            f"{e.kind.value}{dict(e.state)}" for e in computation.events_of(process)
        )
        print(f"  P{process + 1}: {events}")
    print(f"  events: {computation.num_events}, "
          f"consistent cuts: {len(computation.consistent_cuts())}")

    # --- the LTL3 monitor automaton of Fig. 2.3 ----------------------------
    registry = running_example_registry()
    psi = build_monitor("G({x1>=5} -> ({x2>=15} U {x1=10}))", atoms=registry.names)
    print("\nLTL3 monitor automaton (Fig. 2.3):")
    print(psi.describe())

    # --- the oracle of Chapter 3 -------------------------------------------
    oracle = LatticeOracle(computation, psi, registry).evaluate()
    print("\nOracle over the computation lattice (Fig. 3.1):")
    print(f"  lattice cuts:  {oracle.num_cuts}")
    print(f"  lattice paths: {ComputationLattice.from_computation(computation).count_paths()}")
    print(f"  verdicts over all paths: {sorted(str(v) for v in oracle.verdicts)}")

    # --- decentralized monitoring ------------------------------------------
    result = simulate_monitored_run(computation, psi, registry, network=INSTANT)
    print("\nDecentralized monitors (one per process):")
    print(f"  verdicts reported: {sorted(str(v) for v in result.reported_verdicts)}")
    print(f"  conclusive verdicts declared: "
          f"{sorted(str(v) for v in result.declared_verdicts)}")
    print(f"  monitoring messages exchanged: {result.monitor_messages} frames")
    print(f"  global views created: {result.total_global_views}")

    assert result.reported_verdicts == oracle.verdicts, "monitors disagree with oracle"
    print("\nThe decentralized verdict set matches the oracle: the monitors found "
          "both the violating interleavings (⊥) and the inconclusive one (?).")


if __name__ == "__main__":
    main()
