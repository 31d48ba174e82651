#!/usr/bin/env python3
"""Monitoring a simulated drone swarm for mission-safety LTL properties.

The paper motivates decentralized monitoring with swarms of robots or drones
(search & rescue, traffic monitoring, agriculture, inspection).  This example
simulates a small swarm in which every drone periodically updates two local
flags —

* ``armed``    : the drone's failsafe is armed;
* ``on_station``: the drone reached its assigned station;

— and exchanges heartbeat messages with its peers.  Two global properties are
monitored in a fully decentralized fashion (one monitor per drone, no global
clock, token messages only):

* **Safety**  ``G(armed_0 & armed_1 & ... )`` — no drone ever flies with its
  failsafe disarmed.
* **Mission** ``F(on_station_0 & on_station_1 & ...)`` — eventually all
  drones are on station at the same (consistent) global instant.

Run with:  python examples/swarm_coordination.py [num_drones]
"""

import sys

from repro.core import LatticeOracle
from repro.distributed import ComputationBuilder
from repro.ltl import Proposition, PropositionRegistry, build_monitor
from repro.scenarios import ReliableNetwork
from repro.sim import simulate_monitored_run

#: links that deliver at once: the untimed run, with no random numbers drawn
INSTANT = ReliableNetwork(latency=0.0, jitter=0.0)


def build_swarm_mission(num_drones: int, disarm_glitch: bool):
    """One mission: drones take off, reach their stations, send heartbeats.

    With ``disarm_glitch`` drone 1 momentarily disarms mid-flight while the
    others are mid-manoeuvre — a bug that only some interleavings expose.
    """
    initial = [
        {"armed": True, "on_station": False} for _ in range(num_drones)
    ]
    builder = ComputationBuilder(initial)
    message_id = 0

    # phase 1: every drone climbs and reports a heartbeat to its right peer
    for drone in range(num_drones):
        builder.internal(drone, {"armed": True})
        message_id += 1
        builder.send(drone, to=(drone + 1) % num_drones, message_id=message_id)
    for drone in range(num_drones):
        left = (drone - 1) % num_drones
        builder.receive(drone, frm=left, message_id=left + 1)

    # phase 2: the glitch (if any), concurrent with the others' manoeuvres
    if disarm_glitch:
        builder.internal(1, {"armed": False})
        builder.internal(1, {"armed": True})

    # phase 3: drones reach their stations one after the other
    for drone in range(num_drones):
        builder.internal(drone, {"on_station": True})
    return builder.build()


def registry_for(num_drones: int) -> PropositionRegistry:
    propositions = []
    for drone in range(num_drones):
        propositions.append(Proposition.variable(f"D{drone}.armed", drone, "armed"))
        propositions.append(
            Proposition.variable(f"D{drone}.on_station", drone, "on_station")
        )
    return PropositionRegistry(propositions)


def monitor_mission(num_drones: int, disarm_glitch: bool) -> None:
    computation = build_swarm_mission(num_drones, disarm_glitch)
    registry = registry_for(num_drones)
    armed = " & ".join(f"D{d}.armed" for d in range(num_drones))
    stationed = " & ".join(f"D{d}.on_station" for d in range(num_drones))
    safety = build_monitor(f"G({armed})", atoms=registry.names)
    mission = build_monitor(f"F({stationed})", atoms=registry.names)

    label = "with a disarm glitch" if disarm_glitch else "nominal"
    print(f"\n=== Mission {label} ({num_drones} drones, "
          f"{computation.num_events} events) ===")
    for name, automaton in (("safety  G(all armed)", safety),
                            ("mission F(all on station)", mission)):
        oracle = LatticeOracle(computation, automaton, registry).evaluate()
        result = simulate_monitored_run(computation, automaton, registry, network=INSTANT)
        print(f"  {name}:")
        print(f"    oracle verdicts        : {sorted(str(v) for v in oracle.verdicts)}")
        print(f"    decentralized verdicts : "
              f"{sorted(str(v) for v in result.reported_verdicts)}")
        print(f"    monitoring messages    : {result.monitor_messages} frames, "
              f"global views: {result.total_global_views}")
        assert result.declared_verdicts == oracle.conclusive_verdicts


def main() -> None:
    num_drones = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    monitor_mission(num_drones, disarm_glitch=False)
    monitor_mission(num_drones, disarm_glitch=True)
    print("\nIn the glitched mission the safety property is violated only on the "
          "interleavings where the disarm overlaps the peers' manoeuvres — the "
          "decentralized monitors still catch it, without any global clock.")


if __name__ == "__main__":
    main()
