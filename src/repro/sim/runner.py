"""Simulated monitored runs: programs + monitors + network, with time.

:func:`simulate_monitored_run` is the discrete-event driver of a
:class:`repro.session.MonitorSession`: it plays a finished computation on
the :class:`~repro.sim.engine.Simulator` — every monitor starts at time
zero, each program event fires at its recorded timestamp and is handed to
the local monitor, termination signals are issued just after each process's
last event — while monitoring messages travel through a
:class:`SimulatedNetwork` over one run of the network
condition (see :mod:`repro.core.delays`).  The returned
:class:`repro.session.RunReport` carries exactly the metrics reported in
Chapter 5:

* total monitoring messages (Figures 5.4, 5.5, 5.9a);
* delay-time percentage per global state (Figure 5.6);
* delayed (queued) events (Figure 5.7);
* total global views created (Figure 5.8).
"""

from __future__ import annotations

from functools import partial

from ..core.delays import NetworkModel, ReliableNetwork
from ..distributed.computation import Computation
from ..faults import FaultPlan
from ..ltl.monitor import MonitorAutomaton
from ..ltl.predicates import PropositionRegistry
from ..session import EVENT, MonitorSession, RunReport
from .engine import Simulator
from .network import SimulatedNetwork

__all__ = ["simulate_monitored_run"]


def simulate_monitored_run(
    computation: Computation,
    automaton: MonitorAutomaton,
    registry: PropositionRegistry,
    seed: int | None = None,
    max_views_per_state: int | None = None,
    network: NetworkModel | None = None,
    faults: FaultPlan | None = None,
    max_sim_events: int | None = None,
) -> RunReport:
    """Replay *computation* under decentralized monitoring with network latency.

    With *network* set (a network condition — anything with
    ``delay_model(seed)``) the monitors communicate under that condition;
    otherwise over the paper's testbed, :class:`ReliableNetwork` (gaussian
    latency 0.05, jitter 0.01).  With *faults* set (a
    :class:`repro.faults.FaultPlan`) monitors named by the plan are wrapped
    in crash/restart proxies; a no-op plan takes the exact fault-free code
    path, so its outputs are byte-identical to ``faults=None``.  With
    *max_sim_events* set, the simulator raises
    :class:`repro.sim.SimulationBudgetExceeded` after that many scheduled
    callbacks — the guard the fuzzing harness uses to bound
    message-amplification storms under adversarial plans.
    """
    simulator = Simulator()
    delay = (network if network is not None else ReliableNetwork()).delay_model(seed)
    net = SimulatedNetwork(simulator, delay)
    session = MonitorSession(
        computation,
        automaton,
        registry,
        net,
        faults=faults,
        max_views_per_state=max_views_per_state,
    )
    for endpoint in session.endpoints:
        net.register(endpoint.process, endpoint)
        simulator.schedule_at(0.0, endpoint.start)
    # equal-time callbacks fire in insertion order, i.e. in schedule order
    for instant, kind, process, event in session.schedule():
        endpoint = session.endpoints[process]
        simulator.schedule_at(
            instant,
            partial(endpoint.local_event, event) if kind == EVENT else endpoint.local_termination,
        )
    if max_sim_events is not None:
        simulator.run(max_events=max_sim_events)
    else:
        simulator.run()
    return session.report()
