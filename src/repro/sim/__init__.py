"""Discrete-event simulation of monitored distributed programs.

Public API
----------
* :class:`Simulator` — the discrete-event kernel.
* :class:`SimulatedNetwork` — reliable FIFO network between monitors over
  one run of a network condition (``condition.delay_model(seed)``, a
  :class:`repro.core.delays.DelayModel`); with no condition given,
  :func:`simulate_monitored_run` uses the paper's ``ReliableNetwork()``.
* :class:`WorkloadConfig` / :func:`generate_computation` — the case-study
  trace model of Section 5.2 (normal-distributed event and communication
  wait times, propositions ``p``/``q`` per process).
* :func:`random_computation` — small random computations for testing.
* :func:`simulate_monitored_run` / :class:`RunReport` — a full monitored
  run with timing-based metrics.
"""

from ..session import RunReport
from .engine import SimulationBudgetExceeded, Simulator
from .network import SimulatedNetwork
from .runner import simulate_monitored_run
from .workload import WorkloadConfig, generate_computation, random_computation

__all__ = [
    "SimulationBudgetExceeded",
    "Simulator",
    "SimulatedNetwork",
    "RunReport",
    "simulate_monitored_run",
    "WorkloadConfig",
    "generate_computation",
    "random_computation",
]
