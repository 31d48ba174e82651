"""Workload generation: the trace model of the paper's case study.

Chapter 5 drives each device with a trace file containing the wait time
between events, where

* the wait time between *internal* (variable-valuation-change) events is
  drawn from a normal distribution ``Normal(Evtμ, Evtσ)``;
* the wait time between *communication* events is drawn from
  ``Normal(Commμ, Commσ)`` and a communication event makes the process send
  a message to **every** other process;
* every process owns two boolean propositions ``p`` and ``q`` whose values
  are part of the trace;
* traces are designed so that some lattice path reaches a final automaton
  state.

:func:`generate_computation` reproduces this model and returns a finished
:class:`repro.distributed.Computation` with realistic timestamps, ready to be
replayed through the monitors by any backend.  :func:`random_computation`
generates smaller, fully random computations used by the property-based
correctness tests.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from ..distributed.computation import Computation, ComputationBuilder

__all__ = ["WorkloadConfig", "generate_computation", "random_computation"]


@dataclass
class WorkloadConfig:
    """Parameters of the case-study workload (Section 5.2).

    Attributes
    ----------
    num_processes:
        Number of program processes (2–5 in the paper).
    events_per_process:
        Number of internal (valuation-change) events each process produces.
    evt_mu / evt_sigma:
        Normal-distribution parameters (seconds) of the wait time between
        internal events.
    comm_mu / comm_sigma:
        Normal-distribution parameters of the wait time between
        communication events; ``comm_mu=None`` disables communication
        entirely (the "No comm" configuration of Fig. 5.9).
    message_latency:
        Program-message transfer latency (seconds).
    variables:
        Boolean proposition variables owned by each process.
    truth_probability:
        Probability that an internal event sets a variable to ``True``.
    ensure_final:
        Force the last internal event of every process to set all variables
        to ``True`` so that some lattice path reaches a conclusive state, as
        in the paper's trace design.
    initial_valuation:
        Initial truth value of every variable (default: all ``False``).  The
        case-study harness uses all-``True`` initial valuations for the
        ``G(… U …)`` properties so that the property is not violated by the
        very first global state, mirroring the designed traces of the paper.
    seed:
        RNG seed for reproducibility.
    hot_processes / hot_event_factor / hot_truth_probability:
        Hot-proposition skew (the ``hot-spot`` scenario): each process listed
        in ``hot_processes`` produces ``hot_event_factor ×`` as many internal
        events at ``hot_event_factor ×`` the rate (the wall-clock horizon is
        preserved), optionally flipping its propositions with its own
        ``hot_truth_probability`` instead of the global one.  The defaults
        (no hot processes, factor 1) leave the paper's trace model — and its
        RNG draw sequence — untouched.
    comm_burst_size / comm_burst_gap:
        Comm-heavy bursts (the ``bursty-comm`` scenario): every communication
        slot fires a burst of ``comm_burst_size`` broadcast rounds spaced
        ``comm_burst_gap`` seconds apart instead of a single round.  The
        default burst size of 1 reproduces the paper's model exactly.
    """

    num_processes: int = 4
    events_per_process: int = 10
    evt_mu: float = 3.0
    evt_sigma: float = 1.0
    comm_mu: float | None = 3.0
    comm_sigma: float = 1.0
    message_latency: float = 0.05
    variables: tuple[str, ...] = ("p", "q")
    truth_probability: float = 0.5
    ensure_final: bool = True
    initial_valuation: dict[str, bool] | None = None
    seed: int | None = None
    hot_processes: tuple[int, ...] = ()
    hot_event_factor: float = 1.0
    hot_truth_probability: float | None = None
    comm_burst_size: int = 1
    comm_burst_gap: float = 0.2

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ValueError("at least one process is required")
        if self.events_per_process < 1:
            raise ValueError("each process needs at least one event")
        if self.evt_mu <= 0:
            raise ValueError("evt_mu must be positive")
        if self.hot_event_factor < 1.0:
            raise ValueError("hot_event_factor must be >= 1")
        if any(p < 0 or p >= self.num_processes for p in self.hot_processes):
            raise ValueError("hot_processes must name valid process indices")
        if self.comm_burst_size < 1:
            raise ValueError("comm_burst_size must be >= 1")
        if self.comm_burst_gap <= 0:
            raise ValueError("comm_burst_gap must be positive")


def _positive_gauss(rng: random.Random, mu: float, sigma: float) -> float:
    """A normal sample truncated away from zero (wait times are positive)."""
    return max(0.05, rng.gauss(mu, sigma))


def generate_computation(config: WorkloadConfig) -> Computation:
    """Generate one case-study computation according to *config*."""
    rng = random.Random(config.seed)
    n = config.num_processes
    base_valuation = {v: False for v in config.variables}
    if config.initial_valuation:
        base_valuation.update(config.initial_valuation)
    initial_states = [dict(base_valuation) for _ in range(n)]
    builder = ComputationBuilder(initial_states)

    # Pre-compute, per process, the absolute times of internal and
    # communication events.  Hot processes run at `hot_event_factor ×` the
    # event rate for `hot_event_factor ×` as many events, so their wall-clock
    # horizon matches the other processes while their propositions churn.
    internal_times: list[list[float]] = []
    for process in range(n):
        if process in config.hot_processes and config.hot_event_factor > 1.0:
            event_count = max(1, round(config.events_per_process * config.hot_event_factor))
            mu = config.evt_mu / config.hot_event_factor
            sigma = config.evt_sigma / config.hot_event_factor
        else:
            event_count = config.events_per_process
            mu, sigma = config.evt_mu, config.evt_sigma
        times = []
        clock = 0.0
        for _ in range(event_count):
            clock += _positive_gauss(rng, mu, sigma)
            times.append(clock)
        internal_times.append(times)

    comm_times: list[list[float]] = [[] for _ in range(n)]
    if config.comm_mu is not None and n > 1:
        for process in range(n):
            clock = 0.0
            horizon = internal_times[process][-1]
            while True:
                clock += _positive_gauss(rng, config.comm_mu, config.comm_sigma)
                if clock >= horizon:
                    break
                comm_times[process].append(clock)
                # comm-heavy bursts: follow-up broadcast rounds right after
                # the sampled slot (the next inter-slot wait still starts
                # from the sampled time, keeping slot statistics intact)
                for extra in range(1, config.comm_burst_size):
                    burst_time = clock + extra * config.comm_burst_gap
                    if burst_time >= horizon:
                        break
                    comm_times[process].append(burst_time)

    # Build the global schedule: (time, kind, process, payload)
    schedule: list[tuple[float, int, str, int, object]] = []
    order = 0
    for process in range(n):
        for index, time in enumerate(internal_times[process]):
            is_last = index == len(internal_times[process]) - 1
            schedule.append((time, order, "internal", process, is_last))
            order += 1
        for time in comm_times[process]:
            schedule.append((time, order, "comm", process, None))
            order += 1
    schedule.sort(key=lambda item: (item[0], item[1]))

    message_id = 0
    #: program messages in flight: (arrival_time, order, sender, receiver, id)
    in_flight: list[tuple[float, int, int, int, int]] = []

    def flush_arrivals(up_to: float) -> None:
        nonlocal in_flight
        due = [m for m in in_flight if m[0] <= up_to]
        in_flight = [m for m in in_flight if m[0] > up_to]
        for arrival, _, sender, receiver, mid in sorted(due):
            builder.receive(receiver, frm=sender, message_id=mid, timestamp=arrival)

    for time, _, kind, process, payload in schedule:
        flush_arrivals(time)
        if kind == "internal":
            is_last = bool(payload)
            if is_last and config.ensure_final:
                updates = {v: True for v in config.variables}
            else:
                probability = config.truth_probability
                if (
                    process in config.hot_processes
                    and config.hot_truth_probability is not None
                ):
                    probability = config.hot_truth_probability
                updates = {
                    v: rng.random() < probability
                    for v in config.variables
                }
            builder.internal(process, updates, timestamp=time)
        else:
            for receiver in range(n):
                if receiver == process:
                    continue
                message_id += 1
                builder.send(process, to=receiver, message_id=message_id, timestamp=time)
                in_flight.append(
                    (
                        time + config.message_latency,
                        message_id,
                        process,
                        receiver,
                        message_id,
                    )
                )
    # deliver any stragglers after all scheduled events
    if in_flight:
        flush_arrivals(max(m[0] for m in in_flight))
    return builder.build()


def random_computation(
    num_processes: int,
    num_events: int,
    seed: int,
    variables: Sequence[str] = ("p", "q"),
    send_probability: float = 0.3,
    truth_probability: float = 0.5,
) -> Computation:
    """A small, fully random computation for property-based testing.

    Events are generated one at a time: a random process performs either an
    internal event (random valuation flip), a send to a random peer, or a
    receive of a pending message addressed to it.
    """
    rng = random.Random(seed)
    initial_states = [{v: False for v in variables} for _ in range(num_processes)]
    builder = ComputationBuilder(initial_states)
    pending: dict[int, list[int]] = {j: [] for j in range(num_processes)}  # receiver -> [mid]
    senders: dict[int, int] = {}
    message_id = 0
    for _ in range(num_events):
        process = rng.randrange(num_processes)
        deliverable = pending[process]
        choice = rng.random()
        if deliverable and choice < 0.4:
            mid = deliverable.pop(0)
            builder.receive(process, frm=senders[mid], message_id=mid)
        elif num_processes > 1 and choice < 0.4 + send_probability:
            target = rng.randrange(num_processes)
            while target == process:
                target = rng.randrange(num_processes)
            message_id += 1
            builder.send(process, to=target, message_id=message_id)
            pending[target].append(message_id)
            senders[message_id] = process
        else:
            updates = {
                v: rng.random() < truth_probability for v in variables
            }
            builder.internal(process, updates)
    return builder.build()
