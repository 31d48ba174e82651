"""Applying a :class:`ClockSkewSpec` to a finished computation.

Clock skew is the one fault in the plan that lives *below* the monitors: it
perturbs the vector-clock assignment of the monitored
:class:`~repro.distributed.computation.Computation` before any backend runs,
so the simulator, the asyncio runtime and the cluster workers all monitor
the identical skewed trace (each cluster worker regenerates the computation
from the :class:`~repro.cluster.spec.RunSpec` and applies the same
deterministic transform).

Skewed clocks keep every structural invariant an
:class:`~repro.distributed.events.Event` requires: the local component stays
exactly the event's sequence number and each process's clock sequence stays
component-wise monotone (a per-process carry vector).  The two modes sit on
either side of the happened-before boundary:

* ``"sound"`` only *inflates* what an event appears to know about other
  processes, capped at each process's final event count.  Every cut
  consistent under inflated clocks is consistent under the true clocks, so
  monitors explore a sub-lattice of the real computation lattice and any
  verdict they declare corresponds to a real execution path: soundness is
  preserved by construction, only completeness may suffer.
* ``"unsound"`` *deflates* received knowledge, hiding happened-before
  edges, so cuts that are inconsistent in reality may look consistent —
  monitors can explore impossible interleavings and declare verdicts no
  real execution supports.  Deliberately soundness-breaking; it exists so
  the fuzzing oracle has a known-divergent regime to calibrate against.
"""

from __future__ import annotations

import dataclasses
import random

from ..distributed.clocks import VectorClock
from ..distributed.computation import Computation
from .plan import SKEW_SOUND, ClockSkewSpec

__all__ = ["apply_clock_skew"]

#: dedicated RNG salt so skew streams are independent of workload/fault RNGs
_SKEW_SEED_SALT = 0x5C1F_0C7E


def apply_clock_skew(
    computation: Computation, spec: ClockSkewSpec | None
) -> tuple[Computation, dict[str, float]]:
    """A copy of *computation* with skewed clocks, plus ``fault_skew_*`` stats.

    Returns the input computation untouched (and no counters) when *spec*
    is ``None`` or a no-op, preserving object identity on the fault-free
    path.  Each process draws from its own RNG stream salted from
    ``spec.seed`` alone, so the transform is deterministic and independent
    of the order in which processes are skewed.
    """
    if spec is None or spec.is_noop:
        return computation, {}
    n = computation.num_processes
    maxima = computation.final_cut()
    perturbed_events = 0
    distortion = 0
    skewed_events = []
    for process in range(n):
        rng = random.Random(((spec.seed ^ _SKEW_SEED_SALT) << 8) | process)
        carry = (0,) * n
        column = []
        for event in computation.events_of(process):
            true = event.vc.components
            skewed = list(true)
            if rng.random() < spec.rate and n > 1:
                victim = rng.randrange(n - 1)
                if victim >= process:
                    victim += 1  # never touch the local component
                amount = rng.randint(1, spec.magnitude)
                if spec.mode == SKEW_SOUND:
                    skewed[victim] = min(skewed[victim] + amount, maxima[victim])
                else:
                    skewed[victim] = max(skewed[victim] - amount, 0)
            clock = []
            for k in range(n):
                if k == process:
                    value = event.sn  # the Event invariant: local component == sn
                else:
                    value = max(skewed[k], carry[k])
                    if spec.mode != SKEW_SOUND:
                        # deflation must never *add* knowledge: the carry keeps
                        # monotonicity, the true clock caps it from above
                        value = min(value, true[k])
                clock.append(value)
            carry = tuple(clock)
            changed = sum(abs(a - b) for a, b in zip(carry, true))
            if changed:
                perturbed_events += 1
                distortion += changed
                event = dataclasses.replace(event, vc=VectorClock(carry))
            column.append(event)
        skewed_events.append(column)
    skewed = Computation(
        initial_states=[dict(state) for state in computation.initial_states],
        events=skewed_events,
    )
    return skewed, {
        "fault_skew_perturbed_events": float(perturbed_events),
        "fault_skew_distortion": float(distortion),
    }
