"""Greedy shrinking of failing fuzz points to minimal repros.

A divergent or crashing point is rarely minimal — it usually carries more
processes, more events and more armed fault behaviours than the failure
needs.  :func:`shrink_point` walks a fixed candidate order (smaller trace
first, then dropped fault-plan pieces, then normalized knobs), re-executes
each candidate, and keeps it whenever the original classification
survives.  The walk is deterministic (no randomness, fixed order, bounded
execution budget), so the same failing spec always shrinks to the same
repro — which is then serialized as a replayable ``RunSpec`` JSON document
next to the fuzz report.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

from ..cluster.spec import RunSpec
from ..faults import ByzantineSpec, FaultPlan, format_fault_plan

__all__ = ["shrink_point", "shrink_candidates"]

#: total point executions one shrink is allowed to spend
_SHRINK_BUDGET = 48

_BYZANTINE_FIELDS = ("duplicate_every", "corrupt_every", "replay_every", "drop_every")


def _with_plan(spec: RunSpec, plan: FaultPlan | None) -> RunSpec:
    """Re-serialize *plan* into *spec* (``None``/empty plans erase the field)."""
    if plan is not None and plan.is_noop(spec.num_processes):
        plan = None
    serialised = None if plan is None else format_fault_plan(plan)
    return dataclasses.replace(spec, fault_plan=serialised)


def shrink_candidates(spec: RunSpec) -> Iterator[RunSpec]:
    """Yield one-step reductions of *spec*, most aggressive first."""
    if spec.events_per_process > 2:
        yield dataclasses.replace(
            spec, events_per_process=max(2, spec.events_per_process // 2)
        )
        yield dataclasses.replace(spec, events_per_process=spec.events_per_process - 1)
    if spec.num_processes > 2:
        yield dataclasses.replace(spec, num_processes=spec.num_processes - 1)
    plan = spec.faults()
    if plan is not None:
        for index in range(len(plan.crashes)):
            crashes = plan.crashes[:index] + plan.crashes[index + 1 :]
            yield _with_plan(spec, dataclasses.replace(plan, crashes=crashes))
        for index in range(len(plan.byzantine)):
            byzantine = plan.byzantine[:index] + plan.byzantine[index + 1 :]
            yield _with_plan(spec, dataclasses.replace(plan, byzantine=byzantine))
        for index, byz in enumerate(plan.byzantine):
            for field in _BYZANTINE_FIELDS:
                if getattr(byz, field) == 0:
                    continue
                reduced = dataclasses.replace(byz, **{field: 0})
                byzantine = list(plan.byzantine)
                if reduced.is_noop:
                    del byzantine[index]
                else:
                    byzantine[index] = reduced
                yield _with_plan(
                    spec, dataclasses.replace(plan, byzantine=tuple(byzantine))
                )
        if plan.clock_skew is not None:
            yield _with_plan(spec, dataclasses.replace(plan, clock_skew=None))
            if plan.clock_skew.magnitude > 1:
                skew = dataclasses.replace(plan.clock_skew, magnitude=1)
                yield _with_plan(spec, dataclasses.replace(plan, clock_skew=skew))
    if spec.comm_mu is not None:
        yield dataclasses.replace(spec, comm_mu=None)


def shrink_point(spec: RunSpec, classification: str) -> RunSpec:
    """Greedily shrink *spec* while it keeps reproducing *classification*.

    Restarts the candidate walk after every accepted reduction (a smaller
    trace often unlocks further plan reductions) until a full pass accepts
    nothing or the execution budget runs out.
    """
    from .engine import execute_point

    budget = _SHRINK_BUDGET
    current = spec
    improved = True
    while improved and budget > 0:
        improved = False
        for candidate in shrink_candidates(current):
            if budget <= 0:
                break
            budget -= 1
            if execute_point(candidate).classification == classification:
                current = candidate
                improved = True
                break
    return current
