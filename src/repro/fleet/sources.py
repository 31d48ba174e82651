"""Pluggable live event sources feeding tenant monitoring sessions.

A fleet tenant is a formula instance attached to a live event stream; the
:class:`EventSource` protocol is where the stream comes from.  Two sources
are registered (:data:`SOURCE_KINDS`):

* :class:`SyntheticSource` — paced synthetic traffic generated from a
  :class:`repro.scenarios.workload.Workload` under the paper's
  per-property trace design, exactly the computation a standalone sweep
  cell would monitor.  This is what makes the fleet's correctness anchor
  checkable: for a fixed seed the synthetic stream is byte-identical to the
  standalone asyncio backend's input.
* :class:`ReplaySource` — replays a recorded event-log file (the
  ``repro-fleet-events/1`` JSONL format written by :func:`dump_event_log`);
  it is the one way in for a stream recorded anywhere else.

Every source resolves to a :class:`repro.distributed.computation.Computation`
whose events the tenant session then feeds in timestamp order — sources
decide *what* the stream is, the session decides *when* each event fires.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from ..distributed.clocks import VectorClock
from ..distributed.computation import Computation
from ..distributed.events import Event, EventKind
from ..experiments.engine import cell_computation
from ..scenarios.workload import Workload

__all__ = [
    "EVENT_LOG_SCHEMA",
    "SOURCE_KINDS",
    "EventSource",
    "SyntheticSource",
    "ReplaySource",
    "computation_to_records",
    "records_to_computation",
    "dump_event_log",
    "load_event_log",
]

#: schema tag of the JSONL event-log header record
EVENT_LOG_SCHEMA = "repro-fleet-events/1"


@runtime_checkable
class EventSource(Protocol):
    """Where a tenant's event stream comes from (synthetic or a recorded file)."""

    async def load(
        self,
        *,
        num_processes: int,
        events_per_process: int,
        property_name: str,
        seed: int,
    ) -> Computation:
        """Resolve the tenant's stream to a concrete computation."""


# ---------------------------------------------------------------------------
# event-log codec (the replay source's file format)
# ---------------------------------------------------------------------------


def computation_to_records(computation: Computation) -> list[dict[str, object]]:
    """Serialize *computation* as ``repro-fleet-events/1`` JSON records.

    One header record (process count, initial states) followed by one record
    per event in global ``(timestamp, process, sn)`` order — the order a live
    stream would deliver them in.
    """
    records: list[dict[str, object]] = [
        {
            "record": "header",
            "schema": EVENT_LOG_SCHEMA,
            "num_processes": computation.num_processes,
            "initial_states": [dict(s) for s in computation.initial_states],
        }
    ]
    ordered = sorted(
        computation.all_events(), key=lambda e: (e.timestamp, e.process, e.sn)
    )
    for event in ordered:
        records.append(
            {
                "record": "event",
                "process": event.process,
                "sn": event.sn,
                "kind": str(event.kind),
                "vc": list(event.vc.components),
                "state": dict(event.state),
                "peer": event.peer,
                "message_id": event.message_id,
                "timestamp": event.timestamp,
            }
        )
    return records


def records_to_computation(records: list[dict[str, object]]) -> Computation:
    """Rebuild a :class:`Computation` from ``repro-fleet-events/1`` records."""
    if not records:
        raise ValueError("empty event log")
    header = records[0]
    if header.get("record") != "header" or header.get("schema") != EVENT_LOG_SCHEMA:
        raise ValueError(
            f"event log does not start with a {EVENT_LOG_SCHEMA} header record"
        )
    num_processes = int(header["num_processes"])  # type: ignore[arg-type]
    initial_states = [dict(s) for s in header["initial_states"]]  # type: ignore[union-attr]
    if len(initial_states) != num_processes:
        raise ValueError("header initial_states arity mismatch")
    per_process: list[list[Event]] = [[] for _ in range(num_processes)]
    for record in records[1:]:
        if record.get("record") != "event":
            raise ValueError(f"unexpected record type {record.get('record')!r}")
        peer = record["peer"]
        message_id = record["message_id"]
        event = Event(
            process=int(record["process"]),  # type: ignore[arg-type]
            sn=int(record["sn"]),  # type: ignore[arg-type]
            kind=EventKind(record["kind"]),
            vc=VectorClock(record["vc"]),  # type: ignore[arg-type]
            state=dict(record["state"]),  # type: ignore[arg-type]
            peer=None if peer is None else int(peer),  # type: ignore[arg-type]
            message_id=None if message_id is None else int(message_id),  # type: ignore[arg-type]
            timestamp=float(record["timestamp"]),  # type: ignore[arg-type]
        )
        per_process[event.process].append(event)
    for events in per_process:
        events.sort(key=lambda e: e.sn)
    # Computation.__post_init__ re-validates sequence numbering, so a
    # truncated or shuffled log fails loudly instead of monitoring garbage
    return Computation(initial_states=initial_states, events=per_process)


def dump_event_log(computation: Computation, path: str | Path) -> None:
    """Write *computation* as a JSONL ``repro-fleet-events/1`` log file."""
    lines = [
        json.dumps(record, sort_keys=True)
        for record in computation_to_records(computation)
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_event_log(path: str | Path) -> Computation:
    """Read a JSONL event log written by :func:`dump_event_log`."""
    records = [
        json.loads(line)
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    return records_to_computation(records)


# ---------------------------------------------------------------------------
# the registered sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSource:
    """Paced synthetic traffic from a workload model (the default source).

    Builds the exact computation a standalone sweep cell would monitor —
    through the same :func:`repro.experiments.engine.cell_computation`:
    the workload under the paper's per-property trace design and the
    tenant's seed.  Deterministic in ``(workload, tenant parameters, seed)``.
    """

    workload: Workload = Workload()
    evt_mu: float = 3.0
    evt_sigma: float = 1.0
    comm_mu: float = 3.0
    comm_sigma: float = 1.0

    async def load(
        self,
        *,
        num_processes: int,
        events_per_process: int,
        property_name: str,
        seed: int,
    ) -> Computation:
        """Generate the tenant's synthetic computation."""
        return cell_computation(
            self.workload,
            property_name,
            num_processes=num_processes,
            events_per_process=events_per_process,
            evt_mu=self.evt_mu,
            evt_sigma=self.evt_sigma,
            comm_mu=self.comm_mu,
            comm_sigma=self.comm_sigma,
            seed=seed,
        )


@dataclass(frozen=True)
class ReplaySource:
    """Replays a recorded ``repro-fleet-events/1`` JSONL event-log file."""

    path: str

    async def load(
        self,
        *,
        num_processes: int,
        events_per_process: int,
        property_name: str,
        seed: int,
    ) -> Computation:
        """Load the recorded computation (tenant shape parameters ignored)."""
        return load_event_log(self.path)


#: the registered event-source kinds, in documentation order
SOURCE_KINDS: dict[str, type] = {
    "synthetic": SyntheticSource,
    "replay": ReplaySource,
}
