"""Per-tenant verdict reporting: the fleet's outbound protocol.

Every tenant session that completes (or is evicted) produces one
:class:`TenantVerdict` record; the fleet pushes the records of a run through
a :class:`VerdictSink` in deterministic tenant-id order.  Two sinks are
registered (:data:`SINK_KINDS`): :class:`MemorySink` collects records
in-process (the default, what the tests and the API inspect) and
:class:`JsonlSink` appends one JSON object per record to a file, the shape
an external collector would tail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Protocol, runtime_checkable

__all__ = [
    "SINK_KINDS",
    "TenantVerdict",
    "VerdictSink",
    "MemorySink",
    "JsonlSink",
    "make_sink",
]


@dataclass(frozen=True)
class TenantVerdict:
    """One tenant's verdict report: what the fleet tells the outside world."""

    tenant_id: str
    property_name: str
    #: per-monitor conclusive verdicts in declaration order (see
    #: :meth:`repro.runtime.runner.RuntimeReport.verdict_sequence`)
    verdict_sequence: tuple[str, ...]
    #: the union of reported verdicts, sorted (the run's outcome summary)
    verdicts: tuple[str, ...]
    events: int
    dropped_events: int
    latency_seconds: float
    #: non-empty when the tenant was evicted instead of completing
    error: str = ""

    def as_dict(self) -> dict[str, object]:
        """Flat JSON-serializable rendering (the JSONL sink's line shape)."""
        return {
            "tenant_id": self.tenant_id,
            "property": self.property_name,
            "verdict_sequence": list(self.verdict_sequence),
            "verdicts": list(self.verdicts),
            "events": self.events,
            "dropped_events": self.dropped_events,
            "latency_seconds": self.latency_seconds,
            "error": self.error,
        }


@runtime_checkable
class VerdictSink(Protocol):
    """Where per-tenant verdict records go (memory, JSONL file, ...)."""

    def emit(self, record: TenantVerdict) -> None:
        """Deliver one tenant's verdict record."""

    def close(self) -> None:
        """Flush and release any underlying resource."""

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and docs)."""


@dataclass
class MemorySink:
    """Collects verdict records in-process (the default sink)."""

    records: list[TenantVerdict] = field(default_factory=list)

    def emit(self, record: TenantVerdict) -> None:
        """Append *record* to the in-memory list."""
        self.records.append(record)

    def close(self) -> None:
        """No resource to release; the records stay readable."""

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and docs)."""
        return {"kind": "memory", "records": len(self.records)}


class JsonlSink:
    """Appends one JSON object per verdict record to a file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = None
        self.emitted = 0

    def emit(self, record: TenantVerdict) -> None:
        """Write *record* as one JSON line (the file is opened lazily)."""
        if self._handle is None:
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
        self.emitted += 1

    def close(self) -> None:
        """Flush and close the underlying file."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def describe(self) -> dict[str, object]:
        """Self-describing metadata (for JSON documents and docs)."""
        return {"kind": "jsonl", "path": str(self.path), "emitted": self.emitted}


#: the registered verdict-sink kinds, in documentation order
SINK_KINDS: dict[str, type] = {"memory": MemorySink, "jsonl": JsonlSink}


def make_sink(kind: str, path: str | Path | None = None) -> VerdictSink:
    """Instantiate a registered sink by name (``path`` for file-backed ones)."""
    if kind == "memory":
        return MemorySink()
    if kind == "jsonl":
        if path is None:
            raise ValueError("the jsonl sink requires a path")
        return JsonlSink(path)
    raise ValueError(f"unknown verdict sink {kind!r} (known: {sorted(SINK_KINDS)})")
