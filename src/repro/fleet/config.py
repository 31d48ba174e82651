"""Tenant admission: what a fleet runs and under which resource policy.

A :class:`TenantSpec` is one monitored session — formula instance, process
count, event source, seed — and a
:class:`FleetConfig` admits a batch of them into one fleet run: how many
shards (worker processes) partition the tenants, the per-tenant inbox bound,
the backpressure policy when a tenant's inbox saturates, and an optional
admission cap.  Both are frozen, picklable dataclasses, so tenant batches
ride across the shard process pool unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.monitor import check_view_budget
from ..experiments.properties import PROPERTY_NAMES
from .sources import EventSource, SyntheticSource

__all__ = [
    "BACKPRESSURE_POLICIES",
    "describe_backpressure",
    "TenantSpec",
    "FleetConfig",
    "synthetic_fleet",
]

#: how a tenant session reacts when its bounded inbox is full
BACKPRESSURE_POLICIES = ("block", "drop-newest")


def describe_backpressure() -> list[dict[str, str]]:
    """Self-describing metadata of the registered backpressure policies."""
    return [
        {
            "name": "block",
            "behaviour": "the feeder waits until the inbox drains below the "
            "bound before enqueuing the next event",
            "loss": "never drops events (counted as blocked_events)",
        },
        {
            "name": "drop-newest",
            "behaviour": "the newest event is discarded when the inbox is at "
            "the bound; termination signals are never dropped",
            "loss": "drops are counted per tenant (dropped_events)",
        },
    ]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a formula instance attached to a live event stream.

    ``num_processes`` / ``events_per_process`` shape synthetic streams; a
    replay source carries its own process count, which then also
    sizes the tenant's monitor ring.  The stream replays as fast as the
    event loop runs.
    """

    tenant_id: str
    property_name: str = "B"
    num_processes: int = 3
    events_per_process: int = 4
    seed: int = 2015
    max_views_per_state: int | None = None
    source: EventSource = field(default_factory=SyntheticSource)

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if self.property_name.upper() not in PROPERTY_NAMES:
            raise ValueError(
                f"unknown case-study property {self.property_name!r} "
                f"(known: {PROPERTY_NAMES})"
            )
        if self.num_processes < 2:
            raise ValueError("tenants monitor at least two processes")
        if self.events_per_process < 1:
            raise ValueError("events_per_process must be positive")
        check_view_budget(self.max_views_per_state)


@dataclass(frozen=True)
class FleetConfig:
    """Admission and resource policy of one fleet run."""

    tenants: tuple[TenantSpec, ...]
    #: worker processes the tenants are hash-partitioned across
    shards: int = 1
    #: admission cap; tenants beyond it are rejected (counted), not queued
    max_tenants: int | None = None
    #: bound on a tenant's unprocessed inbox items before backpressure kicks in
    inbox_limit: int = 1024
    backpressure: str = "block"
    #: real-time bound on each session's post-termination drain
    quiesce_timeout: float = 120.0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a fleet needs at least one tenant")
        seen: set[str] = set()
        for spec in self.tenants:
            if spec.tenant_id in seen:
                raise ValueError(f"duplicate tenant id {spec.tenant_id!r}")
            seen.add(spec.tenant_id)
        if self.shards < 1:
            raise ValueError("shards must be positive")
        if self.max_tenants is not None and self.max_tenants < 0:
            raise ValueError("max_tenants must be non-negative")
        if self.inbox_limit < 1:
            raise ValueError("inbox_limit must be positive")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {self.backpressure!r} "
                f"(known: {BACKPRESSURE_POLICIES})"
            )
        if not self.quiesce_timeout > 0.0:  # NaN too: no deadline would ever pass
            raise ValueError("quiesce_timeout must be positive")


def synthetic_fleet(
    num_tenants: int,
    *,
    num_processes: int = 3,
    events_per_process: int = 4,
    base_seed: int = 2015,
    properties: tuple[str, ...] = PROPERTY_NAMES,
    source: EventSource | None = None,
) -> tuple[TenantSpec, ...]:
    """A deterministic batch of synthetic tenants (CLI / smoke / benchmarks).

    Tenant ``i`` monitors ``properties[i % len(properties)]`` with seed
    ``base_seed + 31 * i`` (the same per-cell stride the sweep engine uses),
    so any slice of the batch is reproducible in isolation.
    """
    if num_tenants < 1:
        raise ValueError("num_tenants must be positive")
    if not properties:
        raise ValueError("properties must name at least one property")
    return tuple(
        TenantSpec(
            tenant_id=f"tenant-{index:04d}",
            property_name=properties[index % len(properties)],
            num_processes=num_processes,
            events_per_process=events_per_process,
            seed=base_seed + 31 * index,
            source=source if source is not None else SyntheticSource(),
        )
        for index in range(num_tenants)
    )
