"""Multi-tenant monitoring fleet: thousands of live sessions per process.

The fleet layer multiplexes many concurrent monitored sessions — one
:class:`TenantSpec` (formula instance × live event stream) each — on asyncio
event loops sharded across a process pool by tenant hash.  Streams come from
pluggable :class:`EventSource`\\ s (synthetic workloads or replayed event-log
files), each tenant's outcome is one :class:`TenantResult` on the
:class:`FleetReport`, and per-tenant inboxes are bounded with explicit
backpressure.  See ``docs/fleet.md`` for the operator guide and
:func:`run_fleet` for the entry point.
"""

from .config import (
    BACKPRESSURE_POLICIES,
    FleetConfig,
    TenantSpec,
    describe_backpressure,
    synthetic_fleet,
)
from .engine import (
    FleetReport,
    TenantResult,
    run_fleet,
    shard_of,
    standalone_tenant_result,
)
from .sources import (
    EVENT_LOG_SCHEMA,
    SOURCE_KINDS,
    EventSource,
    ReplaySource,
    SyntheticSource,
    dump_event_log,
    load_event_log,
)

__all__ = [
    "BACKPRESSURE_POLICIES",
    "EVENT_LOG_SCHEMA",
    "SOURCE_KINDS",
    "TenantSpec",
    "FleetConfig",
    "FleetReport",
    "TenantResult",
    "EventSource",
    "SyntheticSource",
    "ReplaySource",
    "describe_backpressure",
    "dump_event_log",
    "load_event_log",
    "run_fleet",
    "standalone_tenant_result",
    "synthetic_fleet",
    "shard_of",
]
