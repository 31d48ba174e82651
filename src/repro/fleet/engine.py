"""The multi-tenant fleet engine: thousands of sessions, one process pool.

One *tenant session* is the asyncio streaming backend's monitored run — the
same :class:`repro.session.MonitorSession` driven by the same
:func:`repro.runtime.runner.drive_session` as
:func:`repro.runtime.runner.stream_monitored_run` — with one addition: a
bounded per-tenant inbox with an explicit backpressure policy at the feed
point.  Many sessions multiplex concurrently on one event loop per *shard*
(worker process); tenants are partitioned across shards by a stable hash of
their id, so the partition is independent of batch order and shard count.

Within a shard every tenant shares the hash-consed formula intern table, the
memoized progression caches and the ``case_study_monitor`` LRU cache — the
amortization that makes thousands of structurally similar formula instances
cheap — while sharing no mutable monitor state, so per-tenant runs stay
deterministic.  The correctness anchor (property-tested across tenant-count
scales): under a non-saturating ``block`` policy, a tenant's
:class:`TenantResult` is byte-identical to the same (formula, stream) run
standalone through :func:`repro.runtime.runner.stream_monitored_run` —
:func:`standalone_tenant_result` is that reference path.
"""

from __future__ import annotations

import asyncio
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from ..experiments.properties import case_study_monitor, case_study_registry
from ..runtime.node import StreamMonitorNode
from ..runtime.runner import drive_session, stream_monitored_run
from ..runtime.transport import InMemoryStreamTransport, StreamTransport
from ..session import MonitorSession, RunReport
from .config import FleetConfig, TenantSpec

__all__ = [
    "TenantResult",
    "FleetReport",
    "run_fleet",
    "standalone_tenant_result",
    "shard_of",
]


@dataclass(frozen=True)
class TenantResult:
    """The deterministic outcome of one tenant session.

    Deliberately light (no monitor objects), so shard workers can ship
    thousands of results back through the process pool cheaply.
    """

    tenant_id: str
    property_name: str
    #: per-monitor conclusive verdicts in declaration order
    verdict_sequence: tuple[str, ...]
    #: sorted union of reported verdicts (the outcome summary)
    verdicts: tuple[str, ...]
    #: events the source produced for this tenant
    events: int
    #: events actually fed to monitors (``events - dropped_events``)
    ingested_events: int
    dropped_events: int
    #: feed stalls under the ``block`` policy (no events are lost)
    blocked_events: int
    monitor_messages: int
    global_views: int
    #: session wall time: seconds from session start to final verdict and
    #: drain, while the shard's other sessions share the event loop (so it
    #: measures contention as much as this tenant's monitoring)
    latency_seconds: float
    #: non-empty when the session failed and the tenant was evicted
    error: str = ""

    @classmethod
    def from_report(
        cls, spec: TenantSpec, report: RunReport, *, dropped: int = 0, blocked: int = 0
    ) -> TenantResult:
        """The light record of *spec*'s finished run (fleet or standalone)."""
        return cls(
            tenant_id=spec.tenant_id,
            property_name=spec.property_name,
            verdict_sequence=report.verdict_sequence(),
            verdicts=tuple(sorted(str(v) for v in report.reported_verdicts)),
            events=report.total_events,
            ingested_events=report.total_events - dropped,
            dropped_events=dropped,
            blocked_events=blocked,
            monitor_messages=report.monitor_messages,
            global_views=report.total_global_views,
            latency_seconds=report.wall_seconds,
        )

    @property
    def evicted(self) -> bool:
        """Whether the session died instead of completing."""
        return bool(self.error)

    def equivalence_key(self) -> tuple[object, ...]:
        """Everything that must be byte-identical to the standalone run.

        Wall-clock latency is excluded — it measures the machine, not the
        monitored run.
        """
        return (
            self.tenant_id,
            self.property_name,
            self.verdict_sequence,
            self.verdicts,
            self.events,
            self.ingested_events,
            self.monitor_messages,
            self.global_views,
        )


def shard_of(tenant_id: str, shards: int) -> int:
    """Stable shard assignment: CRC-32 of the tenant id, modulo *shards*."""
    return zlib.crc32(tenant_id.encode("utf-8")) % shards


async def _load_inputs(spec: TenantSpec) -> tuple:
    """The tenant's ``(computation, automaton, registry)`` from its source."""
    computation = await spec.source.load(
        num_processes=spec.num_processes,
        events_per_process=spec.events_per_process,
        property_name=spec.property_name,
        seed=spec.seed,
    )
    n = computation.num_processes
    return computation, case_study_monitor(spec.property_name, n), case_study_registry(n)


class _InboxGate:
    """A tenant's bounded inbox: the admission check of its feed loop.

    Before each program event the unprocessed item count — node inboxes
    plus in-flight sends — is compared with the bound: ``drop-newest``
    refuses the event (counted), ``block`` yields until the inbox drains
    below the bound (counted, lossless).  A dead node or channel never
    drains, so the wait re-raises its failure, and it gives up after
    *timeout* seconds; either error evicts the tenant.

    A refused event truncates the rest of that process's stream: the
    monitors index events by contiguous sequence numbers and vector clocks,
    so a mid-stream gap would corrupt the run rather than degrade it.
    Shedding the suffix keeps every delivered per-process stream a true
    prefix of the tenant's computation — and LTL3 conclusive verdicts are
    closed under extension, so whatever a saturated tenant still declares
    remains sound for the full trace.
    """

    def __init__(self, net: StreamTransport, limit: int, backpressure: str, timeout: float) -> None:
        self.net = net
        self.limit = limit
        self.backpressure = backpressure
        self.timeout = timeout
        self.truncated: set[int] = set()
        self.dropped = 0
        self.blocked = 0

    def _full(self, nodes: list[StreamMonitorNode]) -> bool:
        load = sum(node.pending_items for node in nodes) + self.net.in_flight
        return load >= self.limit

    async def admit(self, nodes: list[StreamMonitorNode], process: int) -> bool:
        """Whether the next event of *process* is fed (may wait first)."""
        if process in self.truncated:
            self.dropped += 1
            return False
        if self._full(nodes):
            if self.backpressure == "drop-newest":
                self.truncated.add(process)
                self.dropped += 1
                return False
            self.blocked += 1
            deadline = time.monotonic() + self.timeout
            while self._full(nodes):
                self.net.raise_failure()
                if time.monotonic() > deadline:
                    raise RuntimeError(f"inbox did not drain below {self.limit} in {self.timeout}s")
                await asyncio.sleep(0)
        return True


async def _tenant_session(
    spec: TenantSpec,
    *,
    inbox_limit: int,
    backpressure: str,
    quiesce_timeout: float,
) -> TenantResult:
    """Run one tenant to completion on the current event loop.

    The standalone asyncio run (:func:`repro.runtime.runner.stream_monitored_run`
    on the memory transport, undelayed) plus the :class:`_InboxGate` — the
    same session, the same driver, so under a non-saturating inbox the
    session *is* a standalone run.  Termination signals bypass the bound: a
    saturated tenant still terminates.
    """
    started = time.perf_counter()
    computation, automaton, registry = await _load_inputs(spec)
    net = InMemoryStreamTransport()
    session = MonitorSession(
        computation,
        automaton,
        registry,
        net,
        max_views_per_state=spec.max_views_per_state,
    )
    gate = _InboxGate(net, inbox_limit, backpressure, quiesce_timeout)
    await drive_session(session, quiesce_timeout, admit=gate.admit)
    report = session.report(transport="memory", wall_seconds=time.perf_counter() - started)
    return TenantResult.from_report(spec, report, dropped=gate.dropped, blocked=gate.blocked)


def standalone_tenant_result(
    spec: TenantSpec, *, quiesce_timeout: float = 120.0
) -> TenantResult:
    """The fleet's correctness reference: the tenant run standalone.

    Resolves the tenant's source and runs the identical (formula, stream)
    through the plain asyncio backend (:func:`repro.runtime.runner.stream_monitored_run`)
    with no fleet multiplexing and no inbox bound.  A fleet run under a
    non-saturating ``block`` policy must produce a :class:`TenantResult`
    whose :meth:`~TenantResult.equivalence_key` matches this one exactly.
    Loading and the session share one event loop.
    """

    async def standalone() -> RunReport:
        computation, automaton, registry = await _load_inputs(spec)
        return await stream_monitored_run(
            computation, automaton, registry, max_views_per_state=spec.max_views_per_state,
            transport="memory", quiesce_timeout=quiesce_timeout,
        )  # fmt: skip

    return TenantResult.from_report(spec, asyncio.run(standalone()))


async def _guarded_session(
    spec: TenantSpec, *, inbox_limit: int, backpressure: str, quiesce_timeout: float
) -> TenantResult:
    """Run one session; a failure evicts the tenant instead of the shard."""
    started = time.perf_counter()
    try:
        return await _tenant_session(
            spec,
            inbox_limit=inbox_limit,
            backpressure=backpressure,
            quiesce_timeout=quiesce_timeout,
        )
    except Exception as error:  # noqa: BLE001 - eviction boundary
        return TenantResult(
            tenant_id=spec.tenant_id,
            property_name=spec.property_name,
            verdict_sequence=(),
            verdicts=(),
            events=0,
            ingested_events=0,
            dropped_events=0,
            blocked_events=0,
            monitor_messages=0,
            global_views=0,
            latency_seconds=time.perf_counter() - started,
            error=f"{type(error).__name__}: {error}",
        )


def _run_shard(
    specs: tuple[TenantSpec, ...],
    inbox_limit: int,
    backpressure: str,
    quiesce_timeout: float,
) -> list[TenantResult]:
    """Run one shard's tenants concurrently on a fresh event loop.

    Module-level (picklable) so :func:`run_fleet` can dispatch it through a
    :class:`concurrent.futures.ProcessPoolExecutor`; every session in the
    shard shares the process's intern table and compiled-machine caches.
    """

    async def gather() -> list[TenantResult]:
        sessions = [
            _guarded_session(
                spec,
                inbox_limit=inbox_limit,
                backpressure=backpressure,
                quiesce_timeout=quiesce_timeout,
            )
            for spec in specs
        ]
        return list(await asyncio.gather(*sessions))

    return asyncio.run(gather())


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (0.0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class FleetReport:
    """Saturation metrics and per-tenant outcomes of one fleet run."""

    tenants_admitted: int
    tenants_rejected: int
    tenants_completed: int
    tenants_evicted: int
    shards: int
    backpressure: str
    inbox_limit: int
    events_ingested: int
    events_dropped: int
    events_blocked: int
    monitor_messages: int
    #: percentiles of the completed tenants' ``latency_seconds`` (session
    #: wall time, not the delay of a verdict behind its event)
    verdict_latency_p50: float
    verdict_latency_p99: float
    wall_seconds: float
    results: list[TenantResult] = field(default_factory=list)

    @property
    def fleet_events_per_sec(self) -> float:
        """Aggregate ingestion throughput across every tenant."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_ingested / self.wall_seconds

    def saturation(self) -> dict[str, float]:
        """The flat saturation-counter block (CLI table, ``--json`` output)."""
        return {
            "fleet_tenants_admitted": float(self.tenants_admitted),
            "fleet_tenants_rejected": float(self.tenants_rejected),
            "fleet_tenants_completed": float(self.tenants_completed),
            "fleet_tenants_evicted": float(self.tenants_evicted),
            "fleet_events_ingested": float(self.events_ingested),
            "fleet_events_dropped": float(self.events_dropped),
            "fleet_events_blocked": float(self.events_blocked),
            "fleet_verdict_latency_p50": self.verdict_latency_p50,
            "fleet_verdict_latency_p99": self.verdict_latency_p99,
        }

    def as_dict(self) -> dict[str, object]:
        """JSON-serializable report: the counters, then one record per tenant.

        ``tenants`` holds every :class:`TenantResult` as a mapping of its
        fields, in tenant-id order (the CLI's ``fleet --json`` document).
        """
        return {
            "shards": self.shards,
            "backpressure": self.backpressure,
            "inbox_limit": self.inbox_limit,
            "monitor_messages": self.monitor_messages,
            "wall_seconds": self.wall_seconds,
            "fleet_events_per_sec": self.fleet_events_per_sec,
            **self.saturation(),
            "tenants": [asdict(result) for result in self.results],
        }


def run_fleet(config: FleetConfig) -> FleetReport:
    """Run a multi-tenant monitoring fleet to completion.

    Admits ``config.tenants`` (rejecting, with a counter, everything beyond
    ``max_tenants``), hash-partitions the admitted tenants across
    ``config.shards`` worker processes, runs every tenant session
    concurrently within its shard, and merges the per-tenant results in
    tenant-id order — so the report is deterministic in the admitted set,
    independent of shard count and scheduling.
    """
    started = time.perf_counter()
    admitted = list(config.tenants)
    rejected = 0
    if config.max_tenants is not None and len(admitted) > config.max_tenants:
        rejected = len(admitted) - config.max_tenants
        admitted = admitted[: config.max_tenants]

    results: list[TenantResult] = []
    if admitted:
        buckets: list[list[TenantSpec]] = [[] for _ in range(config.shards)]
        for spec in admitted:
            buckets[shard_of(spec.tenant_id, config.shards)].append(spec)
        occupied = [tuple(bucket) for bucket in buckets if bucket]
        policy = (config.inbox_limit, config.backpressure, config.quiesce_timeout)
        if len(occupied) <= 1:
            for bucket in occupied:
                results.extend(_run_shard(bucket, *policy))
        else:
            with ProcessPoolExecutor(max_workers=len(occupied)) as pool:
                futures = [pool.submit(_run_shard, bucket, *policy) for bucket in occupied]
                for future in futures:
                    results.extend(future.result())
    results.sort(key=lambda result: result.tenant_id)

    completed = [r for r in results if not r.evicted]
    evicted = [r for r in results if r.evicted]
    latencies = [r.latency_seconds for r in completed]
    return FleetReport(
        tenants_admitted=len(admitted),
        tenants_rejected=rejected,
        tenants_completed=len(completed),
        tenants_evicted=len(evicted),
        shards=config.shards,
        backpressure=config.backpressure,
        inbox_limit=config.inbox_limit,
        events_ingested=sum(r.ingested_events for r in results),
        events_dropped=sum(r.dropped_events for r in results),
        events_blocked=sum(r.blocked_events for r in results),
        monitor_messages=sum(r.monitor_messages for r in results),
        verdict_latency_p50=_percentile(latencies, 0.50),
        verdict_latency_p99=_percentile(latencies, 0.99),
        wall_seconds=time.perf_counter() - started,
        results=results,
    )
