"""The benchmark's registry: workload names and every metric it reports.

Pure data, importable without ``repro``: ``BENCHMARK.json`` at the repository
root mirrors these tables (``perf/test_perf_harness.py`` checks that the two
agree), ``perf/run.py`` prints them and ``perf/compare.py`` applies the
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DEFAULT_SEED",
    "RUN_SECONDS",
    "Metric",
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
]

#: the seed the pinned verdicts of ``perf/expected.json`` were captured with
DEFAULT_SEED = 2015

#: how long one run measures (``run_seconds`` of ``BENCHMARK.json``)
RUN_SECONDS = 12


@dataclass(frozen=True)
class Metric:
    """One reported number: its name, unit, direction and regression bound."""

    name: str
    unit: str
    better: str
    #: share of the parent's median the metric may worsen by (end-to-end only)
    bound: float | None = None


#: workload name -> why it exists (one line, at most 200 characters)
WORKLOADS: dict[str, str] = {
    "token-heavy": (
        "sim, property C, n=4, 536 events: token serving dominates and tokens "
        "carry copies of all they scan; a scan-once change must move it"
    ),
    "box-heavy": (
        "sim, property F, n=4, short traces: returning tokens trigger the exact "
        "box search, few entries come back true; box-search changes show here"
    ),
    "long-trace": (
        "sim, property B, n=5, 1736 events: every entry returns true, boxes are "
        "tiny, cost per event 10x lower; a gain bought for C/F that costs cheap "
        "traces shows here"
    ),
    "wire-tcp": (
        "asyncio backend over loopback TCP, property B, n=4: codec and sockets "
        "are most of the wall; a monitor-only change should move nothing"
    ),
    "short-sessions": (
        "fleet tenants (properties A-F, n=3) run back to back standalone: "
        "per-session fixed cost dominates; serial baseline of fleet-mux"
    ),
    "fleet-mux": (
        "the same tenants through run_fleet on 2 shards: identical monitor "
        "work, so the ratio to short-sessions is pure multiplexing"
    ),
}

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("events_per_s", "events/s", "higher", 0.25),
    Metric("msgs_per_event", "msgs/event", "lower", 0.05),
    Metric("views_per_event", "views/event", "lower", 0.10),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

PER_LAYER: tuple[Metric, ...] = (
    # host: tells machine drift from code change
    Metric("host.calib_s", "s", "lower"),
    Metric("host.events_per_wall_s", "events/s", "higher"),
    Metric("trace.overhead_x", "x", "lower"),
    Metric("check.unchecked_sessions", "count", "lower"),
    # ltl
    Metric("ltl.synthesis_s", "s", "lower"),
    Metric("ltl.compile_s", "s", "lower"),
    Metric("ltl.states", "count", "lower"),
    Metric("ltl.table_entries", "count", "lower"),
    Metric("ltl.step_calls", "count", "lower"),
    Metric("ltl.step_s", "s", "lower"),
    # sim.workload
    Metric("sim.workload.generate_s", "s", "lower"),
    Metric("sim.workload.events", "count", "higher"),
    Metric("sim.workload.comm_share", "ratio", "lower"),
    # core.monitor
    Metric("core.monitor.serve_s", "s", "lower"),
    Metric("core.monitor.serve_calls", "count", "lower"),
    Metric("core.monitor.return_s", "s", "lower"),
    Metric("core.monitor.return_calls", "count", "lower"),
    Metric("core.monitor.local_event_s", "s", "lower"),
    Metric("core.monitor.local_event_calls", "count", "lower"),
    Metric("core.monitor.termination_s", "s", "lower"),
    Metric("core.monitor.termination_calls", "count", "lower"),
    Metric("core.monitor.busy_share", "ratio", "higher"),
    Metric("core.monitor.serve_share", "ratio", "lower"),
    Metric("core.monitor.return_share", "ratio", "lower"),
    Metric("core.monitor.tokens_created", "count", "lower"),
    Metric("core.monitor.entries_created", "count", "lower"),
    Metric("core.monitor.token_hops_served", "count", "lower"),
    Metric("core.monitor.views_created", "count", "lower"),
    Metric("core.monitor.views_merged", "count", "lower"),
    Metric("core.monitor.max_active_views", "count", "lower"),
    Metric("core.monitor.delayed_events", "count", "lower"),
    Metric("core.monitor.hops_per_token", "ratio", "lower"),
    Metric("core.monitor.entry_true_share", "ratio", "higher"),
    # core.messages
    Metric("core.messages.scans", "count", "lower"),
    Metric("core.messages.scans_per_event", "scans/event", "lower"),
    Metric("core.messages.scan_s", "s", "lower"),
    Metric("core.messages.box_cells_p50", "cells", "lower"),
    Metric("core.messages.box_cells_max", "cells", "lower"),
    Metric("core.messages.box_over_limit_share", "ratio", "lower"),
    Metric("core.messages.token_bytes_p50", "bytes", "lower"),
    Metric("core.messages.token_bytes_max", "bytes", "lower"),
    # coordination
    Metric("coordination.pick_target_calls", "count", "lower"),
    Metric("coordination.next_hop_calls", "count", "lower"),
    Metric("coordination.route_s", "s", "lower"),
    # cluster.codec
    Metric("cluster.codec.encode_s", "s", "lower"),
    Metric("cluster.codec.decode_s", "s", "lower"),
    Metric("cluster.codec.frames", "count", "lower"),
    Metric("cluster.codec.bytes_total", "bytes", "lower"),
    Metric("cluster.codec.wire_bytes_per_event", "bytes/event", "lower"),
    Metric("cluster.codec.encode_mb_per_s", "MB/s", "higher"),
    # sim
    Metric("sim.callbacks", "count", "lower"),
    Metric("sim.run_self_s", "s", "lower"),
    Metric("sim.network.sends", "count", "lower"),
    Metric("sim.network.send_s", "s", "lower"),
    Metric("sim.delay_pct", "%", "lower"),
    # runtime
    Metric("runtime.wall_s", "s", "lower"),
    Metric("runtime.sends", "count", "lower"),
    Metric("runtime.send_s", "s", "lower"),
    Metric("runtime.overhead_share", "ratio", "lower"),
    # fleet
    Metric("fleet.speedup_vs_serial", "x", "higher"),
    Metric("fleet.session_p50_s", "s", "lower"),
    Metric("fleet.session_p90_s", "s", "lower"),
    Metric("fleet.events_blocked", "count", "lower"),
    Metric("fleet.events_dropped", "count", "lower"),
    Metric("fleet.tenants_evicted", "count", "lower"),
    Metric("fleet.shard_skew", "ratio", "lower"),
)

