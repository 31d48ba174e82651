"""Per-layer numbers: which public names are wrapped, and what is derived.

The layers are the repository's modules.  :func:`plan` declares the wrappers
of one traced pass on a :class:`perf.trace.Tracer`; :func:`metrics` turns the
recorded spans, the observations the hooks collected and the pass's own
reports into the ``per_layer`` metrics of ``BENCHMARK.json``.

``receive_message`` spans are classified **before** the call from public
fields: a ``Token`` whose ``parent_process`` is the receiving monitor and
whose entries are all decided is a *return* (box replay and fork), any other
``Token`` a *serve*, everything else *termination*.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from .hostclock import Interval
from .trace import Tracer, resolve
from .workloads import Outcome, Prepared, shard_skew

__all__ = ["TARGETS", "Observations", "plan", "assert_untraced", "metrics"]

_MONITOR = "repro.core.monitor:DecentralizedMonitor"
_SERVE = "core.monitor.serve"
_RETURN = "core.monitor.return"
_TERMINATION = "core.monitor.termination"
_LOCAL_EVENT = "core.monitor.local_event"
_START = "core.monitor.start"
#: span names that are entries into a monitor (their subtree is monitor time)
_ENTRIES = (_SERVE, _RETURN, _TERMINATION, _LOCAL_EVENT, _START)

#: public name -> span name, for every wrapper that needs no hook
TARGETS: dict[str, str] = {
    f"{_MONITOR}.local_event": _LOCAL_EVENT,
    f"{_MONITOR}.local_termination": _TERMINATION,
    "repro.core.messages:TokenEntry.record_scan": "core.messages.scan",
    "repro.ltl.compiled:CompiledMachine.step": "ltl.step",
    "repro.ltl.compiled:CompiledMachine.step_letter": "ltl.step",
    "repro.ltl.compiled:CompiledMachine.run_batch": "ltl.step",
    "repro.coordination.topology:RoundRobinToken.pick_target": "coordination.pick_target",
    "repro.coordination.topology:RoundRobinToken.next_hop": "coordination.next_hop",
    "repro.cluster.codec:encode_wire": "cluster.codec.encode",
    "repro.cluster.codec:decode_wire": "cluster.codec.decode",
    "repro.sim.engine:Simulator.run": "sim.run",
    "repro.sim.engine:Simulator.schedule_at": "sim.schedule",
}
#: what a traced ``fleet-mux`` run can still measure from the parent process
_VISIBLE_ACROSS_PROCESSES = (
    "host.", "trace.", "check.", "fleet.", "sim.workload.",
    "ltl.synthesis_s", "ltl.compile_s", "ltl.states", "ltl.table_entries",
)  # fmt: skip
#: the wrappers that also observe their arguments
_HOOKED = (
    f"{_MONITOR}.receive_message",
    f"{_MONITOR}.start",
    "repro.sim.network:SimulatedNetwork.send",
    "repro.runtime.transport:StreamTransport.send",
)


@dataclass
class Observations:
    """What the hooks of one traced pass saw (counts at the layer boundary)."""

    monitors: dict[int, object] = field(default_factory=dict)
    #: wire size of every message handed to a transport's ``send``
    frame_bytes: list[int] = field(default_factory=list)
    token_bytes: list[int] = field(default_factory=list)
    #: entries on returning tokens, and how many of them evaluated true
    entries_returned: int = 0
    entries_true: int = 0
    #: per true entry on a returning token: cells of its box
    box_cells: list[int] = field(default_factory=list)


def plan(tracer: Tracer, seen: Observations) -> None:
    """Declare every wrapper of a traced pass on *tracer*."""
    from repro.cluster import codec
    from repro.core.messages import Token

    encode_wire = codec.encode_wire  # the original: its cost is the tracer's own

    def classify(monitor, message) -> str:
        if isinstance(message, Token):
            if message.parent_process == monitor.process and message.all_decided():
                return _RETURN
            return _SERVE
        return _TERMINATION

    def on_receive(monitor, message) -> None:
        if not isinstance(message, Token):
            return
        if not (message.parent_process == monitor.process and message.all_decided()):
            return
        for entry in message.entries:
            seen.entries_returned += 1
            if entry.eval is True:
                seen.entries_true += 1
                cells = 1
                for reached, start in zip(entry.cut, entry.start_cut):
                    cells *= reached - start + 1
                seen.box_cells.append(cells)

    def on_start(monitor) -> None:
        seen.monitors[id(monitor)] = monitor

    def on_send(transport, sender, target, message) -> None:
        index = tracer.open("trace.encode")
        size = len(encode_wire(0.0, message))
        tracer.close(index)
        seen.frame_bytes.append(size)
        if isinstance(message, Token):
            seen.token_bytes.append(size)

    for path, name in TARGETS.items():
        tracer.add(path, name)
    tracer.add(f"{_MONITOR}.receive_message", classify, before=on_receive)
    tracer.add(f"{_MONITOR}.start", _START, before=on_start)
    tracer.add("repro.sim.network:SimulatedNetwork.send", "sim.network.send", before=on_send)
    tracer.add("repro.runtime.transport:StreamTransport.send", "runtime.send", before=on_send)


def assert_untraced() -> None:
    """Refuse to time a pass while any trace target is still wrapped."""
    for path in (*TARGETS, *_HOOKED):
        try:
            owner, attr = resolve(path)
        except LookupError:
            continue
        if hasattr(getattr(owner, attr), "__wrapped__"):
            raise AssertionError(f"{path} is wrapped during a timed pass")


def _percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def metrics(
    prepared: Prepared,
    setup_scale: float,
    plain: tuple[list[Outcome], dict, Interval],
    traced: tuple[list[Outcome], dict, Interval],
    tracer: Tracer,
    seen: Observations,
    serial: Interval | None,
    unchecked: int,
) -> dict[str, float | None]:
    """Every per-layer metric of one traced run; ``None`` = not measurable.

    *plain* and *traced* are (outcomes, runner counters, measured interval)
    of the untraced and the traced pass; *serial* is the interval of the
    standalone reference pass on ``fleet-mux``.  Seconds are reference-host
    seconds (:mod:`perf.hostclock`): spans run on the work clock and are
    scaled by the traced pass's host-speed factor, set-up steps by
    *setup_scale*.
    """
    outcomes, extras, interval = plain
    _, _, traced_interval = traced
    events = sum(outcome.events for outcome in outcomes)
    scale = traced_interval.ref_s / traced_interval.work_s if traced_interval.work_s else 1.0
    names = tracer.names
    own = tracer.self_times()

    # attribute every span's self time to the monitor entry it runs under
    entry_of: list[str | None] = []
    for index, name in enumerate(names):
        parent = tracer.parents[index]
        if name in _ENTRIES:
            entry_of.append(name)
        else:
            entry_of.append(entry_of[parent] if parent is not None else None)
    by_name: dict[str, list[float]] = {}
    by_entry: dict[str, float] = {}
    tracer_s = 0.0
    for name, entry, seconds in zip(names, entry_of, own):
        bucket = by_name.setdefault(name, [0, 0.0])
        bucket[0] += 1
        bucket[1] += seconds
        if name.startswith("trace."):
            tracer_s += seconds
        elif entry is not None:
            by_entry[entry] = by_entry.get(entry, 0.0) + seconds

    def calls(*span_names: str) -> float:
        return float(sum(by_name.get(name, (0, 0.0))[0] for name in span_names))

    def self_s(*span_names: str) -> float:
        return scale * sum(by_name.get(name, (0, 0.0))[1] for name in span_names)

    def entry_s(name: str) -> float:
        return scale * by_entry.get(name, 0.0)

    def available(*paths: str) -> bool:
        return not any(path in tracer.missing for path in paths)

    pass_s = scale * (traced_interval.work_s - tracer_s)
    busy_s = sum(entry_s(name) for name in _ENTRIES)
    out: dict[str, float | None] = {}

    # host
    out["host.calib_s"] = interval.mean_burst_s
    out["host.events_per_wall_s"] = events / interval.work_s
    out["trace.overhead_x"] = traced_interval.ref_s / interval.ref_s
    out["check.unchecked_sessions"] = float(unchecked)

    # ltl and sim.workload: measured directly around the set-up calls
    out["ltl.synthesis_s"] = prepared.setup["synthesis_s"] * setup_scale
    out["ltl.compile_s"] = prepared.setup["compile_s"] * setup_scale
    out["ltl.states"] = prepared.setup["states"]
    out["ltl.table_entries"] = prepared.setup["table_entries"]
    out["sim.workload.generate_s"] = prepared.setup["generate_s"] * setup_scale
    out["sim.workload.events"] = prepared.setup["events"]
    out["sim.workload.comm_share"] = prepared.setup["comm_share"]

    step = [f"repro.ltl.compiled:CompiledMachine.{m}" for m in ("step", "step_letter", "run_batch")]
    stepping = available(*step)
    out["ltl.step_calls"] = calls("ltl.step") if stepping else None
    out["ltl.step_s"] = self_s("ltl.step") if stepping else None

    # core.monitor
    receive = available(f"{_MONITOR}.receive_message")
    out["core.monitor.serve_s"] = entry_s(_SERVE) if receive else None
    out["core.monitor.serve_calls"] = calls(_SERVE) if receive else None
    out["core.monitor.return_s"] = entry_s(_RETURN) if receive else None
    out["core.monitor.return_calls"] = calls(_RETURN) if receive else None
    out["core.monitor.termination_s"] = entry_s(_TERMINATION) if receive else None
    out["core.monitor.termination_calls"] = calls(_TERMINATION) if receive else None
    local = available(f"{_MONITOR}.local_event")
    out["core.monitor.local_event_s"] = entry_s(_LOCAL_EVENT) if local else None
    out["core.monitor.local_event_calls"] = calls(_LOCAL_EVENT) if local else None
    shares = receive and local and pass_s > 0
    out["core.monitor.busy_share"] = busy_s / pass_s if shares else None
    out["core.monitor.serve_share"] = entry_s(_SERVE) / pass_s if shares else None
    out["core.monitor.return_share"] = entry_s(_RETURN) / pass_s if shares else None

    counters = [monitor.metrics for monitor in seen.monitors.values()]
    have_counters = bool(counters)
    for name in (
        "tokens_created",
        "entries_created",
        "token_hops_served",
        "views_created",
        "views_merged",
        "delayed_events",
    ):
        out[f"core.monitor.{name}"] = (
            float(sum(getattr(c, name) for c in counters)) if have_counters else None
        )
    out["core.monitor.max_active_views"] = (
        float(max(c.max_active_views for c in counters)) if have_counters else None
    )
    tokens = out["core.monitor.tokens_created"]
    out["core.monitor.hops_per_token"] = (
        out["core.monitor.token_hops_served"] / tokens if tokens else None
    )
    out["core.monitor.entry_true_share"] = (
        seen.entries_true / seen.entries_returned if seen.entries_returned else None
    )

    # core.messages
    scan = available("repro.core.messages:TokenEntry.record_scan")
    out["core.messages.scans"] = calls("core.messages.scan") if scan else None
    out["core.messages.scans_per_event"] = calls("core.messages.scan") / events if scan else None
    out["core.messages.scan_s"] = self_s("core.messages.scan") if scan else None
    limit = _box_cell_limit()
    boxes = seen.box_cells
    out["core.messages.box_cells_p50"] = float(statistics.median(boxes)) if boxes else None
    out["core.messages.box_cells_max"] = float(max(boxes)) if boxes else None
    out["core.messages.box_over_limit_share"] = (
        sum(1 for cells in boxes if cells > limit) / len(boxes) if boxes else None
    )
    sizes = seen.token_bytes
    out["core.messages.token_bytes_p50"] = float(statistics.median(sizes)) if sizes else None
    out["core.messages.token_bytes_max"] = float(max(sizes)) if sizes else None

    # coordination
    routing = available(
        "repro.coordination.topology:RoundRobinToken.pick_target",
        "repro.coordination.topology:RoundRobinToken.next_hop",
    )
    out["coordination.pick_target_calls"] = calls("coordination.pick_target") if routing else None
    out["coordination.next_hop_calls"] = calls("coordination.next_hop") if routing else None
    out["coordination.route_s"] = (
        self_s("coordination.pick_target", "coordination.next_hop") if routing else None
    )

    # cluster.codec: what the transport itself encodes (tcp), and the wire
    # size of everything sent (the tracer's own encoding, on every backend)
    codec = available("repro.cluster.codec:encode_wire", "repro.cluster.codec:decode_wire")
    out["cluster.codec.encode_s"] = self_s("cluster.codec.encode") if codec else None
    out["cluster.codec.decode_s"] = self_s("cluster.codec.decode") if codec else None
    frames = seen.frame_bytes
    total_bytes = float(sum(frames))
    out["cluster.codec.frames"] = float(len(frames))
    out["cluster.codec.bytes_total"] = total_bytes
    out["cluster.codec.wire_bytes_per_event"] = total_bytes / events
    encode_s = scale * by_name.get("trace.encode", (0, 0.0))[1]
    out["cluster.codec.encode_mb_per_s"] = total_bytes / 1e6 / encode_s if encode_s else None

    # sim
    simulated = prepared.runner == "sim"
    out["sim.callbacks"] = calls("sim.schedule") if simulated else None
    out["sim.run_self_s"] = self_s("sim.run", "sim.schedule") if simulated else None
    out["sim.network.sends"] = calls("sim.network.send") if simulated else None
    out["sim.network.send_s"] = self_s("sim.network.send") if simulated else None
    program_s = sum(outcome.program_s for outcome in outcomes)
    out["sim.delay_pct"] = (
        100.0 * sum(outcome.extra_s for outcome in outcomes) / program_s
        if simulated and program_s
        else None
    )

    # runtime (asyncio backends, in this process)
    streaming = prepared.runner in ("tcp", "standalone")
    wall_scale = interval.ref_s / interval.wall_s
    out["runtime.wall_s"] = (
        wall_scale * sum(outcome.wall_s for outcome in outcomes) if streaming else None
    )
    out["runtime.sends"] = calls("runtime.send") if streaming else None
    out["runtime.send_s"] = self_s("runtime.send") if streaming else None
    out["runtime.overhead_share"] = 1.0 - busy_s / pass_s if streaming and shares else None

    # fleet
    tenants = prepared.runner in ("standalone", "fleet")
    latencies = [wall_scale * outcome.wall_s for outcome in outcomes]
    out["fleet.session_p50_s"] = _percentile(latencies, 0.5) if tenants else None
    out["fleet.session_p90_s"] = _percentile(latencies, 0.9) if tenants else None
    multiplexed = prepared.runner == "fleet"
    out["fleet.speedup_vs_serial"] = (
        serial.ref_s / interval.ref_s if multiplexed and serial is not None else None
    )
    for name in ("events_blocked", "events_dropped", "tenants_evicted"):
        out[f"fleet.{name}"] = extras.get(name) if multiplexed else None
    out["fleet.shard_skew"] = shard_skew(prepared) if multiplexed else None
    if multiplexed:
        # the shards are other processes: no span or hook of theirs got here
        for name in out:
            if not name.startswith(_VISIBLE_ACROSS_PROCESSES):
                out[name] = None
    return out


def _box_cell_limit() -> int:
    """The monitor's exact-search cell limit, read from ``core.monitor`` if present."""
    import repro.core.monitor as monitor_module

    return getattr(monitor_module, "_BOX_CELL_LIMIT", 20_000)
