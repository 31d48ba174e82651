"""The cluster worker: one monitor process, launched per manifest entry.

``python -m repro.cluster.worker --manifest <file> --process <id> --spec
<file>`` hosts exactly one :class:`repro.core.monitor.DecentralizedMonitor`
in its own OS process.  The worker regenerates its cell's computation from
the run spec (a pure function of scenario, property, scale and seed — no
events travel on the wire), binds its listening socket at its manifest
address, dials the coordinator's control address with bounded backoff, and
then follows the coordinator's command loop:

``hello``
    Sent by the worker on connect, carrying its monitor id and wire
    protocol version; the coordinator rejects mismatched versions before
    any monitoring traffic flows.
``start``
    Start the monitor and feed its own process's events in timestamp
    order, then the termination signal — the same schedule the in-process
    runners realise.
``status``
    Report the monotone sent/processed counters, inbox and outbox depth,
    whether the schedule has been fed, and any recorded failure; the
    coordinator's double-count termination check sums these across workers.
``collect``
    Return verdicts (as strings), monitor metrics and fault counters.
``shutdown``
    Drain the node task and exit cleanly.

Crash/restart fault plans ride the exact PR 4 seam: the spec's plan is
parsed locally and this worker's monitor is wrapped in the same
:class:`repro.faults.MonitorFaultProxy` every other backend uses, so a
schedule means the same thing here as on the simulator — just with the
process churn happening inside a real OS process.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from collections.abc import Sequence

from ..coordination import build_topology
from ..core.monitor import DecentralizedMonitor
from ..faults import FaultInjector, apply_clock_skew
from . import codec
from .manifest import ClusterManifest, load_manifest
from .spec import RunSpec, build_cell_inputs
from .transport import (
    BACKOFF_ATTEMPTS,
    BACKOFF_CAP,
    BACKOFF_INITIAL,
    WorkerTransport,
    read_control_async,
)

__all__ = ["run_worker", "main"]


async def _dial_coordinator(
    manifest: ClusterManifest,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Connect to the coordinator's control address with bounded backoff."""
    endpoint = manifest.coordinator
    delay = BACKOFF_INITIAL
    for attempt in range(BACKOFF_ATTEMPTS):
        try:
            return await asyncio.open_connection(endpoint.host, endpoint.port)
        except OSError as error:
            if attempt == BACKOFF_ATTEMPTS - 1:
                raise ConnectionError(
                    f"cannot reach the coordinator at {endpoint} after "
                    f"{BACKOFF_ATTEMPTS} attempts: {error}"
                ) from error
            await asyncio.sleep(delay)
            delay = min(delay * 2, BACKOFF_CAP)
    raise AssertionError("unreachable")  # pragma: no cover


async def run_worker(manifest: ClusterManifest, process: int, spec: RunSpec) -> None:
    """Host monitor *process* of the run *spec* until the coordinator says stop."""
    from ..runtime.node import StreamMonitorNode

    computation, automaton, registry = build_cell_inputs(spec)
    n = spec.num_processes
    plan = spec.faults()
    skew_stats: dict[str, float] = {}
    if plan is not None and plan.clock_skew is not None:
        # every worker regenerates the full computation, so every worker
        # applies the identical deterministic skew; only worker 0 reports
        # the counters (the coordinator sums per-worker fault stats)
        computation, skew_stats = apply_clock_skew(computation, plan.clock_skew)
    initial_letters = [
        registry.local_letter(i, computation.initial_states[i]) for i in range(n)
    ]
    transport = WorkerTransport(manifest, process)
    # deterministic in (name, n, formula ownership): every worker that
    # builds from the same spec makes identical routing decisions
    route = build_topology(spec.topology, n, registry=registry)

    def make_monitor() -> DecentralizedMonitor:
        return DecentralizedMonitor(
            process=process,
            num_processes=n,
            automaton=automaton,
            registry=registry,
            initial_letters=initial_letters,
            transport=transport,
            max_views_per_state=spec.max_views_per_state,
            use_compiled_kernel=spec.compiled_kernel,
            topology=route,
        )

    injector: FaultInjector | None = None
    if plan is not None and not plan.is_noop(n):
        injector = FaultInjector(plan, n)
        endpoint = injector.wrap(process, make_monitor)
    else:
        endpoint = make_monitor()

    node = StreamMonitorNode(endpoint, transport)
    transport.attach(node)
    await transport.start()
    task = node.start_task()
    fed = False

    reader, writer = await _dial_coordinator(manifest)
    try:
        writer.write(
            codec.encode_control(
                {"kind": "hello", "process": process, "version": codec.PROTOCOL_VERSION}
            )
        )
        await writer.drain()
        while True:
            command = await read_control_async(reader)
            if command is None:  # coordinator went away: stop hosting
                return
            kind = command.get("kind")
            if kind == "start":
                endpoint.start()
                events = sorted(
                    (e for e in computation.all_events() if e.process == process),
                    key=lambda e: e.timestamp,
                )
                for event in events:
                    node.enqueue_event(event)
                node.enqueue_termination()
                fed = True
                reply: dict[str, object] = {"kind": "started"}
            elif kind == "status":
                failure = node.failure() or transport.fatal_error
                reply = {
                    "kind": "status",
                    "fed": fed,
                    "error": None if failure is None else repr(failure),
                    **transport.status(),
                }
            elif kind == "collect":
                metrics = endpoint.metrics
                reply = {
                    "kind": "result",
                    "process": process,
                    "total_events": computation.num_events,
                    "declared": sorted(str(v) for v in endpoint.declared_verdicts),
                    "reported": sorted(str(v) for v in endpoint.reported_verdicts()),
                    "token_messages": metrics.token_messages_sent,
                    "termination_messages": metrics.termination_messages_sent,
                    "digest_messages": metrics.digest_messages_sent,
                    "views_created": metrics.views_created,
                    "delayed_events": metrics.delayed_events,
                    "sent": transport.sent_count,
                    "processed": transport.processed_count,
                    "wire_bytes": transport.wire_bytes_sent,
                    "fault_stats": {
                        **(injector.fault_stats() if injector else {}),
                        **(skew_stats if process == 0 else {}),
                    },
                }
            elif kind == "shutdown":
                return
            else:
                reply = {"kind": "error", "error": f"unknown command {kind!r}"}
            writer.write(codec.encode_control(reply))
            await writer.drain()
    finally:
        node.enqueue_stop()
        await asyncio.gather(task, return_exceptions=True)
        await transport.aclose()
        writer.close()


def build_parser() -> argparse.ArgumentParser:
    """The worker's command-line interface."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--manifest", required=True, help="cluster manifest file (TOML or JSON)"
    )
    parser.add_argument(
        "--process", type=int, required=True, help="monitor id this worker hosts"
    )
    parser.add_argument("--spec", required=True, help="run spec file (JSON)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``python -m repro.cluster.worker``."""
    args = build_parser().parse_args(argv)
    manifest = load_manifest(args.manifest)
    spec = RunSpec.load(args.spec)
    if not 0 <= args.process < manifest.num_workers:
        print(
            f"error: --process {args.process} not in the manifest "
            f"(workers 0..{manifest.num_workers - 1})",
            file=sys.stderr,
        )
        return 2
    asyncio.run(run_worker(manifest, args.process, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
